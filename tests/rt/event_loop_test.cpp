// The rt event loop's lingering close. A connection closed through
// close_after_flush sends what it queued, then its FIN, and keeps
// reading (and dropping) the peer's input until the peer's EOF. A peer
// that is still writing when the close lands — a node still dealing
// when the coordinator finishes the campaign — must read the last frame
// and a clean EOF, and none of its sends may fail on a reset.
#include "rt/event_loop.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <optional>

#include "rt/frame.hpp"

namespace mpciot::rt {
namespace {

/// A plain nonblocking client socket connected to 127.0.0.1:`port`
/// (the peer side, outside any EventLoop), or -1.
int connect_raw(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// One whole frame in one send; false on any socket error.
bool send_frame_raw(int fd, FrameType type, const Bytes& payload) {
  Bytes wire;
  encode_frame(type, payload, wire);
  return ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(wire.size());
}

TEST(EventLoop, PeerStillSendingAfterCloseReadsTheLastFrameThenEof) {
  EventLoop server;
  const std::uint16_t port = server.listen_local(0);
  const int peer = connect_raw(port);
  ASSERT_GE(peer, 0);

  // The server answers the first frame with Shutdown and closes.
  int dispatched = 0;
  int close_events = 0;
  server.set_on_frame([&](std::uint64_t conn, Frame&&) {
    ++dispatched;
    server.send_frame(conn, FrameType::kShutdown, Bytes{});
    server.close_after_flush(conn);
  });
  server.set_on_close([&](std::uint64_t) { ++close_events; });
  ASSERT_TRUE(send_frame_raw(peer, FrameType::kShareFwd, Bytes(32, 0xAB)));

  // The peer keeps sending well after the close, as a node that is
  // still dealing does.
  int send_errors = 0;
  for (int i = 1; i <= 4; ++i) {
    server.add_timer(25 * i, [&] {
      if (!send_frame_raw(peer, FrameType::kShareFwd, Bytes(32, 0xCD))) {
        ++send_errors;
      }
    });
  }

  // Then it reads what the server sent until EOF or an error, and
  // closes its side; the server stops once it has torn down.
  FrameDecoder decoder;
  bool eof = false;
  int read_errno = 0;
  std::function<void()> stop_when_drained = [&] {
    if (server.connection_count() == 0) {
      server.stop();
      return;
    }
    server.add_timer(10, stop_when_drained);
  };
  std::function<void()> read_to_eof = [&] {
    std::uint8_t buf[256];
    for (;;) {
      const ssize_t n = ::recv(peer, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        server.add_timer(10, read_to_eof);  // nothing yet: poll again
        return;
      }
      if (n == 0) eof = true;
      if (n < 0) read_errno = errno;
      break;
    }
    close(peer);
    stop_when_drained();
  };
  server.add_timer(150, read_to_eof);
  server.add_timer(5000, [&] { server.stop(); });
  server.run();

  EXPECT_EQ(send_errors, 0);
  EXPECT_EQ(read_errno, 0) << std::strerror(read_errno);
  const std::optional<Frame> last = decoder.next();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, FrameType::kShutdown);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(eof);
  // Frames that arrive after the close are dropped, the peer's EOF
  // tears the connection down, and a close we asked for is no event.
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_EQ(close_events, 0);
}

}  // namespace
}  // namespace mpciot::rt
