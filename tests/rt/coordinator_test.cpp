// The coordinator's join rule: one connection speaks for one node id. A
// second Hello on a connection that already joined must bind nothing,
// so the real node with that id still joins. The coordinator runs in
// this process on a thread; the nodes are plain blocking client sockets.
#include "rt/coordinator.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "rt/frame.hpp"
#include "rt/messages.hpp"

namespace mpciot::rt {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kDeploymentSeed = 7;

/// A blocking client socket connected to 127.0.0.1:`port` whose reads
/// give up after 5 s, or -1.
int connect_client(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Send a Hello for `node` of this deployment; false on any socket error.
bool send_hello(int fd, NodeId node) {
  Hello hello;
  hello.generation = 1;
  hello.node = node;
  hello.node_count = kNodes;
  hello.deployment_seed = kDeploymentSeed;
  Bytes wire;
  encode_frame(FrameType::kHello, hello.encode(), wire);
  return ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(wire.size());
}

/// The first frame the coordinator sends on `fd`; nullopt on EOF, a
/// socket error or the read timeout.
std::optional<Frame> first_frame(int fd) {
  FrameDecoder decoder;
  std::uint8_t buf[256];
  for (;;) {
    if (std::optional<Frame> frame = decoder.next()) return frame;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

TEST(Coordinator, SecondHelloOnAJoinedConnectionBindsNoId) {
  CoordinatorConfig cfg;
  cfg.node_count = kNodes;
  cfg.rounds = 1;
  cfg.deployment_seed = kDeploymentSeed;
  cfg.t1_straggler_ms = 100;
  cfg.t2_finalize_ms = 200;
  // Bounds the run if the nodes never all join.
  cfg.join_timeout_ms = 5000;
  Coordinator coordinator(cfg);
  const std::uint16_t port = coordinator.bind();
  // run() ends by itself: every node hangs up below, T2 finalizes the
  // one round, and the campaign shuts down (or the join times out).
  std::thread loop([&] { coordinator.run(nullptr); });

  // A joins as node 0, then claims node 1 on the same connection. The
  // pause lets the coordinator read both before anyone else connects.
  const int a = connect_client(port);
  const bool a_sent = a >= 0 && send_hello(a, 0) && send_hello(a, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // B, C and D are the real nodes 1, 2 and 3.
  int others[3] = {-1, -1, -1};
  bool others_sent = true;
  for (NodeId i = 0; i < 3; ++i) {
    others[i] = connect_client(port);
    others_sent = others_sent && others[i] >= 0 &&
                  send_hello(others[i], i + 1);
  }
  const std::optional<Frame> b_first =
      others_sent ? first_frame(others[0]) : std::nullopt;

  if (a >= 0) close(a);
  for (const int fd : others) {
    if (fd >= 0) close(fd);
  }
  loop.join();

  ASSERT_TRUE(a_sent);
  ASSERT_TRUE(others_sent);
  ASSERT_TRUE(b_first.has_value());
  EXPECT_EQ(b_first->type, FrameType::kAssign)
      << "node 1 got frame type " << static_cast<int>(b_first->type);
  EXPECT_EQ(coordinator.refused_hellos(), 1u);
}

}  // namespace
}  // namespace mpciot::rt
