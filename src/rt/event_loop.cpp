#include "rt/event_loop.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace mpciot::rt {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  MPCIOT_ENSURE(flags >= 0, "rt: fcntl(F_GETFL)");
  MPCIOT_ENSURE(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "rt: fcntl(F_SETFL)");
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

std::int64_t steady_now_ms() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

Connection::Connection(int fd, std::uint64_t id) : fd_(fd), id_(id) {
  set_nonblocking(fd_);
  // Latency matters more than packet count for the tiny control frames.
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::send_frame(FrameType type, const Bytes& payload) {
  if (dead_ || close_when_flushed_) return false;
  encode_frame(type, payload, out_);
  if (out_.size() - offset_ > kMaxSendQueue) {
    dead_ = true;
    return false;
  }
  return flush();
}

bool Connection::flush() {
  if (dead_) return false;
  while (offset_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + offset_,
                             out_.size() - offset_, MSG_NOSIGNAL);
    if (n > 0) {
      offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    dead_ = true;
    return false;
  }
  if (offset_ == out_.size() && offset_ > 0) {
    out_.clear();
    offset_ = 0;
  }
  if (close_when_flushed_ && !wants_write()) ::shutdown(fd_, SHUT_WR);
  return true;
}

void Connection::close_when_flushed() {
  close_when_flushed_ = true;
  flush();
}

bool Connection::read_some() {
  if (dead_) return false;
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      // A closing connection drops its input instead of dispatching it.
      if (!close_when_flushed_) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    dead_ = true;  // EOF (n == 0) or fatal error
    return false;
  }
}

EventLoop::~EventLoop() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

std::uint16_t EventLoop::listen_local(std::uint16_t port) {
  MPCIOT_REQUIRE(listen_fd_ < 0, "rt: listen_local called twice");
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  MPCIOT_ENSURE(listen_fd_ >= 0, "rt: socket()");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  MPCIOT_ENSURE(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
                "rt: bind(127.0.0.1)");
  MPCIOT_ENSURE(listen(listen_fd_, 512) == 0, "rt: listen()");
  socklen_t len = sizeof(addr);
  MPCIOT_ENSURE(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0,
                "rt: getsockname()");
  set_nonblocking(listen_fd_);
  return ntohs(addr.sin_port);
}

std::optional<std::uint64_t> EventLoop::connect_local(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr = loopback_addr(port);
  for (;;) {
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    close(fd);
    return std::nullopt;
  }
  const std::uint64_t id = next_conn_id_++;
  conns_.push_back(std::make_unique<Connection>(fd, id));
  return id;
}

Connection* EventLoop::find(std::uint64_t conn) {
  for (auto& c : conns_) {
    if (c->id() == conn) return c.get();
  }
  return nullptr;
}

bool EventLoop::send_frame(std::uint64_t conn, FrameType type,
                           const Bytes& payload) {
  Connection* c = find(conn);
  if (c == nullptr) return false;
  return c->send_frame(type, payload);
}

void EventLoop::close_after_flush(std::uint64_t conn) {
  Connection* c = find(conn);
  if (c != nullptr) c->close_when_flushed();
}

std::uint64_t EventLoop::add_timer(std::int64_t delay_ms, TimerFn fn) {
  const std::uint64_t token = next_timer_token_++;
  timers_.emplace(steady_now_ms() + std::max<std::int64_t>(0, delay_ms),
                  Timer{token, std::move(fn)});
  return token;
}

void EventLoop::cancel_timer(std::uint64_t token) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.token == token) {
      timers_.erase(it);
      return;
    }
  }
}

void EventLoop::accept_pending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient
    }
    const std::uint64_t id = next_conn_id_++;
    conns_.push_back(std::make_unique<Connection>(fd, id));
    if (on_accept_) on_accept_(id);
  }
}

void EventLoop::reap(std::uint64_t conn) {
  const auto it = std::find_if(
      conns_.begin(), conns_.end(),
      [conn](const std::unique_ptr<Connection>& c) {
        return c->id() == conn;
      });
  if (it == conns_.end()) return;
  const bool asked = (*it)->closing();
  conns_.erase(it);  // unregister first: handler sees it gone
  if (!asked && on_close_) on_close_(conn);
}

void EventLoop::run() {
  stopped_ = false;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;
  while (!stopped_) {
    // 1. Fire due timers (deadline order; re-check stop between).
    const std::int64_t now = steady_now_ms();
    while (!timers_.empty() && timers_.begin()->first <= now && !stopped_) {
      TimerFn fn = std::move(timers_.begin()->second.fn);
      timers_.erase(timers_.begin());
      fn();
    }
    if (stopped_) break;

    // 2. Poll.
    fds.clear();
    ids.clear();
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      ids.push_back(0);
    }
    for (const auto& c : conns_) {
      short events = POLLIN;
      if (c->wants_write()) events |= POLLOUT;
      fds.push_back(pollfd{c->fd(), events, 0});
      ids.push_back(c->id());
    }
    int timeout_ms = 1000;
    if (!timers_.empty()) {
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          timers_.begin()->first - now, 0, 1000));
    }
    const int nready = poll(fds.data(), static_cast<nfds_t>(fds.size()),
                            timeout_ms);
    if (nready < 0 && errno != EINTR) {
      MPCIOT_ENSURE(false, "rt: poll() failed");
    }
    if (nready <= 0) continue;

    // 3. Dispatch. Connections may be added by handlers (accept) but
    //    are only removed in step 4, so indices into `ids` stay valid.
    for (std::size_t i = 0; i < fds.size() && !stopped_; ++i) {
      if (fds[i].revents == 0) continue;
      if (ids[i] == 0) {
        accept_pending();
        continue;
      }
      Connection* c = find(ids[i]);
      if (c == nullptr) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Drain what the kernel still buffers before declaring EOF.
        c->read_some();
      } else if (fds[i].revents & POLLIN) {
        c->read_some();
      }
      while (!stopped_ && !c->closing()) {
        std::optional<Frame> f = c->decoder().next();
        if (!f.has_value()) break;
        if (on_frame_) on_frame_(ids[i], std::move(*f));
        c = find(ids[i]);  // handler may have closed it
        if (c == nullptr) break;
      }
      if (c != nullptr && c->decoder().corrupt()) c->mark_dead();
      if (c != nullptr && (fds[i].revents & POLLOUT)) c->flush();
    }

    // 4. Reap dead connections (a lingering close dies at the peer's
    //    EOF).
    std::vector<std::uint64_t> to_reap;
    for (const auto& c : conns_) {
      if (c->dead()) to_reap.push_back(c->id());
    }
    for (const std::uint64_t id : to_reap) reap(id);
  }
}

}  // namespace mpciot::rt
