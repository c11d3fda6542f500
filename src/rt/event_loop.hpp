// Single-threaded poll(2) event loop driving the runtime's TCP
// connections — small enough to audit, with the three properties the
// round state machines rely on:
//
//   * nonblocking writes behind a bounded per-connection send queue: a
//     peer that stops reading can delay only its own traffic, and a
//     queue overrunning kMaxSendQueue marks the connection dead instead
//     of growing without bound;
//   * per-frame dispatch: complete frames (rt::FrameDecoder) are handed
//     to the frame handler one at a time, in arrival order;
//   * lingering closes: a connection we close sends everything queued,
//     then its FIN, and is torn down only at the peer's EOF, so a peer
//     still writing never meets a reset that would eat our last frame;
//   * deterministic one-shot timers on the monotonic clock, fired in
//     (deadline, insertion) order — the coordinator's phase timeouts.
//
// Loopback only by construction: sockets bind/connect 127.0.0.1. The
// runtime is a measurement harness, not an internet-facing service.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "rt/frame.hpp"

namespace mpciot::rt {

/// Monotonic clock, milliseconds.
std::int64_t steady_now_ms();

/// One nonblocking TCP connection with a bounded send queue.
class Connection {
 public:
  /// Queue bound: one full round of relayed shares for the largest
  /// group is ~120 KiB; 4 MiB absorbs bursts while still catching a
  /// wedged peer quickly.
  static constexpr std::size_t kMaxSendQueue = 4 * 1024 * 1024;

  /// Takes ownership of `fd` (already connected) and makes it
  /// nonblocking.
  explicit Connection(int fd, std::uint64_t id);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  /// Queue one frame. Attempts an eager flush; returns false (and marks
  /// the connection dead) if the queue bound would be exceeded or the
  /// socket failed.
  bool send_frame(FrameType type, const Bytes& payload);

  /// Flush as much queued output as the socket accepts. Returns false
  /// on a fatal socket error (connection marked dead).
  bool flush();

  bool wants_write() const { return out_.size() > offset_; }
  bool dead() const { return dead_; }
  void mark_dead() { dead_ = true; }

  /// Close once the send queue drains (used for Refuse / Shutdown). The
  /// close lingers: the drained queue is followed by shutdown(SHUT_WR),
  /// and input is read and dropped until the peer's EOF, so a peer still
  /// sending reads everything we queued instead of a reset.
  void close_when_flushed();
  bool closing() const { return close_when_flushed_; }

  FrameDecoder& decoder() { return decoder_; }

  /// Read whatever the socket holds into the frame decoder. Returns
  /// false on EOF or a fatal error (connection marked dead).
  bool read_some();

 private:
  int fd_;
  std::uint64_t id_;
  Bytes out_;
  std::size_t offset_ = 0;  ///< bytes of out_ already written
  FrameDecoder decoder_;
  bool dead_ = false;
  bool close_when_flushed_ = false;
};

/// The loop. Handlers are plain std::functions set once before run().
class EventLoop {
 public:
  using FrameHandler = std::function<void(std::uint64_t conn, Frame&&)>;
  using ConnHandler = std::function<void(std::uint64_t conn)>;
  using TimerFn = std::function<void()>;

  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Bind + listen on 127.0.0.1:`port` (0 = ephemeral). Returns the
  /// actually bound port. Call at most once.
  std::uint16_t listen_local(std::uint16_t port);

  /// Connect to 127.0.0.1:`port` (blocking connect, then nonblocking).
  /// Returns the connection id, or nullopt on failure.
  std::optional<std::uint64_t> connect_local(std::uint16_t port);

  void set_on_frame(FrameHandler h) { on_frame_ = std::move(h); }
  void set_on_accept(ConnHandler h) { on_accept_ = std::move(h); }
  /// Fired once per connection on EOF, fatal error, framing corruption,
  /// or queue overrun — after the connection is unregistered, so
  /// send_frame(conn) inside the handler is a no-op returning false.
  /// Not fired for a connection closed through close_after_flush.
  void set_on_close(ConnHandler h) { on_close_ = std::move(h); }

  /// Queue a frame on `conn`. Returns false if the connection is gone
  /// or its queue overran (the close handler will fire next tick).
  bool send_frame(std::uint64_t conn, FrameType type, const Bytes& payload);

  /// Close `conn` once its pending output drains and the peer closes
  /// its side (see Connection::close_when_flushed). Its frames are no
  /// longer dispatched.
  void close_after_flush(std::uint64_t conn);

  /// One-shot timer `delay_ms` from now; returns a cancel token.
  std::uint64_t add_timer(std::int64_t delay_ms, TimerFn fn);
  void cancel_timer(std::uint64_t token);

  std::size_t connection_count() const { return conns_.size(); }

  /// Run until stop(). Dispatches, in each tick: due timers, readable
  /// frames, writable flushes, closes.
  void run();
  void stop() { stopped_ = true; }

 private:
  struct Timer {
    std::uint64_t token;
    TimerFn fn;
  };

  Connection* find(std::uint64_t conn);
  void accept_pending();
  void reap(std::uint64_t conn);

  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::multimap<std::int64_t, Timer> timers_;  ///< deadline_ms -> timer
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_timer_token_ = 1;
  bool stopped_ = false;
  FrameHandler on_frame_;
  ConnHandler on_accept_;
  ConnHandler on_close_;
};

}  // namespace mpciot::rt
