// Length-prefixed typed framing for the distributed runtime's TCP
// streams. Every frame is
//
//   offset  size  field
//   0       2     magic 0x4D43 ("CM"), little-endian
//   2       1     protocol version (kVersion)
//   3       1     frame type (FrameType)
//   4       4     payload length, little-endian
//   8       len   payload
//
// Multi-byte fields go through common/bytes, like core::wire, so
// heterogeneous hosts interoperate. The decoder is an incremental
// byte-stream consumer (TCP gives arbitrary read boundaries) with hard
// rejects: a bad magic, unknown version or type, or a length above
// kMaxPayload poisons the stream permanently — a desynchronized peer
// cannot be trusted to resynchronize, the connection must be dropped.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace mpciot::rt {

inline constexpr std::uint16_t kMagic = 0x4D43;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 8;
/// Hard cap on a frame payload. The largest legitimate payload is an
/// Assign for a 64-source group (a few hundred bytes); 64 KiB leaves
/// headroom for future messages while bounding a malicious peer's
/// memory commitment per connection.
inline constexpr std::uint32_t kMaxPayload = 64 * 1024;

enum class FrameType : std::uint8_t {
  kHello = 1,       ///< node -> coordinator: join a generation
  kRefuse = 2,      ///< coordinator -> node: join rejected, close
  kAssign = 3,      ///< coordinator -> node: group round spec
  kRoundStart = 4,  ///< coordinator -> nodes: begin round r
  kShareFwd = 5,    ///< node <-> coordinator: relayed SharePacket
  kSumReport = 6,   ///< holder -> coordinator: SumPacket
  kSumRequest = 7,  ///< coordinator -> holder: report now (straggler)
  kRoundResult = 8, ///< coordinator -> nodes: round outcome
  kShutdown = 9,    ///< coordinator -> nodes: campaign over, exit
};

/// True iff `t` names a FrameType the decoder accepts.
bool frame_type_known(std::uint8_t t);

struct Frame {
  FrameType type = FrameType::kHello;
  Bytes payload;
};

/// Append one encoded frame (header + payload) to `out`.
/// Precondition: payload.size() <= kMaxPayload.
void encode_frame(FrameType type, const Bytes& payload, Bytes& out);

/// Incremental frame decoder over a TCP byte stream.
class FrameDecoder {
 public:
  /// Append received bytes. No-op once the stream is poisoned.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Extract the next complete frame, or nullopt if more bytes are
  /// needed or the stream is poisoned (check corrupt()).
  std::optional<Frame> next();

  /// The stream violated the framing contract; drop the connection.
  bool corrupt() const { return corrupt_; }

  /// Bytes currently buffered (bounded by kHeaderSize + kMaxPayload:
  /// next() must be drained between feeds; feed() itself never grows
  /// the buffer past one maximal frame plus the fed chunk).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Bytes buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

}  // namespace mpciot::rt
