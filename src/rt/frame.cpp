#include "rt/frame.hpp"

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace mpciot::rt {

bool frame_type_known(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kShutdown);
}

void encode_frame(FrameType type, const Bytes& payload, Bytes& out) {
  MPCIOT_REQUIRE(payload.size() <= kMaxPayload, "rt: frame payload too big");
  append_le(out, kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  append_le(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (corrupt_) return;
  // Compact lazily: drop fully-consumed prefix before appending so the
  // buffer stays bounded by one maximal frame plus the incoming chunk.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  if (corrupt_) return std::nullopt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderSize) return std::nullopt;
  const std::uint8_t* h = buffer_.data() + consumed_;
  const std::uint8_t type = h[3];
  const auto length = load_le<std::uint32_t>(h + 4);
  if (load_le<std::uint16_t>(h) != kMagic || h[2] != kVersion ||
      !frame_type_known(type) || length > kMaxPayload) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (avail < kHeaderSize + length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(h + kHeaderSize, h + kHeaderSize + length);
  consumed_ += kHeaderSize + length;
  return frame;
}

}  // namespace mpciot::rt
