// Deterministic fuzz loop for the rt frame decoder and the control
// message codecs: random buffers in random-sized chunks, truncations,
// oversized length fields, and exhaustive single-bit flips of valid
// frames. The decoder must reject cleanly (incomplete or poisoned) —
// never trap, read out of bounds, or emit a frame violating the header
// contract. derive_seed-keyed so a failing case replays from its
// printed index; the ASan/UBSan CI matrix checks the "never UB" half.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "core/roles.hpp"
#include "crypto/prng.hpp"
#include "rt/frame.hpp"
#include "rt/messages.hpp"

namespace mpciot::rt {
namespace {

using crypto::Xoshiro256;
using crypto::derive_seed;

constexpr std::uint64_t kBase = 0x52544655ull;  // "RTFU"

Bytes random_bytes(std::size_t size, Xoshiro256& rng) {
  Bytes out(size);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return out;
}

/// Feed `stream` in random chunks, draining frames between feeds (the
/// decoder's buffered() bound assumes a draining reader). Returns every
/// decoded frame.
std::vector<Frame> run_decoder(FrameDecoder& decoder, const Bytes& stream,
                               Xoshiro256& rng) {
  std::vector<Frame> frames;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t chunk =
        1 + rng.next_below(std::min<std::uint64_t>(stream.size() - pos, 97));
    decoder.feed(stream.data() + pos, chunk);
    pos += chunk;
    for (auto f = decoder.next(); f.has_value(); f = decoder.next()) {
      frames.push_back(std::move(*f));
    }
  }
  return frames;
}

TEST(CodecFuzz, RandomStreamsNeverProduceContractViolatingFrames) {
  constexpr int kCases = 2000;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 1, c));
    const Bytes stream = random_bytes(rng.next_below(512), rng);
    FrameDecoder decoder;
    const auto frames = run_decoder(decoder, stream, rng);
    for (const Frame& f : frames) {
      EXPECT_TRUE(frame_type_known(static_cast<std::uint8_t>(f.type)))
          << "case " << c;
      EXPECT_LE(f.payload.size(), kMaxPayload) << "case " << c;
    }
    // A random stream essentially never starts with the magic; it must
    // poison quickly rather than buffer unboundedly.
    EXPECT_LE(decoder.buffered(), kHeaderSize + kMaxPayload + 512);
  }
}

TEST(CodecFuzz, ValidFramesSurviveAnyChunking) {
  constexpr int kCases = 400;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 2, c));
    // A burst of 1..8 random valid frames of random sizes.
    const std::size_t count = 1 + rng.next_below(8);
    Bytes stream;
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < count; ++i) {
      const auto type = static_cast<FrameType>(1 + rng.next_below(9));
      const Bytes payload = random_bytes(rng.next_below(300), rng);
      sizes.push_back(payload.size());
      encode_frame(type, payload, stream);
    }
    FrameDecoder decoder;
    const auto frames = run_decoder(decoder, stream, rng);
    ASSERT_EQ(frames.size(), count) << "case " << c;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(frames[i].payload.size(), sizes[i]) << "case " << c;
    }
    EXPECT_FALSE(decoder.corrupt()) << "case " << c;
  }
}

TEST(CodecFuzz, OversizedLengthAlwaysPoisons) {
  for (int c = 0; c < 300; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 3, c));
    Bytes header;
    append_le(header, kMagic);
    header.push_back(kVersion);
    header.push_back(static_cast<std::uint8_t>(1 + rng.next_below(9)));
    append_le(header,
              kMaxPayload + 1 +
                  static_cast<std::uint32_t>(rng.next_below(0x7FFF0000u)));
    FrameDecoder decoder;
    decoder.feed(header.data(), header.size());
    EXPECT_FALSE(decoder.next().has_value()) << "case " << c;
    EXPECT_TRUE(decoder.corrupt()) << "case " << c;
  }
}

TEST(CodecFuzz, HeaderBitFlipsRejectCleanly) {
  // Exhaustive over the 64 header bit positions for a spread of frames:
  // flips in magic or version always poison; flips in the type byte
  // poison exactly when they leave the known range; flips in the length
  // leave the decoder waiting or reading a shorter frame — never UB,
  // and never a frame whose length exceeds the cap.
  constexpr int kCases = 100;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 4, c));
    const auto type = static_cast<FrameType>(1 + rng.next_below(9));
    Bytes wire;
    encode_frame(type, random_bytes(rng.next_below(200), rng), wire);
    for (std::size_t bit = 0; bit < 8 * kHeaderSize; ++bit) {
      Bytes flipped = wire;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      FrameDecoder decoder;
      decoder.feed(flipped.data(), flipped.size());
      const auto frame = decoder.next();
      if (bit < 24) {  // magic or version
        EXPECT_FALSE(frame.has_value()) << "case " << c << " bit " << bit;
        EXPECT_TRUE(decoder.corrupt()) << "case " << c << " bit " << bit;
      } else if (bit < 32) {  // type byte
        EXPECT_EQ(decoder.corrupt(),
                  !frame_type_known(flipped[3]))
            << "case " << c << " bit " << bit;
      } else if (frame.has_value()) {  // length: shorter frame decoded
        EXPECT_LT(frame->payload.size(), wire.size() - kHeaderSize)
            << "case " << c << " bit " << bit;
      }
    }
  }
}

/// An Assign that decoded is a spec the daemons' roles accept.
void expect_valid_spec(const Assign& assign, int c) {
  core::roles::RoundSpec spec;
  spec.sources = assign.sources;
  spec.holders = assign.holders;
  spec.degree = assign.degree;
  EXPECT_NO_THROW(core::roles::validate(spec)) << "case " << c;
}

TEST(CodecFuzz, MessageDecodersSurviveRandomPayloads) {
  constexpr int kCases = 3000;
  int near_accepted = 0;
  int near_rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 5, c));
    const Bytes payload = random_bytes(rng.next_below(96), rng);
    // Every decoder must reject-or-accept without reading out of
    // bounds; accepted Assigns must satisfy the spec invariants the
    // daemons rely on.
    (void)Hello::decode(payload);
    (void)Refuse::decode(payload);
    (void)RoundStart::decode(payload);
    (void)ShareFwd::decode(payload);
    (void)SumReport::decode(payload);
    (void)SumRequest::decode(payload);
    (void)RoundResult::decode(payload);
    (void)Shutdown::decode(payload);
    const auto assign = Assign::decode(payload);
    if (assign.has_value()) expect_valid_spec(*assign, c);

    // Random bytes almost never frame an Assign. Well-framed ones with
    // random degrees and ids from a small range (repeats are common)
    // reach every spec check.
    Assign near;
    near.degree = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    for (auto* list : {&near.sources, &near.holders}) {
      for (std::uint64_t i = 1 + rng.next_below(8); i > 0; --i) {
        list->push_back(static_cast<NodeId>(rng.next_below(8)));
      }
    }
    const auto decoded = Assign::decode(near.encode());
    if (decoded.has_value()) {
      expect_valid_spec(*decoded, c);
      ++near_accepted;
    } else {
      ++near_rejected;
    }
  }
  EXPECT_GT(near_accepted, 0);
  EXPECT_GT(near_rejected, 0);
}

/// Each message's fields, listed here rather than read through the
/// codec under test, so a decode that drops or swaps a field shows.
auto values_of(const Hello& m) {
  return std::tuple{m.generation, m.node, m.node_count, m.deployment_seed};
}
auto values_of(const Refuse& m) { return std::tuple{m.generation}; }
auto values_of(const Assign& m) {
  return std::tuple{m.group, m.degree, m.sources, m.holders};
}
auto values_of(const RoundStart& m) { return std::tuple{m.round}; }
auto values_of(const ShareFwd& m) { return std::tuple{m.dst, m.packet}; }
auto values_of(const SumReport& m) { return std::tuple{m.packet}; }
auto values_of(const SumRequest& m) { return std::tuple{m.round}; }
auto values_of(const RoundResult& m) {
  return std::tuple{m.round, m.ok, m.aggregate};
}
auto values_of(const Shutdown&) { return std::tuple{}; }

/// A valid message decodes to itself; every strict prefix and every
/// one-byte extension of its payload rejects.
template <typename Message>
void expect_exact_payload(const Message& m, Xoshiro256& rng, int c) {
  const Bytes wire = m.encode();
  const auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.has_value()) << "case " << c;
  EXPECT_EQ(values_of(*decoded), values_of(m)) << "case " << c;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const Bytes cut(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(Message::decode(cut).has_value())
        << "case " << c << " len " << len;
  }
  Bytes longer = wire;
  longer.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  EXPECT_FALSE(Message::decode(longer).has_value()) << "case " << c;
}

TEST(CodecFuzz, MessageTruncationsAlwaysReject) {
  for (int c = 0; c < 200; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 6, c));
    Assign assign;
    assign.group = static_cast<std::uint32_t>(rng.next_below(100));
    assign.degree = 1 + static_cast<std::uint32_t>(rng.next_below(2));
    const std::size_t n = assign.degree + 2 + rng.next_below(20);
    for (std::size_t i = 0; i < n; ++i) {
      assign.sources.push_back(static_cast<NodeId>(i));
      assign.holders.push_back(static_cast<NodeId>(i));
    }
    expect_exact_payload(assign, rng, c);

    const auto u16 = [&] { return static_cast<std::uint16_t>(rng.next_u64()); };
    const auto u32 = [&] { return static_cast<std::uint32_t>(rng.next_u64()); };
    Hello hello;
    hello.generation = u32();
    hello.node = u32();
    hello.node_count = u32();
    hello.deployment_seed = rng.next_u64();
    expect_exact_payload(hello, rng, c);
    Refuse refuse;
    refuse.generation = u32();
    expect_exact_payload(refuse, rng, c);
    RoundStart start;
    start.round = u16();
    expect_exact_payload(start, rng, c);
    ShareFwd fwd;
    fwd.dst = u32();
    fwd.packet = random_bytes(core::SharePacket::kWireSize, rng);
    expect_exact_payload(fwd, rng, c);
    SumReport report;
    report.packet = random_bytes(core::SumPacket::kWireSize, rng);
    expect_exact_payload(report, rng, c);
    SumRequest request;
    request.round = u16();
    expect_exact_payload(request, rng, c);
    RoundResult result;
    result.round = u16();
    result.ok = static_cast<std::uint8_t>(rng.next_below(2));
    result.aggregate = rng.next_u64();
    expect_exact_payload(result, rng, c);
    expect_exact_payload(Shutdown{}, rng, c);
  }
}

}  // namespace
}  // namespace mpciot::rt
