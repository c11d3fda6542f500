// The rt framing layer: pinned little-endian header layout, chunked
// stream reassembly, hard rejects for magic/version/type/length
// violations, and exact round-trips for every control message.
#include "rt/frame.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/hex.hpp"
#include "rt/messages.hpp"

namespace mpciot::rt {
namespace {

Bytes frame_of(FrameType type, const Bytes& payload) {
  Bytes out;
  encode_frame(type, payload, out);
  return out;
}

TEST(Frame, HeaderLayoutIsPinnedLittleEndian) {
  const Bytes wire = frame_of(FrameType::kShareFwd, Bytes{0xAA, 0xBB, 0xCC});
  const Bytes expected = {
      0x43, 0x4D,              // magic 0x4D43, LE
      0x01,                    // version
      0x05,                    // type kShareFwd
      0x03, 0x00, 0x00, 0x00,  // length 3, LE
      0xAA, 0xBB, 0xCC,
  };
  EXPECT_EQ(wire, expected);
}

TEST(Frame, RoundTripsThroughArbitraryChunking) {
  const Bytes a = frame_of(FrameType::kHello, Bytes{1, 2, 3, 4});
  const Bytes b = frame_of(FrameType::kShutdown, Bytes{});
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  // Feed in every possible split position; both frames must come out.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), split);
    std::vector<Frame> frames;
    for (auto f = decoder.next(); f.has_value(); f = decoder.next()) {
      frames.push_back(std::move(*f));
    }
    decoder.feed(stream.data() + split, stream.size() - split);
    for (auto f = decoder.next(); f.has_value(); f = decoder.next()) {
      frames.push_back(std::move(*f));
    }
    ASSERT_EQ(frames.size(), 2u) << "split " << split;
    EXPECT_EQ(frames[0].type, FrameType::kHello);
    EXPECT_EQ(frames[0].payload, (Bytes{1, 2, 3, 4}));
    EXPECT_EQ(frames[1].type, FrameType::kShutdown);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_FALSE(decoder.corrupt());
  }
}

TEST(Frame, PoisonsOnBadMagicVersionTypeAndOversizedLength) {
  const Bytes good = frame_of(FrameType::kHello, Bytes{1});
  const auto poisoned = [&](std::size_t byte, std::uint8_t value) {
    Bytes bad = good;
    bad[byte] = value;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_FALSE(decoder.next().has_value());
    return decoder.corrupt();
  };
  EXPECT_TRUE(poisoned(0, 0x44));          // magic low byte
  EXPECT_TRUE(poisoned(1, 0x4E));          // magic high byte
  EXPECT_TRUE(poisoned(2, kVersion + 1));  // version
  EXPECT_TRUE(poisoned(3, 0));             // type below range
  EXPECT_TRUE(poisoned(3, 10));            // type above range
  EXPECT_TRUE(poisoned(7, 0x01));          // length 0x0100_0001 > cap

  // Once poisoned, the decoder stays poisoned: more (valid) bytes never
  // resynchronize it.
  Bytes bad = good;
  bad[0] = 0;
  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed(good.data(), good.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
}

TEST(Frame, EncodeRejectsOversizedPayload) {
  Bytes out;
  const Bytes big(kMaxPayload + 1, 0);
  EXPECT_THROW(encode_frame(FrameType::kHello, big, out), ContractViolation);
}

TEST(Frame, TruncatedFrameStaysIncompleteNotCorrupt) {
  const Bytes wire = frame_of(FrameType::kAssign, Bytes(100, 7));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.feed(wire.data(), len);
    EXPECT_FALSE(decoder.next().has_value()) << "len " << len;
    EXPECT_FALSE(decoder.corrupt()) << "len " << len;
  }
}

TEST(Messages, HelloRoundTrips) {
  Hello m;
  m.generation = 0x01020304;
  m.node = 7;
  m.node_count = 64;
  m.deployment_seed = 0x1122334455667788ull;
  const auto d = Hello::decode(m.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->generation, m.generation);
  EXPECT_EQ(d->node, m.node);
  EXPECT_EQ(d->node_count, m.node_count);
  EXPECT_EQ(d->deployment_seed, m.deployment_seed);
  // Strict length: truncation and trailing garbage both reject.
  Bytes wire = m.encode();
  wire.pop_back();
  EXPECT_FALSE(Hello::decode(wire).has_value());
  wire = m.encode();
  wire.push_back(0);
  EXPECT_FALSE(Hello::decode(wire).has_value());
}

TEST(Messages, AssignRoundTripsAndValidates) {
  Assign m;
  m.group = 3;
  m.degree = 2;
  m.sources = {10, 11, 12, 13};
  m.holders = {10, 11, 12, 13};
  const auto d = Assign::decode(m.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 3u);
  EXPECT_EQ(d->degree, 2u);
  EXPECT_EQ(d->sources, m.sources);
  EXPECT_EQ(d->holders, m.holders);

  // degree+1 must not exceed the holder count.
  Assign bad = m;
  bad.degree = 4;
  EXPECT_FALSE(Assign::decode(bad.encode()).has_value());
  // A repeated source or holder id must reject: the daemons' roles
  // would refuse the spec.
  bad = m;
  bad.sources = {10, 11, 12, 11};
  EXPECT_FALSE(Assign::decode(bad.encode()).has_value());
  bad = m;
  bad.holders = {13, 10, 11, 12, 13};
  EXPECT_FALSE(Assign::decode(bad.encode()).has_value());
  // A list-length lie (count beyond the payload) must reject, not read
  // out of bounds.
  Bytes wire = m.encode();
  wire[8] = 200;  // sources count, low byte
  EXPECT_FALSE(Assign::decode(wire).has_value());
}

TEST(Messages, ControlMessagesRoundTrip) {
  RoundStart rs;
  rs.round = 0x0A0B;
  ASSERT_TRUE(RoundStart::decode(rs.encode()).has_value());
  EXPECT_EQ(RoundStart::decode(rs.encode())->round, 0x0A0B);

  SumRequest sq;
  sq.round = 7;
  EXPECT_EQ(SumRequest::decode(sq.encode())->round, 7);

  Refuse rf;
  rf.generation = 9;
  EXPECT_EQ(Refuse::decode(rf.encode())->generation, 9u);

  RoundResult rr;
  rr.round = 5;
  rr.ok = 1;
  rr.aggregate = 0x0123456789ABCDEFull;
  const auto drr = RoundResult::decode(rr.encode());
  ASSERT_TRUE(drr.has_value());
  EXPECT_EQ(drr->round, 5);
  EXPECT_EQ(drr->ok, 1);
  EXPECT_EQ(drr->aggregate, rr.aggregate);
  Bytes wire = rr.encode();
  wire[2] = 2;  // ok must be 0 or 1
  EXPECT_FALSE(RoundResult::decode(wire).has_value());

  EXPECT_TRUE(Shutdown::decode({}).has_value());
  EXPECT_FALSE(Shutdown::decode(Bytes{0}).has_value());
}

TEST(Messages, ShareFwdAndSumReportPinTheWirePacketSizes) {
  ShareFwd fwd;
  fwd.dst = 42;
  fwd.packet = Bytes(core::SharePacket::kWireSize, 0x5A);
  const auto d = ShareFwd::decode(fwd.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->dst, 42u);
  EXPECT_EQ(d->packet, fwd.packet);
  fwd.packet.push_back(0);
  EXPECT_FALSE(ShareFwd::decode(fwd.encode()).has_value());

  SumReport report;
  report.packet = Bytes(core::SumPacket::kWireSize, 0x21);
  ASSERT_TRUE(SumReport::decode(report.encode()).has_value());
  report.packet.pop_back();
  EXPECT_FALSE(SumReport::decode(report.encode()).has_value());
}

/// Known answer: `m` encodes to exactly `hex`, and `hex` decodes to a
/// message that encodes back to it.
template <typename Message>
void expect_payload(const Message& m, const char* hex) {
  EXPECT_EQ(to_hex(m.encode()), hex);
  const auto decoded = Message::decode(from_hex(hex));
  ASSERT_TRUE(decoded.has_value()) << hex;
  EXPECT_EQ(to_hex(decoded->encode()), hex);
}

TEST(Messages, KnownAnswerPayloadsArePinned) {
  Hello hello;
  hello.generation = 0x01020304;
  hello.node = 0x0A0B0C0D;
  hello.node_count = 64;
  hello.deployment_seed = 0x1122334455667788ull;
  expect_payload(hello,
                 "04030201"            // generation
                 "0d0c0b0a"            // node
                 "40000000"            // node_count
                 "8877665544332211");  // deployment_seed

  Refuse refuse;
  refuse.generation = 0xA1B2C3D4;
  expect_payload(refuse, "d4c3b2a1");

  Assign assign;
  assign.group = 0x0102;
  assign.degree = 2;
  assign.sources = {10, 11, 0x01020304};
  assign.holders = {0x01020304, 12, 11, 10};
  expect_payload(assign,
                 "02010000"                                // group
                 "02000000"                                // degree
                 "0300" "0a000000" "0b000000" "04030201"   // sources
                 "0400" "04030201" "0c000000" "0b000000" "0a000000");

  RoundStart start;
  start.round = 0x0A0B;
  expect_payload(start, "0b0a");

  ShareFwd fwd;
  fwd.dst = 0x00C0FFEE;
  for (std::uint8_t i = 0; i < core::SharePacket::kWireSize; ++i) {
    fwd.packet.push_back(static_cast<std::uint8_t>(0xF0 ^ i));
  }
  expect_payload(fwd, "eeffc000"  // dst
                      "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeffe0e1");

  SumReport report;
  for (std::uint8_t i = 0; i < core::SumPacket::kWireSize; ++i) {
    report.packet.push_back(static_cast<std::uint8_t>(3 * i + 1));
  }
  expect_payload(report, "0104070a0d101316191c1f2225282b2e3134373a3d");

  SumRequest request;
  request.round = 0xBEEF;
  expect_payload(request, "efbe");

  RoundResult result;
  result.round = 5;
  result.ok = 1;
  result.aggregate = 0x0123456789ABCDEFull;
  expect_payload(result, "0500" "01" "efcdab8967452301");

  expect_payload(Shutdown{}, "");
}

}  // namespace
}  // namespace mpciot::rt
