// The one byte codec: pinned little- and big-endian layouts for every
// width, and the bounded reader's failure rules that every decoder
// leans on (an overrun stays failed; trailing bytes are not exhausted).
#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace mpciot {
namespace {

TEST(Bytes, LittleEndianLayoutsArePinned) {
  std::uint8_t buf[8] = {};
  store_le(buf, std::uint16_t{0x0102});
  EXPECT_EQ(Bytes(buf, buf + 2), (Bytes{0x02, 0x01}));
  EXPECT_EQ(load_le<std::uint16_t>(buf), 0x0102);
  store_le(buf, std::uint32_t{0x01020304});
  EXPECT_EQ(Bytes(buf, buf + 4), (Bytes{0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(load_le<std::uint32_t>(buf), 0x01020304u);
  store_le(buf, std::uint64_t{0x0102030405060708});
  EXPECT_EQ(Bytes(buf, buf + 8),
            (Bytes{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(load_le<std::uint64_t>(buf), 0x0102030405060708ull);

  Bytes out{0xAA};
  append_le(out, std::uint16_t{0xBBCC});
  append_le(out, std::uint32_t{0x11223344});
  EXPECT_EQ(out, (Bytes{0xAA, 0xCC, 0xBB, 0x44, 0x33, 0x22, 0x11}));
}

TEST(Bytes, BigEndianLayoutsArePinned) {
  std::uint8_t buf[8] = {};
  store_be(buf, std::uint16_t{0x0102});
  EXPECT_EQ(Bytes(buf, buf + 2), (Bytes{0x01, 0x02}));
  EXPECT_EQ(load_be<std::uint16_t>(buf), 0x0102);
  store_be(buf, std::uint32_t{0x01020304});
  EXPECT_EQ(Bytes(buf, buf + 4), (Bytes{0x01, 0x02, 0x03, 0x04}));
  EXPECT_EQ(load_be<std::uint32_t>(buf), 0x01020304u);
  store_be(buf, std::uint64_t{0x0102030405060708});
  EXPECT_EQ(Bytes(buf, buf + 8),
            (Bytes{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}));
  EXPECT_EQ(load_be<std::uint64_t>(buf), 0x0102030405060708ull);
}

TEST(Bytes, HighBitsSurviveEveryWidth) {
  std::uint8_t buf[8] = {};
  store_le(buf, std::uint64_t{0xFEDCBA9876543210});
  EXPECT_EQ(load_le<std::uint64_t>(buf), 0xFEDCBA9876543210ull);
  store_be(buf, std::uint16_t{0xFFFE});
  EXPECT_EQ(load_be<std::uint16_t>(buf), 0xFFFE);
  store_le(buf, std::uint8_t{0x80});
  EXPECT_EQ(load_le<std::uint8_t>(buf), 0x80);
}

TEST(ByteReader, ReadsInOrderAndExhausts) {
  const Bytes in{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  ByteReader r(in);
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  Bytes c;
  ASSERT_TRUE(r.le(a));
  ASSERT_TRUE(r.le(b));
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.exhausted());
  ASSERT_TRUE(r.raw(4, c));
  EXPECT_EQ(a, 0x01);
  EXPECT_EQ(b, 0x0302);
  EXPECT_EQ(c, (Bytes{0x04, 0x05, 0x06, 0x07}));
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, OverrunStaysFailed) {
  const Bytes in{0x01, 0x02, 0x03};
  ByteReader r(in);
  std::uint32_t v = 0xDEADBEEF;
  EXPECT_FALSE(r.le(v));
  EXPECT_EQ(v, 0xDEADBEEFu);  // untouched
  // Bytes remain, but a failed reader never reads again.
  std::uint8_t small = 0;
  EXPECT_FALSE(r.le(small));
  Bytes raw;
  EXPECT_FALSE(r.raw(1, raw));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.exhausted());
}

TEST(ByteReader, TrailingBytesAreNotExhausted) {
  const Bytes in{0x01, 0x02, 0x03};
  ByteReader r(in);
  std::uint16_t v = 0;
  ASSERT_TRUE(r.le(v));
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.remaining(), 1u);

  const Bytes nothing;
  ByteReader empty(nothing);
  EXPECT_TRUE(empty.exhausted());
  Bytes none;
  EXPECT_TRUE(empty.raw(0, none));
  EXPECT_TRUE(empty.exhausted());
}

}  // namespace
}  // namespace mpciot
