#include "common/bytes.h"

#include "gtest/gtest.h"

namespace statdb {
namespace {

TEST(BytesTest, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(123456);
  w.PutU64(0xdeadbeefcafef00dULL);
  w.PutI64(-42);
  w.PutDouble(3.14159);
  w.PutString("hello statistical databases");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetU32().value(), 123456u);
  EXPECT_EQ(r.GetU64().value(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.14159);
  EXPECT_EQ(r.GetString().value(), "hello statistical databases");
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, EmptyString) {
  ByteWriter w;
  w.PutString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetString().value(), "");
}

TEST(BytesTest, TruncatedReadsFail) {
  ByteWriter w;
  w.PutU32(99);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.GetU64().status().code() == StatusCode::kOutOfRange);
  // The failed read must not have consumed anything usable; a U32 still
  // works.
  EXPECT_EQ(r.GetU32().value(), 99u);
}

TEST(BytesTest, TruncatedStringFails) {
  ByteWriter w;
  w.PutU32(100);  // claims 100 bytes follow; none do
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kOutOfRange);
}

TEST(BytesTest, RemainingTracksPosition) {
  ByteWriter w;
  w.PutU8(1);
  w.PutU8(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 2u);
  ASSERT_TRUE(r.GetU8().ok());
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BytesTest, RawBytes) {
  ByteWriter w;
  const uint8_t raw[3] = {1, 2, 3};
  w.PutRaw(raw, 3);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.bytes()[2], 3);
}

TEST(BytesTest, VarintRoundTripAndBounds) {
  const uint64_t values[] = {0, 1, 127, 128, 300, uint64_t{1} << 63,
                             ~uint64_t{0}};
  ByteWriter w;
  for (uint64_t v : values) w.PutVarint(v);
  EXPECT_EQ(w.size(), 1 + 1 + 1 + 2 + 2 + 10 + 10u);
  ByteReader r(w.bytes());
  for (uint64_t v : values) EXPECT_EQ(r.GetVarint().value(), v);
  EXPECT_TRUE(r.exhausted());
  // An eleventh byte, or a tenth above bit 63, is damage, not a value.
  std::vector<uint8_t> long_varint(10, 0xFF);
  long_varint.push_back(0x01);
  EXPECT_EQ(ByteReader(long_varint).GetVarint().status().code(),
            StatusCode::kDataLoss);
  std::vector<uint8_t> wide(9, 0xFF);
  wide.push_back(0x02);
  EXPECT_EQ(ByteReader(wide).GetVarint().status().code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(ByteReader(std::vector<uint8_t>{0x80}).GetVarint().ok());
}

}  // namespace
}  // namespace statdb
