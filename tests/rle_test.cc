#include "storage/rle.h"

#include <cstring>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace statdb {
namespace {

using Cells = std::vector<std::optional<int64_t>>;

TEST(RleTest, EncodeSimpleRuns) {
  Cells cells = {1, 1, 1, 2, 2, 3};
  auto runs = RleEncode(cells);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (RleRun{1, 3, true}));
  EXPECT_EQ(runs[1], (RleRun{2, 2, true}));
  EXPECT_EQ(runs[2], (RleRun{3, 1, true}));
}

TEST(RleTest, MissingValuesFormRuns) {
  Cells cells = {std::nullopt, std::nullopt, 5, std::nullopt};
  auto runs = RleEncode(cells);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_FALSE(runs[0].present);
  EXPECT_EQ(runs[0].length, 2u);
  EXPECT_TRUE(runs[1].present);
  EXPECT_FALSE(runs[2].present);
}

TEST(RleTest, EmptyInput) {
  EXPECT_TRUE(RleEncode({}).empty());
  EXPECT_TRUE(RleDecode({}).empty());
}

TEST(RleTest, DecodeInvertsEncode) {
  Cells cells = {7, 7, std::nullopt, 7, 8, 8, 8, std::nullopt};
  EXPECT_EQ(RleDecode(RleEncode(cells)), cells);
}

TEST(RleTest, SortedColumnCompressesRowOrderDoesNot) {
  // The §2.6 claim: RLE pays off down a clustered category column, not
  // across heterogeneous row bytes.
  Cells sorted_column;
  for (int64_t v = 0; v < 4; ++v) {
    for (int i = 0; i < 1000; ++i) sorted_column.push_back(v);
  }
  Cells row_interleaved;  // simulates category,value,category,value...
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    row_interleaved.push_back(i % 4);
    row_interleaved.push_back(rng.UniformInt(0, 1'000'000));
  }
  size_t raw_col = RawColumnBytes(sorted_column.size());
  size_t rle_col = RleEncodedBytes(RleEncode(sorted_column));
  size_t raw_row = RawColumnBytes(row_interleaved.size());
  size_t rle_row = RleEncodedBytes(RleEncode(row_interleaved));
  EXPECT_LT(rle_col * 20, raw_col);       // massive win down the column
  EXPECT_GT(rle_row * 2, raw_row);        // little or negative win across rows
}

TEST(RleTest, SerializeDeserializeRoundTrip) {
  Cells cells = {1, 1, std::nullopt, -9, -9, -9};
  auto runs = RleEncode(cells);
  auto bytes = SerializeRuns(runs);
  auto back = DeserializeRuns(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, runs);
}

TEST(RleTest, DeserializeTruncatedFails) {
  auto bytes = SerializeRuns(RleEncode({1, 2, 3}));
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeRuns(bytes).ok());
  // A run count the bytes cannot hold fails before anything is sized.
  auto huge = SerializeRuns(RleEncode({1, 2, 3}));
  std::memset(huge.data(), 0xFF, 4);
  EXPECT_EQ(DeserializeRuns(huge).status().code(), StatusCode::kDataLoss);
}

class RleRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RleRoundTripTest, RandomCellsRoundTrip) {
  Rng rng(GetParam());
  Cells cells;
  int n = static_cast<int>(rng.UniformInt(0, 3000));
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) {
      cells.push_back(std::nullopt);
    } else {
      // Small domain to create runs of varying lengths.
      cells.push_back(rng.Zipf(5, 1.0));
    }
  }
  auto runs = RleEncode(cells);
  EXPECT_EQ(RleDecode(runs), cells);
  // Run lengths must sum to the cell count.
  uint64_t total = 0;
  for (const auto& run : runs) total += run.length;
  EXPECT_EQ(total, cells.size());
  // Adjacent runs never share (value, presence) — maximal runs.
  for (size_t i = 1; i < runs.size(); ++i) {
    bool same = runs[i - 1].present == runs[i].present &&
                (!runs[i].present || runs[i - 1].value == runs[i].value);
    EXPECT_FALSE(same);
  }
  // Serialization round-trips.
  auto back = DeserializeRuns(SerializeRuns(runs));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, runs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleRoundTripTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace statdb
