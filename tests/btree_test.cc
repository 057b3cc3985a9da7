#include "storage/btree.h"

#include <cstring>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

std::unique_ptr<BPlusTree> MakeTree(TestStorage* ts) {
  auto tree = BPlusTree::Create(&ts->pool);
  EXPECT_TRUE(tree.ok());
  return std::move(tree).value();
}

TEST(BTreeTest, EmptyTreeLookupFails) {
  TestStorage ts(256);
  auto tree = MakeTree(&ts);
  EXPECT_EQ(tree->Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->size(), 0u);
}

TEST(BTreeTest, PutGetSingle) {
  TestStorage ts(256);
  auto tree = MakeTree(&ts);
  STATDB_ASSERT_OK(tree->Put("key", "value"));
  EXPECT_EQ(tree->Get("key").value(), "value");
  EXPECT_EQ(tree->size(), 1u);
}

TEST(BTreeTest, PutReplaces) {
  TestStorage ts(256);
  auto tree = MakeTree(&ts);
  STATDB_ASSERT_OK(tree->Put("key", "v1"));
  STATDB_ASSERT_OK(tree->Put("key", "v2"));
  EXPECT_EQ(tree->Get("key").value(), "v2");
  EXPECT_EQ(tree->size(), 1u);
}

TEST(BTreeTest, DeleteRemoves) {
  TestStorage ts(256);
  auto tree = MakeTree(&ts);
  STATDB_ASSERT_OK(tree->Put("a", "1"));
  STATDB_ASSERT_OK(tree->Put("b", "2"));
  STATDB_ASSERT_OK(tree->Delete("a"));
  EXPECT_EQ(tree->Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Get("b").value(), "2");
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(tree->Delete("a").code(), StatusCode::kNotFound);
}

TEST(BTreeTest, ManyKeysForceSplits) {
  TestStorage ts(4096);
  auto tree = MakeTree(&ts);
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    STATDB_ASSERT_OK(tree->Put(key, "value" + std::to_string(i)));
  }
  EXPECT_EQ(tree->size(), static_cast<uint64_t>(n));
  auto height = tree->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2);  // must have split at least once
  for (int i = 0; i < n; i += 61) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    EXPECT_EQ(tree->Get(key).value(), "value" + std::to_string(i));
  }
}

TEST(BTreeTest, RangeScanIsSortedAndBounded) {
  TestStorage ts(1024);
  auto tree = MakeTree(&ts);
  for (int i = 0; i < 500; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%04d", i);
    STATDB_ASSERT_OK(tree->Put(key, "v"));
  }
  std::vector<std::string> seen;
  STATDB_ASSERT_OK(tree->ScanRange(
      "k0100", "k0110", [&seen](const std::string& k, const std::string&) {
        seen.push_back(k);
        return true;
      }));
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), "k0100");
  EXPECT_EQ(seen.back(), "k0109");
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(BTreeTest, PrefixScan) {
  TestStorage ts(1024);
  auto tree = MakeTree(&ts);
  STATDB_ASSERT_OK(tree->Put("INCOME|mean|", "a"));
  STATDB_ASSERT_OK(tree->Put("INCOME|median|", "b"));
  STATDB_ASSERT_OK(tree->Put("INCOME_TAXED|mean|", "c"));
  STATDB_ASSERT_OK(tree->Put("AGE|mean|", "d"));
  std::vector<std::string> seen;
  STATDB_ASSERT_OK(tree->ScanPrefix(
      "INCOME|", [&seen](const std::string& k, const std::string&) {
        seen.push_back(k);
        return true;
      }));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "INCOME|mean|");
  EXPECT_EQ(seen[1], "INCOME|median|");
}

TEST(BTreeTest, ScanEarlyExit) {
  TestStorage ts(1024);
  auto tree = MakeTree(&ts);
  for (int i = 0; i < 100; ++i) {
    STATDB_ASSERT_OK(tree->Put("k" + std::to_string(1000 + i), "v"));
  }
  int visited = 0;
  STATDB_ASSERT_OK(tree->ScanRange(
      "", "", [&visited](const std::string&, const std::string&) {
        return ++visited < 5;
      }));
  EXPECT_EQ(visited, 5);
}

TEST(BTreeTest, OversizedKeyOrValueRejected) {
  TestStorage ts(256);
  auto tree = MakeTree(&ts);
  std::string big_key(BPlusTree::kMaxKeySize + 1, 'k');
  std::string big_val(BPlusTree::kMaxValueSize + 1, 'v');
  EXPECT_EQ(tree->Put(big_key, "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree->Put("k", big_val).code(), StatusCode::kInvalidArgument);
  // Exactly at the limit is fine.
  STATDB_ASSERT_OK(tree->Put(std::string(BPlusTree::kMaxKeySize, 'k'),
                             std::string(BPlusTree::kMaxValueSize, 'v')));
}

TEST(BTreeTest, LargeValuesForceEarlySplits) {
  TestStorage ts(4096);
  auto tree = MakeTree(&ts);
  std::string big(BPlusTree::kMaxValueSize, 'x');
  for (int i = 0; i < 200; ++i) {
    STATDB_ASSERT_OK(tree->Put("big" + std::to_string(1000 + i), big));
  }
  for (int i = 0; i < 200; i += 17) {
    EXPECT_EQ(tree->Get("big" + std::to_string(1000 + i)).value(), big);
  }
}

TEST(BTreeTest, ByteSkewedLeavesSplitWithoutOverflow) {
  // Regression: mixed record sizes — runs of small entries next to
  // near-kMaxValueSize payloads (the summary store's scalar entries
  // interleaved with wide histograms) — used to defeat the entry-count
  // midpoint split: the half keeping the big records could still exceed
  // the node capacity and Put failed with an INTERNAL store-time
  // overflow. The byte-balanced split must absorb any such mix.
  TestStorage ts(4096);
  auto tree = MakeTree(&ts);
  std::string big(BPlusTree::kMaxValueSize, 'h');
  Rng rng(7);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "entry" + std::to_string(1000 + i);
    // Every few entries a page-dominating value, otherwise a tiny one.
    std::string value =
        rng.UniformInt(0, 3) == 0 ? big : "v" + std::to_string(i);
    STATDB_ASSERT_OK(tree->Put(key, value));
    model[key] = value;
  }
  for (const auto& [k, v] : model) {
    EXPECT_EQ(tree->Get(k).value(), v);
  }
}

class BTreeModelTest : public ::testing::TestWithParam<int> {};

// Property test: the tree behaves exactly like std::map under a random
// stream of put/get/delete/scan operations.
TEST_P(BTreeModelTest, MatchesStdMapUnderRandomOps) {
  TestStorage ts(8192);
  auto tree = MakeTree(&ts);
  std::map<std::string, std::string> model;
  Rng rng(GetParam());
  for (int op = 0; op < 2000; ++op) {
    int kind = static_cast<int>(rng.UniformInt(0, 9));
    std::string key = "k" + std::to_string(rng.UniformInt(0, 399));
    if (kind < 5) {  // put
      std::string value = "v" + std::to_string(op);
      STATDB_ASSERT_OK(tree->Put(key, value));
      model[key] = value;
    } else if (kind < 8) {  // get
      auto got = tree->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.ok());
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, it->second);
      }
    } else if (kind == 8) {  // delete
      Status s = tree->Delete(key);
      EXPECT_EQ(s.ok(), model.erase(key) > 0);
    } else {  // full scan must equal the model exactly
      std::vector<std::pair<std::string, std::string>> scanned;
      STATDB_ASSERT_OK(tree->ScanRange(
          "", "",
          [&scanned](const std::string& k, const std::string& v) {
            scanned.emplace_back(k, v);
            return true;
          }));
      ASSERT_EQ(scanned.size(), model.size());
      auto mit = model.begin();
      for (const auto& [k, v] : scanned) {
        EXPECT_EQ(k, mit->first);
        EXPECT_EQ(v, mit->second);
        ++mit;
      }
    }
    EXPECT_EQ(tree->size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest, ::testing::Range(1, 9));


/// Overwrites the root page with a bodiless node: its flag, its entry
/// count and its next (leaf) or first child (internal) pointer.
void RewriteRoot(TestStorage* ts, const BPlusTree& tree, bool leaf,
                 uint32_t count, PageId pointer) {
  ByteWriter w;
  w.PutU8(leaf ? 1 : 0);
  w.PutU32(count);
  w.PutU64(pointer);
  const uint32_t len = uint32_t(w.size());
  Page* page = ts->pool.FetchPage(tree.root_id()).value();
  std::memcpy(page->bytes(), &len, sizeof(len));
  std::memcpy(page->bytes() + sizeof(len), w.bytes().data(), len);
  EXPECT_TRUE(ts->pool.UnpinPage(tree.root_id(), /*dirty=*/true).ok());
}

// A damaged node is refused as DATA_LOSS: a count no page could hold
// before it sizes anything, and a node pointing back at itself before a
// descent or a leaf walk loops forever.
TEST(BTreeTest, DamagedNodesAreDataLoss) {
  TestStorage ts(16);
  auto tree = MakeTree(&ts);
  STATDB_ASSERT_OK(tree->Put("key", "value"));
  RewriteRoot(&ts, *tree, /*leaf=*/true, 0xFFFFFFFF, kInvalidPageId);
  EXPECT_EQ(tree->Get("key").status().code(), StatusCode::kDataLoss);
  RewriteRoot(&ts, *tree, /*leaf=*/false, 0, tree->root_id());
  EXPECT_EQ(tree->Get("key").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(tree->Put("key", "v").code(), StatusCode::kDataLoss);
  EXPECT_EQ(tree->Height().status().code(), StatusCode::kDataLoss);
  RewriteRoot(&ts, *tree, /*leaf=*/true, 0, tree->root_id());
  EXPECT_EQ(tree->ScanRange("", "", [](const std::string&,
                                       const std::string&) { return true; })
                .code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace statdb
