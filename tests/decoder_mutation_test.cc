// Deterministic mutation testing of the decoders of stored bytes:
// B+-tree node pages, expressions, management state, WAL record bodies
// and Summary Database results. Each starts from a valid encoding and
// decodes seeded mutations of it: bit flips, truncations, a u32 set to
// 0xFFFFFFFF, a small integer written over eight bytes (a page id, most
// likely), a span repeated in place, and appended bytes. Every mutated
// input must decode to OK or DATA_LOSS: no throw, no crash, and no hang
// (the ctest timeout stops one).

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/management_serde.h"
#include "fault/wal.h"
#include "gtest/gtest.h"
#include "relational/expr.h"
#include "storage/btree.h"
#include "summary/summary_result.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

constexpr int kMutationsPerInput = 400;

std::vector<uint8_t> Mutate(std::vector<uint8_t> b, Rng* rng) {
  auto offset = [&](size_t width) {
    return size_t(rng->UniformInt(0, int64_t(b.size() - width)));
  };
  switch (rng->UniformInt(0, 5)) {
    case 0:
      b[offset(1)] ^= uint8_t(1u << rng->UniformInt(0, 7));
      break;
    case 1:
      b.resize(offset(1));
      break;
    case 2:
      std::memset(&b[offset(4)], 0xFF, 4);
      break;
    case 3: {
      const uint64_t small = uint64_t(rng->UniformInt(0, 7));
      std::memcpy(&b[offset(8)], &small, 8);
      break;
    }
    case 4: {
      const size_t at = offset(1);
      const size_t len = size_t(rng->UniformInt(1, int64_t(b.size() - at)));
      const std::vector<uint8_t> span(b.begin() + at, b.begin() + at + len);
      for (int64_t n = rng->UniformInt(1, 100); n > 0; --n) {
        b.insert(b.begin() + at, span.begin(), span.end());
      }
      break;
    }
    default:
      for (int64_t n = rng->UniformInt(1, 16); n > 0; --n) {
        b.push_back(uint8_t(rng->UniformInt(0, 255)));
      }
  }
  return b;
}

void ExpectOkOrDataLoss(
    const std::vector<uint8_t>& valid, uint64_t seed,
    const std::function<Status(const std::vector<uint8_t>&)>& decode) {
  STATDB_ASSERT_OK(decode(valid));
  Rng rng(seed);
  for (int i = 0; i < kMutationsPerInput; ++i) {
    const Status s = decode(Mutate(valid, &rng));
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDataLoss)
        << "seed " << seed << " mutation " << i << ": " << s.ToString();
  }
}

TEST(DecoderMutationTest, BPlusTreeNodePages) {
  TestStorage ts(64);
  auto tree = BPlusTree::Create(&ts.pool).value();
  for (int k = 0; k < 300; ++k) {
    STATDB_ASSERT_OK(tree->Put("key" + std::to_string(1000 + k), "value"));
  }
  ASSERT_GE(tree->Height().value(), 2);
  // Each node page in turn carries the mutated encoding: its length
  // prefix and body, the rest of the page zero.
  auto write = [&](PageId pid, const std::vector<uint8_t>& bytes) {
    Page* page = ts.pool.FetchPage(pid).value();
    std::memset(page->bytes(), 0, kPageSize);
    std::memcpy(page->bytes(), bytes.data(), std::min(bytes.size(), kPageSize));
    return ts.pool.UnpinPage(pid, true);
  };
  for (PageId pid = 0; pid < ts.device.page_count(); ++pid) {
    const Page* page = ts.pool.FetchPage(pid).value();
    uint32_t len;
    std::memcpy(&len, page->bytes(), sizeof(len));
    const std::vector<uint8_t> node(page->bytes(),
                                    page->bytes() + sizeof(len) + len);
    STATDB_ASSERT_OK(ts.pool.UnpinPage(pid, false));
    ExpectOkOrDataLoss(node, pid, [&](const std::vector<uint8_t>& bytes) {
      STATDB_RETURN_IF_ERROR(write(pid, bytes));
      Status s = tree->ScanRange("", "", [](const std::string&,
                                            const std::string&) { return true; });
      for (const char* key : {"key1000", "key1150", "key1299"}) {
        if (Result<std::string> v = tree->Get(key); s.ok()) s = v.status();
        if (s.code() == StatusCode::kNotFound) s = Status::OK();
      }
      STATDB_RETURN_IF_ERROR(write(pid, node));
      return s;
    });
  }
}

TEST(DecoderMutationTest, Expressions) {
  ByteWriter w;
  And(Gt(Col("INCOME"), Lit(1e6)),
      Or(IsNull(Col("AGE")), Ne(Log(Neg(Col("X"))), Lit("s"))))
      ->Serialize(&w);
  // And 1,000 nested negations, whose repeated spans nest deeper still.
  ByteWriter chain;
  for (int i = 1; i < 1000; ++i) chain.PutU8(uint8_t(ExprOp::kNeg));
  Lit(1.0)->Serialize(&chain);
  for (int i = 1; i < 1000; ++i) chain.PutU8(0);
  for (const ByteWriter* valid : {&w, &chain}) {
    ExpectOkOrDataLoss(valid->bytes(), 1,
                       [](const std::vector<uint8_t>& bytes) {
                         ByteReader r(bytes);
                         return Expr::Deserialize(&r).status();
                       });
  }
}

TEST(DecoderMutationTest, ManagementState) {
  ManagementDatabase mdb;
  STATDB_ASSERT_OK(mdb.RegisterView("v", "FROM census",
                                    MaintenancePolicy::kIncremental));
  STATDB_ASSERT_OK(mdb.AddDerivedColumn(
      "v", DerivedColumnDef::Local("L", Log(Add(Col("A"), Lit(1.0))))));
  STATDB_ASSERT_OK(mdb.GetView("v").value()->history.Append(
      {1, "clean", {{1, {{7, 1000, std::nullopt}, {9, std::nullopt, 4}}}}}));
  ExpectOkOrDataLoss(
      SerializeManagementState(mdb).value(), 2,
      [](const std::vector<uint8_t>& bytes) {
        ManagementDatabase restored;
        return RestoreManagementState(bytes, &restored);
      });
}

TEST(DecoderMutationTest, WalRecordBodies) {
  WalRecord record;
  record.lsn = 42;
  record.attr_hint = "INCOME";
  record.pages.emplace_back(3, Page());
  record.manifest = {1, 2, 3, 4, 5};
  ExpectOkOrDataLoss(RedoLog::SerializeBody(record), 3,
                     [](const std::vector<uint8_t>& bytes) {
                       return RedoLog::ParseBody(bytes).status();
                     });
}

TEST(DecoderMutationTest, SummaryResults) {
  CrossTab ct{{Value::Int(1), Value::Str("b")}, {Value::Real(2.5)}, {{3}, {4}}};
  uint64_t seed = 10;
  for (const SummaryResult& result :
       {SummaryResult::Scalar(1.5), SummaryResult::Vector({1, 2, 3}),
        SummaryResult::Histo({{0, 1, 2}, {5, 6}, 1, 2}),
        SummaryResult::Histo({{0, 0.5, 3}, {300, 6}, 1, 2}),
        SummaryResult::Model({2, 1, 0.5, 0.25, 9}),
        SummaryResult::Contingency(ct), SummaryResult::Text("note")}) {
    ExpectOkOrDataLoss(result.Serialize(), ++seed,
                       [](const std::vector<uint8_t>& bytes) {
                         return SummaryResult::Deserialize(bytes).status();
                       });
  }
}

}  // namespace
}  // namespace statdb
