// Secondary attribute indexes (§2.3's "auxiliary storage structures"):
// order-preserving key encoding, index probes/ranges, and maintenance
// through updates, rollback and reorganization.

#include "core/attribute_index.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dbms.h"
#include "gtest/gtest.h"
#include "relational/datagen.h"
#include "relational/key_encoding.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

// --- key encoding --------------------------------------------------------------

TEST(KeyEncodingTest, RoundTripAllTypes) {
  for (const Value& v :
       {Value::Null(), Value::Int(-5), Value::Int(0), Value::Int(1 << 20),
        Value::Real(-3.5), Value::Real(0.0), Value::Real(1e30),
        Value::Str(""), Value::Str("über")}) {
    auto back = OrderedDecode(OrderedEncode(v));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    if (!v.is_null()) {
      EXPECT_EQ(back->type(), v.type());
    }
  }
}

TEST(KeyEncodingTest, PreservesValueOrder) {
  std::vector<Value> ordered = {
      Value::Null(),        Value::Real(-1e30), Value::Int(-1000000),
      Value::Real(-2.5),    Value::Int(-1),     Value::Real(-0.25),
      Value::Int(0),        Value::Real(0.25),  Value::Int(1),
      Value::Real(3.99),    Value::Int(4),      Value::Real(1e18),
      Value::Str(""),       Value::Str("A"),    Value::Str("Ab"),
      Value::Str("b")};
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    if (ordered[i] == ordered[i + 1]) continue;
    EXPECT_LT(OrderedEncode(ordered[i]), OrderedEncode(ordered[i + 1]))
        << ordered[i] << " vs " << ordered[i + 1];
  }
}

class KeyEncodingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KeyEncodingFuzz, RandomPairsOrderConsistently) {
  Rng rng(GetParam());
  auto random_value = [&rng]() -> Value {
    switch (rng.UniformInt(0, 2)) {
      case 0: return Value::Int(rng.UniformInt(-1000000, 1000000));
      case 1: return Value::Real(rng.Normal(0, 1e6));
      default: return Value::Null();
    }
  };
  for (int i = 0; i < 500; ++i) {
    Value a = random_value();
    Value b = random_value();
    auto cmp = a.Compare(b);
    const std::string ea = OrderedEncode(a), eb = OrderedEncode(b);
    if (cmp == std::strong_ordering::less) {
      EXPECT_LT(ea, eb) << a << " vs " << b;
    } else if (cmp == std::strong_ordering::greater) {
      EXPECT_GT(ea, eb) << a << " vs " << b;
    }
    // Decoded values always compare like the originals.
    EXPECT_EQ(OrderedDecode(ea).value(), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyEncodingFuzz, ::testing::Range(1, 6));

TEST(KeyEncodingTest, DecodeErrors) {
  EXPECT_FALSE(OrderedDecode("").ok());
  EXPECT_FALSE(OrderedDecode("\x07junk").ok());
  EXPECT_FALSE(OrderedDecode("\x01shrt").ok());
}

// --- index through the DBMS -------------------------------------------------------

class AttributeIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = MakeTapeDiskStorage(512, 1 << 15);
    dbms_ = std::make_unique<StatisticalDbms>(storage_.get());
    CensusOptions opts;
    opts.rows = 3000;
    Rng rng(71);
    raw_ = GenerateCensusMicrodata(opts, &rng).value();
    STATDB_ASSERT_OK(dbms_->LoadRawDataSet("census", raw_));
    ViewDefinition def;
    def.source = "census";
    STATDB_ASSERT_OK(
        dbms_->CreateView("v", def, MaintenancePolicy::kIncremental)
            .status());
  }

  uint64_t DirectCountEqual(const std::string& attr, const Value& v) {
    uint64_t n = 0;
    size_t idx = raw_.schema().IndexOf(attr).value();
    for (size_t r = 0; r < raw_.num_rows(); ++r) {
      if (raw_.At(r, idx) == v) ++n;
    }
    return n;
  }

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<StatisticalDbms> dbms_;
  Table raw_;
};

TEST_F(AttributeIndexTest, IndexedCountsMatchScans) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "AGE"));
  EXPECT_TRUE(dbms_->HasAttributeIndex("v", "AGE"));
  EXPECT_FALSE(dbms_->HasAttributeIndex("v", "INCOME"));
  for (int64_t age : {0, 25, 64, 90}) {
    bool used_index = false;
    auto indexed =
        dbms_->CountWhereEqual("v", "AGE", Value::Int(age), &used_index);
    ASSERT_TRUE(indexed.ok());
    EXPECT_TRUE(used_index);
    EXPECT_EQ(*indexed, DirectCountEqual("AGE", Value::Int(age)));
    // Unindexed attribute falls back to a scan with equal answer.
    bool scan_used_index = true;
    auto scanned = dbms_->CountWhereEqual("v", "SEX", Value::Int(0),
                                          &scan_used_index);
    ASSERT_TRUE(scanned.ok());
    EXPECT_FALSE(scan_used_index);
    EXPECT_EQ(*scanned, DirectCountEqual("SEX", Value::Int(0)));
  }
}

TEST_F(AttributeIndexTest, RangeCountsMatchScans) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "AGE"));
  bool used_index = false;
  auto indexed = dbms_->CountWhereInRange("v", "AGE", Value::Int(20),
                                          Value::Int(40), &used_index);
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(used_index);
  auto scanned = dbms_->CountWhereInRange("v", "INCOME", Value::Real(0),
                                          Value::Real(1e5));
  ASSERT_TRUE(scanned.ok());
  // Cross-check AGE against a direct count.
  uint64_t direct = 0;
  size_t idx = raw_.schema().IndexOf("AGE").value();
  for (size_t r = 0; r < raw_.num_rows(); ++r) {
    const Value& v = raw_.At(r, idx);
    if (!v.is_null() && v.AsInt() >= 20 && v.AsInt() <= 40) ++direct;
  }
  EXPECT_EQ(*indexed, direct);
}

TEST_F(AttributeIndexTest, ProbeTypeIsCoerced) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "AGE"));
  // AGE is an int column; probing with a Real must still hit.
  auto real_probe = dbms_->CountWhereEqual("v", "AGE", Value::Real(30.0));
  ASSERT_TRUE(real_probe.ok());
  EXPECT_EQ(*real_probe, DirectCountEqual("AGE", Value::Int(30)));
  // Strings never coerce.
  EXPECT_FALSE(dbms_->CountWhereEqual("v", "AGE", Value::Str("30")).ok());
}

TEST_F(AttributeIndexTest, MaintainedThroughUpdates) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "AGE"));
  uint64_t age30_before =
      dbms_->CountWhereEqual("v", "AGE", Value::Int(30)).value();
  uint64_t null_before =
      dbms_->CountWhereEqual("v", "AGE", Value::Null()).value();
  // Invalidate all age-30 cells.
  UpdateSpec spec;
  spec.predicate = Eq(Col("AGE"), Lit(int64_t{30}));
  spec.column = "AGE";
  spec.value = nullptr;
  uint64_t changed = dbms_->Update("v", spec).value();
  EXPECT_EQ(changed, age30_before);
  EXPECT_EQ(dbms_->CountWhereEqual("v", "AGE", Value::Int(30)).value(),
            0u);
  EXPECT_EQ(dbms_->CountWhereEqual("v", "AGE", Value::Null()).value(),
            null_before + age30_before);
  // Rollback restores the index too.
  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));
  EXPECT_EQ(dbms_->CountWhereEqual("v", "AGE", Value::Int(30)).value(),
            age30_before);
  EXPECT_EQ(dbms_->CountWhereEqual("v", "AGE", Value::Null()).value(),
            null_before);
}

// A whole-column edit and its rollback each reach the index through the
// staged change set: after either, every indexed range count equals a
// count over the column's cells.
TEST_F(AttributeIndexTest, WholeColumnEditAndRollbackKeepIndexExact) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "INCOME"));
  ConcreteView* view = dbms_->GetView("v").value();
  auto expect_parity = [&](const char* when) {
    const std::vector<Value> cells = view->ReadColumn("INCOME").value();
    for (auto [lo, hi] : {std::pair(0.0, 2e4), std::pair(2e4, 1e6),
                          std::pair(1e6, 1e12)}) {
      uint64_t scanned = 0;
      for (const Value& c : cells) {
        if (!c.is_null() && !(c < Value::Real(lo)) && !(Value::Real(hi) < c)) {
          ++scanned;
        }
      }
      bool used_index = false;
      Result<uint64_t> indexed = dbms_->CountWhereInRange(
          "v", "INCOME", Value::Real(lo), Value::Real(hi), &used_index);
      ASSERT_TRUE(indexed.ok()) << when;
      EXPECT_TRUE(used_index) << when;
      EXPECT_EQ(*indexed, scanned) << when << " [" << lo << ", " << hi << "]";
    }
  };
  expect_parity("before");
  UpdateSpec spec;
  spec.column = "INCOME";
  spec.value = Mul(Col("INCOME"), Lit(1000.0));
  ASSERT_GT(dbms_->Update("v", spec).value(), raw_.num_rows() / 2);
  expect_parity("after the edit");
  STATDB_ASSERT_OK(dbms_->Rollback("v", 0));
  expect_parity("after the rollback");
}

TEST_F(AttributeIndexTest, RebuiltByReorganization) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "AGE"));
  uint64_t before =
      dbms_->CountWhereInRange("v", "AGE", Value::Int(41), Value::Int(60))
          .value();
  STATDB_ASSERT_OK(dbms_->ReorganizeView("v", {"AGE_GROUP"}));
  EXPECT_EQ(
      dbms_->CountWhereInRange("v", "AGE", Value::Int(41), Value::Int(60))
          .value(),
      before);
  // The rebuilt index still reflects live cells after a further update.
  UpdateSpec spec;
  spec.predicate = Eq(Col("AGE"), Lit(int64_t{50}));
  spec.column = "AGE";
  spec.value = nullptr;
  uint64_t changed = dbms_->Update("v", spec).value();
  EXPECT_EQ(dbms_->CountWhereEqual("v", "AGE", Value::Int(50)).value(), 0u);
  EXPECT_GT(changed, 0u);
}

TEST_F(AttributeIndexTest, DuplicateAndUnknownAttribute) {
  STATDB_ASSERT_OK(dbms_->CreateAttributeIndex("v", "AGE"));
  EXPECT_EQ(dbms_->CreateAttributeIndex("v", "AGE").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dbms_->CreateAttributeIndex("v", "NOPE").code(),
            StatusCode::kNotFound);
}

class IndexConsistencyTest : public ::testing::TestWithParam<int> {};

// Property: after a random mix of updates and rollbacks, indexed counts
// equal scan counts for every probe value.
TEST_P(IndexConsistencyTest, IndexAlwaysAgreesWithScan) {
  auto storage = MakeTapeDiskStorage(512, 1 << 15);
  StatisticalDbms dbms(storage.get());
  CensusOptions opts;
  opts.rows = 800;
  Rng data_rng(200 + GetParam());
  STATDB_ASSERT_OK(dbms.LoadRawDataSet(
      "census", GenerateCensusMicrodata(opts, &data_rng).value()));
  ViewDefinition def;
  def.source = "census";
  STATDB_ASSERT_OK(
      dbms.CreateView("v", def, MaintenancePolicy::kInvalidate).status());
  STATDB_ASSERT_OK(dbms.CreateAttributeIndex("v", "HOUSEHOLD_SIZE"));

  Rng rng(GetParam());
  for (int step = 0; step < 40; ++step) {
    int action = int(rng.UniformInt(0, 9));
    if (action < 7) {
      UpdateSpec spec;
      spec.predicate = Eq(Col("HOUSEHOLD_SIZE"),
                          Lit(rng.UniformInt(1, 7)));
      spec.column = "HOUSEHOLD_SIZE";
      spec.value = rng.Bernoulli(0.2)
                       ? nullptr
                       : Add(Col("HOUSEHOLD_SIZE"), Lit(int64_t{1}));
      ASSERT_TRUE(dbms.Update("v", spec).ok());
    } else {
      ASSERT_TRUE(dbms.Rollback("v", 0).ok());
    }
    // Full agreement check across the domain (and null).
    ConcreteView* view = dbms.GetView("v").value();
    auto column = view->ReadColumn("HOUSEHOLD_SIZE").value();
    for (int64_t probe = 0; probe <= 9; ++probe) {
      uint64_t scan = 0;
      for (const Value& cell : column) {
        if (cell == Value::Int(probe)) ++scan;
      }
      bool used = false;
      auto indexed = dbms.CountWhereEqual("v", "HOUSEHOLD_SIZE",
                                          Value::Int(probe), &used);
      ASSERT_TRUE(indexed.ok());
      ASSERT_TRUE(used);
      ASSERT_EQ(*indexed, scan) << "probe " << probe << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexConsistencyTest,
                         ::testing::Range(1, 5));

}  // namespace
}  // namespace statdb
