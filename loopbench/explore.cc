// explore: one analyst in a closed loop over a 200k-row census view that
// is larger than the disk pool, read-only, WAL off. Four in five queries
// carry fresh parameter keys or filters and must be computed; the rest
// repeat earlier keys, which the Summary Database serves. A fixed deck
// of 21 query kinds is reshuffled per cycle so every seed runs the same
// mix.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>

#include "loop.h"
#include "rules/function_registry.h"
#include "stats/correlation.h"
#include "stats/crosstab.h"
#include "stats/tests.h"

namespace loopbench {

using namespace statdb;

namespace {

constexpr uint64_t kRows = 200'000;
constexpr size_t kPoolPages = 1024;
constexpr size_t kWorkers = 2;
constexpr int kSetupRuns = 3;
constexpr int kVerifyEvery = 12;  // one op in this many is re-checked
const char* const kView = "v";

const std::vector<std::string> kNumeric = {"AGE", "INCOME", "HOURS_WORKED",
                                           "HOUSEHOLD_SIZE"};
struct CategoryCodes {
  const char* name;
  int64_t lo;
  int64_t hi;
};
const CategoryCodes kCategories[] = {{"SEX", 0, 1},       {"RACE", 0, 3},
                                     {"AGE_GROUP", 1, 4}, {"REGION", 0, 8},
                                     {"EDUCATION", 0, 5}};

enum class Kind {
  kFresh,      // Query with a fresh parameter key (computed, cached)
  kRepeat,     // Query repeating an earlier key (Summary DB hit)
  kFilterNum,  // QueryFiltered range on a value attribute (materialized)
  kFilterCat,  // QueryFiltered on a category attribute (compressed runs)
  kBivariate,  // QueryBivariate correlation / covariance
  kCrosstab,   // QueryBivariate crosstab of two category attributes
  kGroup,      // QueryGroupCompare (Welch t)
  kParallel,   // QueryParallel, fresh key, 2 workers
  kMany,       // QueryMany of 3 fresh keys on one attribute, 2 workers
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kFresh: return "query";
    case Kind::kRepeat: return "query_repeat";
    case Kind::kFilterNum: return "filtered_value";
    case Kind::kFilterCat: return "filtered_category";
    case Kind::kBivariate: return "bivariate";
    case Kind::kCrosstab: return "crosstab";
    case Kind::kGroup: return "group_compare";
    case Kind::kParallel: return "query_parallel";
    case Kind::kMany: return "query_many";
  }
  return "?";
}

// Per cycle: 16 single-attribute queries (4 of them repeats, 2 of them
// compressed-route filters), 3 multi-attribute confirmatory queries and
// 2 parallel ones. Hits and compressed filters are 6 of the 16, so the
// p50 of that class sits inside the computed mode.
const Kind kDeck[] = {
    Kind::kFresh,     Kind::kFresh,     Kind::kFresh,     Kind::kFresh,
    Kind::kFresh,     Kind::kFresh,     Kind::kFresh,     Kind::kFresh,
    Kind::kRepeat,    Kind::kRepeat,    Kind::kRepeat,    Kind::kRepeat,
    Kind::kFilterNum, Kind::kFilterNum, Kind::kFilterCat, Kind::kFilterCat,
    Kind::kBivariate, Kind::kCrosstab,  Kind::kGroup,     Kind::kParallel,
    Kind::kMany};
constexpr size_t kDeckSize = sizeof(kDeck) / sizeof(kDeck[0]);

bool IsParallel(Kind k) { return k == Kind::kParallel || k == Kind::kMany; }
bool IsMultiAttribute(Kind k) {
  return k == Kind::kBivariate || k == Kind::kCrosstab || k == Kind::kGroup;
}

struct Op {
  Kind kind = Kind::kFresh;
  std::string function;
  std::string attr;
  std::string attr_b;
  FunctionParams params;
  FilterPredicate pred;
  int64_t code_a = 0;
  int64_t code_b = 0;
  std::vector<QueryRequest> many;
};

// A univariate request on `attr` whose parameter key is drawn fresh;
// `function` (0-3) picks quantile p, histogram buckets, outside_k_sigma k
// or trimmed-mean bounds.
QueryRequest FreshRequest(Rng* rng, const std::string& attr,
                          int64_t function) {
  QueryRequest q;
  q.attribute = attr;
  switch (function) {
    case 0:
      q.function = "quantile";
      q.params.Set("p", Round6(rng->UniformDouble(0.01, 0.99)));
      break;
    case 1:
      q.function = "histogram";
      q.params.Set("buckets", double(rng->UniformInt(8, 4000)));
      break;
    case 2:
      q.function = "outside_k_sigma";
      q.params.Set("k", Round6(rng->UniformDouble(1.5, 6.0)));
      break;
    default:
      q.function = "trimmed_mean";
      q.params.Set("lo", Round6(rng->UniformDouble(0.01, 0.2)));
      q.params.Set("hi", Round6(rng->UniformDouble(0.8, 0.99)));
      break;
  }
  return q;
}

// A value range on `attr` that always holds rows of the census.
FilterPredicate ValueRange(Rng* rng, const std::string& attr) {
  double lo = 0;
  double hi = 0;
  if (attr == "INCOME") {
    lo = Round6(rng->UniformDouble(1e4, 1e5));
    hi = Round6(lo * rng->UniformDouble(1.1, 3.0));
  } else if (attr == "HOUSEHOLD_SIZE") {
    lo = double(rng->UniformInt(1, 4));
    hi = lo + double(rng->UniformInt(0, 3));
  } else {  // AGE, HOURS_WORKED
    lo = double(rng->UniformInt(16, 60));
    hi = lo + double(rng->UniformInt(5, 30));
  }
  return FilterPredicate::Range(Value::Real(lo), Value::Real(hi));
}

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& v) {
  return v[size_t(rng->UniformInt(0, int64_t(v.size()) - 1))];
}

class OpGenerator {
 public:
  explicit OpGenerator(uint64_t seed) : rng_(seed) {
    std::copy(std::begin(kDeck), std::end(kDeck), deck_);
  }

  /// Value attributes in rotation: each column read is of the least
  /// recently read column, so with 4 columns of 400 pages and an LRU
  /// pool of 1024 pages every read misses (no hit/miss mix by seed).
  const std::string& NextAttr() {
    return kNumeric[next_attr_++ % kNumeric.size()];
  }

  const CategoryCodes& PickCategory() {
    const int64_t n = int64_t(std::size(kCategories));
    return kCategories[rng_.UniformInt(0, n - 1)];
  }

  /// Keys the Summary DB already holds (repeats draw from these).
  void Remember(const QueryRequest& q) { cached_.push_back(q); }

  Op Next() {
    if (pos_ == kDeckSize) {
      for (size_t i = kDeckSize; i > 1; --i) {
        std::swap(deck_[i - 1],
                  deck_[size_t(rng_.UniformInt(0, int64_t(i) - 1))]);
      }
      pos_ = 0;
    }
    Op op;
    op.kind = deck_[pos_++];
    switch (op.kind) {
      case Kind::kFresh:
      case Kind::kParallel: {
        // Serial fresh queries cycle through the 4 functions, so each
        // deck holds 2 of each: 4 linear scans and 4 sorts.
        QueryRequest q = FreshRequest(
            &rng_, NextAttr(),
            op.kind == Kind::kFresh ? int64_t(next_fn_++ % 4)
                                    : rng_.UniformInt(0, 3));
        op.function = q.function;
        op.attr = q.attribute;
        op.params = q.params;
        Remember(q);
        break;
      }
      case Kind::kRepeat: {
        const QueryRequest& q = Pick(&rng_, cached_);
        op.function = q.function;
        op.attr = q.attribute;
        op.params = q.params;
        break;
      }
      case Kind::kFilterNum: {
        static const std::vector<std::string> fns = {"mean", "stddev",
                                                     "median", "count"};
        op.function = Pick(&rng_, fns);
        op.attr = NextAttr();
        op.pred = ValueRange(&rng_, op.attr);
        break;
      }
      case Kind::kFilterCat: {
        static const std::vector<std::string> fns = {"count", "distinct",
                                                     "mode"};
        op.function = Pick(&rng_, fns);
        const CategoryCodes& c = PickCategory();
        op.attr = c.name;
        int64_t a = rng_.UniformInt(c.lo, c.hi);
        if (rng_.UniformInt(0, 1) == 0) {
          op.pred = FilterPredicate::Equal(Value::Int(a));
        } else {
          op.pred = FilterPredicate::Range(
              Value::Int(a), Value::Int(rng_.UniformInt(a, c.hi)));
        }
        break;
      }
      case Kind::kBivariate: {
        op.function = rng_.UniformInt(0, 1) == 0 ? "correlation" : "covariance";
        op.attr = NextAttr();
        op.attr_b = NextAttr();
        break;
      }
      case Kind::kCrosstab: {
        op.function = "crosstab";
        size_t a = size_t(rng_.UniformInt(0, 4));
        size_t b = (a + size_t(rng_.UniformInt(1, 4))) % 5;
        op.attr = kCategories[a].name;
        op.attr_b = kCategories[b].name;
        break;
      }
      case Kind::kGroup: {
        op.function = "welch_t";
        op.attr = NextAttr();
        const CategoryCodes& c = PickCategory();
        op.attr_b = c.name;
        op.code_a = rng_.UniformInt(c.lo, c.hi - 1);
        op.code_b = rng_.UniformInt(op.code_a + 1, c.hi);
        break;
      }
      case Kind::kMany: {
        op.attr = NextAttr();
        for (int i = 0; i < 3; ++i) {
          op.many.push_back(
              FreshRequest(&rng_, op.attr, rng_.UniformInt(0, 3)));
          Remember(op.many.back());
        }
        break;
      }
    }
    return op;
  }

 private:
  Rng rng_;
  Kind deck_[kDeckSize] = {};
  size_t pos_ = kDeckSize;
  std::vector<QueryRequest> cached_;
  size_t next_attr_ = 0;
  uint64_t next_fn_ = 0;
};

Result<std::vector<QueryAnswer>> Execute(StatisticalDbms* dbms,
                                         const Op& op) {
  QueryOptions uncached;
  uncached.cache_result = false;
  auto one = [](Result<QueryAnswer> r) -> Result<std::vector<QueryAnswer>> {
    if (!r.ok()) return r.status();
    return std::vector<QueryAnswer>{std::move(r).value()};
  };
  switch (op.kind) {
    case Kind::kFresh:
    case Kind::kRepeat:
      return one(dbms->Query(kView, op.function, op.attr, op.params));
    case Kind::kFilterNum:
    case Kind::kFilterCat:
      return one(dbms->QueryFiltered(kView, op.function, op.attr, op.pred));
    case Kind::kBivariate:
    case Kind::kCrosstab:
      // Confirmatory one-offs: computed every time, never cached.
      return one(dbms->QueryBivariate(kView, op.function, op.attr,
                                      op.attr_b, uncached));
    case Kind::kGroup:
      return one(dbms->QueryGroupCompare(kView, op.attr, op.attr_b,
                                         op.code_a, op.code_b, uncached));
    case Kind::kParallel:
      return one(dbms->QueryParallel(kView, op.function, op.attr, op.params,
                                     {}, kWorkers));
    case Kind::kMany:
      return dbms->QueryMany(kView, op.many, {}, kWorkers);
  }
  return InternalError("unknown op kind");
}

bool Matches(const FilterPredicate& p, double x) {
  switch (p.kind) {
    case FilterPredicate::Kind::kAll: return true;
    case FilterPredicate::Kind::kEqual: return x == p.equal.ToDouble().value();
    case FilterPredicate::Kind::kRange:
      return p.lo.ToDouble().value() <= x && x <= p.hi.ToDouble().value();
  }
  return false;
}

// Direct recompute of `op` with stats/ over the view's columns.
Result<std::vector<SummaryResult>> Expected(ConcreteView* view,
                                            const FunctionRegistry& fns,
                                            const Op& op) {
  std::vector<SummaryResult> out;
  auto column = [&](const std::string& attr) { return view->ReadColumn(attr); };
  switch (op.kind) {
    case Kind::kFresh:
    case Kind::kRepeat:
    case Kind::kParallel: {
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> v, column(op.attr));
      STATDB_ASSIGN_OR_RETURN(SummaryResult r,
                              fns.Compute(op.function, Numeric(v), op.params));
      out.push_back(std::move(r));
      break;
    }
    case Kind::kMany: {
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> v, column(op.attr));
      std::vector<double> data = Numeric(v);
      for (const QueryRequest& q : op.many) {
        STATDB_ASSIGN_OR_RETURN(SummaryResult r,
                                fns.Compute(q.function, data, q.params));
        out.push_back(std::move(r));
      }
      break;
    }
    case Kind::kFilterNum:
    case Kind::kFilterCat: {
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> v, column(op.attr));
      std::vector<double> kept;
      for (double x : Numeric(v)) {
        if (Matches(op.pred, x)) kept.push_back(x);
      }
      STATDB_ASSIGN_OR_RETURN(SummaryResult r,
                              fns.Compute(op.function, kept, op.params));
      out.push_back(std::move(r));
      break;
    }
    case Kind::kBivariate: {
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> a, column(op.attr));
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> b, column(op.attr_b));
      std::vector<double> xs, ys;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].is_null() || b[i].is_null()) continue;
        xs.push_back(a[i].ToDouble().value());
        ys.push_back(b[i].ToDouble().value());
      }
      STATDB_ASSIGN_OR_RETURN(double r, op.function == "correlation"
                                            ? PearsonR(xs, ys)
                                            : Covariance(xs, ys));
      out.push_back(SummaryResult::Scalar(r));
      break;
    }
    case Kind::kCrosstab: {
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> a, column(op.attr));
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> b, column(op.attr_b));
      Table pair{Schema({Attribute::Category(op.attr, DataType::kInt64),
                         Attribute::Category(op.attr_b, DataType::kInt64)})};
      for (size_t i = 0; i < a.size(); ++i) {
        STATDB_RETURN_IF_ERROR(pair.AppendRow({a[i], b[i]}));
      }
      STATDB_ASSIGN_OR_RETURN(CrossTab ct,
                              BuildCrossTab(pair, op.attr, op.attr_b));
      out.push_back(SummaryResult::Contingency(std::move(ct)));
      break;
    }
    case Kind::kGroup: {
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> v, column(op.attr));
      STATDB_ASSIGN_OR_RETURN(std::vector<Value> c, column(op.attr_b));
      std::vector<double> ga, gb;
      for (size_t i = 0; i < v.size(); ++i) {
        if (v[i].is_null() || c[i].is_null()) continue;
        int64_t code = c[i].ToInt().value();
        if (code == op.code_a) ga.push_back(v[i].ToDouble().value());
        if (code == op.code_b) gb.push_back(v[i].ToDouble().value());
      }
      STATDB_ASSIGN_OR_RETURN(TestResult t, WelchTTest(ga, gb));
      out.push_back(SummaryResult::Vector({t.statistic, t.dof, t.p_value}));
      break;
    }
  }
  return out;
}

struct Checked {
  Op op;
  std::vector<SummaryResult> got;
};

}  // namespace

Report RunExplore(const Options& opt) {
  Report rep;
  const Table census = MakeCensus(kRows, opt.seed, /*sorted=*/true);
  const FunctionRegistry fns = FunctionRegistry::WithBuiltins();

  std::unique_ptr<StorageManager> sm;
  std::unique_ptr<StatisticalDbms> dbms;
  auto setup = [&] {
    dbms.reset();
    sm = MakeInstallation(kPoolPages, /*with_wal=*/false);
    dbms = std::make_unique<StatisticalDbms>(sm.get());
    Status s = dbms->LoadRawDataSet("census", census);
    ViewDefinition def;
    def.source = "census";
    if (s.ok()) {
      s = dbms->CreateView(kView, def, MaintenancePolicy::kInvalidate)
              .status();
    }
    // Warm-up: the standard battery of every value attribute, which also
    // seeds the keys that repeat queries draw from.
    for (const std::string& a : kNumeric) {
      if (s.ok()) s = dbms->ComputeStandardSummary(kView, a);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "explore setup: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  };
  const double setup_s = MedianSetupSeconds(kSetupRuns, setup);
  const double stored = StoredBytesPerUserByte(sm.get(), kRows);
  ConcreteView* view = dbms->GetView(kView).value();

  // Regime guard: the queried columns must exceed the pool, with the
  // category columns run-length encoded, WAL and sessions off.
  const size_t pool_pages =
      sm->GetPool(dbms->disk_device_name()).value()->capacity();
  const uint64_t queried_pages = ViewPages(dbms.get(), kView, kNumeric);
  std::printf("regime: rows=%llu queried_pages=%llu pool_pages=%zu wal=off "
              "sessions=off threads=1 workers=%zu\n",
              (unsigned long long)view->num_rows(),
              (unsigned long long)queried_pages, pool_pages, kWorkers);
  if (view->num_rows() != kRows) rep.Fail("regime: row count");
  if (queried_pages <= pool_pages) {
    rep.Fail("regime: queried columns fit the disk pool");
  }
  for (const CategoryCodes& c : kCategories) {
    if (view->CompressedSidecar(c.name) == nullptr) {
      rep.Fail(std::string("regime: no RLE sidecar on ") + c.name);
    }
  }
  if (dbms->durability_enabled() || dbms->sessions() != nullptr) {
    rep.Fail("regime: WAL or sessions on");
  }

  OpGenerator gen(opt.seed * 7919 + 1);
  for (const std::string& a : kNumeric) {
    for (const char* fn : {"min", "max", "mean", "median", "quartiles"}) {
      gen.Remember(QueryRequest{fn, a, {}});
    }
  }
  Rng verify_rng(opt.seed * 104729 + 3);

  SpanSink sink;
  SpanBuffer spans;
  SpanBuffer* buf = opt.trace ? &spans : nullptr;
  LayerTally tally;
  // Parallel queries count in ops_per_s and exec.parallel_query_ms but in
  // neither latency class: their extra threads make them the most
  // exposed to CPU steal on a shared host.
  Samples query_ms, multi_ms;
  std::vector<Checked> checks;

  const double t_start = NowMs();
  const double t_end = t_start + opt.seconds * 1000.0;
  uint64_t deck = 0;
  size_t in_deck = 0;
  while (NowMs() < t_end || in_deck != 0) {
    // Traced runs alternate traced and untraced decks, so the same mix
    // of calls is timed both ways (trace overhead).
    const bool traced = buf != nullptr && deck % 2 == 0;
    dbms->set_trace_sink(traced ? &sink : nullptr);
    Op op = gen.Next();
    const char* kind = KindName(op.kind);

    uint64_t id = 0;
    int32_t root = -1;
    std::optional<SpanScope> root_span;
    Counters before;
    if (traced) {
      id = NextOpId();
      root_span.emplace(buf, id, -1, std::string("op.") + kind);
      root = root_span->index();
      before = ReadCounters(dbms.get(), kView);
    }
    double wall = 0;
    Result<std::vector<QueryAnswer>> r = InternalError("not run");
    {
      SpanScope call(traced ? buf : nullptr, id, root,
                     std::string("call.") + kind);
      SpanSink::Attach attach(traced ? buf : nullptr, id, call.index());
      const double t0 = NowMs();
      r = Execute(dbms.get(), op);
      wall = NowMs() - t0;
    }
    ++rep.attempted;
    if (!r.ok()) {
      ++rep.failed;
      rep.errors.push_back(std::string(kind) + ": " + r.status().ToString());
    } else {
      if (IsMultiAttribute(op.kind)) {
        multi_ms.Add(wall);
      } else if (!IsParallel(op.kind)) {
        query_ms.Add(wall);
      }
      if (verify_rng.UniformInt(0, kVerifyEvery - 1) == 0) {
        Checked c{op, {}};
        for (const QueryAnswer& a : r.value()) c.got.push_back(a.result);
        checks.push_back(std::move(c));
      }
    }

    if (buf != nullptr) {
      (traced ? tally.traced_call_ms : tally.untraced_call_ms).Add(wall);
    }
    if (traced && r.ok()) {
      tally.AddCall(ReadCounters(dbms.get(), kView) - before,
                    /*is_query=*/true, /*is_update=*/false);
      const QueryAnswer& a = r.value().front();
      if (a.source == AnswerSource::kCacheHit) tally.probe_ms.Add(wall);
      if (IsParallel(op.kind)) tally.parallel_ms.Add(wall);
      // Replays of the read-only layer calls a computed answer made.
      const bool univariate = op.kind == Kind::kFresh ||
                              op.kind == Kind::kParallel ||
                              op.kind == Kind::kMany ||
                              op.kind == Kind::kFilterNum;
      if (a.source == AnswerSource::kComputed && univariate) {
        std::vector<double> data;
        {
          SpanScope s(buf, id, root, "replay.storage.read_column");
          data = view->ReadNumericColumn(op.attr).value();
          tally.column_read_ms.Add(NowMs() - buf->spans()[s.index()].start_ms);
        }
        const QueryRequest q = op.kind == Kind::kMany
                                   ? op.many.front()
                                   : QueryRequest{op.function, op.attr,
                                                  op.params};
        SpanScope s(buf, id, root, "replay.stats.compute");
        (void)fns.Compute(q.function, data, q.params);
        tally.compute_ms.Add(NowMs() - buf->spans()[s.index()].start_ms);
      }
    }
    if (++in_deck == kDeckSize) {
      in_deck = 0;
      ++deck;
    }
  }
  const double elapsed_s = (NowMs() - t_start) / 1000.0;
  dbms->set_trace_sink(nullptr);

  // Correctness gate (untimed): the view never changes, so every sampled
  // answer is re-derived now from the columns with stats/.
  for (const Checked& c : checks) {
    Result<std::vector<SummaryResult>> want = Expected(view, fns, c.op);
    if (!want.ok() || want.value().size() != c.got.size()) {
      rep.Fail(std::string("recompute failed for ") + KindName(c.op.kind));
      continue;
    }
    for (size_t i = 0; i < c.got.size(); ++i) {
      if (!SameAnswer(c.got[i], want.value()[i])) {
        rep.Fail(std::string("wrong answer: ") + KindName(c.op.kind) + " " +
                 c.op.function + "(" + c.op.attr + ") got " +
                 c.got[i].ToString() + " want " +
                 want.value()[i].ToString());
      }
    }
  }
  std::printf("explore: %llu ops in %.2f s, %zu answers re-checked\n",
              (unsigned long long)rep.attempted, elapsed_s, checks.size());

  rep.Set("setup_s", setup_s, "s");
  if (buf == nullptr) {
    rep.Set("ops_per_s", double(rep.attempted - rep.failed) / elapsed_s,
            "1/s");
    rep.Set("query_p50_ms", query_ms.Quantile(0.50), "ms");
    rep.Set("query_p95_ms", query_ms.Quantile(0.95), "ms");
    rep.Set("op2_p50_ms", multi_ms.Quantile(0.50), "ms");
    rep.Set("op2_p90_ms", multi_ms.Quantile(0.90), "ms");
  }
  rep.Set("peak_rss_mb", PeakRssMb(), "MiB");
  rep.Set("stored_bytes_per_user_byte", stored, "ratio");
  std::printf("samples: query=%zu op2=%zu\n", query_ms.size(),
              multi_ms.size());
  if (buf != nullptr) {
    TraceSummary ts = SummarizeSpans({buf});
    double entries =
        double(dbms->GetSummaryDb(kView).value()->entry_count());
    tally.Emit(&rep, ts, entries);
    WriteSpanFile(opt.out_dir + "/spans-explore-" +
                      std::to_string(opt.seed) + ".jsonl",
                  {buf}, ts);
  }
  dbms.reset();
  return rep;
}

}  // namespace loopbench
