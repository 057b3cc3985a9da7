// clean: one curator in a closed loop over a 100k-row census view with
// durability on (force-at-commit WAL, default DeltaConfig), an
// incrementally maintained Summary Database and a residual derived
// column. Each iteration checks the data (two fresh-key scans and one
// maintained battery answer), then makes one small outlier-cleaning
// predicate update touching about 0.1% of the rows. Every 5th iteration
// ends with a FlushDeltas barrier, every 10th regenerates the residual
// column, and every 25th makes a bad whole-column edit and rolls it
// back. In the 5th of every 10 iterations the cleaning update runs under
// review: a snapshot-isolated session opened before it reads INCOME
// before and after it. Iterations run in episodes of 100 on a fresh
// installation, and each episode ends with a restart: a fresh
// StatisticalDbms over the same devices must Recover() the battery
// answers exactly. Every commit
// record carries the whole update history, so the WAL grows
// quadratically within an episode; fixed-length episodes keep that
// growth (and memory) the same on every machine.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "loop.h"
#include "rules/function_registry.h"
#include "session/session.h"

namespace loopbench {

using namespace statdb;

namespace {

constexpr uint64_t kRows = 100'000;
constexpr size_t kPoolPages = 16384;
constexpr int kSetupRuns = 3;
constexpr uint64_t kEpisodeIterations = 100;
constexpr uint64_t kCellsPerClean = 100;  // 0.1% of the rows
constexpr int kFlushEvery = 5;
constexpr int kRegenerateEvery = 10;
constexpr int kBadEditEvery = 25;
constexpr int kReviewEvery = 10;  // at iteration 5, 15, 25, ... (1-based)
constexpr int kVerifyEvery = 8;  // one check in this many is re-derived
const char* const kView = "v";
const char* const kResidual = "INCOME_RESID";

// The maintained battery: cached at set-up, kept fresh by the
// incremental maintainers, re-served every iteration.
const std::vector<QueryRequest>& Battery() {
  static const std::vector<QueryRequest> b = [] {
    std::vector<QueryRequest> out;
    for (const char* attr : {"INCOME", "HOURS_WORKED"}) {
      for (const char* fn : {"count", "mean", "stddev", "min", "max"}) {
        out.push_back(QueryRequest{fn, attr, {}});
      }
    }
    return out;
  }();
  return b;
}

enum class Kind {
  kCheck,           // head query with a fresh key, computed, not cached
  kBattery,         // head query of a maintained battery entry
  kClean,           // the ~100-cell cleaning update
  kFlush,           // FlushDeltas barrier
  kRegenerate,      // RegenerateDerivedColumn
  kBadEdit,         // whole-column edit, rolled back next
  kRollback,
  kSessionOpen,     // review session, pinned before the reviewed update
  kSessionQuery,    // Session::Query at the review pin
  kReviewedUpdate,  // a cleaning update while the review session is open
  kSessionClose,
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kCheck: return "check";
    case Kind::kBattery: return "battery";
    case Kind::kClean: return "clean_update";
    case Kind::kFlush: return "flush_deltas";
    case Kind::kRegenerate: return "regenerate";
    case Kind::kBadEdit: return "bad_edit";
    case Kind::kRollback: return "rollback";
    case Kind::kSessionOpen: return "session_open";
    case Kind::kSessionQuery: return "session_query";
    case Kind::kReviewedUpdate: return "reviewed_update";
    case Kind::kSessionClose: return "session_close";
  }
  return "?";
}

struct Op {
  Kind kind = Kind::kCheck;
  QueryRequest query;
  UpdateSpec update;
  uint64_t target_version = 0;
};

// Sorted non-missing values of `attr` strictly inside (lo, hi).
std::vector<double> SortedValues(const Table& t, const std::string& attr,
                                 double lo, double hi) {
  std::vector<double> out;
  for (const Value& v : *t.ColumnByName(attr).value()) {
    if (v.is_null()) continue;
    double x = v.ToDouble().value();
    if (x > lo && x < hi) out.push_back(x);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Small outlier-cleaning updates drawn from the input: each selects a
// band of `cells` adjacent ranks of INCOME (3 in 4) or HOURS_WORKED and
// rescales it, or (1 in 10) marks it missing. Ties are excluded from the
// bands, so each update touches about `cells` rows.
class CleaningUpdates {
 public:
  CleaningUpdates(const Table& census, uint64_t cells)
      : cells_(cells),
        income_(SortedValues(census, "INCOME", 0, 1e300)),
        // 0 (children) and 90 (the clamp) repeat; keep the bands off them.
        hours_(SortedValues(census, "HOURS_WORKED", 0, 90)) {}

  UpdateSpec Next(Rng* rng) const {
    const bool income = rng->UniformInt(0, 3) != 0;
    const std::vector<double>& sorted = income ? income_ : hours_;
    const std::string attr = income ? "INCOME" : "HOURS_WORKED";
    const size_t r =
        size_t(rng->UniformInt(0, int64_t(sorted.size() - cells_) - 1));
    UpdateSpec spec;
    spec.column = attr;
    spec.predicate = And(Ge(Col(attr), Lit(sorted[r])),
                         Le(Col(attr), Lit(sorted[r + cells_ - 1])));
    if (rng->UniformInt(0, 9) == 0) {
      spec.value = nullptr;
      spec.description = "implausible values marked missing";
    } else {
      spec.value = Mul(Col(attr), Lit(Round6(rng->UniformDouble(0.9, 0.999))));
      spec.description = "rescaled a mis-coded band";
  }
  return spec;
  }

 private:
  uint64_t cells_;
  std::vector<double> income_;
  std::vector<double> hours_;
};

// Replays `spec`'s predicate and value through Expr::Eval over the
// columns they reference (read untimed first); returns the eval ms.
double ReplayPredicate(ConcreteView* view, const UpdateSpec& spec) {
  std::vector<std::string> cols = spec.predicate->ReferencedColumns();
  if (spec.value != nullptr) {
    for (const std::string& c : spec.value->ReferencedColumns()) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
  }
  Schema schema;
  std::vector<std::vector<Value>> data;
  for (const std::string& c : cols) {
    schema.Add(view->schema().attr(view->schema().IndexOf(c).value()));
    data.push_back(view->ReadColumn(c).value());
  }
  std::vector<Row> rows(view->num_rows(), Row(cols.size()));
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t r = 0; r < rows.size(); ++r) rows[r][c] = data[c][r];
  }
  const double t0 = NowMs();
  for (const Row& row : rows) {
    Result<Value> keep = spec.predicate->Eval(row, schema);
    if (keep.ok() && IsTrue(keep.value()) && spec.value != nullptr) {
      (void)spec.value->Eval(row, schema);
    }
  }
  return NowMs() - t0;
}

class OpGenerator {
 public:
  OpGenerator(uint64_t seed, const Table& census)
      : rng_(seed), updates_(census, kCellsPerClean) {}

  /// The operations of iteration `i` (0-based), in order. A rollback's
  /// target is filled in when its bad edit runs.
  std::vector<Op> Iteration(uint64_t i) {
    std::vector<Op> ops;
    Op check;
    check.kind = Kind::kCheck;
    check.query.function = "outside_k_sigma";
    check.query.attribute = "INCOME";
    check.query.params.Set("k", Round6(rng_.UniformDouble(2.0, 6.0)));
    ops.push_back(check);
    check.query = QueryRequest{};
    check.query.function = "quantile";
    check.query.attribute = rng_.UniformInt(0, 1) == 0 ? "INCOME"
                                                       : "HOURS_WORKED";
    check.query.params.Set("p", Round6(rng_.UniformDouble(0.01, 0.99)));
    ops.push_back(check);
    Op battery;
    battery.kind = Kind::kBattery;
    battery.query = Battery()[size_t(i % Battery().size())];
    ops.push_back(battery);

    const uint64_t n = i + 1;
    Op clean;
    clean.kind = Kind::kClean;
    clean.update = updates_.Next(&rng_);
    if (n % kReviewEvery == kReviewEvery / 2) {
      // A review: a session pinned before the update reads a fresh key,
      // the same key again after the update (the session timeline's
      // window still covers the pin) and a fresh key the update changed
      // (a captured pre-image).
      Op review;
      review.kind = Kind::kSessionQuery;
      review.query.function = "quantile";
      review.query.attribute = "INCOME";
      review.query.params.Set("p", Round6(rng_.UniformDouble(0.01, 0.99)));
      clean.kind = Kind::kReviewedUpdate;
      ops.push_back(Op{Kind::kSessionOpen, {}, {}, 0});
      ops.push_back(review);
      ops.push_back(clean);
      ops.push_back(review);
      review.query.params.Set("p", Round6(rng_.UniformDouble(0.01, 0.99)));
      ops.push_back(review);
      ops.push_back(Op{Kind::kSessionClose, {}, {}, 0});
    } else {
      ops.push_back(clean);
    }
    if (n % kFlushEvery == 0) ops.push_back(Op{Kind::kFlush, {}, {}, 0});
    if (n % kRegenerateEvery == 0) {
      ops.push_back(Op{Kind::kRegenerate, {}, {}, 0});
    }
    if (n % kBadEditEvery == 0) {
      Op bad;
      bad.kind = Kind::kBadEdit;
      bad.update.column = "INCOME";
      bad.update.value = Mul(Col("INCOME"), Lit(1000.0));
      bad.update.description = "wrong unit conversion";
      ops.push_back(bad);
      ops.push_back(Op{Kind::kRollback, {}, {}, 0});
    }
    return ops;
  }

 private:
  Rng rng_;
  CleaningUpdates updates_;
};

// Runs `op`; `review` is the open review session, if any.
Status Execute(StatisticalDbms* dbms, const Op& op,
               session::Session** review, QueryAnswer* answer) {
  switch (op.kind) {
    case Kind::kSessionOpen: {
      STATDB_ASSIGN_OR_RETURN(*review, dbms->sessions()->Open("review"));
      return Status::OK();
    }
    case Kind::kSessionQuery: {
      STATDB_ASSIGN_OR_RETURN(
          *answer, (*review)->Query(kView, op.query.function,
                                    op.query.attribute, op.query.params));
      return Status::OK();
    }
    case Kind::kSessionClose: {
      Status s = (*review)->Close();
      *review = nullptr;
      return s;
    }
    case Kind::kCheck: {
      // A one-off check: computed, and not cached (no maintainer armed).
      QueryOptions opts;
      opts.cache_result = false;
      STATDB_ASSIGN_OR_RETURN(
          *answer, dbms->Query(kView, op.query.function, op.query.attribute,
                               op.query.params, opts));
      return Status::OK();
    }
    case Kind::kBattery: {
      STATDB_ASSIGN_OR_RETURN(
          *answer, dbms->Query(kView, op.query.function, op.query.attribute,
                               op.query.params));
      return Status::OK();
    }
    case Kind::kClean:
    case Kind::kReviewedUpdate:
    case Kind::kBadEdit:
      return dbms->Update(kView, op.update).status();
    case Kind::kFlush:
      return dbms->FlushDeltas(kView);
    case Kind::kRegenerate:
      return dbms->RegenerateDerivedColumn(kView, kResidual);
    case Kind::kRollback:
      return dbms->Rollback(kView, op.target_version);
  }
  return InternalError("unknown op kind");
}

Result<SummaryResult> RecomputeAtPin(session::Session* review,
                                     const FunctionRegistry& fns,
                                     const QueryRequest& q) {
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> v,
                          review->ReadColumn(kView, q.attribute));
  return fns.Compute(q.function, Numeric(v), q.params);
}

Result<SummaryResult> Recompute(ConcreteView* view,
                                const FunctionRegistry& fns,
                                const QueryRequest& q) {
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> v, view->ReadColumn(q.attribute));
  return fns.Compute(q.function, Numeric(v), q.params);
}

}  // namespace

Report RunClean(const Options& opt) {
  Report rep;
  const Table census = MakeCensus(kRows, opt.seed, /*sorted=*/false);
  const FunctionRegistry fns = FunctionRegistry::WithBuiltins();

  std::unique_ptr<StorageManager> sm;
  std::unique_ptr<StatisticalDbms> dbms;
  auto setup = [&] {
    dbms.reset();
    sm = MakeInstallation(kPoolPages, /*with_wal=*/true);
    dbms = std::make_unique<StatisticalDbms>(sm.get());
    Status s = dbms->EnableDurability("wal");
    if (s.ok()) s = dbms->LoadRawDataSet("census", census);
    ViewDefinition def;
    def.source = "census";
    if (s.ok()) {
      s = dbms->CreateView(kView, def, MaintenancePolicy::kIncremental)
              .status();
    }
    if (s.ok()) {
      s = dbms->AddDerivedColumn(
          kView, DerivedColumnDef::Residuals(kResidual, "AGE", "INCOME"));
    }
    for (const QueryRequest& q : Battery()) {
      if (s.ok()) s = dbms->Query(kView, q.function, q.attribute).status();
    }
    session::SessionConfig cfg;
    cfg.max_sessions = 2;
    if (s.ok()) s = dbms->EnableSessions(cfg).status();
    if (!s.ok()) {
      std::fprintf(stderr, "clean setup: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  };
  const double setup_s = MedianSetupSeconds(kSetupRuns, setup);
  const double stored = StoredBytesPerUserByte(sm.get(), kRows);

  // Regime guard: the whole view fits the pool; WAL on, force-at-commit.
  {
    ConcreteView* view = dbms->GetView(kView).value();
    const size_t pool_pages =
        sm->GetPool(dbms->disk_device_name()).value()->capacity();
    std::vector<std::string> all_columns;
    for (const Attribute& a : view->schema().attrs()) {
      all_columns.push_back(a.name);
    }
    const uint64_t view_pages = ViewPages(dbms.get(), kView, all_columns);
    std::printf("regime: rows=%llu view_pages=%llu pool_pages=%zu wal=on "
                "flush=force-at-commit delta=default(threshold=%zu,"
                "adaptive=%d) sessions=on(review every %d) threads=1 "
                "episode=%llu\n",
                (unsigned long long)view->num_rows(),
                (unsigned long long)view_pages, pool_pages,
                dbms->delta_config().flush_threshold,
                int(dbms->delta_config().adaptive), kReviewEvery,
                (unsigned long long)kEpisodeIterations);
    if (view->num_rows() != kRows) rep.Fail("regime: row count");
    if (view_pages >= pool_pages) rep.Fail("regime: view exceeds the pool");
    if (!dbms->durability_enabled()) rep.Fail("regime: WAL off");
    if (dbms->sessions() == nullptr) rep.Fail("regime: sessions off");
  }

  OpGenerator gen(opt.seed * 6151 + 5, census);
  Rng verify_rng(opt.seed * 104729 + 7);
  SpanSink sink;
  SpanBuffer spans;
  SpanBuffer* buf = opt.trace ? &spans : nullptr;
  LayerTally tally;
  Samples query_ms, update_ms;
  uint64_t verified = 0;
  double measured_ms = 0;  // time inside the episodes' operations

  // One episode: kEpisodeIterations iterations on the current
  // installation, timed per operation.
  auto run_episode = [&] {
    ConcreteView* view = dbms->GetView(kView).value();
    const double e_start = NowMs();
    double paused_ms = 0;  // untimed checks and tracing bookkeeping
    for (uint64_t iter = 0; iter < kEpisodeIterations; ++iter) {
      // Traced runs alternate pairs of traced and untraced iterations,
      // so the every-5th/10th/25th extras land in both halves.
      const bool traced = buf != nullptr && iter % 4 < 2;
      dbms->set_trace_sink(traced ? &sink : nullptr);
      uint64_t before_bad_edit = 0;
      session::Session* review = nullptr;
      for (Op& op : gen.Iteration(iter)) {
        const char* kind = KindName(op.kind);
        if (op.kind == Kind::kBadEdit) before_bad_edit = view->version();
        if (op.kind == Kind::kRollback) op.target_version = before_bad_edit;
        if (op.kind == Kind::kSessionClose && review != nullptr) {
          // Read before Close retires the handle (untimed).
          const session::Session::Stats st = review->stats();
          if (traced) {
            tally.session_queries += double(st.queries);
            tally.timeline_hits += double(st.cache_hits);
            tally.snapshot_reads += double(st.snapshot_reads);
            tally.live_reads += double(st.live_reads);
          }
        }
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
        QueryAnswer answer;
        Status s;
        double wall = 0;
        {
          SpanScope call(traced ? buf : nullptr, id, root,
                         std::string("call.") + kind);
          SpanSink::Attach attach(traced ? buf : nullptr, id, call.index());
          const double t0 = NowMs();
          s = Execute(dbms.get(), op, &review, &answer);
          wall = NowMs() - t0;
        }
        const double p0 = NowMs();
        ++rep.attempted;
        // Review-session operations count in ops_per_s but in neither
        // latency class, which stay the curator's head queries and
        // plain cleaning updates.
        const bool is_query =
            op.kind == Kind::kCheck || op.kind == Kind::kBattery;
        const bool is_update = op.kind == Kind::kClean ||
                               op.kind == Kind::kReviewedUpdate ||
                               op.kind == Kind::kBadEdit;
        if (!s.ok()) {
          ++rep.failed;
          rep.errors.push_back(std::string(kind) + ": " + s.ToString());
          paused_ms += NowMs() - p0;
          continue;
        }
        if (is_query) query_ms.Add(wall);
        if (op.kind == Kind::kClean) update_ms.Add(wall);
        if (buf != nullptr) {
          (traced ? tally.traced_call_ms : tally.untraced_call_ms).Add(wall);
        }
        const bool reads = is_query || op.kind == Kind::kSessionQuery;
        if (reads && verify_rng.UniformInt(0, kVerifyEvery - 1) == 0) {
          // Untimed: re-derive the answer at the same view version, or
          // at the review session's pin.
          Result<SummaryResult> want =
              op.kind == Kind::kSessionQuery
                  ? RecomputeAtPin(review, fns, op.query)
                  : Recompute(view, fns, op.query);
          if (!want.ok() || !SameAnswer(answer.result, want.value())) {
            rep.Fail(std::string("wrong answer: ") + kind + " " +
                     op.query.function + "(" + op.query.attribute +
                     ") got " + answer.result.ToString() + " want " +
                     (want.ok() ? want.value().ToString()
                                : want.status().ToString()));
          }
          ++verified;
        }
        if (traced) {
          tally.AddCall(ReadCounters(dbms.get(), kView) - before, is_query,
                        is_update);
          if (is_query && answer.source == AnswerSource::kCacheHit) {
            tally.probe_ms.Add(wall);
          }
          switch (op.kind) {
            case Kind::kFlush: tally.flush_ms.Add(wall); break;
            case Kind::kRegenerate: tally.regenerate_ms.Add(wall); break;
            case Kind::kRollback: tally.rollback_ms.Add(wall); break;
            case Kind::kSessionOpen: tally.open_ms.Add(wall); break;
            case Kind::kSessionClose: tally.close_ms.Add(wall); break;
            default: break;
          }
          if (is_update) {
            tally.pending_peak =
                std::max(tally.pending_peak,
                         double(dbms->PendingDeltas(kView).value()));
          }
          if (op.kind == Kind::kClean) {
            SpanScope rs(buf, id, root, "replay.relational.predicate_eval");
            tally.predicate_eval_ms.Add(ReplayPredicate(view, op.update));
          }
          if (op.kind == Kind::kCheck) {
            std::vector<double> data;
            {
              SpanScope rs(buf, id, root, "replay.storage.read_column");
              const double r0 = NowMs();
              data = view->ReadNumericColumn(op.query.attribute).value();
              tally.column_read_ms.Add(NowMs() - r0);
            }
            SpanScope rs(buf, id, root, "replay.stats.compute");
            const double c0 = NowMs();
            (void)fns.Compute(op.query.function, data, op.query.params);
            tally.compute_ms.Add(NowMs() - c0);
          }
        }
        paused_ms += NowMs() - p0;
      }
    }
    dbms->set_trace_sink(nullptr);
    tally.EndEpisode();
    measured_ms += NowMs() - e_start - paused_ms;
  };

  // Restart check (untimed): flush, read the battery, then reopen the
  // devices with a fresh DBMS and Recover(); it must serve identical
  // answers at the same view version.
  double wal_mib = 0;
  double recover_s = 0;
  double summary_entries = 0;
  auto restart_check = [&] {
    ConcreteView* view = dbms->GetView(kView).value();
    std::vector<SummaryResult> before_restart;
    Status s = dbms->FlushDeltas(kView);
    for (const QueryRequest& q : Battery()) {
      if (!s.ok()) break;
      Result<QueryAnswer> a = dbms->Query(kView, q.function, q.attribute);
      s = a.status();
      if (!a.ok()) break;
      Result<SummaryResult> want = Recompute(view, fns, q);
      if (!want.ok() || !SameAnswer(a.value().result, want.value())) {
        rep.Fail("battery drifted from recompute: " + q.function + "(" +
                 q.attribute + ")");
      }
      before_restart.push_back(a.value().result);
    }
    if (!s.ok()) rep.Fail("battery before restart: " + s.ToString());
    const uint64_t version = view->version();
    wal_mib = double(dbms->redo_log()->stats().bytes_appended) / 1048576.0;
    dbms.reset();
    const double r0 = NowMs();
    dbms = std::make_unique<StatisticalDbms>(sm.get());
    s = dbms->EnableDurability("wal");
    if (s.ok()) s = dbms->Recover();
    recover_s = (NowMs() - r0) / 1000.0;
    if (!s.ok()) {
      rep.Fail("Recover(): " + s.ToString());
      return;
    }
    if (dbms->GetView(kView).value()->version() != version) {
      rep.Fail("Recover(): view version differs");
    }
    for (size_t i = 0; i < before_restart.size(); ++i) {
      const QueryRequest& q = Battery()[i];
      Result<QueryAnswer> a = dbms->Query(kView, q.function, q.attribute);
      if (!a.ok() || !(a.value().result == before_restart[i])) {
        rep.Fail("Recover() changed " + q.function + "(" + q.attribute +
                 ")");
      }
    }
    summary_entries =
        double(dbms->GetSummaryDb(kView).value()->entry_count());
  };

  // Whole episodes for about --seconds of measured time; each later
  // episode starts on a fresh installation, so every episode sees the
  // same history and WAL growth whatever the machine's speed.
  uint64_t episodes = 0;
  for (;;) {
    run_episode();
    restart_check();
    ++episodes;
    // Stop at the whole number of episodes nearest to --seconds.
    const double per_episode = measured_ms / double(episodes);
    if (measured_ms + 0.5 * per_episode >= opt.seconds * 1000.0 ||
        !rep.correct) {
      break;
    }
    setup();
  }
  const double elapsed_s = measured_ms / 1000.0;
  std::printf("clean: %llu ops (%llu episodes) in %.2f s, %llu answers "
              "re-checked, last episode WAL %.1f MiB, recover %.2f s\n",
              (unsigned long long)rep.attempted, (unsigned long long)episodes,
              elapsed_s, (unsigned long long)verified, wal_mib, recover_s);

  rep.Set("setup_s", setup_s, "s");
  if (buf == nullptr) {
    rep.Set("ops_per_s", double(rep.attempted - rep.failed) / elapsed_s,
            "1/s");
    rep.Set("query_p50_ms", query_ms.Quantile(0.50), "ms");
    rep.Set("query_p95_ms", query_ms.Quantile(0.95), "ms");
    rep.Set("op2_p50_ms", update_ms.Quantile(0.50), "ms");
    rep.Set("op2_p90_ms", update_ms.Quantile(0.90), "ms");
  }
  rep.Set("peak_rss_mb", PeakRssMb(), "MiB");
  rep.Set("stored_bytes_per_user_byte", stored, "ratio");
  std::printf("samples: query=%zu op2=%zu\n", query_ms.size(),
              update_ms.size());
  if (buf != nullptr) {
    TraceSummary ts = SummarizeSpans({buf});
    tally.Emit(&rep, ts, summary_entries);
    WriteSpanFile(opt.out_dir + "/spans-clean-" + std::to_string(opt.seed) +
                      ".jsonl",
                  {buf}, ts);
  }
  return rep;
}

}  // namespace loopbench
