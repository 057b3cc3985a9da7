#ifndef STATDB_CORE_DBMS_H_
#define STATDB_CORE_DBMS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "causal/trace_context.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/attribute_index.h"
#include "core/inference.h"
#include "core/view.h"
#include "core/view_def.h"
#include "delta/delta_buffer.h"
#include "delta/policy.h"
#include "fault/wal.h"
#include "flight/flight_recorder.h"
#include "flight/profiler.h"
#include "flight/timeseries.h"
#include "meta/catalog.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "relational/stored_table.h"
#include "rules/management_db.h"
#include "stats/order_state.h"
#include "storage/storage_manager.h"
#include "summary/summary_db.h"

namespace statdb {

class ThreadPool;
struct PoolSlice;

namespace session {
class SessionManager;
struct SessionConfig;
}  // namespace session

/// Knobs of one query against a view's Summary Database.
struct QueryOptions {
  /// Serve a cached-but-stale value (the analyst said approximate answers
  /// are fine — "a change of one or two values has very little effect on
  /// the value of the median", §3.2).
  bool allow_stale = false;
  /// Bounded-staleness alternative: serve a stale entry only while the
  /// view has advanced at most this many versions past it ("the user
  /// should have the capability of communicating his wishes regarding
  /// the desired accuracy", §3.2). 0 = exact unless allow_stale.
  uint64_t max_version_lag = 0;
  /// Try the Database-Abstract inference rules before touching the data.
  bool allow_inference = false;
  /// Accept inexact inference results (estimates).
  bool allow_estimates = false;
  /// Insert a freshly computed result into the Summary Database.
  bool cache_result = true;
};

/// One `function(attribute; params)` request of a QueryMany batch.
struct QueryRequest {
  std::string function;
  std::string attribute;
  FunctionParams params;
};

/// Row filter of a QueryFiltered request, evaluated on the aggregated
/// attribute itself. Values are coerced to the attribute's declared type
/// (like index probes), then compared as doubles — so a NaN cell matches
/// only kAll, exactly as the materialized comparison would decide.
struct FilterPredicate {
  enum class Kind : uint8_t {
    kAll = 0,    // no filter
    kEqual = 1,  // cell == equal
    kRange = 2,  // lo <= cell <= hi
  };
  Kind kind = Kind::kAll;
  Value equal;
  Value lo;
  Value hi;

  static FilterPredicate All() { return {}; }
  static FilterPredicate Equal(Value v) {
    FilterPredicate p;
    p.kind = Kind::kEqual;
    p.equal = std::move(v);
    return p;
  }
  static FilterPredicate Range(Value lo, Value hi) {
    FilterPredicate p;
    p.kind = Kind::kRange;
    p.lo = std::move(lo);
    p.hi = std::move(hi);
    return p;
  }
};

/// Provenance of a query answer.
enum class AnswerSource : uint8_t {
  kCacheHit = 0,      // fresh Summary Database entry
  kStaleCacheHit = 1, // stale entry served under allow_stale
  kInferred = 2,      // derived from other cached entries
  kComputed = 3,      // full computation over the view column
};

struct QueryAnswer {
  SummaryResult result;
  AnswerSource source = AnswerSource::kComputed;
  bool exact = true;             // false for inference estimates
  std::string derivation;        // set for inferred answers
};

/// Outcome of CreateView: the view that should be used, and whether an
/// existing identical view was reused instead of re-materializing (§2.3).
struct ViewCreation {
  std::string name;
  bool reused = false;
};

/// Aggregate counters for one view's query/update traffic.
struct ViewTrafficStats {
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t stale_hits = 0;
  uint64_t inferred = 0;
  uint64_t computed = 0;
  uint64_t updates = 0;
  uint64_t cells_changed = 0;
  uint64_t maintainer_applies = 0;
  uint64_t maintainer_rebuilds = 0;
  uint64_t eager_recomputes = 0;
  /// Reference pattern per attribute (§2.7: "'intelligent' access
  /// methods that interpret reference patterns to the view") — bumped on
  /// every query or update predicate touching the attribute.
  std::map<std::string, uint64_t> attribute_accesses;
};

/// The statistical DBMS of §3.2 (Fig. 3): a raw database on "tape",
/// per-analyst concrete views on "disk", a Summary Database per view,
/// and one Management Database driving maintenance.
///
/// Typical session:
///   StatisticalDbms dbms(...);
///   dbms.LoadRawDataSet("census", microdata);
///   auto view = dbms.CreateView("v1", def, MaintenancePolicy::kIncremental);
///   auto median = dbms.Query("v1", "median", "INCOME");   // computed+cached
///   median = dbms.Query("v1", "median", "INCOME");        // cache hit
///   dbms.Update("v1", {pred, "INCOME", nullptr, "mark outliers missing"});
///   median = dbms.Query("v1", "median", "INCOME");        // maintained
class StatisticalDbms {
 public:
  /// `storage` must outlive the DBMS and have devices named `tape_device`
  /// and `disk_device` mounted.
  StatisticalDbms(StorageManager* storage, std::string tape_device = "tape",
                  std::string disk_device = "disk");

  /// Detaches the flight recorder from the storage layer. Devices and
  /// buffer pools belong to the StorageManager and outlive this DBMS;
  /// without the detach a fault injected after destruction would chase
  /// a dangling pointer into the freed event ring.
  ~StatisticalDbms();

  StatisticalDbms(const StatisticalDbms&) = delete;
  StatisticalDbms& operator=(const StatisticalDbms&) = delete;

  // --- raw database -------------------------------------------------------

  /// Writes `data` to the tape-resident raw database and registers it.
  Status LoadRawDataSet(const std::string& name, const Table& data,
                        std::string description = "");

  // --- views ---------------------------------------------------------------

  /// Materializes a concrete view per `def` (reading the raw data set
  /// from tape, writing transposed to disk). If an identical definition
  /// was already materialized, returns that view instead (§2.3).
  Result<ViewCreation> CreateView(const std::string& name,
                                  const ViewDefinition& def,
                                  MaintenancePolicy policy);

  Result<ConcreteView*> GetView(const std::string& name);
  std::vector<std::string> ViewNames() const { return mdb_.ViewNames(); }

  /// Drops a concrete view: its Summary Database, indexes, maintainers,
  /// control record and catalog entry all go. The simulated disk pages
  /// are not reclaimed (the device has no free list), matching how a
  /// 1982 installation would reclaim space offline.
  Status DropView(const std::string& name);

  /// Re-runs a view's pipeline from tape (the cost CreateView's reuse
  /// path avoids; also used by benchmarks).
  Result<Table> RematerializeFromTape(const std::string& view_name);

  // --- queries -------------------------------------------------------------

  /// Evaluates `function(attribute; params)` on the view, consulting the
  /// Summary Database first. A computed answer is cached unless
  /// opts.cache_result is false. Rejects non-summarizable attributes
  /// (category codes) per the view's schema metadata.
  Result<QueryAnswer> Query(const std::string& view,
                            const std::string& function,
                            const std::string& attribute,
                            const FunctionParams& params = {},
                            const QueryOptions& opts = {});

  /// Parallel variant of Query: the column is split into page-aligned
  /// chunks scanned by `workers` threads, whose mergeable partial states
  /// (span-kernel moments, min/max, per-shard value counts, frozen-edge
  /// histograms) are combined at the join barrier. Cache consultation,
  /// staleness policy, inference and result caching behave exactly like
  /// Query; count/min/max answers are bit-identical to the serial path
  /// and floating-point accumulations agree to rounding. Order-dependent
  /// functions (median, quantiles, ...) gather the column shard-parallel
  /// and finish sequentially on the identical value sequence, so their
  /// answers are bit-identical too.
  Result<QueryAnswer> QueryParallel(const std::string& view,
                                    const std::string& function,
                                    const std::string& attribute,
                                    const FunctionParams& params = {},
                                    const QueryOptions& opts = {},
                                    size_t workers = 4);

  /// Answers N requests in one batch. Requests that the Summary Database
  /// (or inference) can satisfy are answered without touching the data;
  /// the rest are grouped by attribute and each attribute is scanned
  /// ONCE in parallel, every requested statistic finishing from the same
  /// merged partial states. Computed results are inserted into the
  /// Summary Database exactly as serial Query would insert them (same
  /// keys, versions, incremental-maintainer arming). Duplicate
  /// (function, attribute, params) requests are computed once. Fails on
  /// the first request whose statistic is undefined (e.g. the mean of an
  /// empty column), like the serial path would.
  Result<std::vector<QueryAnswer>> QueryMany(
      const std::string& view, const std::vector<QueryRequest>& requests,
      const QueryOptions& opts = {}, size_t workers = 4);

  /// Parallel bivariate statistics for "correlation", "covariance" and
  /// "regression": per-shard co-moment states (Chan et al.) merged at
  /// the barrier. "crosstab"/"chi2_independence" read the gathered
  /// columns exactly like QueryBivariate. Caching behaves exactly like
  /// QueryBivariate.
  Result<QueryAnswer> QueryBivariateParallel(const std::string& view,
                                             const std::string& function,
                                             const std::string& attr_a,
                                             const std::string& attr_b,
                                             const QueryOptions& opts = {},
                                             size_t workers = 4);

  /// Bivariate statistics cached under multi-attribute Summary keys:
  /// "correlation" and "covariance" (scalar), "regression" (linear
  /// model of b ~ a), "chi2_independence" (vector [stat, dof, p] over
  /// the a x b contingency table), "crosstab" (the table itself).
  /// Updates to *either* attribute invalidate the entry through its
  /// reference record.
  Result<QueryAnswer> QueryBivariate(const std::string& view,
                                     const std::string& function,
                                     const std::string& attr_a,
                                     const std::string& attr_b,
                                     const QueryOptions& opts = {});

  /// Compares `value_attr` between the rows where `category_attr`
  /// equals `code_a` vs `code_b` with Welch's t-test; the result vector
  /// [t, dof, p] is cached under a multi-attribute key. Staleness
  /// options apply as for QueryBivariate.
  Result<QueryAnswer> QueryGroupCompare(const std::string& view,
                                        const std::string& value_attr,
                                        const std::string& category_attr,
                                        int64_t code_a, int64_t code_b,
                                        const QueryOptions& opts = {});

  /// Builds a secondary index on a view attribute (§2.3's "auxiliary
  /// storage structures such as indices"); it is maintained under
  /// predicate updates and rollback, and rebuilt by reorganization.
  Status CreateAttributeIndex(const std::string& view,
                              const std::string& attribute);
  bool HasAttributeIndex(const std::string& view,
                         const std::string& attribute);

  /// Filtered aggregate with predicate/aggregate pushdown (DESIGN.md
  /// §14, generalizing the §4.3 scan-offload idea): evaluates
  /// `function` over the rows of `attribute` that satisfy `pred`. When
  /// the attribute has an RLE sidecar and the function's partial state
  /// is mergeable, the predicate is evaluated once per run and matching
  /// runs fold into the aggregate in O(1) each — no row is ever
  /// materialized. Otherwise the column is read and filtered cell-wise
  /// (identical answers, by the parity contract). Filtered results are
  /// never cached in the Summary Database: the predicate is not part of
  /// any summary key.
  Result<QueryAnswer> QueryFiltered(const std::string& view,
                                    const std::string& function,
                                    const std::string& attribute,
                                    const FilterPredicate& pred,
                                    const FunctionParams& params = {});

  /// Kill switch for the compressed-domain planner choice (parity tests
  /// flip it to force the materialized path on the same data). On by
  /// default; affects Query/QueryParallel/QueryMany/QueryFiltered and
  /// the CountWhere* pushdown.
  void set_compressed_scan_enabled(bool on) { compressed_scan_enabled_ = on; }
  bool compressed_scan_enabled() const { return compressed_scan_enabled_; }

  /// Rows whose `attribute` equals `v` — via the index when one exists,
  /// by column scan otherwise (compressed-domain over the RLE sidecar
  /// when one is attached). `used_index` (optional) reports which.
  Result<uint64_t> CountWhereEqual(const std::string& view,
                                   const std::string& attribute,
                                   const Value& v,
                                   bool* used_index = nullptr);

  /// Rows with lo <= attribute <= hi (nulls excluded), indexed if
  /// possible.
  Result<uint64_t> CountWhereInRange(const std::string& view,
                                     const std::string& attribute,
                                     const Value& lo, const Value& hi,
                                     bool* used_index = nullptr);

  /// §2.7: physically reorganizes a view by sorting its rows on
  /// `sort_attrs` (e.g. the hottest category attributes, clustering
  /// them for compression and locality). Cached summaries stay valid —
  /// the column multisets are unchanged — but the update history's row
  /// coordinates would dangle, so reorganization establishes a new
  /// baseline: the history is cleared and the version reset to 0.
  Status ReorganizeView(const std::string& view,
                        const std::vector<std::string>& sort_attrs);

  /// The attribute an "intelligent access method" would cluster on:
  /// the most-referenced category attribute, or NOT_FOUND if none has
  /// been touched yet.
  Result<std::string> RecommendClusterAttribute(const std::string& view);

  /// Computes and caches the §3.2 standard battery (min, max, mean,
  /// median, quartiles, mode, distinct count, histogram) for an
  /// attribute in one column read.
  Status ComputeStandardSummary(const std::string& view,
                                const std::string& attribute);

  /// Attaches a free-text note about the data set to the Summary DB.
  Status AnnotateAttribute(const std::string& view,
                           const std::string& attribute, std::string note);

  // --- updates & maintenance ----------------------------------------------

  /// Applies a predicate update to the view, logs it in the update
  /// history, and maintains the Summary Database per the view's policy.
  /// Derived columns with kLocal rules are fixed in place; kRegenerate
  /// columns are marked out of date. Every expression evaluates before
  /// any cell is written, so a failed update changes nothing. Returns
  /// the number of cells changed.
  Result<uint64_t> Update(const std::string& view, const UpdateSpec& spec);

  /// Rolls the view back to `target_version` using the update history;
  /// cached summaries on the touched attributes are invalidated, and
  /// kRegenerate columns reading them are marked out of date.
  Status Rollback(const std::string& view, uint64_t target_version);

  // --- delta-batched maintenance (src/delta, DESIGN.md §16) ----------------

  /// Explicit flush barrier: applies every pending delta of the view in
  /// one amortized pass per attribute, leaving the summary cache fully
  /// caught up. Query paths call the per-attribute equivalent
  /// automatically (flush-before-serve), so this is for barriers the
  /// engine cannot see — benchmarks, checkpoints, tests.
  Status FlushDeltas(const std::string& view);

  /// Pending (buffered, unflushed) deltas across the view's attributes.
  Result<uint64_t> PendingDeltas(const std::string& view);

  /// Tuning knobs of the delta engine. Strategy state already built
  /// under the old config is kept; it re-converges under the new bands.
  void set_delta_config(const delta::DeltaConfig& config) {
    delta_config_ = config;
  }
  const delta::DeltaConfig& delta_config() const { return delta_config_; }

  /// The per-(view, attribute) strategy state machine (introspection;
  /// tests override strategies through set_delta_config instead).
  delta::PolicyController& delta_policy() { return delta_policy_; }

  /// Adds a derived column and fills it (§2.2: capture "the results of a
  /// time-consuming calculation that are to be used later").
  Status AddDerivedColumn(const std::string& view, DerivedColumnDef def);

  /// Regenerates one kRegenerate column now: fits its generator, then
  /// stages and installs the column a page at a time.
  Status RegenerateDerivedColumn(const std::string& view,
                                 const std::string& column);

  /// Reads a column, transparently regenerating it first if it is an
  /// out-of-date derived column.
  Result<std::vector<Value>> ReadColumn(const std::string& view,
                                        const std::string& column);

  // --- durability & recovery (src/fault, DESIGN.md §11) --------------------

  /// Arms write-ahead redo logging on the device named `wal_device`
  /// (which must be mounted on the storage manager, typically via
  /// AdoptDevice). From here on every mutation appends a commit record —
  /// page images + a manifest of the in-memory state — to the log and
  /// only then writes pages in place (force-at-commit); the disk pool
  /// switches to no-steal so uncommitted pages never reach the platter.
  /// Call Recover() next when reopening an existing installation.
  Status EnableDurability(const std::string& wal_device = "wal");

  /// Replays the redo log against the disk device: every complete record's
  /// page images are rewritten in order (idempotent — full images), the
  /// in-memory state (catalog, raw tables, views, summaries, management
  /// database) is rebuilt from the last record's manifest, and a torn
  /// tail is discarded. If a tail was torn, the paper's §4.3 fallback
  /// marks the hinted attribute's cached summaries stale (all entries,
  /// when even the hint was lost). Idempotent: a second Recover() is a
  /// no-op rebuild of the same state.
  Status Recover();

  bool durability_enabled() const { return wal_ != nullptr; }
  /// Read-only degraded mode: entered when a device failure outlives the
  /// bounded retries. Queries still run; mutations fail fast.
  bool degraded() const {
    MutexLock lock(session_mu_);
    return degraded_;
  }
  /// By value: the reason string is rewritten on the mutation path, so a
  /// reference would be a torn read under concurrent queries.
  std::string degraded_reason() const {
    MutexLock lock(session_mu_);
    return degraded_reason_;
  }
  uint64_t last_committed_lsn() const {
    return wal_ == nullptr ? 0 : wal_->last_lsn();
  }
  RedoLog* redo_log() { return wal_.get(); }
  uint64_t recoveries() const {
    MutexLock lock(session_mu_);
    return recoveries_;
  }

  // --- introspection -------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  ManagementDatabase& management_db() { return mdb_; }
  Result<SummaryDatabase*> GetSummaryDb(const std::string& view);
  Result<const ViewTrafficStats*> GetTrafficStats(
      const std::string& view) const;
  StorageManager* storage() { return storage_; }
  const std::string& tape_device_name() const { return tape_device_; }
  const std::string& disk_device_name() const { return disk_device_; }

  // --- telemetry (src/obs, src/flight, src/causal; DESIGN.md §10) ---------

  /// The DBMS-wide metrics registry: query latency, answer provenance,
  /// SLO breach counters and thread-pool behavior live here;
  /// per-view/per-device stats structs are walked in at DumpMetrics time.
  MetricsRegistry& metrics() { return metrics_; }

  /// One JSON document covering every cost-model signal: per-view
  /// summary-cache hit/served/miss rates, per-view query/update traffic
  /// and maintainer apply-vs-rebuild counts, buffer-pool behavior and
  /// simulated device I/O for the tape and disk devices, and the
  /// registry (thread-pool queue depth/task latency, query latency).
  std::string DumpMetrics();

  /// Attaches a per-query trace sink: every Query* call emits a
  /// QueryTrace of its phase spans. With no sink (the default) the query
  /// paths skip all clock reads and allocate nothing for tracing. The
  /// sink must be thread-safe if queries run concurrently, and must
  /// outlive its attachment. nullptr detaches.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  /// Per-query-class tail-latency SLO tracker. Every public query
  /// wrapper records into its class ("query", "query_parallel",
  /// "query_many", "query_filtered", "bivariate", "group_compare"), and
  /// the mutation paths into "update" / "rollback" / "recover".
  SloTracker& slo() { return slo_; }

  /// The black box: a lock-light ring of the last N structured events
  /// (query begin/end, cache verdicts, maintainer arm/fire, WAL commits,
  /// injected faults, I/O retries, recovery steps, degraded/DATA_LOSS
  /// flips) plus the slow-query log's traces. Enabled by default;
  /// recording costs a few relaxed stores. The DBMS constructor attaches
  /// it to the tape/disk buffer pools and devices; EnableDurability
  /// extends that to the WAL device. If the STATDB_FLIGHT_DUMP
  /// environment variable names a path at construction, slow-query
  /// capture is switched on and the first DATA_LOSS or degraded-mode
  /// entry writes the incident document there (once).
  FlightRecorder& flight() { return flight_; }

  /// Chrome trace-event (catapult) export of the slow-query log's
  /// captured traces laid against the flight window — open the result
  /// in chrome://tracing or Perfetto. `trace_id_filter` != 0 restricts
  /// to one operation (the shell's `trace <id>`).
  std::string DumpChromeTrace(uint64_t trace_id_filter = 0);

  /// The §4.3 decision input: per-(function, attribute) and per-attribute
  /// access/update heatmaps, fed exactly (not sampled) from the query and
  /// update paths.
  WorkloadProfiler& workload_profiler() { return profiler_; }

  /// Bounded window of DumpMetrics walks, flattened; deltas between
  /// consecutive points carry derived rates (summary hit rate, scan MB/s,
  /// WAL bytes/commit). Points are taken by TickTimeseries() — manually,
  /// or automatically every `every_n_mutations` successful mutations
  /// after EnableTimeseries (which also takes the baseline point
  /// immediately; 0 switches back to manual ticks only).
  MetricsTimeseries& timeseries() { return timeseries_; }
  void EnableTimeseries(uint64_t every_n_mutations);
  void TickTimeseries();

  /// Prometheus text exposition: takes a fresh snapshot (pushing it into
  /// the timeseries window, as a scrape should) and renders it.
  std::string ExposeText();

  /// Audit-after-update: when on, every successful Update/Rollback ends
  /// with a full DbAuditor pass over the touched view (structure + the
  /// differential summary-vs-view oracle) and fails with DATA_LOSS if the
  /// maintenance rules left the cache incoherent. Defaults to on when
  /// built with -DSTATDB_AUDIT=ON, off otherwise; tests may force it
  /// either way in any build.
  void set_audit_after_update(bool on) { audit_after_update_ = on; }
  bool audit_after_update() const { return audit_after_update_; }

  // --- multi-analyst sessions (src/session, DESIGN.md §15) -----------------

  /// Turns on the snapshot-isolation session layer: every existing view
  /// is registered with the MVCC routing table, and from here on each
  /// mutation path runs the capture → block → grace → publish protocol
  /// so pinned readers never block on (or race with) writers. Idempotent;
  /// returns the manager. Call before opening sessions.
  Result<session::SessionManager*> EnableSessions(
      const session::SessionConfig& config);

  /// The session layer, or nullptr when EnableSessions was never called.
  session::SessionManager* sessions() { return sessions_.get(); }

  /// The meta-data gate shared by the univariate queries and the session
  /// query path: numeric only, and on category codes only the functions
  /// the function table marks meaningful there (§3.2). Public so Session
  /// can apply the identical rule to the schema entry at its pinned seq.
  Status CheckQueryable(const Schema& schema, const std::string& function,
                        const std::string& attribute) const;

 private:
  /// The auditor's summary oracle skips entries whose attribute has
  /// pending deltas; it reads them from ViewState::deltas.
  friend class DbAuditor;

  /// One attribute's order state (DESIGN.md §14) and its bookkeeping.
  struct OrderEntry {
    OrderState state;
    /// The column generation the state reflects, queued changes
    /// included: it is current while this equals the column's.
    uint64_t generation = 0;
    /// The order-state clock at its last use (LRU eviction).
    uint64_t last_use = 0;
  };

  struct ViewState {
    std::unique_ptr<ConcreteView> view;
    std::unique_ptr<SummaryDatabase> summary;
    /// Live maintainers — one- and two-attribute rules in one map —
    /// keyed by encoded SummaryKey (kIncremental only).
    std::map<std::string, std::unique_ptr<IncrementalMaintainer>>
        maintainers;
    /// Secondary indexes keyed by attribute name.
    std::map<std::string, std::unique_ptr<AttributeIndex>> indexes;
    /// Order states keyed by attribute name: in-memory planner state like
    /// the indexes, never logged, so empty after Recover().
    std::map<std::string, OrderEntry> order_states;
    /// Pending (unflushed) update deltas per attribute — the write side
    /// of the delta-batched maintenance engine (src/delta, §16).
    delta::DeltaBuffer deltas;
    ViewTrafficStats traffic;
  };

  /// Coerces `filter`'s endpoints to `attribute`'s declared type so
  /// index probes and scans compare like stored cells.
  static Result<FilterPredicate> CoerceFilter(const Schema& schema,
                                              const std::string& attribute,
                                              FilterPredicate filter);

  /// The body of CountWhereEqual/CountWhereInRange: index probe, else
  /// the predicate decided per RLE run, else a materialized scan.
  Result<uint64_t> CountWhere(const std::string& view,
                              const std::string& attribute,
                              const FilterPredicate& filter,
                              bool* used_index);

  /// Folds an installed `change` (its inverse when `undo`) into the
  /// index and the order state on its column, if any. Every install of
  /// an update, rollback or regeneration passes here; the order state
  /// queues the change, or is dropped when it missed a write or the
  /// change is too large to merge.
  Status MaintainIndexes(ViewState* state, const ColumnChange& change,
                         bool undo);

  // --- order states (DESIGN.md §9.1, §14) ---------------------------------

  /// Bytes all order states of the DBMS may hold; over it, whole states
  /// are evicted least recently used first.
  static constexpr size_t kOrderStateBudgetBytes = size_t{64} << 20;

  /// `attribute`'s order state when it is current, its queue merged;
  /// nullptr (dropping a stale state) otherwise. Marks it used.
  OrderState* CurrentOrderState(ViewState* state,
                                const std::string& attribute,
                                QueryTrace* trace);

  /// Keeps `built` as `attribute`'s order state, evicting states last
  /// used before `protect_from` (those planned after it are in use) while
  /// over the budget. When it cannot fit, `*spare` takes it. Returns
  /// where the state now lives.
  const OrderState* KeepOrderState(ViewState* state,
                                   const std::string& attribute,
                                   OrderState built, uint64_t protect_from,
                                   std::optional<OrderState>* spare);

  /// Bytes all order states hold; NoteOrderStateBytes publishes them to
  /// the dbms.order_state.bytes gauge.
  size_t OrderStateBytes() const;
  void NoteOrderStateBytes();

  /// Sets `order`'s row-order moments from the one-worker moment fold of
  /// `attribute`, a read of the column but no gather.
  Status FoldRowMoments(const ConcreteView& cv, const std::string& attribute,
                        QueryTrace* trace, OrderState* order);

  Result<ViewState*> GetState(const std::string& view);

  /// Runs the auditor over `view` when audit-after-update is on;
  /// propagates its DATA_LOSS verdict so a buggy maintenance rule fails
  /// the update that exposed it instead of poisoning later queries.
  Status MaybeAuditAfterUpdate(const std::string& view);

  /// Reads the raw table for `dataset` from tape.
  Result<Table> ReadRawFromTape(const std::string& dataset);

  // --- durability plumbing (core/recovery.cc) ------------------------------

  /// Rejects mutations in degraded mode; OK otherwise.
  Status GuardMutable() const;

  /// Flips to read-only degraded mode (first reason wins) and bumps the
  /// obs counter.
  void EnterDegraded(const std::string& reason);

  /// Commit protocol, a no-op without durability: stamp the next LSN on
  /// the disk pool's dirty pages, append one WAL record carrying their
  /// images + the current manifest, then write the pages in place.
  /// `force` appends even with zero dirty pages (metadata-only mutations
  /// like DropView must still reach the log). Any failure flips the DBMS
  /// into degraded mode before the error propagates.
  Status CommitDurable(const std::string& attr_hint, bool force);

  /// Query-path commit: skips when idle, swallows the error after
  /// degrading (the computed answer is correct; only its caching lost
  /// durability).
  void CommitAfterQuery(const std::string& attr_hint);

  /// Serializes the whole recoverable in-memory state (catalog, raw
  /// tables, views + summaries, management database).
  Result<std::vector<uint8_t>> BuildManifest() const;

  /// Rebuilds in-memory state from a manifest, re-attaching every file
  /// structure to its on-device pages. Replaces all current state.
  Status ApplyManifest(const std::vector<uint8_t>& manifest);

  // --- the query pipeline (DESIGN.md §9) ----------------------------------

  /// One request of the pipeline; every public Query* entry point lowers
  /// to a batch of these.
  struct PlannedQuery {
    std::string function;
    /// One attribute (univariate) or two (bivariate, group compare).
    std::vector<std::string> attributes;
    FunctionParams params;
    /// QueryFiltered's row filter. A filtered request neither consults
    /// nor fills the Summary Database: no key carries the predicate.
    std::optional<FilterPredicate> filter;
    /// Group compare: attributes[1] == first vs == second.
    std::optional<std::pair<int64_t, int64_t>> group_codes;

    SummaryKey Key() const {
      return {function, attributes, params.Encode()};
    }
  };

  /// How a planned scan reads the view.
  enum class QueryRoute : uint8_t {
    kCompressedRuns,  // one attribute, RLE sidecar, all mergeable, no arm
    kColumnChunks,    // one attribute, ParallelScanColumn
    kPairs,           // two attributes, row-aligned numeric pairs
    kOrderState,      // one attribute, every member reads its current
                      // order state: no read of the column
  };
  struct PlannedScan;    // dbms.cc
  struct ScanOutput;     // dbms.cc
  struct FinishedQuery;  // dbms.cc

  /// SLO classes of the top-level operations; the query classes come
  /// first. Names in dbms.cc's kOpClassNames.
  enum class OpClass : uint8_t {
    kQuery,
    kQueryParallel,
    kQueryFiltered,
    kQueryMany,
    kBivariate,
    kGroupCompare,
    kUpdate,
    kRollback,
    kRecover,
    kRegenerate,
  };

  /// Builds the operation's trace into `*slot` when WantTrace() and
  /// returns it, else nullptr.
  QueryTrace* BeginTrace(std::optional<QueryTrace>* slot,
                         const causal::TraceContext& ctx,
                         std::string operation, std::string view = "",
                         std::string function = "",
                         std::string attribute = "");

  /// The one end of every top-level operation (queries, Update,
  /// Rollback, Recover): the SLO sample and, for query classes, the
  /// latency histogram and outcome counter; then `trace` (nullable) gets
  /// its outcome and total and goes to the sink and the slow-query log.
  /// Returns the wall ms measured once for all of them.
  double FinishOperation(OpClass op, const TraceTimer& timer,
                         TraceOutcome outcome, QueryTrace* trace);

  /// The wrapper of every public Query* entry point: mints the causal
  /// context, builds the `operation`-labeled trace, records per-request
  /// begin/end flight events and the profiler, finishes through
  /// FinishOperation, and commits the Summary inserts on success.
  Result<std::vector<QueryAnswer>> RunQueries(
      const std::string& operation, OpClass op, const std::string& view,
      const std::vector<PlannedQuery>& batch, const QueryOptions& opts,
      size_t workers);

  /// gate -> cache consult -> flush -> plan -> execute -> Summary insert.
  /// Unfiltered univariate requests on one attribute share one scan;
  /// duplicate keys are computed once. Fails on the first failing
  /// request.
  Result<std::vector<QueryAnswer>> RunPipeline(
      const std::string& view, const std::vector<PlannedQuery>& batch,
      const QueryOptions& opts, size_t workers, QueryTrace* trace);

  /// The exec pool (DESIGN.md §9.1): made by the first parallel batch,
  /// sized from std::thread::hardware_concurrency(), shared by every
  /// batch after it.
  ThreadPool* ExecPool();

  /// Reads the view along `scan`'s route into `out`. `exec` has no pool
  /// at one worker.
  Status ExecuteScan(const ConcreteView& cv,
                     const std::vector<PlannedQuery>& batch,
                     const PlannedScan& scan, const PoolSlice& exec,
                     QueryTrace* trace, ScanOutput* out);

  /// The meta-data gate for one request, by the function table: its
  /// function of the request's arity, and for one attribute
  /// CheckQueryable; a cross-tab reads integer codes. Returns the
  /// request's descriptor.
  Result<const FunctionDescriptor*> Gate(const Schema& schema,
                                         const PlannedQuery& query) const;

  /// Computes one request's answer from its scan's output: the
  /// descriptor's finish from the family state the scan folded, or its
  /// compute over the values the scan gathered (DESIGN.md §9.1). `*rows`
  /// is what it read. Safe to run for several requests at once: it only
  /// reads.
  Result<SummaryResult> FinishQuery(const PlannedQuery& query,
                                    const FunctionDescriptor& fn,
                                    const PlannedScan& scan,
                                    const ScanOutput& out,
                                    uint64_t* rows) const;

  /// Runs FinishQuery for every member of `scan` on the pool, then adds
  /// their compute spans to `trace`. Errors stay in `finished`.
  Status FinishOnPool(const std::vector<PlannedQuery>& batch,
                      const PlannedScan& scan, const ScanOutput& out,
                      const PoolSlice& exec, QueryTrace* trace,
                      std::vector<FinishedQuery>* finished);

  /// Cache / staleness / inference consultation. Fills `*answer` and
  /// returns true when the request is satisfied without computation;
  /// bumps the traffic counters it consumes. `trace` (nullable) receives
  /// cache-probe / staleness-gate / inference spans.
  /// Exact serves flush the key's attributes' pending deltas first
  /// (flush-before-serve, §16); allow_stale accepts the un-flushed entry
  /// the way it accepts any stale one.
  Result<bool> TryAnswerWithoutComputing(const std::string& view,
                                         ViewState* state,
                                         const PlannedQuery& query,
                                         const SummaryKey& key,
                                         const QueryOptions& opts,
                                         QueryAnswer* answer,
                                         QueryTrace* trace);

  /// Drains `attribute`'s pending deltas through the flush engine and
  /// folds the effort into the traffic counters. No-op when idle.
  Status FlushAttributeDeltas(const std::string& view_name, ViewState* state,
                              const std::string& attribute);

  /// FlushAttributeDeltas over every attribute with pending deltas —
  /// the whole-view barrier (explicit FlushDeltas, audits, reorganize).
  Status FlushViewDeltas(const std::string& view_name, ViewState* state);

  /// Caches a computed result and arms the function's incremental rule
  /// when the view's policy wants one — the pipeline's tail. The rule
  /// arms from the scan's output `out`: seeded from its family state, or
  /// initialized from its kept values. `trace` (nullable) receives
  /// summary-insert / maintainer-arm spans.
  Status CacheComputedResult(const std::string& view, ViewState* state,
                             const SummaryKey& key,
                             const FunctionDescriptor& fn,
                             const SummaryResult& result,
                             const ScanOutput& out, QueryTrace* trace);

  /// Runs `body(trace)`, a mutation body returning a Status or Result,
  /// under a fresh causal context and a trace labeled `operation` when
  /// WantTrace(), and finishes it through FinishOperation as `op`.
  template <typename Body>
  auto TracedMutation(OpClass op, const char* operation,
                      const std::string& view, const std::string& attribute,
                      Body&& body);

  /// Update/Rollback/RegenerateDerivedColumn bodies, run through
  /// TracedMutation. `trace` (nullable) receives the phase spans.
  Result<uint64_t> UpdateUnderContext(const std::string& view,
                                      const UpdateSpec& spec,
                                      QueryTrace* trace);
  Status RollbackUnderContext(const std::string& view,
                              uint64_t target_version, QueryTrace* trace);
  Status RegenerateUnderContext(const std::string& view,
                                const std::string& column, QueryTrace* trace);

  /// Recover() body; the public wrapper owns the "recover"-labeled trace
  /// whose spans (WAL scan, redo replay, manifest apply, fallback
  /// invalidation) `trace` (nullable) receives.
  Status RecoverImpl(QueryTrace* trace);

  /// True when the query wrappers should build a QueryTrace: a sink is
  /// attached, or the slow-query log wants completed traces to capture.
  bool WantTrace() const {
    return trace_sink_ != nullptr || flight_.slow_log().enabled();
  }

  /// The one stats walk: DumpMetrics renders it as JSON, TickTimeseries
  /// flattens it into a point.
  obs::JsonObject WalkStats();

  /// Mutation-path hook: bumps the mutation sequence and auto-ticks the
  /// timeseries when EnableTimeseries armed a cadence.
  void MaybeTickTimeseries();

  /// Summary-Database upkeep after `change` landed on `attribute`.
  Status MaintainSummaries(const std::string& view_name, ViewState* state,
                           const std::string& attribute,
                           const ColumnChange& change);

  /// Marks every kRegenerate column that reads `attribute` out of date
  /// and invalidates its summaries; the next read regenerates it.
  Status ExpireGeneratedColumns(const std::string& view_name,
                                ViewState* state,
                                const std::string& attribute);

  StorageManager* storage_;
  std::string tape_device_;
  std::string disk_device_;
  Catalog catalog_;
  ManagementDatabase mdb_;
  std::map<std::string, std::unique_ptr<StoredRowTable>> raw_tables_;
  std::map<std::string, ViewState> views_;

  std::unique_ptr<RedoLog> wal_;  // nullptr = durability off
  std::string wal_device_name_;

  /// Latches the small pieces of session state that concurrent readers
  /// (DumpMetrics, the degraded/recoveries accessors) observe while the
  /// mutation path writes them. Leaf lock: never held across I/O, WAL
  /// appends, or calls into other latched subsystems.
  mutable Mutex session_mu_;
  bool degraded_ STATDB_GUARDED_BY(session_mu_) = false;
  std::string degraded_reason_ STATDB_GUARDED_BY(session_mu_);
  uint64_t recoveries_ STATDB_GUARDED_BY(session_mu_) = 0;

  MetricsRegistry metrics_;
  /// Declared after metrics_: the tracker registers its class
  /// instruments there.
  SloTracker slo_{&metrics_};
  std::vector<SloClass*> slo_classes_;  // by OpClass, resolved at start
  FlightRecorder flight_;
  WorkloadProfiler profiler_;
  /// Scan throughput counts the data devices' reads, not the WAL's.
  MetricsTimeseries timeseries_{
      MetricsTimeseries::kDefaultCapacity,
      {"devices." + tape_device_ + ".io.bytes_read",
       "devices." + disk_device_ + ".io.bytes_read"}};
  // 0 = manual TickTimeseries only
  uint64_t ts_every_n_mutations_ STATDB_GUARDED_BY(session_mu_) = 0;
  uint64_t ts_mutations_since_tick_ STATDB_GUARDED_BY(session_mu_) = 0;
  // lifetime successful mutations
  uint64_t mutation_seq_ STATDB_GUARDED_BY(session_mu_) = 0;
  TraceSink* trace_sink_ = nullptr;  // not owned
  /// Planner kill switch: compressed-domain scans over RLE sidecars.
  bool compressed_scan_enabled_ = true;
  // Instruments resolved once at construction; bumped lock-free after.
  LatencyHistogram* obs_query_ms_ = nullptr;
  LatencyHistogram* obs_pool_task_ms_ = nullptr;
  Counter* obs_outcomes_[6] = {};  // indexed by TraceOutcome
  // Which scan path the planner chose (computed answers only).
  Counter* obs_scan_compressed_ = nullptr;
  Counter* obs_scan_materialized_ = nullptr;
  Counter* obs_pool_submitted_ = nullptr;
  Counter* obs_pool_executed_ = nullptr;
  Counter* obs_pool_rejected_ = nullptr;
  Gauge* obs_pool_queue_max_ = nullptr;
  Gauge* obs_pool_task_ms_total_ = nullptr;
  // Delta engine instruments (dbms.delta.*).
  Counter* obs_delta_buffered_ = nullptr;
  Counter* obs_delta_flushed_ = nullptr;
  Counter* obs_delta_policy_switches_ = nullptr;
  // Order-state instruments (dbms.order_state.*).
  Gauge* obs_order_bytes_ = nullptr;
  Counter* obs_order_builds_ = nullptr;
  Counter* obs_order_merges_ = nullptr;
  Counter* obs_order_evictions_ = nullptr;
  /// The order-state clock: one tick per use.
  uint64_t order_clock_ = 0;

  /// Delta engine knobs + the per-(view, attribute) strategy machine.
  delta::DeltaConfig delta_config_;
  delta::PolicyController delta_policy_;
#ifdef STATDB_AUDIT
  bool audit_after_update_ = true;
#else
  bool audit_after_update_ = false;
#endif

  /// Snapshot-isolation session layer; nullptr until EnableSessions.
  /// unique_ptr of an incomplete type: the destructor is in dbms.cc,
  /// which includes session/session.h.
  std::unique_ptr<session::SessionManager> sessions_;

  /// The exec pool (ExecPool). Declared last, so it joins its workers
  /// before the instruments it records into go away.
  Mutex exec_pool_mu_;
  std::unique_ptr<ThreadPool> exec_pool_ STATDB_GUARDED_BY(exec_pool_mu_);
};

}  // namespace statdb

#endif  // STATDB_CORE_DBMS_H_
