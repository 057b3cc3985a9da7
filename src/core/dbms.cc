#include "core/dbms.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <thread>

#include "check/db_auditor.h"
#include "delta/maintenance.h"
#include "exec/chunked_scanner.h"
#include "exec/compressed_scan.h"
#include "exec/thread_pool.h"
#include "flight/chrome_trace.h"
#include "obs/json.h"
#include "relational/bound_expr.h"
#include "session/session.h"
#include "storage/column_file.h"
#include "stats/descriptive.h"
#include "stats/moment_fold.h"
#include "stats/crosstab.h"
#include "stats/regression.h"

namespace statdb {

namespace {

TraceOutcome OutcomeOfSource(AnswerSource source) {
  switch (source) {
    case AnswerSource::kCacheHit: return TraceOutcome::kCacheHit;
    case AnswerSource::kStaleCacheHit: return TraceOutcome::kStaleCacheHit;
    case AnswerSource::kInferred: return TraceOutcome::kInferred;
    case AnswerSource::kComputed: return TraceOutcome::kComputed;
  }
  return TraceOutcome::kUnknown;
}

/// Batch provenance: the most expensive source any request needed.
TraceOutcome OutcomeOfBatch(const std::vector<QueryAnswer>& answers) {
  TraceOutcome out = TraceOutcome::kCacheHit;
  for (const QueryAnswer& a : answers) {
    TraceOutcome o = OutcomeOfSource(a.source);
    if (static_cast<uint8_t>(o) > static_cast<uint8_t>(out)) out = o;
  }
  return answers.empty() ? TraceOutcome::kUnknown : out;
}

uint64_t PagesOf(uint64_t rows) {
  return (rows + ColumnFile::kCellsPerPage - 1) / ColumnFile::kCellsPerPage;
}

/// How the attribute's stored raws decode for the compressed-domain
/// kernels (mirrors TransposedTable's cell encoding). Callers only reach
/// here after CheckQueryable, so the attribute is numeric.
simd::RunValueKind RunKindOf(const Schema& schema, size_t attr_idx) {
  return schema.attr(attr_idx).type == DataType::kDouble
             ? simd::RunValueKind::kDoubleBits
             : simd::RunValueKind::kInt64;
}

/// "view.fn(attr)" — the label format the flight recorder and the
/// workload profiler share, so `top` rows and flight events correlate.
std::string QueryLabel(const std::string& view, const std::string& function,
                       const std::string& attribute) {
  return view + "." + function + "(" + attribute + ")";
}

/// SLO class names, indexed by StatisticalDbms::OpClass.
constexpr const char* kOpClassNames[] = {
    "query",         "query_parallel", "query_filtered",
    "query_many",    "bivariate",      "group_compare",
    "update",        "rollback",       "recover",
    "regenerate"};

/// "a" or "a,b": the attribute part of trace, flight and profiler labels.
std::string AttributeLabel(const std::vector<std::string>& attributes) {
  std::string label;
  for (const std::string& attr : attributes) {
    if (!label.empty()) label += ",";
    label += attr;
  }
  return label;
}

/// A coerced filter as doubles: the one predicate RLE runs and column
/// chunks apply. Fails on a null endpoint.
Result<simd::RunPredicate> RunPredicateOf(const FilterPredicate& f) {
  static_assert(uint8_t(FilterPredicate::Kind::kEqual) ==
                    uint8_t(simd::RunPredicate::Kind::kEqual) &&
                uint8_t(FilterPredicate::Kind::kRange) ==
                    uint8_t(simd::RunPredicate::Kind::kRange));
  simd::RunPredicate rp;
  rp.kind = static_cast<simd::RunPredicate::Kind>(f.kind);
  if (f.kind == FilterPredicate::Kind::kEqual) {
    STATDB_ASSIGN_OR_RETURN(rp.equal, f.equal.ToDouble());
  } else if (f.kind == FilterPredicate::Kind::kRange) {
    STATDB_ASSIGN_OR_RETURN(rp.lo, f.lo.ToDouble());
    STATDB_ASSIGN_OR_RETURN(rp.hi, f.hi.ToDouble());
  }
  return rp;
}

/// A materialized cell against a coerced filter; nulls never pass a
/// range.
bool Passes(const FilterPredicate& f, const Value& cell) {
  switch (f.kind) {
    case FilterPredicate::Kind::kAll:
      return true;
    case FilterPredicate::Kind::kEqual:
      return cell == f.equal;
    case FilterPredicate::Kind::kRange:
      return !cell.is_null() && !(cell < f.lo) && !(f.hi < cell);
  }
  return false;
}

/// A cell as a double; nullopt when missing or non-numeric.
std::optional<double> NumberOf(const Value& v) {
  if (v.is_null()) return std::nullopt;
  Result<double> d = v.ToDouble();
  return d.ok() ? std::optional<double>(*d) : std::nullopt;
}

/// The one answer of a single-request pipeline call.
Result<QueryAnswer> SingleAnswer(Result<std::vector<QueryAnswer>> answers) {
  if (!answers.ok()) return std::move(answers).status();
  return std::move(answers.value().front());
}

/// Moves a column scan's states into the output's family state.
void TakeColumn(ColumnScanResult&& column, FamilyState* out) {
  out->moments = column.desc;
  out->counts = std::move(column.counts);
  out->values = std::move(column.values);
}

}  // namespace

StatisticalDbms::StatisticalDbms(StorageManager* storage,
                                 std::string tape_device,
                                 std::string disk_device)
    : storage_(storage),
      tape_device_(std::move(tape_device)),
      disk_device_(std::move(disk_device)) {
  // Resolve the hot-path instruments once; queries bump them lock-free.
  obs_query_ms_ = metrics_.GetHistogram("dbms.query_ms");
  obs_pool_task_ms_ = metrics_.GetHistogram("exec.pool.task_ms");
  for (size_t i = 0; i < std::size(obs_outcomes_); ++i) {
    obs_outcomes_[i] = metrics_.GetCounter(
        std::string("dbms.answers.") + TraceOutcomeName(TraceOutcome(i)));
  }
  obs_scan_compressed_ = metrics_.GetCounter("dbms.scan.compressed_domain");
  obs_scan_materialized_ = metrics_.GetCounter("dbms.scan.materialized");
  obs_pool_submitted_ = metrics_.GetCounter("exec.pool.tasks_submitted");
  obs_pool_executed_ = metrics_.GetCounter("exec.pool.tasks_executed");
  obs_pool_rejected_ = metrics_.GetCounter("exec.pool.tasks_rejected");
  obs_pool_queue_max_ = metrics_.GetGauge("exec.pool.queue_depth_max");
  obs_pool_task_ms_total_ = metrics_.GetGauge("exec.pool.task_ms_total");
  obs_delta_buffered_ = metrics_.GetCounter("dbms.delta.buffered");
  obs_delta_flushed_ = metrics_.GetCounter("dbms.delta.flushed");
  obs_delta_policy_switches_ =
      metrics_.GetCounter("dbms.delta.policy_switches");
  obs_order_bytes_ = metrics_.GetGauge("dbms.order_state.bytes");
  obs_order_builds_ = metrics_.GetCounter("dbms.order_state.builds");
  obs_order_merges_ = metrics_.GetCounter("dbms.order_state.merges");
  obs_order_evictions_ = metrics_.GetCounter("dbms.order_state.evictions");
  static_assert(std::size(kOpClassNames) ==
                size_t(OpClass::kRegenerate) + 1);
  for (const char* name : kOpClassNames) {
    slo_classes_.push_back(slo_.GetClass(name));
  }

  // Black-box wiring: the storage layer below reports I/O retries,
  // checksum DATA_LOSS verdicts and injected faults into the same ring
  // the query paths feed. STATDB_FLIGHT_DUMP (a path) arms the
  // dump-on-first-failure behavior the crash matrix relies on, and turns
  // on slow-query capture so the incident document carries the slow
  // traces that led up to it. getenv is fine here: read once during
  // construction, before any worker thread exists, and nothing in
  // statdb calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* dump_path = std::getenv("STATDB_FLIGHT_DUMP");
      dump_path != nullptr && dump_path[0] != '\0') {
    flight_.set_auto_dump_path(dump_path);
    flight_.slow_log().set_enabled(true);
  }
  for (const std::string& dev : {tape_device_, disk_device_}) {
    if (Result<BufferPool*> pool = storage_->GetPool(dev); pool.ok()) {
      pool.value()->set_flight_recorder(&flight_);
    }
    if (Result<SimulatedDevice*> device = storage_->GetDevice(dev);
        device.ok()) {
      device.value()->set_flight_recorder(&flight_);
    }
  }
}

StatisticalDbms::~StatisticalDbms() {
  std::vector<std::string> wired = {tape_device_, disk_device_};
  if (!wal_device_name_.empty()) wired.push_back(wal_device_name_);
  for (const std::string& dev : wired) {
    if (Result<BufferPool*> pool = storage_->GetPool(dev); pool.ok()) {
      pool.value()->set_flight_recorder(nullptr);
    }
    if (Result<SimulatedDevice*> device = storage_->GetDevice(dev);
        device.ok()) {
      device.value()->set_flight_recorder(nullptr);
    }
  }
}

std::string StatisticalDbms::DumpChromeTrace(uint64_t trace_id_filter) {
  std::vector<QueryTrace> traces;
  for (const SlowQueryLog::Entry& e : flight_.slow_log().Snapshot()) {
    traces.push_back(e.trace);
  }
  return ExportChromeTrace(traces, flight_.SnapshotEvents(),
                           trace_id_filter);
}

void StatisticalDbms::TickTimeseries() {
  StatPoint p;
  p.t_ms = flight_.NowMs();
  {
    MutexLock lock(session_mu_);
    p.seq = mutation_seq_;
  }
  p.values = WalkStats().Flatten();
  timeseries_.Push(std::move(p));
}

void StatisticalDbms::EnableTimeseries(uint64_t every_n_mutations) {
  {
    MutexLock lock(session_mu_);
    ts_every_n_mutations_ = every_n_mutations;
    ts_mutations_since_tick_ = 0;
  }
  // Outside the latch: TickTimeseries re-reads mutation_seq_.
  if (every_n_mutations > 0) TickTimeseries();  // the delta baseline
}

void StatisticalDbms::MaybeTickTimeseries() {
  bool tick = false;
  {
    MutexLock lock(session_mu_);
    ++mutation_seq_;
    tick = ts_every_n_mutations_ != 0 &&
           ++ts_mutations_since_tick_ % ts_every_n_mutations_ == 0;
  }
  if (tick) TickTimeseries();
}

std::string StatisticalDbms::ExposeText() {
  TickTimeseries();
  return timeseries_.ExposeText();
}

QueryTrace* StatisticalDbms::BeginTrace(std::optional<QueryTrace>* slot,
                                        const causal::TraceContext& ctx,
                                        std::string operation,
                                        std::string view,
                                        std::string function,
                                        std::string attribute) {
  if (!WantTrace()) return nullptr;
  QueryTrace& trace = slot->emplace();
  trace.SetLabel(std::move(operation), std::move(view), std::move(function),
                 std::move(attribute));
  trace.SetContext(ctx.trace_id, ctx.session_id, ctx.query_seq);
  return &trace;
}

double StatisticalDbms::FinishOperation(OpClass op, const TraceTimer& timer,
                                        TraceOutcome outcome,
                                        QueryTrace* trace) {
  const double ms = timer.ElapsedMs();
  slo_classes_[size_t(op)]->Record(ms, outcome == TraceOutcome::kError);
  if (op < OpClass::kUpdate) {
    obs_query_ms_->Record(ms);
    obs_outcomes_[size_t(outcome)]->Inc();
  }
  if (trace != nullptr) {
    trace->SetOutcome(outcome);
    trace->SetTotalMs(ms);
    if (trace_sink_ != nullptr) trace_sink_->OnQueryTrace(*trace);
    flight_.slow_log().MaybeCapture(*trace);
  }
  return ms;
}

Status StatisticalDbms::LoadRawDataSet(const std::string& name,
                                       const Table& data,
                                       std::string description) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  if (raw_tables_.contains(name)) {
    return AlreadyExistsError("raw data set already loaded: " + name);
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(tape_device_));
  auto stored = std::make_unique<StoredRowTable>(data.schema(), pool);
  STATDB_RETURN_IF_ERROR(stored->LoadFrom(data));
  // The raw database is archival: write it through and drop it from the
  // cache so later materializations pay real tape I/O (§2.3's premise).
  STATDB_RETURN_IF_ERROR(pool->FlushAll());
  STATDB_RETURN_IF_ERROR(pool->Reset());
  raw_tables_.emplace(name, std::move(stored));
  DataSetInfo info;
  info.name = name;
  info.schema = data.schema();
  info.location = DataSetLocation::kTape;
  info.description = std::move(description);
  info.approx_rows = data.num_rows();
  STATDB_RETURN_IF_ERROR(catalog_.RegisterDataSet(std::move(info)));
  // The tape pages are already forced (FlushAll above); this commit makes
  // the catalog/table registration itself durable.
  return CommitDurable(/*attr_hint=*/"", /*force=*/true);
}

Result<Table> StatisticalDbms::ReadRawFromTape(const std::string& dataset) {
  auto it = raw_tables_.find(dataset);
  if (it == raw_tables_.end()) {
    return NotFoundError("no raw data set named " + dataset);
  }
  STATDB_ASSIGN_OR_RETURN(Table out, it->second->ReadAll());
  // Tape is streamed, not cached: drop the pages so the next
  // materialization pays full tape I/O again (a tape drive has no
  // random-access page cache to keep warm).
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(tape_device_));
  STATDB_RETURN_IF_ERROR(pool->FlushAll());
  STATDB_RETURN_IF_ERROR(pool->Reset());
  return out;
}

Result<ViewCreation> StatisticalDbms::CreateView(const std::string& name,
                                                 const ViewDefinition& def,
                                                 MaintenancePolicy policy) {
  std::string canonical = def.Canonical();
  Result<std::string> existing = mdb_.FindViewByDefinition(canonical);
  if (existing.ok()) {
    // §2.3: never re-materialize a view identical to an existing one.
    return ViewCreation{existing.value(), /*reused=*/true};
  }
  STATDB_RETURN_IF_ERROR(GuardMutable());
  if (views_.contains(name)) {
    return AlreadyExistsError("view name already in use: " + name);
  }
  // kCreate captures nothing (there is no pre-image); the scope
  // serializes against other writers and registers the new view with
  // the session routing table at publish. On failure the auto-publish
  // carries a null pointer, which registers nothing. The reuse path
  // above takes no scope: nothing mutates, and re-publishing an
  // untouched view would needlessly bump every pinned route.
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kCreate, name,
                               nullptr);
  if (!scope.ok()) return scope.status();
  STATDB_ASSIGN_OR_RETURN(Table raw, ReadRawFromTape(def.source));
  STATDB_ASSIGN_OR_RETURN(Table materialized, def.Materialize(raw));
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(disk_device_));
  ViewState state;
  state.view = std::make_unique<ConcreteView>(name, materialized.schema(),
                                              pool);
  STATDB_RETURN_IF_ERROR(state.view->LoadFrom(materialized));
  // Build RLE sidecars over the freshly loaded columns (best-effort;
  // columns that would not compress keep none). Before the flush so the
  // sidecar pages persist with the view's.
  STATDB_RETURN_IF_ERROR(state.view->CompressColumns());
  // Persist the freshly materialized view (the buffer pool stays warm).
  // Under durability the flush must wait for the commit record: the
  // commit below appends the dirty images to the WAL first and flushes
  // itself (force-at-commit).
  if (wal_ == nullptr) {
    STATDB_RETURN_IF_ERROR(pool->FlushAll());
  }
  STATDB_ASSIGN_OR_RETURN(state.summary, SummaryDatabase::Create(pool));
  STATDB_RETURN_IF_ERROR(mdb_.RegisterView(name, canonical, policy));
  DataSetInfo info;
  info.name = name;
  info.schema = materialized.schema();
  info.location = DataSetLocation::kDisk;
  info.description = "concrete view: " + canonical;
  info.approx_rows = materialized.num_rows();
  STATDB_RETURN_IF_ERROR(catalog_.RegisterDataSet(std::move(info)));
  auto [vit, inserted] = views_.emplace(name, std::move(state));
  scope.Publish(vit->second.view.get());
  STATDB_RETURN_IF_ERROR(CommitDurable(/*attr_hint=*/"", /*force=*/true));
  return ViewCreation{name, /*reused=*/false};
}

Result<StatisticalDbms::ViewState*> StatisticalDbms::GetState(
    const std::string& view) {
  auto it = views_.find(view);
  if (it == views_.end()) {
    return NotFoundError("no view named " + view);
  }
  return &it->second;
}

Result<ConcreteView*> StatisticalDbms::GetView(const std::string& name) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(name));
  return state->view.get();
}

Status StatisticalDbms::DropView(const std::string& name) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  auto vit = views_.find(name);
  if (vit == views_.end()) {
    return NotFoundError("no view named " + name);
  }
  // Pinned sessions keep reading the captures installed here; sessions
  // opened after the drop see NOT_FOUND. The erase below destroys the
  // ConcreteView, so the grace period in the scope's Begin is what makes
  // it safe — and the drop must publish before this function returns
  // (the destructor auto-publishes the drop on error paths too: by then
  // mdb_/catalog state is partially gone, so "dropped" is the only
  // truthful route).
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kDrop, name,
                               vit->second.view.get());
  if (!scope.ok()) return scope.status();
  STATDB_RETURN_IF_ERROR(mdb_.DropView(name));
  STATDB_RETURN_IF_ERROR(catalog_.UnregisterDataSet(name));
  views_.erase(name);
  NoteOrderStateBytes();
  // Policy state is keyed by "view.attr": a later view reusing the name
  // must start from the default strategy, not inherit hysteresis streaks.
  delta_policy_.EraseView(name);
  // Metadata-only mutation: no pages dirtied, but the drop must reach the
  // log or recovery would resurrect the view.
  return CommitDurable(/*attr_hint=*/"", /*force=*/true);
}

Result<Table> StatisticalDbms::RematerializeFromTape(
    const std::string& view_name) {
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view_name));
  (void)rec;
  // The typed definition is not persisted; benchmarks re-supply it. Here
  // we re-read the raw source of the existing view by snapshotting its
  // catalog entry's source. For simplicity the canonical definition
  // encodes "FROM <source>..." — parse the source token.
  const std::string& canonical = rec->canonical_definition;
  if (canonical.rfind("FROM ", 0) != 0) {
    return InternalError("unparseable view definition");
  }
  size_t end = canonical.find(' ', 5);
  std::string source = canonical.substr(
      5, end == std::string::npos ? std::string::npos : end - 5);
  return ReadRawFromTape(source);
}

Status StatisticalDbms::CheckQueryable(const Schema& schema,
                                       const std::string& function,
                                       const std::string& attribute) const {
  // Meta-data gate (§3.2): no medians of AGE_GROUP codes.
  STATDB_ASSIGN_OR_RETURN(size_t attr_idx, schema.IndexOf(attribute));
  const Attribute& attr = schema.attr(attr_idx);
  bool numeric = attr.type == DataType::kInt64 ||
                 attr.type == DataType::kDouble;
  if (!numeric) {
    return InvalidArgumentError("attribute " + attribute +
                                " is not numeric");
  }
  Result<const FunctionDescriptor*> fn = mdb_.functions().Find(function, 1);
  if ((!attr.summarizable || attr.kind == AttributeKind::kCategory) &&
      !(fn.ok() && fn.value()->on_categories)) {
    return InvalidArgumentError(
        "summary statistic '" + function +
        "' is not meaningful for category attribute " + attribute);
  }
  return Status::OK();
}

/// One planned scan: its route, the batch requests it answers, whether
/// they arm maintainers, and what a column scan accumulates.
struct StatisticalDbms::PlannedScan {
  QueryRoute route = QueryRoute::kColumnChunks;
  std::vector<size_t> members;
  /// Each member's function, from the gate.
  std::vector<const FunctionDescriptor*> fns;
  /// The attribute's current order state, merged at planning; the
  /// members with an order finish read it.
  const OrderState* order = nullptr;
  /// Those members have no current state: the scan gathers and the
  /// pipeline builds one from the gather.
  bool build_order = false;
  bool arm = false;
  bool want_moments = false;
  bool extremes_only = false;
  bool want_counts = false;
  bool keep_values = false;
  /// The RLE sidecar of a univariate scan's attribute, if attached.
  std::shared_ptr<const CompressedColumnFile> sidecar;
};

/// One request's finish: its answer or error, the rows it read and its
/// own wall time (fan-out finishes only).
struct StatisticalDbms::FinishedQuery {
  std::optional<Result<SummaryResult>> result;
  uint64_t rows = 0;
  double ms = 0;
};

/// What a route's scan leaves for FinishQuery and the maintainer arm:
/// the family states it folded (welch_t's groups are `moments` and
/// `group_b`) and the values it gathered.
struct StatisticalDbms::ScanOutput : FamilyState {
  uint64_t rows = 0;  // cells a column route read, before any filter;
                      // pairs a pair route read
  /// The order state the members with an order finish read: the
  /// planned one, or the one built from this scan's gather.
  const OrderState* order = nullptr;
  /// A built state the budget could not keep lives here for the batch.
  std::optional<OrderState> spare_order;
};

Result<const FunctionDescriptor*> StatisticalDbms::Gate(
    const Schema& schema, const PlannedQuery& query) const {
  // The meta-data gate, by attribute role: a summarized attribute must be
  // queryable (§3.2); pair and group requests keep their historical
  // acceptance — a cross-tab of category codes is the point — and need
  // only a known function. A cross-tab counts integer codes, so both of
  // its attributes must be stored as integers.
  if (query.attributes.size() == 1) {
    STATDB_RETURN_IF_ERROR(
        CheckQueryable(schema, query.function, query.attributes.front()));
    return mdb_.functions().Find(query.function, 1);
  }
  Result<const FunctionDescriptor*> fn =
      mdb_.functions().Find(query.function, 2);
  if (!fn.ok() || (fn.value()->family == FunctionFamily::kGroupMoments) !=
                      query.group_codes.has_value()) {
    return InvalidArgumentError("unknown bivariate function " +
                                query.function);
  }
  if (fn.value()->family == FunctionFamily::kCodePairs) {
    for (const std::string& attr : query.attributes) {
      STATDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr));
      if (schema.attr(idx).type != DataType::kInt64) {
        return InvalidArgumentError(
            "bivariate cross-tab needs integer-coded attributes");
      }
    }
  }
  return fn;
}

Result<bool> StatisticalDbms::TryAnswerWithoutComputing(
    const std::string& view, ViewState* state, const PlannedQuery& query,
    const SummaryKey& key, const QueryOptions& opts, QueryAnswer* answer,
    QueryTrace* trace) {
  // Flush barrier (§16): a cached entry with pending deltas is behind
  // the data without being marked stale, so an exact serve must apply
  // the batch first. allow_stale accepts it as-is — the analyst already
  // opted into approximate answers — and the staleness-gate arithmetic
  // below stays on entry versions, which flushing freshens.
  if (!opts.allow_stale) {
    for (const std::string& attr : key.attributes) {
      if (state->deltas.HasPending(attr)) {
        STATDB_RETURN_IF_ERROR(FlushAttributeDeltas(view, state, attr));
      }
    }
  }
  Result<SummaryEntry> cached = [&] {
    ScopedSpan span(trace, SpanKind::kCacheProbe);
    return state->summary->Lookup(key);
  }();
  const std::string label =
      query.function + "(" + AttributeLabel(query.attributes) + ")";
  if (cached.ok() && !cached.value().stale) {
    ++state->traffic.cache_hits;
    flight_.Record(causal::Current(), FlightEventKind::kCacheHit, label);
    *answer = QueryAnswer{cached.value().result, AnswerSource::kCacheHit,
                          true, ""};
    return true;
  }
  if (cached.ok() && cached.value().stale) {
    ScopedSpan span(trace, SpanKind::kStalenessGate);
    if (opts.allow_stale ||
        (opts.max_version_lag > 0 &&
         state->view->version() - cached.value().view_version <=
             opts.max_version_lag)) {
      ++state->traffic.stale_hits;
      state->summary->NoteServedStale();
      flight_.Record(causal::Current(), FlightEventKind::kStaleServe, label,
                     int64_t(state->view->version() -
                             cached.value().view_version));
      *answer = QueryAnswer{cached.value().result,
                            AnswerSource::kStaleCacheHit, false,
                            "stale cached value"};
      return true;
    }
  }
  flight_.Record(causal::Current(), FlightEventKind::kCacheMiss, label);

  // The Database-Abstract rules derive univariate statistics only.
  if (opts.allow_inference && query.attributes.size() == 1) {
    ScopedSpan span(trace, SpanKind::kInference);
    Result<InferenceResult> inferred =
        InferFromSummaries(state->summary.get(), query.function,
                           query.attributes.front(), query.params);
    if (inferred.ok() &&
        (inferred.value().exact || opts.allow_estimates)) {
      ++state->traffic.inferred;
      *answer = QueryAnswer{inferred.value().result, AnswerSource::kInferred,
                            inferred.value().exact,
                            inferred.value().derivation};
      return true;
    }
  }
  return false;
}

Status StatisticalDbms::CacheComputedResult(const std::string& view,
                                            ViewState* state,
                                            const SummaryKey& key,
                                            const FunctionDescriptor& fn,
                                            const SummaryResult& result,
                                            const ScanOutput& out,
                                            QueryTrace* trace) {
  {
    ScopedSpan span(trace, SpanKind::kSummaryInsert);
    STATDB_RETURN_IF_ERROR(
        state->summary->Insert(key, result, state->view->version()));
  }
  // Arm the function's incremental rule when it has one and the view
  // maintains incrementally, from the scan's own states (§16).
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view));
  if (rec->policy != MaintenancePolicy::kIncremental || fn.rule == nullptr) {
    return Status::OK();
  }
  ScopedSpan span(trace, SpanKind::kMaintainerArm);
  const uint64_t rows = fn.arity == 2 ? out.comoments.n : out.rows;
  span.SetRows(rows);
  // Arming routes through the delta engine (R7: dbms never drives
  // maintainer arms directly), so the flush path owns every maintainer
  // lifecycle transition.
  if (delta::ArmMaintainer(mdb_, key, out, &state->maintainers) &&
      flight_.enabled()) {
    flight_.Record(causal::Current(), FlightEventKind::kMaintainerArm,
                   QueryLabel(view, key.function,
                              AttributeLabel(key.attributes)),
                   /*a=*/0, int64_t(rows));
  }
  return Status::OK();
}

// --- the query pipeline (DESIGN.md §9) --------------------------------------

Result<QueryAnswer> StatisticalDbms::Query(const std::string& view,
                                           const std::string& function,
                                           const std::string& attribute,
                                           const FunctionParams& params,
                                           const QueryOptions& opts) {
  return SingleAnswer(RunQueries("query", OpClass::kQuery, view,
                                 {{function, {attribute}, params, {}, {}}},
                                 opts, /*workers=*/1));
}

Result<QueryAnswer> StatisticalDbms::QueryParallel(
    const std::string& view, const std::string& function,
    const std::string& attribute, const FunctionParams& params,
    const QueryOptions& opts, size_t workers) {
  return SingleAnswer(RunQueries("queryp", OpClass::kQueryParallel, view,
                                 {{function, {attribute}, params, {}, {}}},
                                 opts, workers));
}

Result<QueryAnswer> StatisticalDbms::QueryFiltered(
    const std::string& view, const std::string& function,
    const std::string& attribute, const FilterPredicate& pred,
    const FunctionParams& params) {
  return SingleAnswer(RunQueries("queryfiltered", OpClass::kQueryFiltered,
                                 view,
                                 {{function, {attribute}, params, pred, {}}},
                                 {}, /*workers=*/1));
}

Result<std::vector<QueryAnswer>> StatisticalDbms::QueryMany(
    const std::string& view, const std::vector<QueryRequest>& requests,
    const QueryOptions& opts, size_t workers) {
  std::vector<PlannedQuery> batch;
  batch.reserve(requests.size());
  for (const QueryRequest& r : requests) {
    batch.push_back({r.function, {r.attribute}, r.params, {}, {}});
  }
  return RunQueries("querymany", OpClass::kQueryMany, view, batch, opts,
                    workers);
}

Result<QueryAnswer> StatisticalDbms::QueryBivariate(
    const std::string& view, const std::string& function,
    const std::string& attr_a, const std::string& attr_b,
    const QueryOptions& opts) {
  return SingleAnswer(RunQueries("bivariate", OpClass::kBivariate, view,
                                 {{function, {attr_a, attr_b}, {}, {}, {}}},
                                 opts, /*workers=*/1));
}

Result<QueryAnswer> StatisticalDbms::QueryBivariateParallel(
    const std::string& view, const std::string& function,
    const std::string& attr_a, const std::string& attr_b,
    const QueryOptions& opts, size_t workers) {
  return SingleAnswer(RunQueries("bivariate", OpClass::kBivariate, view,
                                 {{function, {attr_a, attr_b}, {}, {}, {}}},
                                 opts, workers));
}

Result<QueryAnswer> StatisticalDbms::QueryGroupCompare(
    const std::string& view, const std::string& value_attr,
    const std::string& category_attr, int64_t code_a, int64_t code_b,
    const QueryOptions& opts) {
  return SingleAnswer(RunQueries(
      "groupcompare", OpClass::kGroupCompare, view,
      {{"welch_t",
        {value_attr, category_attr},
        FunctionParams().Set("a", double(code_a)).Set("b", double(code_b)),
        std::nullopt,
        std::make_pair(code_a, code_b)}},
      opts, /*workers=*/1));
}

Result<std::vector<QueryAnswer>> StatisticalDbms::RunQueries(
    const std::string& operation, OpClass op, const std::string& view,
    const std::vector<PlannedQuery>& batch, const QueryOptions& opts,
    size_t workers) {
  causal::ScopedTraceContext scope(causal::Mint());
  TraceTimer timer;
  std::optional<QueryTrace> trace;
  const bool many = op == OpClass::kQueryMany;
  QueryTrace* tr = BeginTrace(
      &trace, scope.ctx(), operation, view,
      many ? "[" + std::to_string(batch.size()) + " requests]"
           : batch.front().function,
      many ? "" : AttributeLabel(batch.front().attributes));
  if (flight_.enabled()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      flight_.Record(scope.ctx(), FlightEventKind::kQueryBegin,
                     QueryLabel(view, batch[i].function,
                                AttributeLabel(batch[i].attributes)),
                     static_cast<int64_t>(i));
    }
  }
  Result<std::vector<QueryAnswer>> r =
      RunPipeline(view, batch, opts, workers, tr);
  const double ms = FinishOperation(
      op, timer, r.ok() ? OutcomeOfBatch(r.value()) : TraceOutcome::kError,
      tr);
  // Per-request provenance for the flight ring (kQueryEnd) and the
  // workload profiler; a batch's wall time is split evenly (per-request
  // time is not observable once scans are shared across requests).
  const double per_request_ms = batch.empty() ? 0 : ms / double(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string attribute = AttributeLabel(batch[i].attributes);
    const TraceOutcome o =
        r.ok() ? OutcomeOfSource(r.value()[i].source) : TraceOutcome::kError;
    if (flight_.enabled()) {
      flight_.Record(scope.ctx(), FlightEventKind::kQueryEnd,
                     QueryLabel(view, batch[i].function, attribute),
                     static_cast<int64_t>(o), 0, per_request_ms);
    }
    profiler_.NoteQuery(view, batch[i].function, attribute, o,
                        per_request_ms);
  }
  if (r.ok()) {
    CommitAfterQuery(batch.empty() ? "" : batch.front().attributes.front());
  }
  return r;
}

Result<std::vector<QueryAnswer>> StatisticalDbms::RunPipeline(
    const std::string& view, const std::vector<PlannedQuery>& batch,
    const QueryOptions& opts, size_t workers, QueryTrace* trace) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view));
  const ConcreteView* cv = state->view.get();
  const Schema& schema = cv->schema();

  // Gate and cache consult, per request. Requests left to compute are
  // grouped into scans in first-appearance order: unfiltered univariate
  // requests on one attribute share a scan (QueryMany's one pass per
  // attribute); any other request scans alone.
  std::vector<QueryAnswer> answers(batch.size());
  // Encoded key -> the request that owns the computation; later
  // duplicates alias that slot instead of recomputing or re-inserting.
  std::map<std::string, size_t> primary;
  std::vector<std::optional<size_t>> alias_of(batch.size());
  std::vector<PlannedScan> scans;
  std::map<std::string, size_t> scan_of_attribute;
  for (size_t i = 0; i < batch.size(); ++i) {
    const PlannedQuery& q = batch[i];
    ++state->traffic.queries;
    for (const std::string& attr : q.attributes) {
      ++state->traffic.attribute_accesses[attr];
    }
    STATDB_ASSIGN_OR_RETURN(const FunctionDescriptor* fn, Gate(schema, q));
    if (!q.filter) {
      SummaryKey key = q.Key();
      auto [owner, first] = primary.emplace(key.Encode(), i);
      if (!first) {
        alias_of[i] = owner->second;
        continue;
      }
      STATDB_ASSIGN_OR_RETURN(
          bool answered, TryAnswerWithoutComputing(view, state, q, key, opts,
                                                   &answers[i], trace));
      if (answered) continue;
    }
    size_t s = scans.size();
    if (q.attributes.size() == 1 && !q.filter) {
      s = scan_of_attribute.try_emplace(q.attributes.front(), s)
              .first->second;
    }
    if (s == scans.size()) scans.emplace_back();
    scans[s].members.push_back(i);
    scans[s].fns.push_back(fn);
  }

  // Flush before compute, even under allow_stale (which only relaxes
  // serves): a maintainer armed from the scanned data must never later
  // receive buffered deltas the data already reflects. Filtered requests
  // neither consult nor fill the Summary Database, so they skip it.
  for (const PlannedScan& scan : scans) {
    const PlannedQuery& head = batch[scan.members.front()];
    if (head.filter) continue;
    for (const std::string& attr : head.attributes) {
      if (state->deltas.HasPending(attr)) {
        STATDB_RETURN_IF_ERROR(FlushAttributeDeltas(view, state, attr));
      }
    }
  }

  // Plan: one route per scan, from facts observable right now. Order
  // states used from here on are this batch's: no build evicts them.
  const bool parallel = workers > 1;
  bool needs_pool = false;
  const uint64_t order_epoch = order_clock_ + 1;
  for (PlannedScan& scan : scans) {
    const PlannedQuery& head = batch[scan.members.front()];
    // Incremental maintainers arm from the scan's states.
    scan.arm = opts.cache_result && !head.filter &&
               rec->policy == MaintenancePolicy::kIncremental;
    if (head.attributes.size() == 2) {
      scan.route = QueryRoute::kPairs;
      needs_pool = needs_pool ||
                   scan.fns.front()->family == FunctionFamily::kComoments;
      continue;
    }
    // Shared ref, not the raw pointer: a concurrent Install/Append
    // detaches the sidecar, and this scan's reference must keep the
    // retired pages alive until it finishes.
    const std::string& attr = head.attributes.front();
    scan.sidecar = cv->CompressedSidecarRef(attr);
    bool holistic = false;
    bool reads_order = false;
    bool order_moments = false;
    for (const FunctionDescriptor* fn : scan.fns) {
      holistic = holistic || fn->family == FunctionFamily::kHolistic;
      reads_order = reads_order || fn->order_finish != nullptr;
      order_moments = order_moments || fn->order_needs_moments;
    }
    const bool compressed = compressed_scan_enabled_ &&
                            scan.sidecar != nullptr && !holistic &&
                            !scan.arm;
    // On a column route the holistic members and histograms finish from
    // the attribute's order state: a current one needs no read, and
    // without one the scan gathers and builds it (§9.1). A filtered
    // request reads its own rows, so it gathers them.
    reads_order = reads_order && !compressed && !head.filter;
    if (reads_order) {
      OrderState* order = CurrentOrderState(state, attr, trace);
      if (order != nullptr && order_moments && !order->moments()) {
        STATDB_RETURN_IF_ERROR(FoldRowMoments(*cv, attr, trace, order));
      }
      scan.order = order;
      scan.build_order = order == nullptr;
    }
    bool any_counts = false;
    bool merge_counts = false;
    bool gather = scan.build_order;
    bool extremes = true;
    for (const FunctionDescriptor* fn : scan.fns) {
      // Rules that arm from the column's values need them gathered.
      const bool arms_from_values =
          scan.arm && fn->rule != nullptr && fn->rule_needs_values;
      if (reads_order && fn->order_finish != nullptr) {
        gather = gather || arms_from_values;
        continue;
      }
      const bool moment = fn->family == FunctionFamily::kMoments;
      const bool counts = fn->family == FunctionFamily::kValueCounts;
      const bool merges = parallel && fn->hashes_counts;
      scan.want_moments = scan.want_moments || moment;
      any_counts = any_counts || counts;
      merge_counts = merge_counts || merges;
      // Column chunks fold the moments at every worker count and merge
      // mode/distinct with a pool; the rest gather.
      gather = gather || !(moment || merges) || arms_from_values;
      extremes = extremes && fn->extremes_only;
    }
    if (compressed) {
      // The runs fold every value-count function (ValueCounts::AddRun).
      scan.route = QueryRoute::kCompressedRuns;
      scan.want_counts = any_counts;
    } else if (scan.order != nullptr && !gather && !scan.want_moments &&
               !merge_counts) {
      scan.route = QueryRoute::kOrderState;
    } else {
      scan.route = QueryRoute::kColumnChunks;
      scan.want_counts = merge_counts;
      scan.keep_values = gather;
      scan.extremes_only = extremes;
    }
    scan.want_moments = scan.want_moments || scan.want_counts;
    needs_pool = true;
  }
  // The DBMS's one exec pool; this batch holds at most `workers` of its
  // threads and reads its own counters from the ledger.
  ThreadPoolStats ledger;
  PoolSlice exec;
  if (parallel && needs_pool) exec = PoolSlice(ExecPool(), workers, &ledger);

  // Execute, finish and insert.
  for (const PlannedScan& scan : scans) {
    ScanOutput out;
    STATDB_RETURN_IF_ERROR(ExecuteScan(*cv, batch, scan, exec, trace, &out));
    out.order = scan.order;
    if (scan.build_order) {
      // One gather, one sort: the state every later holistic request on
      // this attribute reads until the column changes.
      ScopedSpan span(trace, SpanKind::kOrderBuild);
      span.SetRows(out.values.size());
      out.order = KeepOrderState(state, batch[scan.members.front()]
                                            .attributes.front(),
                                 OrderState::Build(out.values), order_epoch,
                                 &out.spare_order);
    }
    // Requests sharing a scan finish on the pool; inserts, answers and
    // the first error stay serial in request order.
    const bool fan_out = exec.pool != nullptr && scan.members.size() > 1;
    std::vector<FinishedQuery> finished(scan.members.size());
    if (fan_out) {
      STATDB_RETURN_IF_ERROR(
          FinishOnPool(batch, scan, out, exec, trace, &finished));
    }
    for (size_t k = 0; k < scan.members.size(); ++k) {
      const PlannedQuery& q = batch[scan.members[k]];
      if (!fan_out) {
        ScopedSpan span(trace, SpanKind::kCompute);
        finished[k].result =
            FinishQuery(q, *scan.fns[k], scan, out, &finished[k].rows);
        span.SetRows(finished[k].rows);
      }
      STATDB_ASSIGN_OR_RETURN(SummaryResult result,
                              std::move(*finished[k].result));
      ++state->traffic.computed;
      if (opts.cache_result && !q.filter) {
        STATDB_RETURN_IF_ERROR(CacheComputedResult(
            view, state, q.Key(), *scan.fns[k], result, out, trace));
      }
      const bool pushdown =
          q.filter && scan.route == QueryRoute::kCompressedRuns;
      answers[scan.members[k]] =
          QueryAnswer{std::move(result), AnswerSource::kComputed, true,
                      pushdown ? "compressed-domain pushdown" : ""};
    }
    // Which scan path the planner chose, for the answered univariate scans.
    if (scan.route == QueryRoute::kCompressedRuns) {
      obs_scan_compressed_->Inc();
    } else if (scan.route == QueryRoute::kColumnChunks) {
      obs_scan_materialized_->Inc();
    }
  }
  if (exec.pool != nullptr) {
    // Every future of this batch has resolved, and a task is counted
    // before its future resolves: the ledger is exact.
    obs_pool_submitted_->Inc(ledger.submitted);
    obs_pool_executed_->Inc(ledger.executed);
    obs_pool_rejected_->Inc(ledger.rejected);
    obs_pool_queue_max_->MaxOf(double(ledger.max_queue_depth));
    obs_pool_task_ms_total_->Add(ledger.total_task_ms);
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    if (alias_of[i]) answers[i] = answers[*alias_of[i]];
  }
  return answers;
}

ThreadPool* StatisticalDbms::ExecPool() {
  MutexLock lock(exec_pool_mu_);
  if (exec_pool_ == nullptr) {
    exec_pool_ = std::make_unique<ThreadPool>(
        std::max(1u, std::thread::hardware_concurrency()));
    exec_pool_->set_task_latency_sink(obs_pool_task_ms_);
  }
  return exec_pool_.get();
}

Status StatisticalDbms::FinishOnPool(const std::vector<PlannedQuery>& batch,
                                     const PlannedScan& scan,
                                     const ScanOutput& out,
                                     const PoolSlice& exec, QueryTrace* trace,
                                     std::vector<FinishedQuery>* finished) {
  const double phase_start = trace != nullptr ? trace->NowOffsetMs() : 0;
  STATDB_RETURN_IF_ERROR(
      ForEachIndex(exec, scan.members.size(), [&](size_t k) {
        FinishedQuery& f = (*finished)[k];
        TraceTimer timer;
        f.result =
            FinishQuery(batch[scan.members[k]], *scan.fns[k], scan, out,
                        &f.rows);
        f.ms = timer.ElapsedMs();
        return Status::OK();
      }));
  if (trace == nullptr) return Status::OK();
  // One compute span per request, tiling the fan-out's wall time in
  // proportion to each finish's own time: the finishes overlapped, and
  // spans that overlap would attribute more time than the call took.
  const double wall = trace->NowOffsetMs() - phase_start;
  double own = 0;
  for (const FinishedQuery& f : *finished) own += f.ms;
  double start = phase_start;
  for (const FinishedQuery& f : *finished) {
    const double share =
        own > 0 ? wall * f.ms / own : wall / double(finished->size());
    trace->Add(SpanKind::kCompute, share, f.rows, 0, -1, start);
    start += share;
  }
  return Status::OK();
}

Status StatisticalDbms::ExecuteScan(const ConcreteView& cv,
                                    const std::vector<PlannedQuery>& batch,
                                    const PlannedScan& scan,
                                    const PoolSlice& exec, QueryTrace* trace,
                                    ScanOutput* out) {
  const PlannedQuery& head = batch[scan.members.front()];
  const uint64_t rows = cv.num_rows();
  switch (scan.route) {
    case QueryRoute::kCompressedRuns:
    case QueryRoute::kColumnChunks: {
      const std::string& attr = head.attributes.front();
      // Coerce filter endpoints like index probes, then compare as
      // doubles — both column routes apply the same RunPredicate.
      std::optional<simd::RunPredicate> filter;
      if (head.filter) {
        STATDB_ASSIGN_OR_RETURN(FilterPredicate coerced,
                                CoerceFilter(cv.schema(), attr, *head.filter));
        STATDB_ASSIGN_OR_RETURN(filter, RunPredicateOf(coerced));
      }
      if (scan.route == QueryRoute::kCompressedRuns) {
        // Aggregation over the RLE runs; a filter is decided once per run.
        ScopedSpan span(trace, SpanKind::kCompressedScan);
        const simd::RunValueKind kind =
            RunKindOf(cv.schema(), *cv.schema().IndexOf(attr));
        if (filter) {
          STATDB_ASSIGN_OR_RETURN(
              FilteredScanResult filtered,
              ScanCompressedFiltered(*scan.sidecar, kind, *filter,
                                     scan.want_counts, exec));
          out->moments = filtered.desc;
          out->counts = std::move(filtered.counts);
          span.SetRows(filtered.rows);
        } else {
          STATDB_ASSIGN_OR_RETURN(
              ColumnScanResult column,
              ScanCompressedColumn(*scan.sidecar, kind, scan.want_counts,
                                   exec));
          out->rows = column.rows;
          TakeColumn(std::move(column), out);
          span.SetRows(scan.sidecar->size());
        }
        span.SetPages(scan.sidecar->page_count());
        return Status::OK();
      }
      // Kernel partials with a pool, the one moment fold without.
      ColumnRangeReader reader = [&cv, &attr](uint64_t begin, uint64_t end) {
        return cv.ReadNumericRange(attr, begin, end);
      };
      ColumnScanSpec spec;
      spec.filter = filter;
      spec.want_moments = scan.want_moments;
      spec.extremes_only = scan.extremes_only;
      spec.want_counts = scan.want_counts;
      spec.keep_values = scan.keep_values;
      spec.time_chunks = trace != nullptr && exec.pool != nullptr;
      ColumnScanResult column;
      {
        ScopedSpan span(trace, SpanKind::kScan);
        STATDB_ASSIGN_OR_RETURN(
            column, ParallelScanColumn(rows, ColumnFile::kCellsPerPage,
                                       reader, spec, exec));
        span.SetRowsPaged(column.rows, ColumnFile::kCellsPerPage);
      }
      if (trace != nullptr) {
        for (size_t c = 0; c < column.chunk_stats.size(); ++c) {
          const ChunkScanStat& cs = column.chunk_stats[c];
          trace->Add(SpanKind::kScanChunk, cs.wall_ms, cs.rows,
                     PagesOf(cs.rows), int32_t(c));
        }
      }
      out->rows = column.rows;
      TakeColumn(std::move(column), out);
      return Status::OK();
    }
    case QueryRoute::kOrderState:
      return Status::OK();  // planned: the members read the order state
    case QueryRoute::kPairs: {
      // Row-aligned numeric pairs; a pair with either cell missing is
      // dropped (pairwise deletion). Every family folds its state a page
      // of pairs at a time: nothing is gathered.
      const std::string& a = head.attributes[0];
      const std::string& b = head.attributes[1];
      PairRangeReader reader = [&cv, &a, &b](uint64_t begin, uint64_t end,
                                             const PairBatchFn& fn) {
        return cv.ScanNumericPairs(a, b, begin, end, fn);
      };
      ScopedSpan span(trace, SpanKind::kScan);
      uint64_t pairs = 0;
      const FunctionFamily family = scan.fns.front()->family;
      if (family == FunctionFamily::kComoments) {
        STATDB_ASSIGN_OR_RETURN(
            out->comoments,
            ParallelScanPairs(rows, ColumnFile::kCellsPerPage, reader, exec));
        pairs = out->comoments.n;
      } else if (family == FunctionFamily::kGroupMoments) {
        // welch_t, on the caller at every worker count: each batch's x
        // splits by code into its group's buffer, and each buffer feeds
        // that group's moment fold.
        const auto [code_a, code_b] = *head.group_codes;
        MomentFold fold_a, fold_b;
        std::vector<double> group_a, group_b;
        STATDB_RETURN_IF_ERROR(reader(
            0, rows,
            [&](const double* xs, const double* ys, size_t n) -> Status {
              group_a.clear();
              group_b.clear();
              for (size_t i = 0; i < n; ++i) {
                if (!IsExactCode(ys[i])) {
                  return InvalidArgumentError(
                      "category code outside double's exact integer range");
                }
                // Truncates like Value::ToInt.
                const int64_t code = static_cast<int64_t>(ys[i]);
                if (code == code_a) group_a.push_back(xs[i]);
                if (code == code_b) group_b.push_back(xs[i]);
              }
              fold_a.Add(group_a);
              fold_b.Add(group_b);
              pairs += n;
              return Status::OK();
            }));
        out->moments = fold_a.Finish();
        out->group_b = fold_b.Finish();
      } else {
        STATDB_ASSIGN_OR_RETURN(
            out->code_pairs,
            ParallelScanCodePairs(rows, ColumnFile::kCellsPerPage, reader,
                                  exec));
        pairs = out->code_pairs.pairs();
      }
      out->rows = pairs;
      span.SetRows(pairs);
      // Two columns read per row-pair: twice the pages of one column.
      span.SetPages(2 * PagesOf(rows));
      return Status::OK();
    }
  }
  return InternalError("unplanned query route");
}

Result<SummaryResult> StatisticalDbms::FinishQuery(
    const PlannedQuery& query, const FunctionDescriptor& fn,
    const PlannedScan& scan, const ScanOutput& out, uint64_t* rows) const {
  // One finish per function (DESIGN.md §9.1): from the attribute's
  // order state, from the family state the scan folded, or over the
  // values it gathered. Value counts fold on the compressed route, and
  // on column chunks when they hash there.
  if (fn.order_finish != nullptr && out.order != nullptr) {
    *rows = out.order->size();
    return fn.order_finish(*out.order, query.params);
  }
  const bool folded_counts = scan.route == QueryRoute::kCompressedRuns ||
                             (scan.want_counts && fn.hashes_counts);
  switch (fn.family) {
    case FunctionFamily::kMoments:
      *rows = out.moments.count;
      break;
    case FunctionFamily::kValueCounts:
      if (!folded_counts) {
        *rows = out.values.size();
        return fn.compute(out.values, query.params);
      }
      *rows = out.moments.count;
      break;
    case FunctionFamily::kComoments:
      *rows = out.comoments.n;
      break;
    case FunctionFamily::kCodePairs:
      *rows = out.rows;
      break;
    case FunctionFamily::kGroupMoments:
      *rows = out.moments.count + out.group_b.count;
      break;
    case FunctionFamily::kHolistic:
      *rows = out.values.size();
      return fn.compute(out.values, query.params);
  }
  return fn.finish(out, query.params);
}

Result<FilterPredicate> StatisticalDbms::CoerceFilter(
    const Schema& schema, const std::string& attribute,
    FilterPredicate filter) {
  STATDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attribute));
  const DataType want = schema.attr(idx).type;
  for (Value* v : {&filter.equal, &filter.lo, &filter.hi}) {
    if (v->is_null() || v->type() == want) continue;
    if (want == DataType::kInt64 && v->type() == DataType::kDouble) {
      STATDB_ASSIGN_OR_RETURN(int64_t i, v->ToInt());
      *v = Value::Int(i);
    } else if (want == DataType::kDouble && v->type() == DataType::kInt64) {
      *v = Value::Real(double(v->AsInt()));
    } else {
      return InvalidArgumentError(
          "probe value type does not match attribute " + attribute);
    }
  }
  return filter;
}

Status StatisticalDbms::MaintainIndexes(ViewState* state,
                                        const ColumnChange& change,
                                        bool undo) {
  const ConcreteView& cv = *state->view;
  const Attribute& attr = cv.schema().attr(change.column);
  if (auto order = state->order_states.find(attr.name);
      order != state->order_states.end()) {
    OrderEntry& entry = order->second;
    // The state follows the column only if it saw every write before
    // this one; a big change is cheaper to rebuild than to merge.
    if (entry.generation != cv.previous_generation(change.column) ||
        !entry.state.CanQueue(change.cells.size())) {
      state->order_states.erase(order);
    } else {
      const bool reals = attr.type == DataType::kDouble;
      auto number = [reals](std::optional<int64_t> raw) {
        return raw.has_value()
                   ? std::optional(reals ? std::bit_cast<double>(*raw)
                                         : double(*raw))
                   : std::nullopt;
      };
      for (const RawChange& c : change.cells) {
        entry.state.Queue(number(undo ? c.new_cell() : c.old_cell()),
                          number(undo ? c.old_cell() : c.new_cell()));
      }
      entry.generation = cv.generation(change.column);
    }
    NoteOrderStateBytes();
  }
  auto it = state->indexes.find(attr.name);
  if (it == state->indexes.end()) return Status::OK();
  return it->second->Install(change, cv, undo);
}

OrderState* StatisticalDbms::CurrentOrderState(ViewState* state,
                                               const std::string& attribute,
                                               QueryTrace* trace) {
  auto it = state->order_states.find(attribute);
  if (it == state->order_states.end()) return nullptr;
  OrderEntry& entry = it->second;
  const size_t column = *state->view->schema().IndexOf(attribute);
  bool current = entry.generation == state->view->generation(column);
  if (current && entry.state.queued() > 0) {
    ScopedSpan span(trace, SpanKind::kOrderBuild);
    span.SetRows(entry.state.size());
    current = entry.state.Merge();
    obs_order_merges_->Inc();
  }
  if (!current) {
    state->order_states.erase(it);
    NoteOrderStateBytes();
    return nullptr;
  }
  entry.last_use = ++order_clock_;
  NoteOrderStateBytes();
  return &entry.state;
}

const OrderState* StatisticalDbms::KeepOrderState(
    ViewState* state, const std::string& attribute, OrderState built,
    uint64_t protect_from, std::optional<OrderState>* spare) {
  obs_order_builds_->Inc();
  state->order_states.erase(attribute);
  // Evict whole states, least recently used first, until the new one
  // fits; the states this batch planned to read stay.
  size_t total = OrderStateBytes();
  while (total + built.bytes() > kOrderStateBudgetBytes) {
    std::map<std::string, OrderEntry>* owner = nullptr;
    std::map<std::string, OrderEntry>::iterator victim;
    for (auto& [name, vs] : views_) {
      for (auto it = vs.order_states.begin(); it != vs.order_states.end();
           ++it) {
        if (it->second.last_use < protect_from &&
            (owner == nullptr ||
             it->second.last_use < victim->second.last_use)) {
          owner = &vs.order_states;
          victim = it;
        }
      }
    }
    if (owner == nullptr) {
      // Nothing left to evict: the state serves this batch only.
      NoteOrderStateBytes();
      return &spare->emplace(std::move(built));
    }
    total -= victim->second.state.bytes();
    owner->erase(victim);
    obs_order_evictions_->Inc();
  }
  const size_t column = *state->view->schema().IndexOf(attribute);
  OrderEntry& entry = state->order_states[attribute];
  entry.state = std::move(built);
  entry.generation = state->view->generation(column);
  entry.last_use = ++order_clock_;
  NoteOrderStateBytes();
  return &entry.state;
}

size_t StatisticalDbms::OrderStateBytes() const {
  size_t total = 0;
  for (const auto& [name, vs] : views_) {
    for (const auto& [attr, entry] : vs.order_states) {
      total += entry.state.bytes();
    }
  }
  return total;
}

void StatisticalDbms::NoteOrderStateBytes() {
  obs_order_bytes_->Set(double(OrderStateBytes()));
}

Status StatisticalDbms::FoldRowMoments(const ConcreteView& cv,
                                       const std::string& attribute,
                                       QueryTrace* trace, OrderState* order) {
  // The one-worker moment fold: ComputeDescriptive of the column, bit for
  // bit, with no gather.
  ColumnRangeReader reader = [&cv, &attribute](uint64_t begin, uint64_t end) {
    return cv.ReadNumericRange(attribute, begin, end);
  };
  ScopedSpan span(trace, SpanKind::kScan);
  STATDB_ASSIGN_OR_RETURN(
      ColumnScanResult column,
      ParallelScanColumn(cv.num_rows(), ColumnFile::kCellsPerPage, reader,
                         ColumnScanSpec{}, PoolSlice{}));
  span.SetRowsPaged(column.rows, ColumnFile::kCellsPerPage);
  order->set_moments(column.desc);
  return Status::OK();
}

Status StatisticalDbms::CreateAttributeIndex(const std::string& view,
                                             const std::string& attribute) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  if (state->indexes.contains(attribute)) {
    return AlreadyExistsError("attribute already indexed: " + attribute);
  }
  if (!state->view->schema().Contains(attribute)) {
    return NotFoundError("no attribute named " + attribute);
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(disk_device_));
  STATDB_ASSIGN_OR_RETURN(
      std::unique_ptr<AttributeIndex> index,
      AttributeIndex::Build(*state->view, attribute, pool));
  state->indexes.emplace(attribute, std::move(index));
  // Indexes rebuild on demand after a crash (they are not in the
  // manifest), but committing here keeps the no-steal dirty set bounded.
  return CommitDurable(/*attr_hint=*/attribute, /*force=*/false);
}

bool StatisticalDbms::HasAttributeIndex(const std::string& view,
                                        const std::string& attribute) {
  Result<ViewState*> state = GetState(view);
  return state.ok() && state.value()->indexes.contains(attribute);
}

Result<uint64_t> StatisticalDbms::CountWhereEqual(const std::string& view,
                                                  const std::string& attribute,
                                                  const Value& v,
                                                  bool* used_index) {
  return CountWhere(view, attribute, FilterPredicate::Equal(v), used_index);
}

Result<uint64_t> StatisticalDbms::CountWhereInRange(
    const std::string& view, const std::string& attribute, const Value& lo,
    const Value& hi, bool* used_index) {
  return CountWhere(view, attribute, FilterPredicate::Range(lo, hi),
                    used_index);
}

Result<uint64_t> StatisticalDbms::CountWhere(const std::string& view,
                                             const std::string& attribute,
                                             const FilterPredicate& filter,
                                             bool* used_index) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  ++state->traffic.attribute_accesses[attribute];
  const Schema& schema = state->view->schema();
  STATDB_ASSIGN_OR_RETURN(FilterPredicate f,
                          CoerceFilter(schema, attribute, filter));
  auto it = state->indexes.find(attribute);
  if (used_index != nullptr) *used_index = it != state->indexes.end();
  if (it != state->indexes.end()) {
    return f.kind == FilterPredicate::Kind::kEqual
               ? it->second->CountEqual(f.equal)
               : it->second->CountInRange(f.lo, f.hi);
  }
  const size_t attr_idx = *schema.IndexOf(attribute);
  const DataType t = schema.attr(attr_idx).type;
  // Shared ref, not the raw pointer: a concurrent Install/Append
  // detaches the sidecar, and this scan's reference must keep the
  // retired pages alive until it finishes.
  const std::shared_ptr<const CompressedColumnFile> sidecar =
      state->view->CompressedSidecarRef(attribute);
  if (compressed_scan_enabled_ && sidecar != nullptr &&
      (t == DataType::kInt64 || t == DataType::kDouble)) {
    // No index, but an RLE sidecar: decide the predicate per run instead
    // of per cell (string columns keep the Value comparison below — their
    // run raws are dictionary codes, not comparable as doubles). A null
    // endpoint has no double form and falls through too.
    if (Result<simd::RunPredicate> rp = RunPredicateOf(f); rp.ok()) {
      STATDB_ASSIGN_OR_RETURN(
          FilteredScanResult filtered,
          ScanCompressedFiltered(*sidecar, RunKindOf(schema, attr_idx), *rp,
                                 /*want_counts=*/false, /*pool=*/nullptr));
      obs_scan_compressed_->Inc();
      return filtered.rows;
    }
  }
  STATDB_ASSIGN_OR_RETURN(std::vector<Value> column,
                          state->view->ReadColumn(attribute));
  uint64_t count = 0;
  for (const Value& cell : column) {
    if (Passes(f, cell)) ++count;
  }
  obs_scan_materialized_->Inc();
  return count;
}

Status StatisticalDbms::ReorganizeView(
    const std::string& view, const std::vector<std::string>& sort_attrs) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  // Sorting permutes row coordinates; buffered deltas (keyed by row id)
  // and comoment co-value reads would address the wrong cells afterwards.
  // Flush against the pre-sort layout while the ids still mean something.
  STATDB_RETURN_IF_ERROR(FlushViewDeltas(view, state));
  // The swap below destroys the old ConcreteView; the scope's grace
  // period guarantees no pinned reader is still on it, and Publish
  // re-routes live reads to the fresh object.
  session::MutationScope scope(sessions_.get(),
                               session::MutationScope::Kind::kMutate, view,
                               state->view.get());
  if (!scope.ok()) return scope.status();
  STATDB_ASSIGN_OR_RETURN(Table snapshot, state->view->Snapshot());
  STATDB_ASSIGN_OR_RETURN(Table sorted, SortBy(snapshot, sort_attrs));
  STATDB_ASSIGN_OR_RETURN(BufferPool * pool, storage_->GetPool(disk_device_));
  auto fresh = std::make_unique<ConcreteView>(view, sorted.schema(), pool);
  STATDB_RETURN_IF_ERROR(fresh->LoadFrom(sorted));
  // Reorganization exists to cluster runs (§2.7) — rebuild the sidecars
  // over the sorted rows, where RLE compresses best.
  STATDB_RETURN_IF_ERROR(fresh->CompressColumns());
  // Under durability the commit at the end flushes (force-at-commit).
  if (wal_ == nullptr) {
    STATDB_RETURN_IF_ERROR(pool->FlushAll());
  }
  // Column multisets are unchanged, so current order states carry over
  // to the fresh view; their row-order moments do not.
  for (auto it = state->order_states.begin();
       it != state->order_states.end();) {
    const size_t column = *sorted.schema().IndexOf(it->first);
    OrderEntry& entry = it->second;
    if (entry.generation != state->view->generation(column)) {
      it = state->order_states.erase(it);
      continue;
    }
    entry.generation = fresh->generation(column);
    entry.state.ClearMoments();
    ++it;
  }
  NoteOrderStateBytes();
  state->view = std::move(fresh);
  // Publish immediately: the begin-time pointer just died with the swap,
  // so the destructor's auto-publish must never run here.
  scope.Publish(state->view.get());
  // New physical baseline: row coordinates changed, so the old history's
  // undo records no longer address the right cells.
  rec->history = UpdateHistory();
  rec->version = 0;
  state->view->SetVersion(0);
  // Column multisets are unchanged, so cached summaries remain valid;
  // maintainers carry only multiset state and survive too. Indexes map
  // values to row ids, which did change: rebuild them.
  for (auto& [attr, index] : state->indexes) {
    STATDB_ASSIGN_OR_RETURN(index,
                            AttributeIndex::Build(*state->view, attr, pool));
  }
  return CommitDurable(/*attr_hint=*/"", /*force=*/true);
}

Result<std::string> StatisticalDbms::RecommendClusterAttribute(
    const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  const Schema& schema = state->view->schema();
  std::string best;
  uint64_t best_count = 0;
  for (const auto& [attr, count] : state->traffic.attribute_accesses) {
    Result<size_t> idx = schema.IndexOf(attr);
    if (!idx.ok()) continue;
    if (schema.attr(*idx).kind != AttributeKind::kCategory) continue;
    if (count > best_count) {
      best = attr;
      best_count = count;
    }
  }
  if (best.empty()) {
    return NotFoundError("no category attribute referenced yet");
  }
  return best;
}

Status StatisticalDbms::ComputeStandardSummary(const std::string& view,
                                               const std::string& attribute) {
  static const char* kBattery[] = {"min",       "max",      "mean",
                                   "variance",  "stddev",   "median",
                                   "quartiles", "mode",     "distinct",
                                   "histogram"};
  for (const char* fn : kBattery) {
    STATDB_ASSIGN_OR_RETURN(QueryAnswer answer,
                            Query(view, fn, attribute, {}, {}));
    (void)answer;
  }
  return Status::OK();
}

Status StatisticalDbms::AnnotateAttribute(const std::string& view,
                                          const std::string& attribute,
                                          std::string note) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  SummaryKey key = SummaryKey::Of(std::string(kNoteFunction), attribute);
  STATDB_RETURN_IF_ERROR(state->summary->Insert(
      key, SummaryResult::Text(std::move(note)), state->view->version()));
  return CommitDurable(/*attr_hint=*/attribute, /*force=*/false);
}

Status StatisticalDbms::MaintainSummaries(const std::string& view_name,
                                          ViewState* state,
                                          const std::string& attribute,
                                          const ColumnChange& change) {
  STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb_.GetView(view_name));
  switch (rec->policy) {
    case MaintenancePolicy::kInvalidate:
      return state->summary->InvalidateAttribute(attribute).status();
    case MaintenancePolicy::kEager: {
      std::vector<SummaryEntry> entries;
      STATDB_RETURN_IF_ERROR(state->summary->ForEachOnAttribute(
          attribute, [&entries](const SummaryEntry& e) {
            entries.push_back(e);
            return Status::OK();
          }));
      if (entries.empty()) return Status::OK();
      STATDB_ASSIGN_OR_RETURN(std::vector<double> data,
                              state->view->ReadNumericColumn(attribute));
      for (const SummaryEntry& e : entries) {
        if (e.key.attributes.size() != 1 || e.key.function == kNoteFunction) {
          // Cross-column results are recomputed lazily.
          STATDB_RETURN_IF_ERROR(state->summary->MarkStale(e.key));
          continue;
        }
        STATDB_ASSIGN_OR_RETURN(FunctionParams params,
                                FunctionParams::Decode(e.key.params));
        Result<SummaryResult> fresh =
            mdb_.functions().Compute(e.key.function, data, params);
        if (!fresh.ok()) {
          STATDB_RETURN_IF_ERROR(state->summary->MarkStale(e.key));
          continue;
        }
        STATDB_RETURN_IF_ERROR(state->summary->Refresh(
            e.key, fresh.value(), state->view->version()));
        ++state->traffic.eager_recomputes;
      }
      return Status::OK();
    }
    case MaintenancePolicy::kIncremental:
      break;
  }

  // Incremental path (§4.2/§4.3). Mutations never touch the maintainers
  // directly any more: numeric changes land in the view's delta buffer
  // and flow through one amortized FlushAttributeDeltas pass — right away
  // for eager entries, at the flush threshold for batched ones, never
  // (invalidate instead) for lazy ones. The adaptive policy controller
  // picks the strategy per view.attr from the profiler's heatmap row.
  WorkloadProfiler::AttributeRow row =
      profiler_.AttributeStats(view_name, attribute);
  delta::PolicyDecision decision = delta_policy_.Observe(
      view_name, attribute, row.accesses, row.updates, delta_config_);
  if (decision.switched) {
    obs_delta_policy_switches_->Inc();
    if (flight_.enabled()) {
      flight_.Record(causal::Current(), FlightEventKind::kPolicySwitch,
                     view_name + "." + attribute,
                     int64_t(decision.from), int64_t(decision.strategy));
    }
    if (decision.strategy ==
        delta::MaintenanceStrategy::kInvalidateLazy) {
      // Entering lazy: pending work and armed rules are dead weight (the
      // next flip back to maintain re-arms on first compute). Dropping
      // the rules *before* invalidating keeps the no-resurrection
      // invariant: a later flush can never refresh these entries.
      state->deltas.Discard(attribute);
      std::erase_if(state->maintainers, [&attribute](const auto& rule) {
        Result<SummaryKey> key = SummaryKey::Decode(rule.first);
        return !key.ok() ||
               std::ranges::find(key->attributes, attribute) !=
                   key->attributes.end();
      });
    }
  }
  if (decision.strategy == delta::MaintenanceStrategy::kInvalidateLazy) {
    return state->summary->InvalidateAttribute(attribute).status();
  }

  Result<size_t> buffered = state->deltas.Buffer(
      attribute, state->view->schema().attr(change.column).type, change,
      delta_config_.coalesce);
  if (!buffered.ok()) {
    // Non-numeric changes defeat differencing: fall back to invalidation.
    return state->summary->InvalidateAttribute(attribute).status();
  }
  obs_delta_buffered_->Inc(buffered.value());
  // Eager is "batch of one": it rides the same buffer + flush engine as
  // batched, so parity between the two strategies is structural.
  if (decision.strategy == delta::MaintenanceStrategy::kEagerIncremental ||
      state->deltas.PendingCount(attribute) >=
          delta_config_.flush_threshold) {
    return FlushAttributeDeltas(view_name, state, attribute);
  }
  return Status::OK();
}

Status StatisticalDbms::FlushAttributeDeltas(const std::string& view_name,
                                             ViewState* state,
                                             const std::string& attribute) {
  std::vector<delta::RowDelta> batch = state->deltas.Drain(attribute);
  if (batch.empty()) return Status::OK();
  delta::FlushEnv env;
  env.view_name = view_name;
  env.summary = state->summary.get();
  env.maintainers = &state->maintainers;
  env.view_version = state->view->version();
  env.load_column = [state, attribute]() {
    return state->view->ReadNumericColumn(attribute);
  };
  env.read_cell = [state](uint64_t row_id, const std::string& attr)
      -> Result<std::optional<double>> {
    STATDB_ASSIGN_OR_RETURN(Value v, state->view->ReadCell(row_id, attr));
    return NumberOf(v);
  };
  env.has_pending = [state](const std::string& attr) {
    return state->deltas.HasPending(attr);
  };
  env.flight = &flight_;
  // The flush runs on behalf of whichever operation forced it (a query's
  // flush-before-serve, an update's threshold flush, a barrier): its
  // ambient context is the trigger's identity.
  env.ctx = causal::Current();
  delta::FlushCounters counters;
  Status s = delta::FlushAttribute(attribute, batch, env, &counters);
  state->traffic.maintainer_applies += counters.applied;
  state->traffic.maintainer_rebuilds += counters.rebuilds;
  obs_delta_flushed_->Inc(batch.size());
  return s;
}

Status StatisticalDbms::FlushViewDeltas(const std::string& view_name,
                                        ViewState* state) {
  for (const std::string& attr : state->deltas.PendingAttributes()) {
    STATDB_RETURN_IF_ERROR(FlushAttributeDeltas(view_name, state, attr));
  }
  return Status::OK();
}

Status StatisticalDbms::FlushDeltas(const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return FlushViewDeltas(view, state);
}

Result<uint64_t> StatisticalDbms::PendingDeltas(const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return uint64_t{state->deltas.TotalPending()};
}

Status StatisticalDbms::ExpireGeneratedColumns(const std::string& view_name,
                                               ViewState* state,
                                               const std::string& attribute) {
  STATDB_ASSIGN_OR_RETURN(
      std::vector<DerivedColumnDef*> affected,
      mdb_.DerivedColumnsOn(view_name, attribute));
  for (DerivedColumnDef* def : affected) {
    if (def->kind != DerivedRuleKind::kRegenerate) continue;
    // Whole-vector rule: mark out of date; regenerate on next read.
    def->out_of_date = true;
    STATDB_RETURN_IF_ERROR(
        state->summary->InvalidateAttribute(def->name).status());
  }
  return Status::OK();
}

Status StatisticalDbms::MaybeAuditAfterUpdate(const std::string& view) {
  if (!audit_after_update_) return Status::OK();
  // No flush first: the audit must not change what it audits. Entries
  // whose attribute has pending deltas are skipped by the oracle, the
  // way stale-flagged ones are (exact queries flush before serving).
  CheckReport report;
  DbAuditor auditor(this);
  STATDB_RETURN_IF_ERROR(auditor.AuditView(view, &report));
  return report.ToStatus();
}

template <typename Body>
auto StatisticalDbms::TracedMutation(OpClass op, const char* operation,
                                     const std::string& view,
                                     const std::string& attribute,
                                     Body&& body) {
  // Mutation entry point: one causal context covers the whole protocol —
  // buffered deltas, eager flushes, the WAL commit and the flight event
  // all stamp this trace_id.
  causal::ScopedTraceContext causal_scope(causal::Mint());
  TraceTimer timer;
  std::optional<QueryTrace> trace;
  QueryTrace* tr = BeginTrace(&trace, causal_scope.ctx(), operation, view,
                              /*function=*/"", attribute);
  auto r = body(tr);
  FinishOperation(op, timer,
                  r.ok() ? TraceOutcome::kComputed : TraceOutcome::kError,
                  tr);
  return r;
}

Result<uint64_t> StatisticalDbms::Update(const std::string& view,
                                         const UpdateSpec& spec) {
  return TracedMutation(
      OpClass::kUpdate, "update", view, spec.column,
      [&](QueryTrace* tr) { return UpdateUnderContext(view, spec, tr); });
}

Result<uint64_t> StatisticalDbms::UpdateUnderContext(const std::string& view,
                                                     const UpdateSpec& spec,
                                                     QueryTrace* trace) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  // Session protocol: capture pre-images and wait out pinned readers on
  // the live route before any byte changes; every exit below publishes a
  // new commit seq (the scope's destructor covers the error paths).
  std::optional<session::MutationScope> scope;
  {
    ScopedSpan span(trace, SpanKind::kSnapshotCapture);
    scope.emplace(sessions_.get(), session::MutationScope::Kind::kMutate,
                  view, state->view.get());
  }
  if (!scope->ok()) return scope->status();
  ChangeSet staged;
  {
    ScopedSpan span(trace, SpanKind::kPredicateScan);
    uint64_t pages = 0;
    STATDB_RETURN_IF_ERROR(state->view->Stage(
        spec.column, spec.predicate.get(), spec.value.get(), /*rows=*/nullptr,
        &staged, &pages));
    span.SetRows(state->view->num_rows());
    span.SetPages(pages);
  }
  if (staged.empty()) return 0;
  ConcreteView& cv = *state->view;
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  {
    ScopedSpan span(trace, SpanKind::kMaintenance);
    span.SetRows(staged[0].cells.size());
    // kLocal derived columns join the staged set, recomputed on exactly
    // the touched rows (§3.2), so nothing is written until every
    // expression has evaluated; then one install.
    STATDB_ASSIGN_OR_RETURN(std::vector<DerivedColumnDef*> derived,
                            mdb_.DerivedColumnsOn(view, spec.column));
    std::vector<uint64_t> rows;  // the touched rows, ascending
    for (const DerivedColumnDef* def : derived) {
      if (def->kind != DerivedRuleKind::kLocal) continue;
      if (rows.empty()) {
        for (const RawChange& c : staged[0].cells) rows.push_back(c.row());
      }
      STATDB_RETURN_IF_ERROR(cv.Stage(def->name, /*predicate=*/nullptr,
                                      def->row_expr.get(), &rows, &staged));
    }
    STATDB_RETURN_IF_ERROR(cv.Install(staged));
    cv.BumpVersion();
    ++state->traffic.updates;
    state->traffic.cells_changed += staged[0].cells.size();
    ++state->traffic.attribute_accesses[spec.column];
    if (spec.predicate != nullptr) {
      for (const std::string& attr : spec.predicate->ReferencedColumns()) {
        ++state->traffic.attribute_accesses[attr];
      }
    }
    STATDB_RETURN_IF_ERROR(ExpireGeneratedColumns(view, state, spec.column));

    // The history entry is the staged set itself (target and derived
    // fixes: one logical update).
    UpdateLogEntry entry;
    entry.version = cv.version();
    entry.description = spec.description.empty()
                            ? ("update " + spec.column)
                            : spec.description;
    entry.changes = std::move(staged);
    STATDB_RETURN_IF_ERROR(rec->history.Append(std::move(entry)));
    rec->version = cv.version();
    for (const ColumnChange& change : rec->history.entries().back().changes) {
      STATDB_RETURN_IF_ERROR(MaintainIndexes(state, change, /*undo=*/false));
      STATDB_RETURN_IF_ERROR(MaintainSummaries(
          view, state, cv.schema().attr(change.column).name, change));
    }
    STATDB_RETURN_IF_ERROR(MaybeAuditAfterUpdate(view));
  }
  {
    ScopedSpan span(trace, SpanKind::kWalCommit);
    STATDB_RETURN_IF_ERROR(
        CommitDurable(/*attr_hint=*/spec.column, /*force=*/true));
  }
  const ChangeSet& changes = rec->history.entries().back().changes;
  const uint64_t total_cells = CellCount(changes);
  if (flight_.enabled()) {
    flight_.Record(causal::Current(), FlightEventKind::kUpdate,
                   view + "." + spec.column, int64_t(cv.version()),
                   int64_t(total_cells));
  }
  for (const ColumnChange& change : changes) {
    profiler_.NoteUpdate(view, cv.schema().attr(change.column).name,
                         change.cells.size());
  }
  MaybeTickTimeseries();
  return total_cells;
}

Status StatisticalDbms::Rollback(const std::string& view,
                                 uint64_t target_version) {
  return TracedMutation(OpClass::kRollback, "rollback", view, "",
                        [&](QueryTrace* tr) {
                          return RollbackUnderContext(view, target_version,
                                                      tr);
                        });
}

Status StatisticalDbms::RollbackUnderContext(const std::string& view,
                                             uint64_t target_version,
                                             QueryTrace* trace) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  // Satellite fix (rollback vs pinned readers): ClampVersions below
  // rewrites the head summary cache's version stamps, and the undo loop
  // rewrites cells in place. Pinned sessions must never observe either —
  // they resolve against the capture installed here and against the
  // session timeline (keyed by monotone commit seqs, immune to version
  // reuse after rollback).
  std::optional<session::MutationScope> scope;
  {
    ScopedSpan span(trace, SpanKind::kSnapshotCapture);
    scope.emplace(sessions_.get(), session::MutationScope::Kind::kMutate,
                  view, state->view.get());
  }
  if (!scope->ok()) return scope->status();
  // Attributes touched by the updates being undone.
  std::set<std::string> affected;
  {
    ScopedSpan span(trace, SpanKind::kMaintenance);
    // Each undone entry installs its inverse through the update's own
    // write path; any secondary index follows the restored cells.
    STATDB_RETURN_IF_ERROR(rec->history.Rollback(
        target_version, [&](const ChangeSet& changes) -> Status {
          STATDB_RETURN_IF_ERROR(state->view->Install(changes, /*undo=*/true));
          for (const ColumnChange& change : changes) {
            STATDB_RETURN_IF_ERROR(
                MaintainIndexes(state, change, /*undo=*/true));
            affected.insert(state->view->schema().attr(change.column).name);
          }
          return Status::OK();
        }));
    state->view->SetVersion(target_version);
    rec->version = target_version;
    for (const std::string& attr : affected) {
      STATDB_RETURN_IF_ERROR(
          state->summary->InvalidateAttribute(attr).status());
      // A regeneration since the undone updates fitted their cells.
      STATDB_RETURN_IF_ERROR(ExpireGeneratedColumns(view, state, attr));
    }
    // Entries on unaffected attributes are still valid, but none may keep a
    // version stamp from the undone timeline: re-advanced version numbers
    // would collide with it and poison max_version_lag staleness checks.
    STATDB_RETURN_IF_ERROR(
        state->summary->ClampVersions(target_version).status());
    // Maintainer state reflects the rolled-back data; drop it all and let
    // queries re-arm on demand. Buffered deltas describe undone mutations:
    // discard them and stamp their attributes stale (they may not be in
    // `affected` when the pending update predates the rollback window).
    state->maintainers.clear();
    for (const std::string& attr : state->deltas.PendingAttributes()) {
      state->deltas.Discard(attr);
      STATDB_RETURN_IF_ERROR(
          state->summary->InvalidateAttribute(attr).status());
    }
    STATDB_RETURN_IF_ERROR(MaybeAuditAfterUpdate(view));
  }
  {
    ScopedSpan span(trace, SpanKind::kWalCommit);
    STATDB_RETURN_IF_ERROR(CommitDurable(/*attr_hint=*/"", /*force=*/true));
  }
  flight_.Record(causal::Current(), FlightEventKind::kRollback, view,
                 int64_t(target_version), int64_t(affected.size()));
  MaybeTickTimeseries();
  return Status::OK();
}

Status StatisticalDbms::AddDerivedColumn(const std::string& view,
                                         DerivedColumnDef def) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  std::string name = def.name;
  DerivedRuleKind kind = def.kind;
  ExprPtr expr = def.row_expr;
  // Refuse a formula that cannot bind before the column or the rule is
  // stored.
  if (expr != nullptr) {
    STATDB_RETURN_IF_ERROR(
        BoundExpr::Bind(*expr, state->view->schema()).status());
  }
  {
    // Session scopes do not nest (writer serialization is a flag, not a
    // recursive lock): the column-add publishes at this block's end,
    // before RegenerateDerivedColumn below opens its own scope.
    session::MutationScope scope(sessions_.get(),
                                 session::MutationScope::Kind::kMutate,
                                 view, state->view.get());
    if (!scope.ok()) return scope.status();
    Attribute attr = Attribute::Numeric(name, DataType::kDouble);
    STATDB_RETURN_IF_ERROR(state->view->AddColumn(attr));
    STATDB_RETURN_IF_ERROR(mdb_.AddDerivedColumn(view, std::move(def)));
    if (kind == DerivedRuleKind::kLocal) {
      // Fill every row from the expression.
      ChangeSet filled;
      STATDB_RETURN_IF_ERROR(state->view->Stage(
          name, /*predicate=*/nullptr, expr.get(), /*rows=*/nullptr, &filled));
      STATDB_RETURN_IF_ERROR(state->view->Install(filled));
      return CommitDurable(/*attr_hint=*/name, /*force=*/true);
    }
  }
  return RegenerateDerivedColumn(view, name);
}

Status StatisticalDbms::RegenerateDerivedColumn(const std::string& view,
                                                const std::string& column) {
  return TracedMutation(OpClass::kRegenerate, "regenerate", view, column,
                        [&](QueryTrace* tr) {
                          return RegenerateUnderContext(view, column, tr);
                        });
}

Status StatisticalDbms::RegenerateUnderContext(const std::string& view,
                                               const std::string& column,
                                               QueryTrace* trace) {
  STATDB_RETURN_IF_ERROR(GuardMutable());
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  DerivedColumnDef* def = nullptr;
  for (DerivedColumnDef& d : rec->derived_columns) {
    if (d.name == column) {
      def = &d;
      break;
    }
  }
  if (def == nullptr) {
    return NotFoundError("no derived column named " + column);
  }
  if (def->kind != DerivedRuleKind::kRegenerate) {
    return FailedPreconditionError("column " + column +
                                   " has a local rule, not a generator");
  }
  // The generator rewrites the whole column in place: capture + grace
  // before the install, publish (destructor) after.
  std::optional<session::MutationScope> scope;
  {
    ScopedSpan span(trace, SpanKind::kSnapshotCapture);
    scope.emplace(sessions_.get(), session::MutationScope::Kind::kMutate,
                  view, state->view.get());
  }
  if (!scope->ok()) return scope->status();
  ConcreteView& cv = *state->view;
  ChangeSet staged;
  {
    // Fit the generator on its inputs' page zip, then stage it as an
    // expression a page at a time (null where an input is missing).
    ScopedSpan span(trace, SpanKind::kPredicateScan);
    const std::vector<std::string>& in = def->generator_inputs;
    ExprPtr expr;  // nullptr marks every cell missing
    switch (def->generator) {
      case ColumnGenerator::kRegressionResiduals: {
        // One co-moment pass over the page zip, like the regression
        // query route.
        ComomentFold fold;
        STATDB_RETURN_IF_ERROR(cv.ScanNumericPairs(
            in[0], in[1], 0, cv.num_rows(),
            [&fold](const double* xs, const double* ys, size_t n) {
              fold.Add(xs, ys, n);
              return Status::OK();
            }));
        STATDB_ASSIGN_OR_RETURN(LinearFit fit, fold.Finish().Fit());
        // y - fit.Predict(x)
        expr = Sub(Col(in[1]),
                   Add(Lit(fit.intercept), Mul(Lit(fit.slope), Col(in[0]))));
        break;
      }
      case ColumnGenerator::kZScores: {
        STATDB_ASSIGN_OR_RETURN(std::vector<double> xs,
                                cv.ReadNumericColumn(in[0]));
        DescriptiveStats s = ComputeDescriptive(xs);
        const double sd = s.StdDev();
        if (sd > 0) expr = Div(Sub(Col(in[0]), Lit(s.mean)), Lit(sd));
        break;
      }
      case ColumnGenerator::kNone:
        return InternalError("regenerate rule without a generator");
    }
    uint64_t pages = 0;
    STATDB_RETURN_IF_ERROR(cv.Stage(column, /*predicate=*/nullptr, expr.get(),
                                    /*rows=*/nullptr, &staged, &pages));
    span.SetRows(cv.num_rows());
    span.SetPages(pages);
  }
  {
    ScopedSpan span(trace, SpanKind::kMaintenance);
    span.SetRows(CellCount(staged));
    STATDB_RETURN_IF_ERROR(cv.Install(staged));
    def->out_of_date = false;
    // The column's contents changed wholesale; cached summaries on it
    // are stale until recomputed.
    STATDB_RETURN_IF_ERROR(
        state->summary->InvalidateAttribute(column).status());
    for (const ColumnChange& change : staged) {
      STATDB_RETURN_IF_ERROR(MaintainIndexes(state, change, /*undo=*/false));
    }
  }
  ScopedSpan span(trace, SpanKind::kWalCommit);
  return CommitDurable(/*attr_hint=*/column, /*force=*/true);
}

Result<std::vector<Value>> StatisticalDbms::ReadColumn(
    const std::string& view, const std::string& column) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb_.GetView(view));
  for (DerivedColumnDef& def : rec->derived_columns) {
    if (def.name == column && def.out_of_date) {
      STATDB_RETURN_IF_ERROR(RegenerateDerivedColumn(view, column));
      break;
    }
  }
  return state->view->ReadColumn(column);
}

Result<session::SessionManager*> StatisticalDbms::EnableSessions(
    const session::SessionConfig& config) {
  if (sessions_ != nullptr) return sessions_.get();
  auto mgr = std::make_unique<session::SessionManager>(this, config);
  // Bootstrap: every existing view becomes visible at the current commit
  // seq. Views created afterwards register through their CreateView
  // mutation scope.
  for (auto& [name, state] : views_) {
    mgr->BootstrapView(name, state.view.get());
  }
  sessions_ = std::move(mgr);
  return sessions_.get();
}

Result<SummaryDatabase*> StatisticalDbms::GetSummaryDb(
    const std::string& view) {
  STATDB_ASSIGN_OR_RETURN(ViewState * state, GetState(view));
  return state->summary.get();
}

Result<const ViewTrafficStats*> StatisticalDbms::GetTrafficStats(
    const std::string& view) const {
  auto it = views_.find(view);
  if (it == views_.end()) {
    return NotFoundError("no view named " + view);
  }
  return &it->second.traffic;
}

std::string StatisticalDbms::DumpMetrics() { return WalkStats().Build(); }

obs::JsonObject StatisticalDbms::WalkStats() {
  obs::JsonObject doc;

  // Per-view Summary Database economics (§3.2) and query/update traffic.
  doc.Open("views");
  for (const auto& [name, state] : views_) {
    const SummaryDbStats s = state.summary->stats();
    const ViewTrafficStats& t = state.traffic;
    doc.Open(name)
        .Open("summary_db")
        .Int("lookups", s.lookups)
        .Int("hits", s.hits)
        .Int("stale_hits", s.stale_hits)
        .Int("served_stale", s.served_stale)
        .Int("misses", s.misses)
        .Int("inserts", s.inserts)
        .Int("invalidated", s.invalidated)
        .Num("hit_rate", s.HitRate())
        .Num("served_rate", s.ServedRate())
        .Int("entries", state.summary->entry_count())
        .Close()
        .Open("traffic")
        .Int("queries", t.queries)
        .Int("cache_hits", t.cache_hits)
        .Int("stale_hits", t.stale_hits)
        .Int("inferred", t.inferred)
        .Int("computed", t.computed)
        .Int("updates", t.updates)
        .Int("cells_changed", t.cells_changed)
        .Int("maintainer_applies", t.maintainer_applies)
        .Int("maintainer_rebuilds", t.maintainer_rebuilds)
        .Int("eager_recomputes", t.eager_recomputes)
        .Close();
    // Delta-buffer occupancy and the live per-attribute strategy for
    // whatever is currently queued (empty when everything is flushed).
    doc.Open("delta").Int("pending", state.deltas.TotalPending());
    doc.Open("attributes");
    for (const std::string& attr : state.deltas.PendingAttributes()) {
      doc.Open(attr)
          .Int("pending", state.deltas.PendingCount(attr))
          .Str("strategy", delta::StrategyName(delta_policy_.Current(
                               name, attr, delta_config_)))
          .Close();
    }
    doc.Close().Close().Close();
  }
  doc.Close();

  // Simulated devices and their buffer pools (§2.3's storage hierarchy).
  doc.Open("devices");
  std::vector<std::string> device_names = {tape_device_, disk_device_};
  if (wal_ != nullptr) device_names.push_back(wal_device_name_);
  for (const std::string& dev : device_names) {
    doc.Open(dev);
    Result<SimulatedDevice*> device = storage_->GetDevice(dev);
    if (device.ok()) {
      const IoStats& io = device.value()->stats();
      doc.Open("io")
          .Int("block_reads", io.block_reads)
          .Int("block_writes", io.block_writes)
          .Int("bytes_read", io.block_reads * kPageSize)
          .Int("bytes_written", io.block_writes * kPageSize)
          .Int("seeks", io.seeks)
          .Num("simulated_ms", io.simulated_ms)
          .Close();
      // Fault-injection counters, present when the device is wrapped.
      if (const FaultCounters* fc = device.value()->fault_counters()) {
        doc.Open("faults")
            .Int("transient_errors", fc->transient_errors)
            .Int("permanent_errors", fc->permanent_errors)
            .Int("torn_writes", fc->torn_writes)
            .Int("bit_flips", fc->bit_flips)
            .Int("power_cuts", fc->power_cuts)
            .Close();
      }
    }
    if (Result<BufferPool*> pool = storage_->GetPool(dev); pool.ok()) {
      BufferPoolStats bp = pool.value()->stats();
      doc.Open("buffer_pool")
          .Int("hits", bp.hits)
          .Int("misses", bp.misses)
          .Int("evictions", bp.evictions)
          .Int("flushes", bp.flushes)
          .Num("hit_rate", bp.HitRate())
          .Int("retries", bp.retries)
          .Num("backoff_ms", bp.backoff_ms)
          .Int("checksum_failures", bp.checksum_failures)
          .Int("overflow_frames", bp.overflow_frames)
          .Close();
    }
    doc.Close();
  }
  doc.Close();

  // Durability: commit/recovery activity and degraded-mode state.
  if (wal_ != nullptr) {
    const WalStats ws = wal_->stats();
    bool is_degraded;
    uint64_t n_recoveries;
    {
      MutexLock lock(session_mu_);
      is_degraded = degraded_;
      n_recoveries = recoveries_;
    }
    doc.Open("durability")
        .Bool("degraded", is_degraded)
        .Int("last_lsn", wal_->last_lsn())
        .Int("recoveries", n_recoveries)
        .Int("wal_records_appended", ws.records_appended)
        .Int("wal_bytes_appended", ws.bytes_appended)
        .Int("wal_records_recovered", ws.records_recovered)
        .Int("wal_torn_tail_bytes", ws.torn_tail_bytes)
        .Close();
  }

  // The registry: query latency, answer provenance, SLO breaches,
  // thread-pool behavior.
  doc.Open("registry");
  metrics_.WriteTo(&doc);
  doc.Close();
  return doc;
}

}  // namespace statdb
