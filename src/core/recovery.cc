// Durability and crash recovery for StatisticalDbms (DESIGN.md §11).
//
// Protocol: force-at-commit + no-steal physical redo. Each logical
// mutation accumulates dirty pages in the disk buffer pool (no-steal
// keeps them off the platter), then commits by appending ONE redo record
// — the dirty page images plus a manifest of the whole recoverable
// in-memory state — to the WAL device and only then writing the pages in
// place. Recovery replays every complete record's images (idempotent:
// they are full page images) and rebuilds the in-memory object graph
// from the last manifest; a torn tail is discarded and triggers the
// paper's §4.3 invalidate-all fallback for the attribute it hinted at.

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/dbms.h"
#include "core/management_serde.h"
#include "session/session.h"

namespace statdb {
namespace {

constexpr uint32_t kManifestMagic = 0x4D414E49;  // "MANI"
// v2 appends the delta-buffer occupancy section (which summaries still
// owe a flush). v1 manifests (no section) are still readable.
constexpr uint32_t kManifestVersion = 2;

constexpr int kIoRetries = 3;

template <typename Op>
Status RetryIo(const Op& op) {
  Status s = op();
  for (int i = 0; i < kIoRetries && s.code() == StatusCode::kUnavailable;
       ++i) {
    s = op();
  }
  return s;
}

void WriteSchema(ByteWriter* w, const Schema& schema) {
  w->PutU32(static_cast<uint32_t>(schema.size()));
  for (const Attribute& a : schema.attrs()) {
    w->PutString(a.name);
    w->PutU8(static_cast<uint8_t>(a.type));
    w->PutU8(static_cast<uint8_t>(a.kind));
    w->PutString(a.code_table);
    w->PutU8(a.summarizable ? 1 : 0);
  }
}

Result<Schema> ReadSchema(ByteReader* r) {
  // Each attribute: name, type, kind, code table, summarizable.
  STATDB_ASSIGN_OR_RETURN(uint32_t n, r->GetCount(4 + 1 + 1 + 4 + 1));
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Attribute a;
    STATDB_ASSIGN_OR_RETURN(a.name, r->GetString());
    STATDB_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    a.type = static_cast<DataType>(type);
    STATDB_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
    a.kind = static_cast<AttributeKind>(kind);
    STATDB_ASSIGN_OR_RETURN(a.code_table, r->GetString());
    STATDB_ASSIGN_OR_RETURN(uint8_t summarizable, r->GetU8());
    a.summarizable = summarizable != 0;
    attrs.push_back(std::move(a));
  }
  return Schema(std::move(attrs));
}

void WritePageIds(ByteWriter* w, const std::vector<PageId>& ids) {
  w->PutU32(static_cast<uint32_t>(ids.size()));
  for (PageId id : ids) w->PutU64(id);
}

Result<std::vector<PageId>> ReadPageIds(ByteReader* r) {
  STATDB_ASSIGN_OR_RETURN(uint32_t n, r->GetCount(sizeof(PageId)));
  std::vector<PageId> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    STATDB_ASSIGN_OR_RETURN(PageId id, r->GetU64());
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

Status StatisticalDbms::GuardMutable() const {
  MutexLock lock(session_mu_);
  if (degraded_) {
    return FailedPreconditionError("read-only degraded mode: " +
                                   degraded_reason_);
  }
  return Status::OK();
}

void StatisticalDbms::EnterDegraded(const std::string& reason) {
  {
    MutexLock lock(session_mu_);
    if (degraded_) return;  // first failure wins
    degraded_ = true;
    degraded_reason_ = reason;
  }
  // Latch released before calling into metrics/flight: session_mu_ is a
  // leaf lock and those subsystems take their own.
  metrics_.GetCounter("dbms.degraded_entered")->Inc();
  // The flip to read-only is exactly the moment the black box exists
  // for: record it and (if armed) ship the event window to disk.
  flight_.Record(causal::Current(), FlightEventKind::kDegraded, reason);
  flight_.AutoDumpOnce("degraded");
}

Status StatisticalDbms::EnableDurability(const std::string& wal_device) {
  if (wal_ != nullptr) {
    return FailedPreconditionError("durability already enabled");
  }
  STATDB_ASSIGN_OR_RETURN(SimulatedDevice * device,
                          storage_->GetDevice(wal_device));
  auto wal = std::make_unique<RedoLog>(device);
  // Position the append cursor; the records themselves are consumed by
  // Recover(), which re-scans.
  STATDB_RETURN_IF_ERROR(wal->Open().status());
  wal_ = std::move(wal);
  wal_device_name_ = wal_device;
  // The log device joins the black box: its retries and injected faults
  // matter most of all during commit and recovery.
  device->set_flight_recorder(&flight_);
  if (Result<BufferPool*> wal_pool = storage_->GetPool(wal_device);
      wal_pool.ok()) {
    wal_pool.value()->set_flight_recorder(&flight_);
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * disk, storage_->GetPool(disk_device_));
  disk->set_no_steal(true);
  return Status::OK();
}

Result<std::vector<uint8_t>> StatisticalDbms::BuildManifest() const {
  ByteWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);

  // Catalog data sets (both tape raws and disk views).
  std::vector<std::string> dataset_names = catalog_.DataSetNames();
  w.PutU32(static_cast<uint32_t>(dataset_names.size()));
  for (const std::string& name : dataset_names) {
    STATDB_ASSIGN_OR_RETURN(const DataSetInfo* info,
                            catalog_.GetDataSet(name));
    w.PutString(info->name);
    WriteSchema(&w, info->schema);
    w.PutU8(static_cast<uint8_t>(info->location));
    w.PutString(info->description);
    w.PutU64(info->approx_rows);
  }

  // Raw tables: schema + heap-file shape (the tape pages themselves were
  // force-flushed at load time, before any commit referenced them).
  w.PutU32(static_cast<uint32_t>(raw_tables_.size()));
  for (const auto& [name, table] : raw_tables_) {
    w.PutString(name);
    WriteSchema(&w, table->schema());
    WritePageIds(&w, table->page_ids());
    w.PutU64(table->num_rows());
  }

  // Views: schema, version, per-column file shape + dictionary, and the
  // summary index anchor. Secondary indexes and armed maintainers are
  // deliberately absent — both rebuild on demand.
  w.PutU32(static_cast<uint32_t>(views_.size()));
  for (const auto& [name, state] : views_) {
    w.PutString(name);
    WriteSchema(&w, state.view->schema());
    w.PutU64(state.view->version());
    w.PutU64(state.view->num_rows());
    std::vector<TransposedTable::ColumnState> columns =
        state.view->ExportColumns();
    w.PutU32(static_cast<uint32_t>(columns.size()));
    for (const TransposedTable::ColumnState& col : columns) {
      WritePageIds(&w, col.pages);
      w.PutU64(col.count);
      w.PutU32(static_cast<uint32_t>(col.labels.size()));
      for (const std::string& label : col.labels) w.PutString(label);
    }
    w.PutU64(state.summary->index()->root_id());
    w.PutU64(state.summary->index()->size());
    w.PutU64(state.summary->entry_count());
  }

  // Management database: view records, policies, histories, derived
  // columns — reusing the session-persistence serializer.
  STATDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mdb_bytes,
                          SerializeManagementState(mdb_));
  w.PutU32(static_cast<uint32_t>(mdb_bytes.size()));
  w.PutRaw(mdb_bytes.data(), mdb_bytes.size());

  // v2: delta-buffer occupancy, as (view, attribute) pairs. The buffered
  // mutations themselves are durable (force-at-commit ships the dirty
  // data pages), but their summary flushes may not have happened yet —
  // recovery must know which cached entries still owe one, so it can
  // stamp them stale instead of serving pre-delta values as fresh.
  uint32_t npending = 0;
  for (const auto& [name, state] : views_) {
    (void)name;
    npending +=
        static_cast<uint32_t>(state.deltas.PendingAttributes().size());
  }
  w.PutU32(npending);
  for (const auto& [name, state] : views_) {
    for (const std::string& attr : state.deltas.PendingAttributes()) {
      w.PutString(name);
      w.PutString(attr);
    }
  }
  return w.Take();
}

Status StatisticalDbms::ApplyManifest(const std::vector<uint8_t>& manifest) {
  ByteReader r(manifest);
  STATDB_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kManifestMagic) {
    return DataLossError("manifest magic mismatch");
  }
  STATDB_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version < 1 || version > kManifestVersion) {
    return DataLossError("unsupported manifest version " +
                         std::to_string(version));
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * tape_pool,
                          storage_->GetPool(tape_device_));
  STATDB_ASSIGN_OR_RETURN(BufferPool * disk_pool,
                          storage_->GetPool(disk_device_));

  catalog_ = Catalog{};
  raw_tables_.clear();
  views_.clear();
  mdb_ = ManagementDatabase{};

  STATDB_ASSIGN_OR_RETURN(uint32_t ndatasets, r.GetU32());
  for (uint32_t i = 0; i < ndatasets; ++i) {
    DataSetInfo info;
    STATDB_ASSIGN_OR_RETURN(info.name, r.GetString());
    STATDB_ASSIGN_OR_RETURN(info.schema, ReadSchema(&r));
    STATDB_ASSIGN_OR_RETURN(uint8_t location, r.GetU8());
    info.location = static_cast<DataSetLocation>(location);
    STATDB_ASSIGN_OR_RETURN(info.description, r.GetString());
    STATDB_ASSIGN_OR_RETURN(info.approx_rows, r.GetU64());
    STATDB_RETURN_IF_ERROR(catalog_.RegisterDataSet(std::move(info)));
  }

  STATDB_ASSIGN_OR_RETURN(uint32_t ntables, r.GetU32());
  for (uint32_t i = 0; i < ntables; ++i) {
    STATDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
    STATDB_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&r));
    STATDB_ASSIGN_OR_RETURN(std::vector<PageId> pages, ReadPageIds(&r));
    STATDB_ASSIGN_OR_RETURN(uint64_t record_count, r.GetU64());
    raw_tables_.emplace(
        name, std::make_unique<StoredRowTable>(std::move(schema), tape_pool,
                                               std::move(pages),
                                               record_count));
  }

  STATDB_ASSIGN_OR_RETURN(uint32_t nviews, r.GetU32());
  for (uint32_t i = 0; i < nviews; ++i) {
    STATDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
    STATDB_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&r));
    STATDB_ASSIGN_OR_RETURN(uint64_t view_version, r.GetU64());
    STATDB_ASSIGN_OR_RETURN(uint64_t num_rows, r.GetU64());
    // Each column: page-id count, cell count, label count.
    STATDB_ASSIGN_OR_RETURN(uint32_t ncols, r.GetCount(4 + 8 + 4));
    std::vector<TransposedTable::ColumnState> columns;
    columns.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      TransposedTable::ColumnState col;
      STATDB_ASSIGN_OR_RETURN(col.pages, ReadPageIds(&r));
      STATDB_ASSIGN_OR_RETURN(col.count, r.GetU64());
      STATDB_ASSIGN_OR_RETURN(uint32_t nlabels, r.GetCount(4));
      col.labels.reserve(nlabels);
      for (uint32_t l = 0; l < nlabels; ++l) {
        STATDB_ASSIGN_OR_RETURN(std::string label, r.GetString());
        col.labels.push_back(std::move(label));
      }
      columns.push_back(std::move(col));
    }
    STATDB_ASSIGN_OR_RETURN(uint64_t tree_root, r.GetU64());
    STATDB_ASSIGN_OR_RETURN(uint64_t tree_size, r.GetU64());
    STATDB_ASSIGN_OR_RETURN(uint64_t entry_count, r.GetU64());
    ViewState state;
    state.view = std::make_unique<ConcreteView>(
        name, std::move(schema), disk_pool, std::move(columns), num_rows,
        view_version);
    state.summary = SummaryDatabase::Attach(disk_pool, tree_root, tree_size,
                                            entry_count);
    views_.emplace(name, std::move(state));
  }

  STATDB_ASSIGN_OR_RETURN(uint32_t mdb_len, r.GetU32());
  STATDB_ASSIGN_OR_RETURN(const uint8_t* mdb_data, r.GetRaw(mdb_len));
  std::vector<uint8_t> mdb_bytes(mdb_data, mdb_data + mdb_len);
  STATDB_RETURN_IF_ERROR(RestoreManagementState(mdb_bytes, &mdb_));

  // v2 delta-occupancy section: those summaries never got their flush
  // (the maintainers and buffers died with the process) — invalidate so
  // the next query recomputes instead of trusting a pre-delta value.
  if (version >= 2) {
    STATDB_ASSIGN_OR_RETURN(uint32_t npending, r.GetU32());
    for (uint32_t i = 0; i < npending; ++i) {
      STATDB_ASSIGN_OR_RETURN(std::string vname, r.GetString());
      STATDB_ASSIGN_OR_RETURN(std::string attr, r.GetString());
      auto it = views_.find(vname);
      if (it == views_.end()) continue;
      STATDB_ASSIGN_OR_RETURN(
          uint64_t stamped, it->second.summary->InvalidateAttribute(attr));
      (void)stamped;
    }
  }
  if (!r.exhausted()) {
    return DataLossError("manifest has trailing bytes");
  }
  return Status::OK();
}

Status StatisticalDbms::CommitDurable(const std::string& attr_hint,
                                      bool force) {
  if (wal_ == nullptr) return Status::OK();
  {
    MutexLock lock(session_mu_);
    if (degraded_) {
      return FailedPreconditionError("commit in degraded mode: " +
                                     degraded_reason_);
    }
  }
  STATDB_ASSIGN_OR_RETURN(BufferPool * disk, storage_->GetPool(disk_device_));
  WalRecord record;
  record.lsn = wal_->last_lsn() + 1;
  record.attr_hint = attr_hint;
  record.pages = disk->CollectDirty(record.lsn);
  if (record.pages.empty() && !force) return Status::OK();
  Result<std::vector<uint8_t>> manifest = BuildManifest();
  if (!manifest.ok()) {
    EnterDegraded("manifest serialization failed: " +
                  manifest.status().ToString());
    return manifest.status();
  }
  record.manifest = std::move(manifest).value();
  TraceTimer wal_timer;
  Status s = wal_->Append(record);
  if (!s.ok()) {
    EnterDegraded("wal append failed: " + s.ToString());
    return s;
  }
  // Log record is durable; now the in-place writes may proceed.
  s = disk->FlushAll();
  if (!s.ok()) {
    EnterDegraded("post-commit page write-back failed: " + s.ToString());
    return s;
  }
  metrics_.GetCounter("dbms.commits")->Inc();
  if (flight_.enabled()) {
    // The WAL commit joins the trace of whatever operation triggered it
    // (a query's CommitAfterQuery tail, an update, recovery itself).
    flight_.Record(causal::Current(), FlightEventKind::kWalCommit,
                   attr_hint.empty() ? std::string("commit") : attr_hint,
                   int64_t(record.lsn), int64_t(record.pages.size()),
                   wal_timer.ElapsedMs());
  }
  return Status::OK();
}

void StatisticalDbms::CommitAfterQuery(const std::string& attr_hint) {
  if (wal_ == nullptr || degraded()) return;
  // CommitDurable degrades on failure; the computed answer itself is
  // still correct, so query paths swallow the commit error.
  (void)CommitDurable(attr_hint, /*force=*/false);
}

Status StatisticalDbms::Recover() {
  // The wrapper owns the "recover"-labeled trace so the body's early
  // returns cannot skip sink emission — the same split the query paths
  // use (RunQueries vs RunPipeline). It also mints the recovery's causal
  // context: every kRecoveryStep and the fallback-invalidation commit's
  // kWalCommit land under one trace_id.
  causal::ScopedTraceContext scope(causal::Mint());
  TraceTimer timer;
  std::optional<QueryTrace> trace;
  QueryTrace* tr = BeginTrace(&trace, scope.ctx(), "recover");
  Status s = RecoverImpl(tr);
  FinishOperation(OpClass::kRecover, timer,
                  s.ok() ? TraceOutcome::kComputed : TraceOutcome::kError,
                  tr);
  return s;
}

Status StatisticalDbms::RecoverImpl(QueryTrace* trace) {
  if (wal_ == nullptr) {
    return FailedPreconditionError("Recover() without EnableDurability()");
  }
  // Recovery replaces every ConcreteView; the session routing table
  // would be left holding dangling live pointers and unreachable
  // captures. Forbid it while analysts are pinned, and re-register the
  // rebuilt views below.
  if (sessions_ != nullptr && sessions_->open_sessions() > 0) {
    return FailedPreconditionError(
        "Recover() with open analyst sessions; close them first");
  }
  WalScanResult scan;
  {
    ScopedSpan span(trace, SpanKind::kWalScan);
    STATDB_ASSIGN_OR_RETURN(scan, wal_->Open());
    span.SetRows(scan.records.size());
  }
  flight_.Record(causal::Current(), FlightEventKind::kRecoveryStep,
                 "wal_scan", int64_t(scan.records.size()),
                 scan.torn_tail ? 1 : 0);
  metrics_.GetCounter("dbms.recovery.records_replayed")
      ->Inc(scan.records.size());
  if (scan.torn_tail) {
    metrics_.GetCounter("dbms.recovery.torn_tails")->Inc();
  }

  // Reboot semantics: whatever the pools held is gone; only the platters
  // and the log survive.
  STATDB_ASSIGN_OR_RETURN(BufferPool * disk, storage_->GetPool(disk_device_));
  STATDB_ASSIGN_OR_RETURN(BufferPool * tape, storage_->GetPool(tape_device_));
  disk->DiscardAll();
  tape->DiscardAll();

  // Physical redo: rewrite every committed page image, oldest first.
  // Idempotent — the images are complete pages.
  STATDB_ASSIGN_OR_RETURN(SimulatedDevice * disk_dev,
                          storage_->GetDevice(disk_device_));
  uint64_t pages_replayed = 0;
  {
    ScopedSpan span(trace, SpanKind::kRedoReplay);
    for (const WalRecord& rec : scan.records) {
      for (const auto& [pid, page] : rec.pages) {
        while (disk_dev->page_count() <= pid) {
          disk_dev->AllocatePage();
        }
        STATDB_RETURN_IF_ERROR(
            RetryIo([&] { return disk_dev->WritePage(pid, page); }));
        ++pages_replayed;
      }
    }
    span.SetRows(pages_replayed);
    span.SetPages(pages_replayed);
  }
  flight_.Record(causal::Current(), FlightEventKind::kRecoveryStep,
                 "redo_replay", int64_t(pages_replayed),
                 int64_t(scan.records.size()));
  metrics_.GetCounter("dbms.recovery.pages_replayed")->Inc(pages_replayed);

  {
    ScopedSpan span(trace, SpanKind::kManifestApply);
    if (!scan.records.empty()) {
      STATDB_RETURN_IF_ERROR(ApplyManifest(scan.records.back().manifest));
      span.SetRows(views_.size());
    } else {
      // Empty log: a fresh installation. Reset to pristine state.
      catalog_ = Catalog{};
      raw_tables_.clear();
      views_.clear();
      mdb_ = ManagementDatabase{};
    }
  }
  NoteOrderStateBytes();  // no view keeps an order state across recovery
  flight_.Record(causal::Current(), FlightEventKind::kRecoveryStep,
                 "manifest_apply", int64_t(views_.size()),
                 int64_t(raw_tables_.size()));

  // §4.3 fallback for the lost tail: "after each update operation all
  // the values associated with the updated attribute will be marked as
  // invalid" — here applied because the update's redo record did not
  // survive. Without even a hint, every cached entry is suspect.
  if (scan.torn_tail) {
    uint64_t invalidated = 0;
    {
      ScopedSpan span(trace, SpanKind::kFallbackInvalidate);
      for (auto& [name, state] : views_) {
        if (!scan.torn_attr_hint.empty()) {
          STATDB_ASSIGN_OR_RETURN(
              uint64_t n,
              state.summary->InvalidateAttribute(scan.torn_attr_hint));
          invalidated += n;
        } else {
          std::vector<SummaryKey> keys;
          STATDB_RETURN_IF_ERROR(
              state.summary->ForEach([&keys](const SummaryEntry& e) {
                keys.push_back(e.key);
                return Status::OK();
              }));
          for (const SummaryKey& key : keys) {
            STATDB_RETURN_IF_ERROR(state.summary->MarkStale(key));
          }
          invalidated += keys.size();
        }
      }
      span.SetRows(invalidated);
    }
    flight_.Record(causal::Current(), FlightEventKind::kRecoveryStep,
                   "fallback_invalidate", int64_t(invalidated),
                   scan.torn_attr_hint.empty() ? 0 : 1);
    metrics_.GetCounter("dbms.recovery.fallback_invalidations")
        ->Inc(invalidated);
    // The invalidations themselves must be durable, or the next crash
    // would resurrect the suspect entries.
    STATDB_RETURN_IF_ERROR(CommitDurable(scan.torn_attr_hint, false));
  }

  // Re-register the rebuilt views with the session layer (no sessions
  // are open — guarded above — so resetting the routing entries drops
  // nothing reachable).
  if (sessions_ != nullptr) {
    for (auto& [name, state] : views_) {
      sessions_->BootstrapView(name, state.view.get());
    }
  }

  {
    MutexLock lock(session_mu_);
    ++recoveries_;
  }
  metrics_.GetCounter("dbms.recoveries")->Inc();
  return Status::OK();
}

}  // namespace statdb
