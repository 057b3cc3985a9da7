#include "delta/maintenance.h"

namespace statdb::delta {

namespace {

std::string FireLabel(const std::string& view, const std::string& function,
                      const std::string& attribute) {
  return view + "." + function + "(" + attribute + ")";
}

/// Marks the entry stale and forgets its maintainer (if any); a stale
/// entry recomputes lazily and re-arms from the fresh column.
template <typename Map>
Status Demote(const SummaryEntry& e, const std::string& encoded,
              const FlushEnv& env, Map* map, FlushCounters* counters) {
  if (map != nullptr) map->erase(encoded);
  ++counters->invalidated;
  return env.summary->MarkStale(e.key);
}

Status FlushUnivariate(const std::string& attribute, const SummaryEntry& e,
                       const std::vector<CellDelta>& cell_batch,
                       const FlushEnv& env, FlushCounters* counters,
                       std::vector<double>* column,
                       bool* column_loaded) {
  std::string encoded = e.key.Encode();
  auto mit = env.maintainers->find(encoded);
  if (e.stale) {
    // Invalidated between buffer and flush (rollback, derived-column
    // regeneration, non-numeric fallback): the maintainer's state never
    // saw the invalidation's cause, so it must not resurrect the entry.
    if (mit != env.maintainers->end()) env.maintainers->erase(mit);
    return Status::OK();
  }
  if (mit == env.maintainers->end()) {
    // No incremental rule armed (none exists, or the entry predates this
    // process): mark stale, recompute lazily on next query.
    ++counters->invalidated;
    return env.summary->MarkStale(e.key);
  }
  IncrementalMaintainer* m = mit->second.get();
  Result<SummaryResult> updated = m->ApplyBatch(cell_batch);
  bool rebuilt = false;
  if (!updated.ok()) {
    // Auxiliary state exhausted: one full pass rebuilds it (§4.2).
    if (!*column_loaded) {
      STATDB_ASSIGN_OR_RETURN(*column, env.load_column());
      *column_loaded = true;
    }
    updated = m->Initialize(*column);
    rebuilt = true;
    ++counters->rebuilds;
    if (!updated.ok()) {
      return Demote(e, encoded, env, env.maintainers, counters);
    }
  } else {
    counters->applied += cell_batch.size();
  }
  STATDB_RETURN_IF_ERROR(
      env.summary->Refresh(e.key, updated.value(), env.view_version));
  ++counters->refreshed;
  if (env.flight != nullptr && env.flight->enabled()) {
    // b distinguishes the cheap differencing path (0) from a §4.2
    // full-column rebuild (1) — the economics the §4.3 choice weighs.
    env.flight->Record(
        env.ctx, FlightEventKind::kMaintainerFire,
        FireLabel(env.view_name, e.key.function, attribute),
        int64_t(cell_batch.size()), rebuilt ? 1 : 0);
  }
  return Status::OK();
}

Status FlushBivariate(const std::string& attribute, const SummaryEntry& e,
                      const std::vector<RowDelta>& batch, const FlushEnv& env,
                      FlushCounters* counters) {
  std::string encoded = e.key.Encode();
  auto cit = env.comaintainers->find(encoded);
  if (e.stale) {
    if (cit != env.comaintainers->end()) env.comaintainers->erase(cit);
    return Status::OK();
  }
  if (cit == env.comaintainers->end() || !cit->second->Touches(attribute)) {
    ++counters->invalidated;
    return env.summary->MarkStale(e.key);
  }
  ComomentMaintainer* cm = cit->second.get();
  const std::string& co_attr = cm->CoAttribute(attribute);
  // Soundness gate: the live co-value stands in for the co-attribute at
  // both delta endpoints only while the co-attribute itself has nothing
  // pending. When both sides are behind, whichever flushes first lands
  // here and demotes the entry — co-reads therefore only ever happen
  // against fully-flushed co-attributes.
  if (env.has_pending && env.has_pending(co_attr)) {
    return Demote(e, encoded, env, env.comaintainers, counters);
  }
  for (const RowDelta& d : batch) {
    if (d.IsNoOp()) continue;
    Result<std::optional<double>> co = env.read_cell(d.row, co_attr);
    if (!co.ok() || !co.value().has_value()) {
      return Demote(e, encoded, env, env.comaintainers, counters);
    }
    if (Status st = cm->Apply(attribute, d, *co.value()); !st.ok()) {
      return Demote(e, encoded, env, env.comaintainers, counters);
    }
    ++counters->applied;
  }
  Result<SummaryResult> rendered = cm->Render();
  if (!rendered.ok()) {
    return Demote(e, encoded, env, env.comaintainers, counters);
  }
  STATDB_RETURN_IF_ERROR(
      env.summary->Refresh(e.key, rendered.value(), env.view_version));
  ++counters->refreshed;
  if (env.flight != nullptr && env.flight->enabled()) {
    env.flight->Record(
        env.ctx, FlightEventKind::kMaintainerFire,
        FireLabel(env.view_name, e.key.function, attribute),
        int64_t(batch.size()), 0);
  }
  return Status::OK();
}

}  // namespace

Status FlushAttribute(const std::string& attribute,
                      const std::vector<RowDelta>& batch, const FlushEnv& env,
                      FlushCounters* counters) {
  if (batch.empty()) return Status::OK();
  std::vector<CellDelta> cell_batch;
  cell_batch.reserve(batch.size());
  for (const RowDelta& d : batch) {
    if (d.IsNoOp()) continue;  // coalesced round trips cancel out
    cell_batch.push_back(CellDelta{d.old_value, d.new_value});
  }

  std::vector<SummaryEntry> entries;
  STATDB_RETURN_IF_ERROR(env.summary->ForEachOnAttribute(
      attribute, [&entries](const SummaryEntry& e) {
        entries.push_back(e);
        return Status::OK();
      }));

  // The full column is read at most once, shared by every rebuild.
  std::vector<double> column;
  bool column_loaded = false;

  for (const SummaryEntry& e : entries) {
    if (e.key.function == "note") continue;
    if (e.key.attributes.size() != 1) {
      STATDB_RETURN_IF_ERROR(
          FlushBivariate(attribute, e, batch, env, counters));
      continue;
    }
    STATDB_RETURN_IF_ERROR(FlushUnivariate(attribute, e, cell_batch, env,
                                           counters, &column,
                                           &column_loaded));
  }

  if (env.flight != nullptr && env.flight->enabled()) {
    env.flight->Record(env.ctx, FlightEventKind::kDeltaFlush,
                       env.view_name + "." + attribute,
                       int64_t(batch.size()), int64_t(counters->refreshed));
  }
  return Status::OK();
}

bool ArmMaintainer(
    const ManagementDatabase& mdb, const SummaryKey& key,
    const DescriptiveStats& state, const std::vector<double>& values,
    std::map<std::string, std::unique_ptr<IncrementalMaintainer>>*
        maintainers) {
  Result<FunctionParams> params = FunctionParams::Decode(key.params);
  if (!params.ok()) return false;
  Result<std::unique_ptr<IncrementalMaintainer>> m =
      mdb.MakeMaintainer(key.function, params.value());
  if (!m.ok()) return false;
  IncrementalMaintainer& rule = *m.value();
  Result<SummaryResult> init =
      rule.Seed(state) ? rule.Current() : rule.Initialize(values);
  if (!init.ok()) return false;
  (*maintainers)[key.Encode()] = std::move(m).value();
  return true;
}

bool ArmsFromValues(const ManagementDatabase& mdb,
                    const std::string& function,
                    const FunctionParams& params) {
  Result<std::unique_ptr<IncrementalMaintainer>> m =
      mdb.MakeMaintainer(function, params);
  // Seed on a throwaway rule: true exactly for the moment rules.
  return m.ok() && !m.value()->Seed(DescriptiveStats{});
}

bool ArmComomentMaintainer(
    const SummaryKey& key, const ComomentStats& seed,
    std::map<std::string, std::unique_ptr<ComomentMaintainer>>*
        comaintainers) {
  if (key.attributes.size() != 2 || !IsComomentFunction(key.function)) {
    return false;
  }
  (*comaintainers)[key.Encode()] = std::make_unique<ComomentMaintainer>(
      key.function, key.attributes[0], key.attributes[1], seed);
  return true;
}

}  // namespace statdb::delta
