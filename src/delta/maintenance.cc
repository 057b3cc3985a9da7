#include "delta/maintenance.h"

namespace statdb::delta {

namespace {

std::string FireLabel(const std::string& view, const std::string& function,
                      const std::string& attribute) {
  return view + "." + function + "(" + attribute + ")";
}

/// The changes a pair rule folds for `batch` on `attribute`: each with
/// the row's co-value as the pair's other coordinate, oriented as the
/// key names the pair. A pair over one attribute twice takes the
/// change's own endpoints for both coordinates — its live cell already
/// holds the new value. nullopt when a co-value is missing or unreadable.
std::optional<std::vector<CellDelta>> PairChanges(
    const SummaryKey& key, const std::string& attribute,
    const std::string& co_attr, const std::vector<RowDelta>& batch,
    const FlushEnv& env) {
  const bool changes_x = key.attributes[0] == attribute;
  std::vector<CellDelta> out;
  out.reserve(batch.size());
  for (const RowDelta& d : batch) {
    if (d.IsNoOp()) continue;
    if (co_attr == attribute) {
      out.push_back({d.old_value, d.new_value, d.old_value.value_or(0),
                     d.new_value.value_or(0)});
      continue;
    }
    Result<std::optional<double>> co = env.read_cell(d.row, co_attr);
    if (!co.ok() || !co.value().has_value()) return std::nullopt;
    const double c = *co.value();
    if (changes_x) {
      out.push_back({d.old_value, d.new_value, c, c});
    } else {
      auto at = [c](const std::optional<double>& v) {
        return v.has_value() ? std::optional<double>(c) : std::nullopt;
      };
      out.push_back({at(d.old_value), at(d.new_value),
                     d.old_value.value_or(0), d.new_value.value_or(0)});
    }
  }
  return out;
}

/// Marks the entry stale and forgets its rule; a stale entry recomputes
/// lazily and re-arms from the fresh column.
Status Demote(const SummaryEntry& e, const std::string& encoded,
              const FlushEnv& env, FlushCounters* counters) {
  env.maintainers->erase(encoded);
  ++counters->invalidated;
  return env.summary->MarkStale(e.key);
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
    if (e.key.function == kNoteFunction) continue;
    const std::string encoded = e.key.Encode();
    auto mit = env.maintainers->find(encoded);
    if (e.stale) {
      // Invalidated between buffer and flush (rollback, derived-column
      // regeneration, non-numeric fallback): the rule's state never saw
      // the invalidation's cause, so it must not resurrect the entry.
      if (mit != env.maintainers->end()) env.maintainers->erase(mit);
      continue;
    }
    if (mit == env.maintainers->end()) {
      // No incremental rule armed (none exists, or the entry predates this
      // process): mark stale, recompute lazily on next query.
      ++counters->invalidated;
      STATDB_RETURN_IF_ERROR(env.summary->MarkStale(e.key));
      continue;
    }
    IncrementalMaintainer* m = mit->second.get();
    const std::vector<CellDelta>* changes = &cell_batch;
    std::optional<std::vector<CellDelta>> pairs;
    const std::string* co_attr = m->CoAttribute(attribute);
    if (co_attr != nullptr) {
      // Soundness gate: when both sides of the pair are behind, whichever
      // flushes first lands here and demotes the entry — co-reads only
      // ever happen against fully flushed co-attributes.
      if (*co_attr != attribute && env.has_pending(*co_attr)) {
        STATDB_RETURN_IF_ERROR(Demote(e, encoded, env, counters));
        continue;
      }
      pairs = PairChanges(e.key, attribute, *co_attr, batch, env);
      if (!pairs) {
        STATDB_RETURN_IF_ERROR(Demote(e, encoded, env, counters));
        continue;
      }
      changes = &*pairs;
    }
    Result<SummaryResult> updated = m->ApplyBatch(*changes);
    bool rebuilt = false;
    if (!updated.ok() && co_attr == nullptr) {
      // Auxiliary state exhausted: one full pass rebuilds it (§4.2).
      if (!column_loaded) {
        STATDB_ASSIGN_OR_RETURN(column, env.load_column());
        column_loaded = true;
      }
      updated = m->Initialize(column);
      rebuilt = true;
      ++counters->rebuilds;
    } else if (updated.ok()) {
      counters->applied += changes->size();
    }
    if (!updated.ok()) {
      STATDB_RETURN_IF_ERROR(Demote(e, encoded, env, counters));
      continue;
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
          int64_t(changes->size()), rebuilt ? 1 : 0);
    }
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
    const FamilyState& state,
    std::map<std::string, std::unique_ptr<IncrementalMaintainer>>*
        maintainers) {
  Result<FunctionParams> params = FunctionParams::Decode(key.params);
  if (!params.ok()) return false;
  Result<std::unique_ptr<IncrementalMaintainer>> m =
      mdb.MakeMaintainer(key.function, params.value(), key.attributes);
  if (!m.ok()) return false;
  IncrementalMaintainer& rule = *m.value();
  Result<SummaryResult> init =
      rule.Seed(state) ? rule.Current() : rule.Initialize(state.values);
  if (!init.ok()) return false;
  (*maintainers)[key.Encode()] = std::move(m).value();
  return true;
}

}  // namespace statdb::delta
