#include "check/db_auditor.h"

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/dbms.h"
#include "core/view.h"
#include "storage/buffer_pool.h"
#include "summary/summary_db.h"

namespace statdb {

namespace {

/// Same bits, or both NaN.
bool SameDouble(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// Why `live` (its queue merged) is not the state a fresh build from
/// `column` gives; empty when it is.
std::string OrderStateMismatch(OrderState live,
                               const std::vector<double>& column) {
  if (!live.Merge()) return "a queued change is not in the state";
  const OrderState fresh = OrderState::Build(column);
  if (live.nan_count() != fresh.nan_count()) return "NaN count differs";
  const std::vector<double>& a = live.sorted();
  const std::vector<double>& b = fresh.sorted();
  if (a.size() != b.size()) return "value count differs";
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameDouble(a[i], b[i])) {
      return "rank " + std::to_string(i) + " differs";
    }
  }
  if (const std::optional<DescriptiveStats>& m = live.moments()) {
    const DescriptiveStats& f = *fresh.moments();
    if (m->count != f.count || !SameDouble(m->sum, f.sum) ||
        !SameDouble(m->mean, f.mean) || !SameDouble(m->m2, f.m2) ||
        !SameDouble(m->min, f.min) || !SameDouble(m->max, f.max)) {
      return "row-order moments differ";
    }
  }
  return "";
}

}  // namespace

Status DbAuditor::AuditView(const std::string& view, CheckReport* report) {
  STATDB_ASSIGN_OR_RETURN(SummaryDatabase * summary,
                          dbms_->GetSummaryDb(view));
  STATDB_ASSIGN_OR_RETURN(ConcreteView * concrete, dbms_->GetView(view));

  // Structure first: a corrupt index makes the oracle's reads suspect.
  STATDB_RETURN_IF_ERROR(CheckBPlusTree(*summary->index(), report));
  STATDB_RETURN_IF_ERROR(CheckSummaryDb(summary, report));

  ViewOracle oracle;
  oracle.view_version = concrete->version();
  for (const std::string& attr :
       dbms_->views_.at(view).deltas.PendingAttributes()) {
    oracle.pending_attributes.insert(attr);
  }
  oracle.read_numeric =
      [concrete](const std::string& attr) -> Result<std::vector<double>> {
    return concrete->ReadNumericColumn(attr);
  };
  oracle.read_column =
      [concrete](const std::string& attr) -> Result<std::vector<Value>> {
    return concrete->ReadColumn(attr);
  };
  STATDB_RETURN_IF_ERROR(AuditSummaryAgainstView(
      summary, dbms_->management_db().functions(), oracle, report,
      options_));

  // Every live order state against a fresh sorted gather. A state behind
  // its column's generation is dropped on its next use, not read.
  for (const auto& [attr, entry] : dbms_->views_.at(view).order_states) {
    STATDB_ASSIGN_OR_RETURN(size_t column, concrete->schema().IndexOf(attr));
    if (entry.generation != concrete->generation(column)) continue;
    STATDB_ASSIGN_OR_RETURN(std::vector<double> data,
                            concrete->ReadNumericColumn(attr));
    const std::string why = OrderStateMismatch(entry.state, data);
    if (!why.empty()) {
      report->Add(CheckSeverity::kError, "order_state", "order-state-drift",
                  view + "." + attr + ": " + why);
    }
  }
  return Status::OK();
}

Status DbAuditor::AuditAll(CheckReport* report) {
  for (const std::string& view : dbms_->ViewNames()) {
    STATDB_RETURN_IF_ERROR(AuditView(view, report));
  }
  // The audit itself pins and unpins pages, so quiescence is checked
  // last, once every walk has released its frames.
  Result<BufferPool*> disk =
      dbms_->storage()->GetPool(dbms_->disk_device_name());
  if (disk.ok()) {
    STATDB_RETURN_IF_ERROR(CheckBufferPool(*disk.value(), report));
  }
  if (dbms_->durability_enabled()) {
    // Every checksummed page image on the platter must verify, and no
    // page may claim an LSN the redo log has not committed
    // (force-at-commit means the log always leads the data pages).
    Result<SimulatedDevice*> disk_dev =
        dbms_->storage()->GetDevice(dbms_->disk_device_name());
    if (disk_dev.ok()) {
      STATDB_RETURN_IF_ERROR(CheckDeviceChecksums(
          *disk_dev.value(), dbms_->last_committed_lsn(), report));
    }
    // A torn log tail is expected debris after a crash, not corruption —
    // recovery discards it by overwrite — so it is surfaced at kInfo.
    const WalStats ws = dbms_->redo_log()->stats();
    if (ws.torn_tail_bytes > 0) {
      report->Add(CheckSeverity::kInfo, "wal", "torn-tail",
                  std::to_string(ws.torn_tail_bytes) +
                      " trailing bytes discarded by the last log scan");
    }
  }
  return Status::OK();
}

Status FsckDatabase(StatisticalDbms* dbms, std::string* report_text,
                    const AuditOptions& options) {
  CheckReport report;
  DbAuditor auditor(dbms, options);
  STATDB_RETURN_IF_ERROR(auditor.AuditAll(&report));
  if (report_text != nullptr) *report_text = report.ToString();
  return report.ToStatus();
}

}  // namespace statdb
