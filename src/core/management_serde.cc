#include "core/management_serde.h"

#include "common/bytes.h"
#include "relational/expr.h"

namespace statdb {

namespace {

constexpr uint32_t kMagic = 0x5344424d;  // "SDBM"
constexpr uint32_t kVersion = 2;  // 2: raw-cell change sets

void WriteDerived(const DerivedColumnDef& def, ByteWriter* w) {
  w->PutString(def.name);
  w->PutU8(static_cast<uint8_t>(def.kind));
  w->PutU8(def.row_expr != nullptr ? 1 : 0);
  if (def.row_expr != nullptr) def.row_expr->Serialize(w);
  w->PutU8(static_cast<uint8_t>(def.generator));
  w->PutU32(static_cast<uint32_t>(def.generator_inputs.size()));
  for (const std::string& in : def.generator_inputs) w->PutString(in);
  w->PutU8(def.out_of_date ? 1 : 0);
}

Result<DerivedColumnDef> ReadDerived(ByteReader* r) {
  DerivedColumnDef def;
  STATDB_ASSIGN_OR_RETURN(def.name, r->GetString());
  STATDB_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  def.kind = static_cast<DerivedRuleKind>(kind);
  STATDB_ASSIGN_OR_RETURN(uint8_t has_expr, r->GetU8());
  if (has_expr != 0) {
    STATDB_ASSIGN_OR_RETURN(def.row_expr, Expr::Deserialize(r));
  }
  STATDB_ASSIGN_OR_RETURN(uint8_t gen, r->GetU8());
  def.generator = static_cast<ColumnGenerator>(gen);
  STATDB_ASSIGN_OR_RETURN(uint32_t nin, r->GetU32());
  for (uint32_t i = 0; i < nin; ++i) {
    STATDB_ASSIGN_OR_RETURN(std::string in, r->GetString());
    def.generator_inputs.push_back(std::move(in));
  }
  STATDB_ASSIGN_OR_RETURN(uint8_t ood, r->GetU8());
  def.out_of_date = ood != 0;
  return def;
}

void WriteHistory(const UpdateHistory& history, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(history.entries().size()));
  for (const UpdateLogEntry& e : history.entries()) {
    w->PutU64(e.version);
    w->PutString(e.description);
    w->PutU32(static_cast<uint32_t>(e.changes.size()));
    for (const ColumnChange& change : e.changes) {
      w->PutU32(static_cast<uint32_t>(change.column));
      w->PutU32(static_cast<uint32_t>(change.cells.size()));
      for (const RawChange& c : change.cells) {
        // Row, then which endpoints are present, then those raw cells.
        const std::optional<int64_t> before = c.old_cell();
        const std::optional<int64_t> after = c.new_cell();
        w->PutU64(c.row());
        w->PutU8(static_cast<uint8_t>((before.has_value() ? 1 : 0) |
                                      (after.has_value() ? 2 : 0)));
        if (before.has_value()) w->PutI64(*before);
        if (after.has_value()) w->PutI64(*after);
      }
    }
  }
}

Status ReadHistory(ByteReader* r, UpdateHistory* history) {
  STATDB_ASSIGN_OR_RETURN(uint32_t nentries, r->GetU32());
  for (uint32_t i = 0; i < nentries; ++i) {
    UpdateLogEntry e;
    STATDB_ASSIGN_OR_RETURN(e.version, r->GetU64());
    STATDB_ASSIGN_OR_RETURN(e.description, r->GetString());
    // Each column change: its position and cell count.
    STATDB_ASSIGN_OR_RETURN(uint32_t ncolumns, r->GetCount(4 + 4));
    e.changes.resize(ncolumns);
    for (ColumnChange& change : e.changes) {
      STATDB_ASSIGN_OR_RETURN(uint32_t column, r->GetU32());
      change.column = column;
      // Each cell: row and presence flags at least.
      STATDB_ASSIGN_OR_RETURN(uint32_t ncells, r->GetCount(8 + 1));
      change.cells.reserve(ncells);
      for (uint32_t c = 0; c < ncells; ++c) {
        STATDB_ASSIGN_OR_RETURN(uint64_t row, r->GetU64());
        STATDB_ASSIGN_OR_RETURN(uint8_t present, r->GetU8());
        if (present > 3 || row >> 62 != 0) {
          return DataLossError("bad history cell");
        }
        std::optional<int64_t> before, after;
        if ((present & 1) != 0) {
          STATDB_ASSIGN_OR_RETURN(before, r->GetI64());
        }
        if ((present & 2) != 0) {
          STATDB_ASSIGN_OR_RETURN(after, r->GetI64());
        }
        change.cells.emplace_back(row, before, after);
      }
    }
    STATDB_RETURN_IF_ERROR(history->Append(std::move(e)));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> SerializeManagementState(
    const ManagementDatabase& mdb) {
  ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);
  std::vector<std::string> names = mdb.ViewNames();
  w.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    STATDB_ASSIGN_OR_RETURN(const ViewRecord* rec, mdb.GetView(name));
    w.PutString(rec->name);
    w.PutString(rec->canonical_definition);
    w.PutU64(rec->version);
    w.PutU8(static_cast<uint8_t>(rec->policy));
    w.PutU32(static_cast<uint32_t>(rec->derived_columns.size()));
    for (const DerivedColumnDef& def : rec->derived_columns) {
      WriteDerived(def, &w);
    }
    WriteHistory(rec->history, &w);
  }
  return w.Take();
}

namespace {

// RestoreManagementState's parse, before its failures are all made
// DATA_LOSS: a duplicate view or a history out of order is damage too.
Status Restore(const std::vector<uint8_t>& bytes, ManagementDatabase* mdb) {
  ByteReader r(bytes);
  STATDB_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMagic) {
    return DataLossError("bad management-state magic");
  }
  STATDB_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kVersion) {
    return DataLossError("unsupported management-state version");
  }
  STATDB_ASSIGN_OR_RETURN(uint32_t nviews, r.GetU32());
  for (uint32_t v = 0; v < nviews; ++v) {
    STATDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
    STATDB_ASSIGN_OR_RETURN(std::string canonical, r.GetString());
    STATDB_ASSIGN_OR_RETURN(uint64_t view_version, r.GetU64());
    STATDB_ASSIGN_OR_RETURN(uint8_t policy, r.GetU8());
    STATDB_RETURN_IF_ERROR(mdb->RegisterView(
        name, canonical, static_cast<MaintenancePolicy>(policy)));
    STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, mdb->GetView(name));
    rec->version = view_version;
    STATDB_ASSIGN_OR_RETURN(uint32_t nderived, r.GetU32());
    for (uint32_t d = 0; d < nderived; ++d) {
      STATDB_ASSIGN_OR_RETURN(DerivedColumnDef def, ReadDerived(&r));
      rec->derived_columns.push_back(std::move(def));
    }
    STATDB_RETURN_IF_ERROR(ReadHistory(&r, &rec->history));
  }
  if (!r.exhausted()) {
    return DataLossError("trailing bytes in management state");
  }
  return Status::OK();
}

}  // namespace

Status RestoreManagementState(const std::vector<uint8_t>& bytes,
                              ManagementDatabase* mdb) {
  if (!mdb->ViewNames().empty()) {
    return FailedPreconditionError(
        "restore into a non-empty management database");
  }
  return AsDataLoss(Restore(bytes, mdb));
}

}  // namespace statdb
