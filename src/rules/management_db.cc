#include "rules/management_db.h"

#include <algorithm>

namespace statdb {

std::string_view MaintenancePolicyName(MaintenancePolicy p) {
  switch (p) {
    case MaintenancePolicy::kIncremental: return "incremental";
    case MaintenancePolicy::kInvalidate: return "invalidate";
    case MaintenancePolicy::kEager: return "eager";
  }
  return "?";
}

Status ManagementDatabase::RegisterView(
    const std::string& name, const std::string& canonical_definition,
    MaintenancePolicy policy) {
  if (views_.contains(name)) {
    return AlreadyExistsError("view already registered: " + name);
  }
  ViewRecord rec;
  rec.name = name;
  rec.canonical_definition = canonical_definition;
  rec.policy = policy;
  views_.emplace(name, std::move(rec));
  return Status::OK();
}

Result<ViewRecord*> ManagementDatabase::GetView(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) return NotFoundError("no view named " + name);
  return &it->second;
}

Result<const ViewRecord*> ManagementDatabase::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) return NotFoundError("no view named " + name);
  return &it->second;
}

std::vector<std::string> ManagementDatabase::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, rec] : views_) out.push_back(name);
  return out;
}

Status ManagementDatabase::DropView(const std::string& name) {
  if (views_.erase(name) == 0) {
    return NotFoundError("no view named " + name);
  }
  return Status::OK();
}

Result<std::string> ManagementDatabase::FindViewByDefinition(
    const std::string& canonical_definition) const {
  for (const auto& [name, rec] : views_) {
    if (rec.canonical_definition == canonical_definition) return name;
  }
  return NotFoundError("no view with this definition");
}

Result<std::unique_ptr<IncrementalMaintainer>>
ManagementDatabase::MakeMaintainer(const std::string& function,
                                   const FunctionParams& params) const {
  if (function == "count") return MakeCountMaintainer();
  if (function == "sum") return MakeSumMaintainer();
  if (function == "mean") return MakeMeanMaintainer();
  if (function == "variance") return MakeVarianceMaintainer();
  if (function == "min") return MakeMinMaintainer();
  if (function == "max") return MakeMaxMaintainer();
  if (function == "median" || function == "quantile") {
    STATDB_ASSIGN_OR_RETURN(size_t window, params.GetCount("window", 100));
    return MakeOrderStatWindowMaintainer(
        function == "median" ? 0.5 : params.GetOr("p", 0.5), window);
  }
  if (function == "mode") return MakeModeMaintainer();
  if (function == "distinct") return MakeDistinctMaintainer();
  if (function == "histogram") {
    STATDB_ASSIGN_OR_RETURN(size_t buckets, params.GetCount("buckets", 20));
    return MakeHistogramMaintainer(buckets, params.GetOr("spill", 0.1));
  }
  return NotFoundError("no incremental rule for function " + function);
}

bool ManagementDatabase::HasMaintainer(const std::string& function) const {
  return MakeMaintainer(function, FunctionParams()).ok();
}

Status ManagementDatabase::AddDerivedColumn(const std::string& view,
                                            DerivedColumnDef def) {
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, GetView(view));
  for (const DerivedColumnDef& existing : rec->derived_columns) {
    if (existing.name == def.name) {
      return AlreadyExistsError("derived column already defined: " +
                                def.name);
    }
  }
  rec->derived_columns.push_back(std::move(def));
  return Status::OK();
}

Result<std::vector<DerivedColumnDef*>> ManagementDatabase::DerivedColumnsOn(
    const std::string& view, const std::string& attribute) {
  STATDB_ASSIGN_OR_RETURN(ViewRecord * rec, GetView(view));
  std::vector<DerivedColumnDef*> out;
  for (DerivedColumnDef& def : rec->derived_columns) {
    std::vector<std::string> inputs = def.Inputs();
    if (std::find(inputs.begin(), inputs.end(), attribute) != inputs.end()) {
      out.push_back(&def);
    }
  }
  return out;
}

}  // namespace statdb
