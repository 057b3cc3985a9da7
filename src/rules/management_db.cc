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
ManagementDatabase::MakeMaintainer(
    const std::string& function, const FunctionParams& params,
    const std::vector<std::string>& attributes) const {
  STATDB_ASSIGN_OR_RETURN(const FunctionDescriptor* fn,
                          functions_.Find(function));
  if (fn->rule == nullptr) {
    return NotFoundError("no incremental rule for function " + function);
  }
  return fn->rule(*fn, attributes, params);
}

bool ManagementDatabase::HasMaintainer(const std::string& function) const {
  Result<const FunctionDescriptor*> fn = functions_.Find(function);
  return fn.ok() && fn.value()->rule != nullptr;
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
