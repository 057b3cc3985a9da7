#ifndef STATDB_RULES_MANAGEMENT_DB_H_
#define STATDB_RULES_MANAGEMENT_DB_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rules/derived.h"
#include "rules/function_registry.h"
#include "rules/incremental.h"
#include "rules/update_history.h"

namespace statdb {

/// How the DBMS keeps a view's Summary Database consistent under updates.
enum class MaintenancePolicy : uint8_t {
  /// Apply the Management Database's incremental rules per update; fall
  /// back to recomputation only when a rule's auxiliary state runs out
  /// (§4.2).
  kIncremental = 0,
  /// §4.3's fallback: mark every cached value on the updated attribute
  /// invalid; recompute lazily on next query.
  kInvalidate = 1,
  /// Recompute every affected cached value immediately after the update.
  kEager = 2,
};

std::string_view MaintenancePolicyName(MaintenancePolicy p);

/// Control record for one registered concrete view.
struct ViewRecord {
  std::string name;
  /// Canonical text of the view definition — used to detect that "a view
  /// ... identical to one that has already been created by another
  /// analyst" is being re-requested (§2.3).
  std::string canonical_definition;
  uint64_t version = 0;
  MaintenancePolicy policy = MaintenancePolicy::kIncremental;
  UpdateHistory history;
  std::vector<DerivedColumnDef> derived_columns;
};

/// The Management Database (§3.2): "a repository for information that
/// describes the organization of the data, the functions that are
/// applied to it, rules for manipulating information in the Summary
/// Databases, view definitions, update histories of the views, and other
/// control information." One per DBMS.
class ManagementDatabase {
 public:
  ManagementDatabase() : functions_(FunctionRegistry::WithBuiltins()) {}

  // --- view definitions --------------------------------------------------

  Status RegisterView(const std::string& name,
                      const std::string& canonical_definition,
                      MaintenancePolicy policy);
  Result<ViewRecord*> GetView(const std::string& name);
  Result<const ViewRecord*> GetView(const std::string& name) const;
  std::vector<std::string> ViewNames() const;
  Status DropView(const std::string& name);

  /// Name of an existing view with the same canonical definition, if any
  /// — the duplicate-materialization guard of §2.3.
  Result<std::string> FindViewByDefinition(
      const std::string& canonical_definition) const;

  // --- function dictionary & incremental rules ---------------------------

  const FunctionRegistry& functions() const { return functions_; }
  FunctionRegistry& functions() { return functions_; }

  /// The incremental-recomputation rule for `function` over `attributes`
  /// (a pair rule needs both), or NOT_FOUND when only full recomputation
  /// applies. `params` selects e.g. the quantile's p. Callers own the
  /// maintainer.
  Result<std::unique_ptr<IncrementalMaintainer>> MakeMaintainer(
      const std::string& function, const FunctionParams& params,
      const std::vector<std::string>& attributes = {}) const;

  /// Whether an incremental rule exists for `function`.
  bool HasMaintainer(const std::string& function) const;

  // --- derived-column rules ----------------------------------------------

  Status AddDerivedColumn(const std::string& view, DerivedColumnDef def);
  /// Derived columns of `view` affected by an update to `attribute`.
  Result<std::vector<DerivedColumnDef*>> DerivedColumnsOn(
      const std::string& view, const std::string& attribute);

 private:
  FunctionRegistry functions_;
  std::map<std::string, ViewRecord> views_;
};

}  // namespace statdb

#endif  // STATDB_RULES_MANAGEMENT_DB_H_
