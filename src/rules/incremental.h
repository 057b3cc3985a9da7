#ifndef STATDB_RULES_INCREMENTAL_H_
#define STATDB_RULES_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "summary/summary_result.h"

namespace statdb {

/// One cell change on the maintained attribute. Covers the three cases an
/// analyst's predicate update produces: value change (old and new), value
/// invalidated to missing (old only), and missing filled in (new only).
/// A pair rule's change is a pair's: old_value/new_value are its x, and
/// old_y/new_y its y at the endpoints where x is present.
struct CellDelta {
  std::optional<double> old_value;
  std::optional<double> new_value;
  double old_y = 0;
  double new_y = 0;

  static CellDelta Change(double from, double to) { return {from, to}; }
  static CellDelta Invalidate(double old) { return {old, std::nullopt}; }
  static CellDelta Fill(double v) { return {std::nullopt, v}; }
};

struct FamilyState;  // rules/function_registry.h

/// Per-maintainer effort counters: how often the cheap path sufficed vs.
/// how often a full pass over the column was needed.
struct MaintainerStats {
  uint64_t applies = 0;    // deltas absorbed incrementally
  uint64_t rebuilds = 0;   // full-data reinitializations
  /// Rebuilds answered by the paper's single-pass bucket scheme (the old
  /// window range still bracketed the new target) vs. a full sort.
  uint64_t single_pass_rebuilds = 0;
  uint64_t window_slides = 0;  // order-stat window pointer movements
};

/// Incrementally recomputable function state — the executable form of the
/// Management Database's update rules (§3.2/§4.2): "a more attractive
/// alternative is to incrementally recompute the result using the old
/// function value, changes made to the data, and perhaps some auxiliary
/// information, without having to access all of the data."
///
/// Protocol: Initialize() once from the full column; Apply() per cell
/// delta. Apply returns FAILED_PRECONDITION when the auxiliary state can
/// no longer answer (e.g. the unique minimum was deleted, or the median
/// pointer ran off the cached window); the caller must then re-Initialize
/// from the full column (charging the one full pass the paper predicts).
class IncrementalMaintainer {
 public:
  virtual ~IncrementalMaintainer() = default;

  virtual std::string name() const = 0;

  /// (Re)builds auxiliary state with one pass over the full column.
  virtual Result<SummaryResult> Initialize(
      const std::vector<double>& data) = 0;

  /// Arms the state from a scan's family state instead of the column's
  /// values. Only the rules whose state is a scan state (the moments'
  /// count, sum, mean and variance, and the co-moments) can; the others
  /// return false, change nothing, and need Initialize.
  virtual bool Seed(const FamilyState& /*state*/) { return false; }

  /// A pair rule's co-attribute for changes on `attribute`: the pair's
  /// other attribute, or `attribute` itself when the pair names it twice.
  /// nullptr for a one-attribute rule or an attribute outside the pair.
  virtual const std::string* CoAttribute(
      const std::string& /*attribute*/) const {
    return nullptr;
  }

  /// Folds one delta into the state and returns the new result.
  Result<SummaryResult> Apply(const CellDelta& delta) {
    STATDB_RETURN_IF_ERROR(Fold(delta));
    return Current();
  }

  /// Folds a whole delta batch and returns the result once — the
  /// amortized arm the delta-batched maintenance engine drives
  /// (DESIGN.md §16): the same states as the Apply loop, rendered once.
  /// Like Apply, FAILED_PRECONDITION means the auxiliary state gave up
  /// mid-batch and the caller must re-Initialize from the full column.
  virtual Result<SummaryResult> ApplyBatch(
      const std::vector<CellDelta>& batch) {
    for (const CellDelta& d : batch) STATDB_RETURN_IF_ERROR(Fold(d));
    return Current();
  }

  /// Current result without applying anything.
  virtual Result<SummaryResult> Current() const = 0;

  const MaintainerStats& stats() const { return stats_; }

 protected:
  /// Folds one delta into the state; FAILED_PRECONDITION when the
  /// auxiliary state can no longer answer.
  virtual Status Fold(const CellDelta& delta) = 0;

  MaintainerStats stats_;
};

/// FAILED_PRECONDITION from a rule whose auxiliary state can no longer
/// answer: the caller must re-Initialize it from the full column.
Status WindowExhausted(const std::string& who);

/// The built-in rules of the state families (FunctionRegistry): the
/// family state folded with its own Add and Remove and finished by the
/// function's descriptor. count, sum, mean and variance hold one
/// DescriptiveStats (Koenig & Paige's "totals" differencing, extended to
/// second moments); mode and distinct hold the full value-frequency
/// table, exact under any update stream at O(1) expected per delta (the
/// "record the results ... in a database" alternative of §3.1).
std::unique_ptr<IncrementalMaintainer> MakeCountMaintainer();
std::unique_ptr<IncrementalMaintainer> MakeSumMaintainer();
std::unique_ptr<IncrementalMaintainer> MakeMeanMaintainer();
std::unique_ptr<IncrementalMaintainer> MakeVarianceMaintainer();
std::unique_ptr<IncrementalMaintainer> MakeModeMaintainer();
std::unique_ptr<IncrementalMaintainer> MakeDistinctMaintainer();

/// min/max — auxiliary state is the extremum and its multiplicity;
/// deleting the last copy of the extremum forces a rebuild ("most updates
/// to the data set will not affect the min or max values", §4.2).
std::unique_ptr<IncrementalMaintainer> MakeMinMaintainer();
std::unique_ptr<IncrementalMaintainer> MakeMaxMaintainer();

/// Histogram with edges frozen at initialization: deltas move bucket
/// counts in O(1); values escaping the frozen range accumulate in the
/// overflow counters, and once they exceed `spill_tolerance` of the data
/// the maintainer refuses and a rebuild re-derives fresh edges. This is
/// the Summary Database's histogram row kept continuously usable.
std::unique_ptr<IncrementalMaintainer> MakeHistogramMaintainer(
    size_t buckets, double spill_tolerance = 0.1);

/// The paper's §4.2 order-statistic technique, generalized from the
/// median to any quantile p: cache a window of `window_size` values
/// around the target order statistic plus counts of values below/above
/// the window. Updates slide the implicit pointer; when the target rank
/// leaves the window ("the pointer runs off the list") Apply refuses and
/// the rebuild regenerates the window — in a single pass when the old
/// window's value range still brackets the new target (the 101-bucket
/// hash argument), falling back to a sort otherwise.
std::unique_ptr<IncrementalMaintainer> MakeOrderStatWindowMaintainer(
    double p, size_t window_size);

inline std::unique_ptr<IncrementalMaintainer> MakeMedianWindowMaintainer(
    size_t window_size = 100) {
  return MakeOrderStatWindowMaintainer(0.5, window_size);
}

}  // namespace statdb

#endif  // STATDB_RULES_INCREMENTAL_H_
