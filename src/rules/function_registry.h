#ifndef STATDB_RULES_FUNCTION_REGISTRY_H_
#define STATDB_RULES_FUNCTION_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rules/incremental.h"
#include "stats/descriptive.h"
#include "stats/order_state.h"
#include "stats/partial_stats.h"
#include "summary/summary_result.h"

namespace statdb {

/// Canonical numeric parameters of a statistical function ("p=0.05").
/// Encoded sorted-by-name so equal parameter sets encode identically and
/// cache keys are canonical.
class FunctionParams {
 public:
  FunctionParams() = default;

  FunctionParams& Set(const std::string& name, double value) {
    params_[name] = value;
    return *this;
  }

  /// Largest value a count parameter (`buckets`, `window`) may take —
  /// far above any useful histogram or order-statistic window, and small
  /// enough that the allocation it sizes cannot fail.
  static constexpr double kMaxCount = 1e6;

  Result<double> Get(const std::string& name) const;
  double GetOr(const std::string& name, double fallback) const;
  /// A count parameter as a size: `fallback` when unset, INVALID_ARGUMENT
  /// when the value is not finite, not integral, below 1 or above
  /// kMaxCount.
  Result<size_t> GetCount(const std::string& name, size_t fallback) const;
  bool empty() const { return params_.empty(); }

  std::string Encode() const;
  static Result<FunctionParams> Decode(const std::string& encoded);

 private:
  std::map<std::string, double> params_;
};

/// The statistic families of DESIGN.md §14. A family names the state its
/// functions finish from, which is what a scan folds, a merge combines
/// and a rule maintains.
enum class FunctionFamily : uint8_t {
  kMoments,       // one DescriptiveStats
  kValueCounts,   // one ValueCounts (a histogram also reads the range)
  kComoments,     // one ComomentStats over a pair of attributes
  kCodePairs,     // the gathered integer code pairs of two attributes
  kGroupMoments,  // one DescriptiveStats per group code
  kHolistic,      // the column's OrderState; the gathered values when
                  // filtered
};

/// The family states a finish reads. A scan, a merge or a rule fills the
/// members its function's family uses and leaves the others empty.
struct FamilyState {
  DescriptiveStats moments;    // moments; a histogram's range; group a
  DescriptiveStats group_b;    // group moments: the second group
  ValueCounts counts;          // value counts
  ComomentStats comoments;     // co-moments
  std::vector<double> values;  // one gathered column, in row order
  std::vector<double> xs;      // gathered code pairs
  std::vector<double> ys;
};

/// One statistic: its family, arity and category role, its finish from
/// the family state, its computation over a column and its incremental
/// rule. The one table every path reads: the planner, the gate, the
/// finish, the cache tail and the maintenance engine (DESIGN.md §9.1).
struct FunctionDescriptor {
  std::string name;
  FunctionFamily family = FunctionFamily::kHolistic;
  /// Attributes the function reads: one, or a pair.
  size_t arity = 1;
  /// Whether the value "reflects an ordering on the input data" (§4.2):
  /// order-dependent functions cannot be finite-differenced exactly and
  /// fall back to the window technique or full recomputation.
  bool order_dependent = false;
  /// Meaningful on category codes (§3.2). Pair functions keep their
  /// historical acceptance: a cross-tab of codes is the point.
  bool on_categories = false;
  /// A moment that needs only count, min and max.
  bool extremes_only = false;
  /// A value count that column chunks fold into hashed ValueCounts when
  /// a pool scans them; the others gather there at every worker count.
  bool hashes_counts = false;

  /// Full (re)computation over the non-missing values of one column
  /// (arity 1). A moment's is its finish over a DescriptiveStats fold.
  std::function<Result<SummaryResult>(const std::vector<double>&,
                                      const FunctionParams&)>
      compute;
  /// The finish from the family state; null for holistic functions,
  /// which finish from the order state (order_finish) or, filtered, by
  /// `compute` over the gathered values.
  using Finish = Result<SummaryResult> (*)(const FamilyState&,
                                           const FunctionParams&);
  Finish finish = nullptr;

  /// The finish from the attribute's order state (DESIGN.md §14): set
  /// for the holistic functions and the histogram, which a column route
  /// answers from that state instead of a gather; null for the rest.
  using OrderFinish = Result<SummaryResult> (*)(const OrderState&,
                                                const FunctionParams&);
  OrderFinish order_finish = nullptr;
  /// The order finish also reads the state's row-order moments.
  bool order_needs_moments = false;

  /// The incremental rule (§4.2) over `attributes`, or null when only
  /// recomputation applies.
  using Rule = Result<std::unique_ptr<IncrementalMaintainer>> (*)(
      const FunctionDescriptor&, const std::vector<std::string>& attributes,
      const FunctionParams&);
  Rule rule = nullptr;
  /// The rule arms from the column's values, not from a seed of the
  /// scan's family state, so a scan that arms it keeps its values.
  bool rule_needs_values = false;
};

/// The Management Database's function dictionary (§3.2: it stores "the
/// functions that are applied to [the data]"). Pre-populated with the
/// battery the paper lists — min, max, mean, median, quartiles, mode,
/// counts, histograms — plus variance/stddev/trimmed-mean/quantiles and
/// the pair functions: correlation, covariance, regression, crosstab,
/// chi2_independence and welch_t.
class FunctionRegistry {
 public:
  /// A registry with all built-in functions installed.
  static FunctionRegistry WithBuiltins();

  Status Register(FunctionDescriptor desc);
  Result<const FunctionDescriptor*> Find(const std::string& name) const;
  /// The function of that arity; NOT_FOUND, as for an unknown name, when
  /// `name` reads a different number of attributes.
  Result<const FunctionDescriptor*> Find(const std::string& name,
                                         size_t arity) const;
  std::vector<std::string> Names() const;

  /// Convenience: compute the one-attribute `function` over `data`.
  Result<SummaryResult> Compute(const std::string& function,
                                const std::vector<double>& data,
                                const FunctionParams& params) const;

 private:
  std::map<std::string, FunctionDescriptor> functions_;
};

}  // namespace statdb

#endif  // STATDB_RULES_FUNCTION_REGISTRY_H_
