#ifndef STATDB_RULES_FUNCTION_REGISTRY_H_
#define STATDB_RULES_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
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

/// A registered statistical function: how to compute it from a full
/// column, and whether its value "reflects an ordering on the input
/// data" (§4.2) — order-dependent functions cannot be finite-differenced
/// exactly and fall back to the window technique or full recomputation.
struct FunctionDescriptor {
  std::string name;
  bool order_dependent = false;
  /// Full (re)computation over the non-missing values of one column.
  std::function<Result<SummaryResult>(const std::vector<double>&,
                                      const FunctionParams&)>
      compute;
};

/// The Management Database's function dictionary (§3.2: it stores "the
/// functions that are applied to [the data]"). Pre-populated with the
/// battery the paper lists — min, max, mean, median, quartiles, mode,
/// counts, histograms — plus variance/stddev/trimmed-mean/quantiles.
class FunctionRegistry {
 public:
  /// A registry with all built-in functions installed.
  static FunctionRegistry WithBuiltins();

  Status Register(FunctionDescriptor desc);
  Result<const FunctionDescriptor*> Find(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// Convenience: compute `function` over `data` with `params`.
  Result<SummaryResult> Compute(const std::string& function,
                                const std::vector<double>& data,
                                const FunctionParams& params) const;

 private:
  std::map<std::string, FunctionDescriptor> functions_;
};

}  // namespace statdb

#endif  // STATDB_RULES_FUNCTION_REGISTRY_H_
