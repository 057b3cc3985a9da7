#include "rules/function_registry.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <string_view>

#include "stats/crosstab.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/moment_fold.h"
#include "stats/order.h"
#include "stats/outliers.h"
#include "stats/tests.h"

namespace statdb {

Result<double> FunctionParams::Get(const std::string& name) const {
  auto it = params_.find(name);
  if (it == params_.end()) {
    return NotFoundError("missing function parameter " + name);
  }
  return it->second;
}

double FunctionParams::GetOr(const std::string& name, double fallback) const {
  auto it = params_.find(name);
  return it == params_.end() ? fallback : it->second;
}

Result<size_t> FunctionParams::GetCount(const std::string& name,
                                        size_t fallback) const {
  auto it = params_.find(name);
  if (it == params_.end()) return fallback;
  const double v = it->second;
  // Negated so NaN fails too.
  if (!(v >= 1 && v <= kMaxCount && v == std::floor(v))) {
    return InvalidArgumentError(
        "parameter " + name + " must be an integer in [1, " +
        std::to_string(static_cast<size_t>(kMaxCount)) + "]");
  }
  return static_cast<size_t>(v);
}

namespace {

/// The double a whole token spells; nullopt when any byte is left over
/// or the value is out of range.
std::optional<double> ParseDouble(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// The 6-significant-digit text stored keys have always used, wherever
/// it parses back to `v`; otherwise the shortest text that does, so
/// distinct values never share a key.
std::string EncodeValue(double v) {
  std::ostringstream os;
  os << v;
  std::string text = os.str();
  std::optional<double> back = ParseDouble(text);
  if (back && *back == v) return text;
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ptr);
}

}  // namespace

std::string FunctionParams::Encode() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : params_) {
    if (!first) os << ",";
    first = false;
    os << name << "=" << EncodeValue(value);
  }
  return os.str();
}

Result<FunctionParams> FunctionParams::Decode(const std::string& encoded) {
  FunctionParams out;
  size_t start = 0;
  while (start < encoded.size()) {
    size_t comma = encoded.find(',', start);
    std::string_view item = std::string_view(encoded).substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    size_t eq = item.find('=');
    std::optional<double> value =
        eq == std::string_view::npos ? std::nullopt
                                     : ParseDouble(item.substr(eq + 1));
    if (!value) {
      return DataLossError("malformed function params: " + encoded);
    }
    out.Set(std::string(item.substr(0, eq)), *value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Status FunctionRegistry::Register(FunctionDescriptor desc) {
  if (functions_.contains(desc.name)) {
    return AlreadyExistsError("function already registered: " + desc.name);
  }
  std::string name = desc.name;
  functions_.emplace(std::move(name), std::move(desc));
  return Status::OK();
}

Result<const FunctionDescriptor*> FunctionRegistry::Find(
    const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return NotFoundError("no function named " + name);
  }
  return &it->second;
}

Result<const FunctionDescriptor*> FunctionRegistry::Find(
    const std::string& name, size_t arity) const {
  Result<const FunctionDescriptor*> fn = Find(name);
  if (fn.ok() && fn.value()->arity != arity) {
    return NotFoundError("no function named " + name);
  }
  return fn;
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(functions_.size());
  for (const auto& [name, desc] : functions_) out.push_back(name);
  return out;
}

Result<SummaryResult> FunctionRegistry::Compute(
    const std::string& function, const std::vector<double>& data,
    const FunctionParams& params) const {
  STATDB_ASSIGN_OR_RETURN(const FunctionDescriptor* desc, Find(function, 1));
  return desc->compute(data, params);
}

namespace {

using Finish = FunctionDescriptor::Finish;

/// The rule of a family whose state has an exact Add and Remove: the
/// moments, value counts and co-moments (§4.2's finite differencing). It
/// holds the family state, folds each delta with the state's own Add and
/// Remove, and answers with the descriptor's finish, the body a scan's
/// state finishes through. A pair rule folds (x, y) pairs.
class StateRule : public IncrementalMaintainer {
 public:
  StateRule(const FunctionDescriptor& fn, FunctionParams params,
            std::vector<std::string> attributes)
      : name_(fn.name),
        family_(fn.family),
        finish_(fn.finish),
        params_(std::move(params)),
        attributes_(std::move(attributes)) {}

  std::string name() const override { return name_; }

  Result<SummaryResult> Initialize(const std::vector<double>& data) override {
    ++stats_.rebuilds;
    state_ = FamilyState{};
    initialized_ = family_ != FunctionFamily::kComoments;
    if (!initialized_) return WindowExhausted(name_);
    if (family_ == FunctionFamily::kValueCounts) {
      for (double x : data) state_.counts.Add(x);
    } else {
      // The moment fold a one-worker scan seeds from, so a rule armed
      // either way holds the same bits.
      state_.moments = FoldMoments(data.data(), data.size());
    }
    return Current();
  }

  bool Seed(const FamilyState& state) override {
    if (family_ == FunctionFamily::kValueCounts) return false;
    ++stats_.rebuilds;
    state_.moments = state.moments;
    state_.comoments = state.comoments;
    initialized_ = true;
    return true;
  }

  const std::string* CoAttribute(const std::string& attribute) const override {
    if (attributes_.size() != 2) return nullptr;
    if (attribute == attributes_[0]) return &attributes_[1];
    if (attribute == attributes_[1]) return &attributes_[0];
    return nullptr;
  }

  Status Fold(const CellDelta& delta) override {
    if (!initialized_) return WindowExhausted(name_);
    if (delta.old_value.has_value() &&
        !Remove(*delta.old_value, delta.old_y)) {
      initialized_ = false;
      return WindowExhausted(name_);
    }
    if (delta.new_value.has_value()) Add(*delta.new_value, delta.new_y);
    ++stats_.applies;
    return Status::OK();
  }

  Result<SummaryResult> Current() const override {
    if (!initialized_) {
      return FailedPreconditionError(name_ + " state not available");
    }
    return finish_(state_, params_);
  }

 private:
  void Add(double x, double y) {
    switch (family_) {
      case FunctionFamily::kValueCounts: state_.counts.Add(x); return;
      case FunctionFamily::kComoments: state_.comoments.Add(x, y); return;
      default: state_.moments.Add(x); return;
    }
  }

  bool Remove(double x, double y) {
    switch (family_) {
      case FunctionFamily::kValueCounts: return state_.counts.Remove(x);
      case FunctionFamily::kComoments: return state_.comoments.Remove(x, y);
      default: return state_.moments.Remove(x);
    }
  }

  std::string name_;
  FunctionFamily family_;
  Finish finish_;
  FunctionParams params_;
  std::vector<std::string> attributes_;
  bool initialized_ = false;
  FamilyState state_;
};

Result<std::unique_ptr<IncrementalMaintainer>> StateRuleOf(
    const FunctionDescriptor& fn, const std::vector<std::string>& attributes,
    const FunctionParams& params) {
  return std::unique_ptr<IncrementalMaintainer>(
      std::make_unique<StateRule>(fn, params, attributes));
}

Status NonEmpty(const DescriptiveStats& d) {
  if (d.count == 0) {
    return InvalidArgumentError("statistic of an empty column");
  }
  return Status::OK();
}

/// A moment function: its finish over a DescriptiveStats, which its
/// column compute applies to a fold of the column.
FunctionDescriptor Moment(std::string name, Finish finish) {
  FunctionDescriptor d;
  d.name = std::move(name);
  d.family = FunctionFamily::kMoments;
  d.finish = finish;
  d.compute = [finish](const std::vector<double>& data,
                       const FunctionParams& params) {
    FamilyState state;
    state.moments = ComputeDescriptive(data);
    return finish(state, params);
  };
  return d;
}

/// A function over one column whose compute is a scalar of the values.
FunctionDescriptor ScalarFn(
    std::string name, FunctionFamily family,
    std::function<Result<double>(const std::vector<double>&,
                                 const FunctionParams&)> fn) {
  FunctionDescriptor d;
  d.name = std::move(name);
  d.family = family;
  d.compute = [fn = std::move(fn)](
                  const std::vector<double>& data,
                  const FunctionParams& params) -> Result<SummaryResult> {
    STATDB_ASSIGN_OR_RETURN(double v, fn(data, params));
    return SummaryResult::Scalar(v);
  };
  return d;
}

/// A pair function of `family` with its finish.
FunctionDescriptor PairFn(std::string name, FunctionFamily family,
                          Finish finish) {
  FunctionDescriptor d;
  d.name = std::move(name);
  d.family = family;
  d.arity = 2;
  d.on_categories = true;
  d.finish = finish;
  return d;
}

/// The §4.2 window rule of an order statistic at quantile `p`.
Result<std::unique_ptr<IncrementalMaintainer>> WindowRule(
    double p, const FunctionParams& params) {
  STATDB_ASSIGN_OR_RETURN(size_t window, params.GetCount("window", 100));
  return MakeOrderStatWindowMaintainer(p, window);
}

Result<SummaryResult> TestVector(Result<TestResult> t) {
  if (!t.ok()) return std::move(t).status();
  return SummaryResult::Vector({t->statistic, t->dof, t->p_value});
}

}  // namespace

FunctionRegistry FunctionRegistry::WithBuiltins() {
  FunctionRegistry reg;
  auto add = [&reg](FunctionDescriptor d) { (void)reg.Register(std::move(d)); };
  using F = FunctionFamily;
  using R = Result<SummaryResult>;
  using S = const FamilyState&;
  using Params = const FunctionParams&;

  // --- moments: one DescriptiveStats ---------------------------------------
  FunctionDescriptor count = Moment("count", [](S s, Params) -> R {
    return SummaryResult::Scalar(double(s.moments.count));
  });
  count.on_categories = true;
  count.extremes_only = true;
  count.rule = StateRuleOf;
  add(std::move(count));

  FunctionDescriptor sum = Moment("sum", [](S s, Params) -> R {
    return SummaryResult::Scalar(s.moments.sum);
  });
  sum.rule = StateRuleOf;
  add(std::move(sum));

  FunctionDescriptor mean = Moment("mean", [](S s, Params) -> R {
    STATDB_RETURN_IF_ERROR(NonEmpty(s.moments));
    return SummaryResult::Scalar(s.moments.mean);
  });
  mean.rule = StateRuleOf;
  add(std::move(mean));

  FunctionDescriptor variance =
      Moment("variance", [](S s, Params) -> R {
        STATDB_RETURN_IF_ERROR(NonEmpty(s.moments));
        return SummaryResult::Scalar(s.moments.Variance());
      });
  variance.rule = StateRuleOf;
  add(std::move(variance));

  add(Moment("stddev", [](S s, Params) -> R {
    STATDB_RETURN_IF_ERROR(NonEmpty(s.moments));
    return SummaryResult::Scalar(s.moments.StdDev());
  }));

  // The extrema: NaN-skipping min/max (DESIGN.md §14), maintained by
  // their multiplicity rule, which initializes from the values.
  FunctionDescriptor min = Moment("min", [](S s, Params) -> R {
    STATDB_RETURN_IF_ERROR(NonEmpty(s.moments));
    return SummaryResult::Scalar(s.moments.min);
  });
  min.rule = [](const FunctionDescriptor&, const std::vector<std::string>&,
                Params) {
    return Result<std::unique_ptr<IncrementalMaintainer>>(MakeMinMaintainer());
  };
  FunctionDescriptor max = Moment("max", [](S s, Params) -> R {
    STATDB_RETURN_IF_ERROR(NonEmpty(s.moments));
    return SummaryResult::Scalar(s.moments.max);
  });
  max.rule = [](const FunctionDescriptor&, const std::vector<std::string>&,
                Params) {
    return Result<std::unique_ptr<IncrementalMaintainer>>(MakeMaxMaintainer());
  };
  FunctionDescriptor range = Moment("range", [](S s, Params) -> R {
    STATDB_RETURN_IF_ERROR(NonEmpty(s.moments));
    return SummaryResult::Scalar(s.moments.max - s.moments.min);
  });
  for (FunctionDescriptor* d : {&min, &max, &range}) {
    d->order_dependent = true;
    d->extremes_only = true;
    d->rule_needs_values = d->rule != nullptr;
    add(std::move(*d));
  }

  // --- value counts: one ValueCounts; the column compute sorts ------------
  FunctionDescriptor mode = ScalarFn(
      "mode", F::kValueCounts,
      [](const std::vector<double>& d, Params) { return Mode(d); });
  mode.finish = [](S s, Params) -> R {
    STATDB_ASSIGN_OR_RETURN(double m, s.counts.ModeValue());
    return SummaryResult::Scalar(m);
  };
  FunctionDescriptor distinct =
      ScalarFn("distinct", F::kValueCounts,
               [](const std::vector<double>& d, Params) {
                 return Result<double>(double(CountDistinct(d)));
               });
  distinct.finish = [](S s, Params) -> R {
    return SummaryResult::Scalar(double(s.counts.Distinct()));
  };
  for (FunctionDescriptor* d : {&mode, &distinct}) {
    d->on_categories = true;
    d->hashes_counts = true;
    d->rule = StateRuleOf;
    d->rule_needs_values = true;
    add(std::move(*d));
  }

  FunctionDescriptor histogram;
  histogram.name = "histogram";
  histogram.family = F::kValueCounts;
  histogram.on_categories = true;
  histogram.compute = [](const std::vector<double>& d, Params p) -> R {
    STATDB_ASSIGN_OR_RETURN(size_t buckets, p.GetCount("buckets", 20));
    STATDB_ASSIGN_OR_RETURN(Histogram h, BuildHistogramAuto(d, buckets));
    return SummaryResult::Histo(std::move(h));
  };
  histogram.finish = [](S s, Params p) -> R {
    STATDB_ASSIGN_OR_RETURN(size_t buckets, p.GetCount("buckets", 20));
    const DescriptiveStats& d = s.moments;
    if (d.count == 0) {
      return InvalidArgumentError("histogram of an empty column");
    }
    double lo = d.min;
    double hi = d.max;
    if (lo == hi) hi = lo + 1.0;  // degenerate constant column
    STATDB_ASSIGN_OR_RETURN(Histogram h, s.counts.ToHistogram(buckets, lo, hi));
    return SummaryResult::Histo(std::move(h));
  };
  histogram.order_finish = [](const OrderState& o, Params p) -> R {
    STATDB_ASSIGN_OR_RETURN(size_t buckets, p.GetCount("buckets", 20));
    STATDB_ASSIGN_OR_RETURN(Histogram h, o.AutoHistogram(buckets));
    return SummaryResult::Histo(std::move(h));
  };
  histogram.rule = [](const FunctionDescriptor&,
                      const std::vector<std::string>&, Params p)
      -> Result<std::unique_ptr<IncrementalMaintainer>> {
    STATDB_ASSIGN_OR_RETURN(size_t buckets, p.GetCount("buckets", 20));
    return MakeHistogramMaintainer(buckets, p.GetOr("spill", 0.1));
  };
  histogram.rule_needs_values = true;
  add(std::move(histogram));

  // --- holistic: the gathered values ----------------------------------------
  FunctionDescriptor median = ScalarFn(
      "median", F::kHolistic,
      [](const std::vector<double>& d, Params) { return Median(d); });
  median.rule = [](const FunctionDescriptor&, const std::vector<std::string>&,
                   Params p) { return WindowRule(0.5, p); };
  FunctionDescriptor quantile =
      ScalarFn("quantile", F::kHolistic,
               [](const std::vector<double>& d, Params p) {
                 return Quantile(d, p.GetOr("p", 0.5));
               });
  quantile.rule = [](const FunctionDescriptor&,
                     const std::vector<std::string>&,
                     Params p) { return WindowRule(p.GetOr("p", 0.5), p); };
  FunctionDescriptor trimmed_mean =
      ScalarFn("trimmed_mean", F::kHolistic,
               [](const std::vector<double>& d, Params p) {
                 return TrimmedMean(d, p.GetOr("lo", 0.05),
                                    p.GetOr("hi", 0.95));
               });
  FunctionDescriptor quartiles;
  quartiles.name = "quartiles";
  quartiles.compute = [](const std::vector<double>& d, Params) -> R {
    STATDB_ASSIGN_OR_RETURN(std::vector<double> qs,
                            Quantiles(d, {0.25, 0.5, 0.75}));
    return SummaryResult::Vector(std::move(qs));
  };
  // The order finishes: rank lookups and binary searches on the state.
  median.order_finish = [](const OrderState& o, Params) -> R {
    STATDB_ASSIGN_OR_RETURN(std::vector<double> q, o.Quantiles({0.5}));
    return SummaryResult::Scalar(q.front());
  };
  quantile.order_finish = [](const OrderState& o, Params p) -> R {
    STATDB_ASSIGN_OR_RETURN(std::vector<double> q,
                            o.Quantiles({p.GetOr("p", 0.5)}));
    return SummaryResult::Scalar(q.front());
  };
  trimmed_mean.order_finish = [](const OrderState& o, Params p) -> R {
    STATDB_ASSIGN_OR_RETURN(
        double m, o.TrimmedMean(p.GetOr("lo", 0.05), p.GetOr("hi", 0.95)));
    return SummaryResult::Scalar(m);
  };
  quartiles.order_finish = [](const OrderState& o, Params) -> R {
    STATDB_ASSIGN_OR_RETURN(std::vector<double> qs,
                            o.Quantiles({0.25, 0.5, 0.75}));
    return SummaryResult::Vector(std::move(qs));
  };
  for (FunctionDescriptor* d : {&median, &quantile, &trimmed_mean,
                                &quartiles}) {
    d->order_dependent = true;
    d->rule_needs_values = d->rule != nullptr;
    add(std::move(*d));
  }
  FunctionDescriptor outside_k_sigma = ScalarFn(
      "outside_k_sigma", F::kHolistic,
      [](const std::vector<double>& d, Params p) -> Result<double> {
        STATDB_ASSIGN_OR_RETURN(uint64_t n,
                                CountOutsideKSigma(d, p.GetOr("k", 3.0)));
        return double(n);
      });
  outside_k_sigma.order_finish = [](const OrderState& o, Params p) -> R {
    STATDB_ASSIGN_OR_RETURN(uint64_t n, o.CountOutsideKSigma(p.GetOr("k", 3.0)));
    return SummaryResult::Scalar(double(n));
  };
  outside_k_sigma.order_needs_moments = true;
  add(std::move(outside_k_sigma));

  // --- pairs -----------------------------------------------------------------
  FunctionDescriptor correlation =
      PairFn("correlation", F::kComoments, [](S s, Params) -> R {
        STATDB_ASSIGN_OR_RETURN(double r, s.comoments.PearsonR());
        return SummaryResult::Scalar(r);
      });
  FunctionDescriptor covariance =
      PairFn("covariance", F::kComoments, [](S s, Params) -> R {
        STATDB_ASSIGN_OR_RETURN(double c, s.comoments.Covariance());
        return SummaryResult::Scalar(c);
      });
  FunctionDescriptor regression =
      PairFn("regression", F::kComoments, [](S s, Params) -> R {
        STATDB_ASSIGN_OR_RETURN(LinearFit fit, s.comoments.Fit());
        return SummaryResult::Model(fit);
      });
  for (FunctionDescriptor* d : {&correlation, &covariance, &regression}) {
    d->rule = StateRuleOf;
    add(std::move(*d));
  }
  // Cross-tabs count integer codes; labels come out ascending.
  add(PairFn("crosstab", F::kCodePairs, [](S s, Params) -> R {
    STATDB_ASSIGN_OR_RETURN(CrossTab ct, s.code_pairs.Finish());
    return SummaryResult::Contingency(std::move(ct));
  }));
  add(PairFn("chi2_independence", F::kCodePairs, [](S s, Params) -> R {
    STATDB_ASSIGN_OR_RETURN(CrossTab ct, s.code_pairs.Finish());
    return TestVector(ChiSquaredIndependence(ct));
  }));
  // Welch's t of x between the rows coded a and b in y.
  add(PairFn("welch_t", F::kGroupMoments, [](S s, Params) -> R {
    return TestVector(WelchTTestFromMoments(s.moments, s.group_b));
  }));

  return reg;
}

namespace {

/// The built-in rule of `function`, for the standalone factories.
std::unique_ptr<IncrementalMaintainer> BuiltinRule(const char* function) {
  static const FunctionRegistry* const kBuiltins =
      new FunctionRegistry(FunctionRegistry::WithBuiltins());
  const FunctionDescriptor& fn = *kBuiltins->Find(function).value();
  return fn.rule(fn, {}, FunctionParams()).value();
}

}  // namespace

std::unique_ptr<IncrementalMaintainer> MakeCountMaintainer() {
  return BuiltinRule("count");
}
std::unique_ptr<IncrementalMaintainer> MakeSumMaintainer() {
  return BuiltinRule("sum");
}
std::unique_ptr<IncrementalMaintainer> MakeMeanMaintainer() {
  return BuiltinRule("mean");
}
std::unique_ptr<IncrementalMaintainer> MakeVarianceMaintainer() {
  return BuiltinRule("variance");
}
std::unique_ptr<IncrementalMaintainer> MakeModeMaintainer() {
  return BuiltinRule("mode");
}
std::unique_ptr<IncrementalMaintainer> MakeDistinctMaintainer() {
  return BuiltinRule("distinct");
}

}  // namespace statdb
