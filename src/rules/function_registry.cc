#include "rules/function_registry.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <string_view>

#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/order.h"
#include "stats/outliers.h"

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

std::vector<std::string> FunctionRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(functions_.size());
  for (const auto& [name, desc] : functions_) out.push_back(name);
  return out;
}

Result<SummaryResult> FunctionRegistry::Compute(
    const std::string& function, const std::vector<double>& data,
    const FunctionParams& params) const {
  STATDB_ASSIGN_OR_RETURN(const FunctionDescriptor* desc, Find(function));
  return desc->compute(data, params);
}

namespace {

FunctionDescriptor ScalarFn(
    std::string name, bool order_dependent,
    std::function<Result<double>(const std::vector<double>&,
                                 const FunctionParams&)> fn) {
  FunctionDescriptor d;
  d.name = std::move(name);
  d.order_dependent = order_dependent;
  d.compute = [fn = std::move(fn)](
                  const std::vector<double>& data,
                  const FunctionParams& params) -> Result<SummaryResult> {
    STATDB_ASSIGN_OR_RETURN(double v, fn(data, params));
    return SummaryResult::Scalar(v);
  };
  return d;
}

}  // namespace

FunctionRegistry FunctionRegistry::WithBuiltins() {
  FunctionRegistry reg;
  auto add = [&reg](FunctionDescriptor d) { (void)reg.Register(std::move(d)); };

  add(ScalarFn("count", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Result<double>(double(d.size()));
               }));
  add(ScalarFn("sum", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Result<double>(Sum(d));
               }));
  add(ScalarFn("mean", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Mean(d);
               }));
  add(ScalarFn("variance", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Variance(d);
               }));
  add(ScalarFn("stddev", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return StdDev(d);
               }));
  add(ScalarFn("min", true,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Min(d);
               }));
  add(ScalarFn("max", true,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Max(d);
               }));
  add(ScalarFn("median", true,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Median(d);
               }));
  add(ScalarFn("quantile", true,
               [](const std::vector<double>& d, const FunctionParams& p) {
                 return Quantile(d, p.GetOr("p", 0.5));
               }));
  add(ScalarFn("trimmed_mean", true,
               [](const std::vector<double>& d, const FunctionParams& p) {
                 return TrimmedMean(d, p.GetOr("lo", 0.05),
                                    p.GetOr("hi", 0.95));
               }));
  add(ScalarFn("range", true,
               [](const std::vector<double>& d, const FunctionParams&)
                   -> Result<double> {
                 STATDB_ASSIGN_OR_RETURN(double lo, Min(d));
                 STATDB_ASSIGN_OR_RETURN(double hi, Max(d));
                 return hi - lo;
               }));
  add(ScalarFn("mode", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Mode(d);
               }));
  add(ScalarFn("distinct", false,
               [](const std::vector<double>& d, const FunctionParams&) {
                 return Result<double>(double(CountDistinct(d)));
               }));
  add(ScalarFn("outside_k_sigma", false,
               [](const std::vector<double>& d, const FunctionParams& p)
                   -> Result<double> {
                 STATDB_ASSIGN_OR_RETURN(
                     uint64_t n, CountOutsideKSigma(d, p.GetOr("k", 3.0)));
                 return double(n);
               }));

  FunctionDescriptor quartiles;
  quartiles.name = "quartiles";
  quartiles.order_dependent = true;
  quartiles.compute = [](const std::vector<double>& d,
                         const FunctionParams&) -> Result<SummaryResult> {
    STATDB_ASSIGN_OR_RETURN(std::vector<double> qs,
                            Quantiles(d, {0.25, 0.5, 0.75}));
    return SummaryResult::Vector(std::move(qs));
  };
  add(std::move(quartiles));

  FunctionDescriptor histogram;
  histogram.name = "histogram";
  histogram.order_dependent = false;
  histogram.compute = [](const std::vector<double>& d,
                         const FunctionParams& p) -> Result<SummaryResult> {
    STATDB_ASSIGN_OR_RETURN(size_t buckets, p.GetCount("buckets", 20));
    STATDB_ASSIGN_OR_RETURN(Histogram h, BuildHistogramAuto(d, buckets));
    return SummaryResult::Histo(std::move(h));
  };
  add(std::move(histogram));

  return reg;
}

}  // namespace statdb
