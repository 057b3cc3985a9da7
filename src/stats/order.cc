#include "stats/order.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace statdb {

Status ValidateProbability(double p) {
  // NaN explicitly: `p < 0.0 || p > 1.0` is false for NaN, and a NaN
  // that slips through turns into a garbage rank in SelectQuantiles.
  if (std::isnan(p) || p < 0.0 || p > 1.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "quantile probability %g out of [0,1]", p);
    return InvalidArgumentError(buf);
  }
  return Status::OK();
}

namespace {

/// R type-7 quantiles of `data` at validated probabilities `ps`, by
/// selection. The data is copied once, NaN cells dropped (they have no
/// rank); each probability needs the order statistics at ranks lo and
/// lo + 1. Ranks are visited in ascending order, and each nth_element
/// runs on the suffix the previous one left, so the suffix already holds
/// every value not below the last selected rank. The upper neighbour at
/// lo + 1 is the minimum of that suffix. The interpolation is the
/// sort-based expression on the same two values, so the answers equal a
/// full sort's. All-NaN input yields NaN for every p.
std::vector<double> SelectQuantiles(const std::vector<double>& data,
                                    const std::vector<double>& ps) {
  std::vector<double> v;
  v.reserve(data.size());
  for (double x : data) {
    if (!std::isnan(x)) v.push_back(x);
  }
  std::vector<double> out(ps.size(),
                          std::numeric_limits<double>::quiet_NaN());
  const size_t n = v.size();
  if (n == 0) return out;
  if (n == 1) {
    std::fill(out.begin(), out.end(), v[0]);
    return out;
  }
  std::vector<size_t> order(ps.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&ps](size_t a, size_t b) { return ps[a] < ps[b]; });
  size_t from = 0;  // v[from, n) holds the values at ranks >= from
  for (size_t i : order) {
    const double h = ps[i] * double(n - 1);
    const size_t lo = static_cast<size_t>(std::floor(h));
    const size_t hi = std::min(lo + 1, n - 1);
    if (lo >= from) {
      std::nth_element(v.begin() + from, v.begin() + lo, v.end());
      from = lo + 1;
    }
    const double vlo = v[lo];
    const double vhi =
        hi == lo ? vlo : *std::min_element(v.begin() + hi, v.end());
    out[i] = InterpolateType7(h, vlo, vhi);
  }
  return out;
}

}  // namespace

Result<double> Median(const std::vector<double>& data) {
  return Quantile(data, 0.5);
}

Result<double> Quantile(const std::vector<double>& data, double p) {
  STATDB_ASSIGN_OR_RETURN(std::vector<double> q, Quantiles(data, {p}));
  return q.front();
}

Result<std::vector<double>> Quantiles(const std::vector<double>& data,
                                      const std::vector<double>& ps) {
  if (data.empty()) {
    return InvalidArgumentError("quantile of an empty column");
  }
  // Validate the whole probability list before copying the data, so a
  // bad p costs nothing and never errors mid-result.
  for (double p : ps) {
    STATDB_RETURN_IF_ERROR(ValidateProbability(p));
  }
  return SelectQuantiles(data, ps);
}

Result<double> TrimmedMean(const std::vector<double>& data, double lo,
                           double hi) {
  if (lo < 0.0 || hi > 1.0 || lo >= hi) {
    return InvalidArgumentError("bad trim bounds");
  }
  STATDB_ASSIGN_OR_RETURN(std::vector<double> bounds,
                          Quantiles(data, {lo, hi}));
  // The original data in its original order: the sum is the one a
  // sort-based bound would give, bit for bit. NaN fails both compares.
  double sum = 0;
  size_t count = 0;
  for (double x : data) {
    if (x >= bounds[0] && x <= bounds[1]) {
      sum += x;
      ++count;
    }
  }
  if (count == 0) {
    if (std::all_of(data.begin(), data.end(),
                    [](double x) { return std::isnan(x); })) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return InvalidArgumentError("trim bounds exclude all data");
  }
  return sum / double(count);
}

Result<double> KthSmallest(const std::vector<double>& data, size_t k) {
  if (k >= data.size()) {
    return OutOfRangeError("order statistic index out of range");
  }
  std::vector<double> copy = data;
  std::nth_element(copy.begin(), copy.begin() + k, copy.end());
  return copy[k];
}

}  // namespace statdb
