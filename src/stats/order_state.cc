#include "stats/order_state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>

#include "stats/order.h"

namespace statdb {

namespace {

/// A double's key in the bits' total order: unsigned order of the keys
/// is numeric order of the values, with -0 before +0.
uint64_t KeyOf(double x) {
  const uint64_t b = std::bit_cast<uint64_t>(x);
  return (b >> 63) != 0 ? ~b : b | (uint64_t{1} << 63);
}

double ValueOf(uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(uint64_t{1} << 63)
                                                : ~key);
}

/// LSD radix sort of `keys`, 11 bits a pass; a pass whose digit every key
/// shares is skipped.
void RadixSort(std::vector<uint64_t>* keys) {
  constexpr int kBits = 11;
  constexpr int kPasses = 6;  // 66 bits cover 64
  constexpr size_t kRadix = size_t{1} << kBits;
  const size_t n = keys->size();
  if (n < 2) return;
  std::vector<uint32_t> counts(kPasses * kRadix, 0);
  for (uint64_t k : *keys) {
    for (int p = 0; p < kPasses; ++p) {
      ++counts[p * kRadix + ((k >> (p * kBits)) & (kRadix - 1))];
    }
  }
  std::vector<uint64_t> buffer(n);
  uint64_t* src = keys->data();
  uint64_t* dst = buffer.data();
  for (int p = 0; p < kPasses; ++p) {
    uint32_t* c = &counts[p * kRadix];
    if (std::find(c, c + kRadix, uint32_t(n)) != c + kRadix) continue;
    uint32_t sum = 0;
    for (size_t d = 0; d < kRadix; ++d) {
      const uint32_t here = c[d];
      c[d] = sum;
      sum += here;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = src[i];
      dst[c[(k >> (p * kBits)) & (kRadix - 1)]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys->data()) std::copy(src, src + n, keys->data());
}

}  // namespace

void SortByBits(std::vector<double>* values) {
  std::vector<uint64_t> keys(values->size());
  std::transform(values->begin(), values->end(), keys.begin(), KeyOf);
  RadixSort(&keys);
  std::transform(keys.begin(), keys.end(), values->begin(), ValueOf);
}

OrderState OrderState::Build(const std::vector<double>& column) {
  OrderState s;
  s.sorted_.reserve(column.size());
  for (double x : column) {
    if (std::isnan(x)) {
      ++s.nan_count_;
    } else {
      s.sorted_.push_back(x);
    }
  }
  SortByBits(&s.sorted_);
  s.moments_ = ComputeDescriptive(column);
  return s;
}

bool OrderState::CanQueue(size_t cells) const {
  return double(queued_cells_ + cells) <=
         kMaxQueuedFraction * double(std::max<uint64_t>(size(), 1));
}

void OrderState::Queue(std::optional<double> old_value,
                       std::optional<double> new_value) {
  moments_.reset();
  ++queued_cells_;
  if (old_value.has_value()) {
    if (std::isnan(*old_value)) {
      ++nan_removed_;
    } else {
      removed_.push_back(KeyOf(*old_value));
    }
  }
  if (new_value.has_value()) {
    if (std::isnan(*new_value)) {
      ++nan_added_;
    } else {
      added_.push_back(KeyOf(*new_value));
    }
  }
}

bool OrderState::Merge() {
  if (queued_cells_ == 0) return true;
  queued_cells_ = 0;
  const bool nan_ok = nan_removed_ <= nan_count_ + nan_added_;
  nan_count_ = nan_ok ? nan_count_ + nan_added_ - nan_removed_ : 0;
  nan_removed_ = nan_added_ = 0;
  std::sort(removed_.begin(), removed_.end());
  std::sort(added_.begin(), added_.end());
  // A value that both leaves and joins (a cell changed twice) cancels.
  std::vector<uint64_t> gone;
  std::vector<uint64_t> joined;
  std::set_difference(removed_.begin(), removed_.end(), added_.begin(),
                      added_.end(), std::back_inserter(gone));
  std::set_difference(added_.begin(), added_.end(), removed_.begin(),
                      removed_.end(), std::back_inserter(joined));
  removed_.clear();
  added_.clear();
  if (!nan_ok || gone.size() > sorted_.size()) return false;

  // One pass: drop each leaving value where it sits, and interleave the
  // joining ones.
  std::vector<double> merged;
  merged.reserve(sorted_.size() - gone.size() + joined.size());
  auto r = gone.begin();
  auto a = joined.begin();
  for (double x : sorted_) {
    const uint64_t key = KeyOf(x);
    if (r != gone.end() && *r <= key) {
      if (*r < key) return false;  // a leaving value the state lacks
      ++r;
      continue;
    }
    for (; a != joined.end() && *a < key; ++a) merged.push_back(ValueOf(*a));
    merged.push_back(x);
  }
  if (r != gone.end()) return false;
  for (; a != joined.end(); ++a) merged.push_back(ValueOf(*a));
  sorted_.swap(merged);
  return true;
}

size_t OrderState::bytes() const {
  return sorted_.capacity() * sizeof(double) +
         (removed_.capacity() + added_.capacity()) * sizeof(uint64_t);
}

Result<std::vector<double>> OrderState::Quantiles(
    const std::vector<double>& ps) const {
  // Quantiles() on the gather: its errors, in its order.
  if (size() == 0) {
    return InvalidArgumentError("quantile of an empty column");
  }
  for (double p : ps) {
    STATDB_RETURN_IF_ERROR(ValidateProbability(p));
  }
  const size_t n = sorted_.size();
  std::vector<double> out(ps.size(), std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < ps.size() && n > 0; ++i) {
    const double h = ps[i] * double(n - 1);
    const size_t lo = static_cast<size_t>(std::floor(h));
    const size_t hi = std::min(lo + 1, n - 1);
    out[i] = InterpolateType7(h, sorted_[lo], sorted_[hi]);
  }
  return out;
}

Result<double> OrderState::TrimmedMean(double lo, double hi) const {
  if (lo < 0.0 || hi > 1.0 || lo >= hi) {
    return InvalidArgumentError("bad trim bounds");
  }
  STATDB_ASSIGN_OR_RETURN(std::vector<double> bounds, Quantiles({lo, hi}));
  double sum = 0;
  size_t count = 0;
  // A NaN bound admits no value (x >= NaN is false), but would make the
  // binary searches below return the whole range.
  if (!std::isnan(bounds[0]) && !std::isnan(bounds[1])) {
    auto first = std::lower_bound(sorted_.begin(), sorted_.end(), bounds[0]);
    auto last = std::upper_bound(sorted_.begin(), sorted_.end(), bounds[1]);
    for (; first < last; ++first, ++count) sum += *first;
  }
  if (count == 0) {
    if (sorted_.empty()) return std::numeric_limits<double>::quiet_NaN();
    return InvalidArgumentError("trim bounds exclude all data");
  }
  return sum / double(count);
}

Result<Histogram> OrderState::AutoHistogram(size_t buckets) const {
  if (size() == 0) {
    return InvalidArgumentError("histogram of an empty column");
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double lo = sorted_.empty() ? nan : sorted_.front();
  double hi = sorted_.empty() ? nan : sorted_.back();
  if (lo == hi) hi = lo + 1.0;  // degenerate constant column
  STATDB_ASSIGN_OR_RETURN(Histogram h, BuildHistogram({}, buckets, lo, hi));
  // Every value lies in [lo, hi] and BucketOf is monotone there, so each
  // bucket is the slice its partition_point closes.
  auto from = sorted_.begin();
  for (size_t b = 0; b < h.counts.size(); ++b) {
    auto to = std::partition_point(from, sorted_.end(), [&h, b](double x) {
      return h.BucketOf(x) <= int(b);
    });
    h.counts[b] = uint64_t(to - from);
    from = to;
  }
  return h;
}

Result<uint64_t> OrderState::CountOutsideKSigma(double k) const {
  // ZScoreOutliers' checks, on the gather's size.
  if (size() < 2) {
    return InvalidArgumentError("z-score outliers need >= 2 points");
  }
  if (k <= 0) {
    return InvalidArgumentError("k must be positive");
  }
  if (!moments_.has_value()) {
    return FailedPreconditionError("order state has no row-order moments");
  }
  const double sd = moments_->StdDev();
  if (sd == 0.0) return 0;  // constant column: nothing is an outlier
  const double mean = moments_->mean;
  const double limit = k * sd;
  // A NaN mean or limit fails every compare: no outliers. Otherwise
  // x - mean is monotone in x, so the low outliers are a prefix of the
  // values and the high ones a suffix.
  if (std::isnan(mean) || std::isnan(limit)) return 0;
  auto outside = [mean, limit](double x) {
    return std::abs(x - mean) > limit;
  };
  auto low_end = std::partition_point(
      sorted_.begin(), sorted_.end(),
      [&](double x) { return x < mean && outside(x); });
  auto high_begin = std::partition_point(
      sorted_.begin(), sorted_.end(),
      [&](double x) { return !(x > mean && outside(x)); });
  return uint64_t(low_end - sorted_.begin()) +
         uint64_t(sorted_.end() - high_begin);
}

}  // namespace statdb
