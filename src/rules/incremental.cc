#include "rules/incremental.h"

#include <algorithm>
#include <cmath>

#include "stats/histogram.h"

namespace statdb {

Status WindowExhausted(const std::string& who) {
  return FailedPreconditionError(who +
                                 ": auxiliary state exhausted, rebuild "
                                 "from the full column required");
}

namespace {

/// min/max: auxiliary information is the extremum and how many copies of
/// it exist. Insertions and non-extremal deletions are O(1); deleting the
/// last copy of the extremum cannot be answered without a rescan.
class ExtremumMaintainer : public IncrementalMaintainer {
 public:
  explicit ExtremumMaintainer(bool is_min) : is_min_(is_min) {}

  std::string name() const override { return is_min_ ? "min" : "max"; }

  Result<SummaryResult> Initialize(const std::vector<double>& data) override {
    ++stats_.rebuilds;
    initialized_ = false;
    if (data.empty()) {
      n_ = 0;
      return FailedPreconditionError("extremum of an empty column");
    }
    extremum_ = data[0];
    multiplicity_ = 0;
    n_ = data.size();
    for (double x : data) {
      if (Better(x, extremum_)) {
        extremum_ = x;
        multiplicity_ = 1;
      } else if (x == extremum_) {
        ++multiplicity_;
      }
    }
    initialized_ = true;
    return Current();
  }

  Status Fold(const CellDelta& delta) override {
    if (!initialized_) return WindowExhausted(name());
    if (delta.old_value.has_value()) {
      double old = *delta.old_value;
      if (Better(old, extremum_)) {
        // The column held a value better than our extremum: state is
        // inconsistent; force a rebuild.
        initialized_ = false;
        return WindowExhausted(name());
      }
      if (old == extremum_) {
        if (multiplicity_ == 1 &&
            !(delta.new_value.has_value() &&
              (Better(*delta.new_value, extremum_) ||
               *delta.new_value == extremum_))) {
          // Last copy of the extremum removed and not replaced by an
          // equal-or-better value: only a rescan can find the new one.
          initialized_ = false;
          return WindowExhausted(name());
        }
        --multiplicity_;
      }
      --n_;
    }
    if (delta.new_value.has_value()) {
      double x = *delta.new_value;
      if (n_ == 0 || Better(x, extremum_)) {
        extremum_ = x;
        multiplicity_ = 1;
      } else if (x == extremum_) {
        ++multiplicity_;
      }
      ++n_;
    }
    if (n_ == 0) {
      initialized_ = false;
      return WindowExhausted(name());
    }
    ++stats_.applies;
    return Status::OK();
  }

  Result<SummaryResult> Current() const override {
    if (!initialized_ || n_ == 0) {
      return FailedPreconditionError("extremum not available");
    }
    return SummaryResult::Scalar(extremum_);
  }

 private:
  bool Better(double a, double b) const { return is_min_ ? a < b : a > b; }

  bool is_min_;
  bool initialized_ = false;
  double extremum_ = 0;
  uint64_t multiplicity_ = 0;
  uint64_t n_ = 0;
};

/// §4.2's technique for the median and other order statistics: keep a
/// sorted window of values bracketing the target rank plus exact counts
/// of values strictly outside it. Deltas slide the implicit pointer;
/// rank excursions beyond the window force a regeneration, which is a
/// single pass when the old window's value range still brackets the new
/// target (the paper's 101-bucket argument — "we will know what the
/// approximate range of values for the new histogram will be").
class OrderStatWindowMaintainer : public IncrementalMaintainer {
 public:
  OrderStatWindowMaintainer(double p, size_t window_size)
      : p_(p), window_cap_(std::max<size_t>(window_size, 4)) {}

  std::string name() const override { return "order-stat-window"; }

  Result<SummaryResult> Initialize(const std::vector<double>& data) override {
    ++stats_.rebuilds;
    initialized_ = false;
    if (data.empty()) {
      return FailedPreconditionError("order statistic of an empty column");
    }
    // Single-pass path: "we will know what the approximate range of
    // values for the new histogram will be since updates ... cause the
    // value of the median to change only slightly" (§4.2). The previous
    // window's range, inflated by its own span on both sides, brackets
    // the new target unless the data shifted wholesale.
    if (!window_.empty()) {
      double span = window_.back() - window_.front();
      if (span <= 0) {
        span = std::max(1.0, std::abs(window_.front()) * 0.01);
      }
      double lo = window_.front() - span;
      double hi = window_.back() + span;
      uint64_t below = 0, above = 0;
      std::vector<double> in_range;
      for (double x : data) {
        if (x < lo) {
          ++below;
        } else if (x > hi) {
          ++above;
        } else {
          in_range.push_back(x);
        }
      }
      uint64_t n = data.size();
      auto [lo_rank, hi_rank] = TargetRanks(n);
      if (!in_range.empty() && in_range.size() <= 8 * window_cap_ &&
          lo_rank >= below && hi_rank < below + in_range.size()) {
        std::sort(in_range.begin(), in_range.end());
        window_ = std::move(in_range);
        below_ = below;
        above_ = above;
        ++stats_.single_pass_rebuilds;
        initialized_ = true;
        TrimWindow();
        return Current();
      }
    }
    // Full path: carve a centered window by selection. After the two
    // nth_element calls [start, end) holds exactly the values a full
    // sort would put at those ranks; only the window itself is sorted.
    std::vector<double> v = data;
    uint64_t n = v.size();
    auto [lo_rank, hi_rank] = TargetRanks(n);
    uint64_t half = window_cap_ / 2;
    uint64_t start = lo_rank > half ? lo_rank - half : 0;
    uint64_t end = std::min<uint64_t>(n, hi_rank + half + 1);
    std::nth_element(v.begin(), v.begin() + start, v.end());
    if (end < n) {
      std::nth_element(v.begin() + start + 1, v.begin() + end, v.end());
    }
    std::sort(v.begin() + start, v.begin() + end);
    window_.assign(v.begin() + start, v.begin() + end);
    below_ = start;
    above_ = n - end;
    initialized_ = true;
    return Current();
  }

  Status Fold(const CellDelta& delta) override {
    if (!initialized_) return WindowExhausted(name());
    if (delta.old_value.has_value()) {
      double old = *delta.old_value;
      if (window_.empty()) {
        initialized_ = false;
        return WindowExhausted(name());
      }
      if (old < window_.front()) {
        if (below_ == 0) {
          initialized_ = false;
          return WindowExhausted(name());
        }
        --below_;
      } else if (old > window_.back()) {
        if (above_ == 0) {
          initialized_ = false;
          return WindowExhausted(name());
        }
        --above_;
      } else {
        auto it = std::lower_bound(window_.begin(), window_.end(), old);
        if (it == window_.end() || *it != old) {
          initialized_ = false;
          return WindowExhausted(name());
        }
        window_.erase(it);
      }
    }
    if (delta.new_value.has_value()) {
      double x = *delta.new_value;
      if (window_.empty()) {
        window_.push_back(x);
      } else if (x < window_.front()) {
        ++below_;
      } else if (x > window_.back()) {
        ++above_;
      } else {
        window_.insert(std::lower_bound(window_.begin(), window_.end(), x),
                       x);
      }
    }
    uint64_t n = Count();
    if (n == 0) {
      initialized_ = false;
      return WindowExhausted(name());
    }
    auto [lo_rank, hi_rank] = TargetRanks(n);
    if (lo_rank < below_ || hi_rank >= below_ + window_.size()) {
      // "When the pointer runs off the list a new histogram will have to
      // be generated."
      initialized_ = false;
      return WindowExhausted(name());
    }
    ++stats_.applies;
    ++stats_.window_slides;
    TrimWindow();
    return Status::OK();
  }

  Result<SummaryResult> Current() const override {
    if (!initialized_) {
      return FailedPreconditionError("order statistic not available");
    }
    uint64_t n = Count();
    if (n == 0) {
      return FailedPreconditionError("order statistic of an empty column");
    }
    auto [lo_rank, hi_rank] = TargetRanks(n);
    if (lo_rank < below_ || hi_rank >= below_ + window_.size()) {
      return FailedPreconditionError("target rank outside cached window");
    }
    double h = p_ * double(n - 1);
    double frac = h - std::floor(h);
    double lo = window_[lo_rank - below_];
    double hi = window_[hi_rank - below_];
    return SummaryResult::Scalar(lo + frac * (hi - lo));
  }

 private:
  uint64_t Count() const { return below_ + window_.size() + above_; }

  /// Ranks of the two order statistics the interpolated quantile needs.
  std::pair<uint64_t, uint64_t> TargetRanks(uint64_t n) const {
    double h = p_ * double(n - 1);
    uint64_t lo = static_cast<uint64_t>(std::floor(h));
    uint64_t hi = std::min<uint64_t>(lo + 1, n - 1);
    if (h == std::floor(h)) hi = lo;
    return {lo, hi};
  }

  /// Inserts never evict, so the window can grow; shed the far ends once
  /// it doubles past its budget (keeping the target comfortably inside).
  void TrimWindow() {
    if (window_.size() <= 2 * window_cap_) return;
    uint64_t n = Count();
    auto [lo_rank, hi_rank] = TargetRanks(n);
    uint64_t half = window_cap_ / 2;
    uint64_t keep_start_rank = lo_rank > half ? lo_rank - half : 0;
    uint64_t keep_end_rank = hi_rank + half + 1;
    uint64_t wstart = std::max<uint64_t>(keep_start_rank, below_) - below_;
    uint64_t wend =
        std::min<uint64_t>(keep_end_rank - below_, window_.size());
    if (wstart == 0 && wend == window_.size()) return;
    above_ += window_.size() - wend;
    below_ += wstart;
    window_ = std::vector<double>(window_.begin() + wstart,
                                  window_.begin() + wend);
  }

  double p_;
  size_t window_cap_;
  bool initialized_ = false;
  std::vector<double> window_;  // sorted
  uint64_t below_ = 0;
  uint64_t above_ = 0;
};

/// Histogram with frozen edges and O(1) bucket-count deltas.
class HistogramMaintainer : public IncrementalMaintainer {
 public:
  HistogramMaintainer(size_t buckets, double spill_tolerance)
      : buckets_(std::max<size_t>(buckets, 1)),
        spill_tolerance_(spill_tolerance) {}

  std::string name() const override { return "histogram"; }

  Result<SummaryResult> Initialize(const std::vector<double>& data) override {
    ++stats_.rebuilds;
    initialized_ = false;
    STATDB_ASSIGN_OR_RETURN(hist_, BuildHistogramAuto(data, buckets_));
    initialized_ = true;
    return Current();
  }

  Status Fold(const CellDelta& delta) override {
    if (!initialized_) return WindowExhausted(name());
    STATDB_RETURN_IF_ERROR(Move(delta));
    STATDB_RETURN_IF_ERROR(CheckSpill());
    ++stats_.applies;
    return Status::OK();
  }

  /// The batched arm checks spill once, after every bucket moved, so a
  /// batch that ends back inside the frozen range keeps its edges.
  Result<SummaryResult> ApplyBatch(
      const std::vector<CellDelta>& batch) override {
    if (!initialized_) return WindowExhausted(name());
    for (const CellDelta& delta : batch) {
      STATDB_RETURN_IF_ERROR(Move(delta));
      ++stats_.applies;
    }
    STATDB_RETURN_IF_ERROR(CheckSpill());
    return Current();
  }

  Result<SummaryResult> Current() const override {
    if (!initialized_) {
      return FailedPreconditionError("histogram not available");
    }
    return SummaryResult::Histo(hist_);
  }

 private:
  /// Moves one delta's endpoints between buckets.
  Status Move(const CellDelta& delta) {
    if (delta.old_value.has_value()) {
      STATDB_RETURN_IF_ERROR(Adjust(*delta.old_value, -1));
    }
    if (delta.new_value.has_value()) return Adjust(*delta.new_value, +1);
    return Status::OK();
  }

  /// Too much mass outside the frozen range: fresh edges needed.
  Status CheckSpill() {
    uint64_t total = hist_.TotalCount();
    if (total > 0 && double(hist_.below + hist_.above) >
                         spill_tolerance_ * double(total)) {
      initialized_ = false;
      return WindowExhausted(name());
    }
    return Status::OK();
  }

  Status Adjust(double x, int direction) {
    if (std::isnan(x)) return Status::OK();  // no bucket, as BuildHistogram
    auto bump = [this, direction](uint64_t& slot) -> Status {
      if (direction < 0) {
        if (slot == 0) {
          initialized_ = false;
          return WindowExhausted(name());
        }
        --slot;
      } else {
        ++slot;
      }
      return Status::OK();
    };
    int b = hist_.BucketOf(x);
    if (b >= 0) return bump(hist_.counts[size_t(b)]);
    if (x < hist_.edges.front()) return bump(hist_.below);
    return bump(hist_.above);
  }

  size_t buckets_;
  double spill_tolerance_;
  bool initialized_ = false;
  Histogram hist_;
};

}  // namespace

std::unique_ptr<IncrementalMaintainer> MakeHistogramMaintainer(
    size_t buckets, double spill_tolerance) {
  return std::make_unique<HistogramMaintainer>(buckets, spill_tolerance);
}

std::unique_ptr<IncrementalMaintainer> MakeMinMaintainer() {
  return std::make_unique<ExtremumMaintainer>(/*is_min=*/true);
}
std::unique_ptr<IncrementalMaintainer> MakeMaxMaintainer() {
  return std::make_unique<ExtremumMaintainer>(/*is_min=*/false);
}
std::unique_ptr<IncrementalMaintainer> MakeOrderStatWindowMaintainer(
    double p, size_t window_size) {
  return std::make_unique<OrderStatWindowMaintainer>(p, window_size);
}

}  // namespace statdb
