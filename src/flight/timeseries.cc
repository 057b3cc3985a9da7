#include "flight/timeseries.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace statdb {

namespace {

/// Sum of every value whose key ends in `leaf`.
double SumOf(const std::map<std::string, double>& values,
             std::string_view leaf) {
  double sum = 0;
  for (const auto& [key, v] : values) {
    if (key.ends_with(leaf)) sum += v;
  }
  return sum;
}

std::string PrometheusName(const std::string& key) {
  std::string out = "statdb_";
  for (char c : key) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

}  // namespace

void MetricsTimeseries::Push(StatPoint point) {
  MutexLock lock(mu_);
  points_.push_back(std::move(point));
  if (points_.size() > capacity_) points_.pop_front();
  ++total_pushed_;
}

size_t MetricsTimeseries::size() const {
  MutexLock lock(mu_);
  return points_.size();
}

uint64_t MetricsTimeseries::total_pushed() const {
  MutexLock lock(mu_);
  return total_pushed_;
}

std::string MetricsTimeseries::DumpJson() const {
  MutexLock lock(mu_);
  obs::JsonObject ts;
  ts.Open("timeseries")
      .Int("capacity", capacity_)
      .Int("count", points_.size())
      .Int("dropped", total_pushed_ > points_.size()
                          ? total_pushed_ - points_.size()
                          : 0);
  if (!points_.empty()) {
    const StatPoint& base = points_.front();
    ts.Open("base").Num("t_ms", base.t_ms).Int("seq", base.seq);
    ts.Open("values");
    for (const auto& [key, v] : base.values) ts.Num(key, v);
    ts.Close().Close();
  }
  std::vector<std::string> deltas;
  for (size_t i = 1; i < points_.size(); ++i) {
    const StatPoint& prev = points_[i - 1];
    const StatPoint& cur = points_[i];
    const double dt_ms = cur.t_ms - prev.t_ms;
    obs::JsonObject d;
    d.Num("dt_ms", dt_ms)
        .Int("from_seq", prev.seq)
        .Int("to_seq", cur.seq)
        .Open("delta");
    for (const auto& [key, v] : cur.values) {
      auto p = prev.values.find(key);
      // A counter that went backwards was reset between points.
      d.Num(key, std::max(0.0, p == prev.values.end() ? v : v - p->second));
    }
    d.Close().Open("rates");
    auto grew = [&](std::string_view leaf) {
      return std::max(0.0,
                      SumOf(cur.values, leaf) - SumOf(prev.values, leaf));
    };
    const double lookups = grew(".summary_db.lookups");
    if (lookups > 0) {
      d.Num("summary_hit_rate", grew(".summary_db.hits") / lookups);
    }
    if (dt_ms > 0 && !scan_keys_.empty()) {
      double bytes = 0;
      for (const std::string& key : scan_keys_) bytes += grew(key);
      d.Num("scan_mb_per_s", (bytes / 1e6) / (dt_ms / 1000.0));
    }
    const double commits = grew("durability.wal_records_appended");
    if (commits > 0) {
      d.Num("wal_bytes_per_commit",
            grew("durability.wal_bytes_appended") / commits);
    }
    deltas.push_back(d.Close().Build());
  }
  return ts.Raw("deltas", obs::JsonArray(deltas)).Close().Build();
}

std::string MetricsTimeseries::ExposeText() const {
  MutexLock lock(mu_);
  std::string out;
  if (points_.empty()) {
    return "# statdb timeseries: no snapshots taken yet\n";
  }
  const StatPoint& latest = points_.back();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", latest.t_ms);
  out += "# statdb metrics snapshot at t_ms=" + std::string(buf) +
         " seq=" + std::to_string(latest.seq) + "\n";
  for (const auto& [key, v] : latest.values) {
    std::string name = PrometheusName(key);
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + buf + "\n";
  }
  return out;
}

}  // namespace statdb
