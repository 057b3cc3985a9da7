#include "obs/metrics.h"

#include <bit>
#include <cmath>

#include "obs/json.h"

namespace statdb {

namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonObject::Build() const {
  std::string out = "{";
  bool first = true;
  for (const Field& f : fields_) {
    if (f.kind == kClose) {
      out += "}";
      first = false;
      continue;
    }
    if (!first) out += ", ";
    out += "\"" + JsonEscape(f.key) + "\": ";
    out += f.kind == kOpen ? "{" : f.json;
    first = f.kind == kOpen;
  }
  return out + "}";
}

std::map<std::string, double> JsonObject::Flatten() const {
  std::map<std::string, double> out;
  std::vector<size_t> prefix_lengths;
  std::string prefix;
  for (const Field& f : fields_) {
    if (f.kind == kOpen) {
      prefix_lengths.push_back(prefix.size());
      prefix += f.key + ".";
    } else if (f.kind == kClose) {
      prefix.resize(prefix_lengths.back());
      prefix_lengths.pop_back();
    } else if (f.kind == kNumber) {
      out[prefix + f.key] = f.value;
    }
  }
  return out;
}

}  // namespace obs

namespace {

/// Bucket index for a duration in milliseconds: floor(log2(µs)),
/// clamped to the table.
size_t BucketIndex(double ms) {
  double us = ms * 1000.0;
  if (!(us >= 1.0)) return 0;  // sub-µs, negatives and NaN all land low
  auto n = static_cast<uint64_t>(us);
  size_t idx = std::bit_width(n) - 1;  // floor(log2(n))
  return idx < LatencyHistogram::kBuckets ? idx
                                          : LatencyHistogram::kBuckets - 1;
}

/// Upper edge of bucket i in milliseconds.
double BucketUpperMs(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) + 1) / 1000.0;
}

/// Quantile over a copied bucket array holding `total` samples.
double QuantileOverBuckets(
    const uint64_t (&buckets)[LatencyHistogram::kBuckets], uint64_t total,
    double q) {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<uint64_t>(std::ceil(q * double(total)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= target) return BucketUpperMs(i);
  }
  return BucketUpperMs(LatencyHistogram::kBuckets - 1);
}

}  // namespace

void LatencyHistogram::Record(double ms) {
  buckets_[BucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_ms_.load(std::memory_order_relaxed);
  while (!sum_ms_.compare_exchange_weak(cur, cur + ms,
                                        std::memory_order_relaxed)) {
  }
  double mx = max_ms_.load(std::memory_order_relaxed);
  while (mx < ms && !max_ms_.compare_exchange_weak(
                        mx, ms, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::CopyBuckets(uint64_t (&out)[kBuckets]) const {
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    out[i] = BucketCount(i);
    total += out[i];
  }
  return total;
}

double LatencyHistogram::QuantileUpperBoundMs(double q) const {
  uint64_t buckets[kBuckets];
  const uint64_t total = CopyBuckets(buckets);
  return QuantileOverBuckets(buckets, total, q);
}

void LatencyHistogram::WriteTo(obs::JsonObject* doc) const {
  uint64_t buckets[kBuckets];
  const uint64_t total = CopyBuckets(buckets);
  const double total_ms = TotalMs();
  doc->Int("count", total)
      .Num("total_ms", total_ms)
      .Num("mean_ms", total == 0 ? 0.0 : total_ms / double(total))
      .Num("max_ms", MaxMs())
      .Num("p50_ms", QuantileOverBuckets(buckets, total, 0.5))
      .Num("p90_ms", QuantileOverBuckets(buckets, total, 0.9))
      .Num("p99_ms", QuantileOverBuckets(buckets, total, 0.99));
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ms_.store(0.0, std::memory_order_relaxed);
  max_ms_.store(0.0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  WriterMutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  WriterMutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  WriterMutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<LatencyHistogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::WriteTo(obs::JsonObject* doc) const {
  ReaderMutexLock lock(mu_);
  doc->Open("counters");
  for (const auto& [name, c] : counters_) doc->Int(name, c->Get());
  doc->Close().Open("gauges");
  for (const auto& [name, g] : gauges_) doc->Num(name, g->Get());
  doc->Close().Open("histograms");
  for (const auto& [name, h] : histograms_) {
    doc->Open(name);
    h->WriteTo(doc);
    doc->Close();
  }
  doc->Close();
}

std::string MetricsRegistry::DumpJson() const {
  obs::JsonObject doc;
  WriteTo(&doc);
  return doc.Build();
}

void MetricsRegistry::ResetAll() {
  ReaderMutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace statdb
