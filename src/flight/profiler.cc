#include "flight/profiler.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/json.h"

namespace statdb {

namespace {

std::string FunctionKey(const std::string& view, const std::string& fn,
                        const std::string& attr) {
  return view + "." + fn + "(" + attr + ")";
}

std::string AttributeKey(const std::string& view,
                         const std::string& attr) {
  return view + "." + attr;
}

}  // namespace

void WorkloadProfiler::NoteQuery(const std::string& view,
                                 const std::string& function,
                                 const std::string& attribute,
                                 TraceOutcome outcome, double wall_ms) {
  MutexLock lock(mu_);
  ++total_queries_;
  FunctionCell& cell = functions_[FunctionKey(view, function, attribute)];
  ++cell.queries;
  cell.total_ms += wall_ms;
  switch (outcome) {
    case TraceOutcome::kComputed: ++cell.computed; break;
    case TraceOutcome::kCacheHit: ++cell.cache_hits; break;
    case TraceOutcome::kStaleCacheHit: ++cell.stale_serves; break;
    case TraceOutcome::kInferred: ++cell.inferred; break;
    case TraceOutcome::kUnknown:
    case TraceOutcome::kError: ++cell.failed; break;
  }
  AttributeRow& row = attributes_[AttributeKey(view, attribute)];
  ++row.accesses;
  row.query_ms += wall_ms;
}

void WorkloadProfiler::NoteUpdate(const std::string& view,
                                  const std::string& attribute,
                                  uint64_t cells) {
  MutexLock lock(mu_);
  ++total_updates_;
  AttributeRow& row = attributes_[AttributeKey(view, attribute)];
  ++row.updates;
  row.cells_updated += cells;
}

WorkloadProfiler::AttributeRow WorkloadProfiler::AttributeStats(
    const std::string& view, const std::string& attribute) const {
  MutexLock lock(mu_);
  auto it = attributes_.find(AttributeKey(view, attribute));
  return it == attributes_.end() ? AttributeRow{} : it->second;
}

uint64_t WorkloadProfiler::total_queries() const {
  MutexLock lock(mu_);
  return total_queries_;
}

uint64_t WorkloadProfiler::total_updates() const {
  MutexLock lock(mu_);
  return total_updates_;
}

const char* WorkloadProfiler::Advice(uint64_t accesses,
                                     uint64_t updates) {
  if (updates == 0) return "cache-only";
  double ratio = double(accesses) / double(updates);
  if (ratio >= 4.0) return "maintain";
  if (ratio < 1.0) return "invalidate";
  return "borderline";
}

std::string WorkloadProfiler::ReportJson() const {
  MutexLock lock(mu_);
  obs::JsonObject doc;
  doc.Open("workload")
      .Int("total_queries", total_queries_)
      .Int("total_updates", total_updates_)
      .Open("functions");
  for (const auto& [key, c] : functions_) {
    doc.Open(key)
        .Int("queries", c.queries)
        .Int("computed", c.computed)
        .Int("cache_hits", c.cache_hits)
        .Int("stale_serves", c.stale_serves)
        .Int("inferred", c.inferred)
        .Int("failed", c.failed)
        .Num("total_ms", c.total_ms)
        .Close();
  }
  doc.Close().Open("attributes");
  for (const auto& [key, r] : attributes_) {
    doc.Open(key)
        .Int("accesses", r.accesses)
        .Int("updates", r.updates)
        .Int("cells_updated", r.cells_updated)
        .Num("query_ms", r.query_ms)
        .Str("advice", Advice(r.accesses, r.updates))
        .Close();
  }
  return doc.Close().Close().Build();
}

std::string WorkloadProfiler::ReportText(size_t top_n) const {
  MutexLock lock(mu_);
  std::string out;
  char line[192];

  std::snprintf(line, sizeof(line),
                "statdb top — %llu queries, %llu updates\n",
                static_cast<unsigned long long>(total_queries_),
                static_cast<unsigned long long>(total_updates_));
  out += line;

  out += "\nATTRIBUTES (the §4.3 decision input)\n";
  std::snprintf(line, sizeof(line), "%-28s %8s %8s %10s %9s  %s\n",
                "view.attribute", "reads", "writes", "cells_upd",
                "query_ms", "advice");
  out += line;
  std::vector<std::pair<std::string, AttributeRow>> attrs(
      attributes_.begin(), attributes_.end());
  std::sort(attrs.begin(), attrs.end(), [](const auto& a, const auto& b) {
    uint64_t ta = a.second.accesses + a.second.updates;
    uint64_t tb = b.second.accesses + b.second.updates;
    return ta != tb ? ta > tb : a.first < b.first;
  });
  if (attrs.size() > top_n) attrs.resize(top_n);
  for (const auto& [key, r] : attrs) {
    std::snprintf(line, sizeof(line),
                  "%-28s %8llu %8llu %10llu %9.2f  %s\n", key.c_str(),
                  static_cast<unsigned long long>(r.accesses),
                  static_cast<unsigned long long>(r.updates),
                  static_cast<unsigned long long>(r.cells_updated),
                  r.query_ms, Advice(r.accesses, r.updates));
    out += line;
  }

  out += "\nFUNCTIONS\n";
  std::snprintf(line, sizeof(line), "%-36s %8s %6s %6s %6s %6s %9s\n",
                "view.function(attribute)", "queries", "comp", "hit",
                "stale", "infer", "total_ms");
  out += line;
  std::vector<std::pair<std::string, FunctionCell>> fns(
      functions_.begin(), functions_.end());
  std::sort(fns.begin(), fns.end(), [](const auto& a, const auto& b) {
    return a.second.queries != b.second.queries
               ? a.second.queries > b.second.queries
               : a.first < b.first;
  });
  if (fns.size() > top_n) fns.resize(top_n);
  for (const auto& [key, c] : fns) {
    std::snprintf(line, sizeof(line),
                  "%-36s %8llu %6llu %6llu %6llu %6llu %9.2f\n",
                  key.c_str(),
                  static_cast<unsigned long long>(c.queries),
                  static_cast<unsigned long long>(c.computed),
                  static_cast<unsigned long long>(c.cache_hits),
                  static_cast<unsigned long long>(c.stale_serves),
                  static_cast<unsigned long long>(c.inferred),
                  c.total_ms);
    out += line;
  }
  return out;
}

void WorkloadProfiler::Reset() {
  MutexLock lock(mu_);
  functions_.clear();
  attributes_.clear();
  total_queries_ = 0;
  total_updates_ = 0;
}

}  // namespace statdb
