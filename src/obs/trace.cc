#include "obs/trace.h"

#include <cstdio>

#include "obs/json.h"

namespace statdb {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCacheProbe: return "cache_probe";
    case SpanKind::kStalenessGate: return "staleness_gate";
    case SpanKind::kInference: return "inference";
    case SpanKind::kScan: return "scan";
    case SpanKind::kScanChunk: return "scan_chunk";
    case SpanKind::kCompute: return "compute";
    case SpanKind::kMaintainerArm: return "maintainer_arm";
    case SpanKind::kSummaryInsert: return "summary_insert";
    case SpanKind::kWalScan: return "wal_scan";
    case SpanKind::kRedoReplay: return "redo_replay";
    case SpanKind::kManifestApply: return "manifest_apply";
    case SpanKind::kFallbackInvalidate: return "fallback_invalidate";
    case SpanKind::kCompressedScan: return "compressed_scan";
    case SpanKind::kSnapshotCapture: return "snapshot_capture";
    case SpanKind::kPredicateScan: return "predicate_scan";
    case SpanKind::kMaintenance: return "maintenance";
    case SpanKind::kWalCommit: return "wal_commit";
    case SpanKind::kOrderBuild: return "order_build";
  }
  return "?";
}

const char* TraceOutcomeName(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kUnknown: return "unknown";
    case TraceOutcome::kCacheHit: return "cache_hit";
    case TraceOutcome::kStaleCacheHit: return "stale_cache_hit";
    case TraceOutcome::kInferred: return "inferred";
    case TraceOutcome::kComputed: return "computed";
    case TraceOutcome::kError: return "error";
  }
  return "?";
}

double QueryTrace::SpanSumMs() const {
  double sum = 0;
  for (size_t i = 0; i < count_; ++i) {
    if (spans_[i].kind == SpanKind::kScanChunk) continue;
    sum += spans_[i].wall_ms;
  }
  return sum;
}

std::string QueryTrace::ToJson() const {
  std::vector<std::string> spans;
  spans.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    const TraceSpan& s = spans_[i];
    obs::JsonObject o;
    o.Str("span", SpanKindName(s.kind));
    if (s.detail >= 0) o.Int("detail", static_cast<uint64_t>(s.detail));
    o.Num("start_ms", s.start_ms)
        .Num("wall_ms", s.wall_ms)
        .Int("rows", s.rows)
        .Int("pages", s.pages);
    spans.push_back(o.Build());
  }
  obs::JsonObject out;
  out.Int("trace_id", trace_id_)
      .Int("session_id", session_id_)
      .Int("query_seq", query_seq_)
      .Str("operation", operation_)
      .Str("view", view_)
      .Str("function", function_)
      .Str("attribute", attribute_)
      .Str("outcome", TraceOutcomeName(outcome_))
      .Num("total_ms", total_ms_)
      .Num("span_sum_ms", SpanSumMs())
      .Raw("spans", obs::JsonArray(spans));
  if (dropped_ > 0) out.Int("dropped_spans", dropped_);
  return out.Build();
}

std::string QueryTrace::ToText() const {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf), "%s %s(%s) on %s -> %s, %.3f ms total\n",
                operation_.c_str(), function_.c_str(), attribute_.c_str(),
                view_.c_str(), TraceOutcomeName(outcome_), total_ms_);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-16s %12s %12s %10s\n", "span",
                "wall ms", "rows", "pages");
  out += buf;
  for (size_t i = 0; i < count_; ++i) {
    const TraceSpan& s = spans_[i];
    std::string name = SpanKindName(s.kind);
    if (s.detail >= 0) name += "[" + std::to_string(s.detail) + "]";
    std::snprintf(buf, sizeof(buf), "  %-16s %12.3f %12llu %10llu\n",
                  name.c_str(), s.wall_ms,
                  static_cast<unsigned long long>(s.rows),
                  static_cast<unsigned long long>(s.pages));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  span sum (chunks overlap, excluded): %.3f ms\n",
                SpanSumMs());
  out += buf;
  if (dropped_ > 0) {
    std::snprintf(buf, sizeof(buf), "  (%llu spans dropped)\n",
                  static_cast<unsigned long long>(dropped_));
    out += buf;
  }
  return out;
}

}  // namespace statdb
