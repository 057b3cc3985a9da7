#include "exec/chunked_scanner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "simd/kernels.h"

namespace statdb {

std::vector<ScanChunk> SplitPageAligned(uint64_t rows, size_t cells_per_page,
                                        size_t num_chunks) {
  std::vector<ScanChunk> chunks;
  if (rows == 0 || cells_per_page == 0 || num_chunks == 0) return chunks;
  uint64_t cpp = cells_per_page;
  uint64_t pages = (rows + cpp - 1) / cpp;
  uint64_t pages_per_chunk = (pages + num_chunks - 1) / num_chunks;
  for (uint64_t first = 0; first < pages; first += pages_per_chunk) {
    ScanChunk c;
    c.begin = first * cpp;
    c.end = std::min<uint64_t>(rows, (first + pages_per_chunk) * cpp);
    chunks.push_back(c);
  }
  return chunks;
}

namespace {

/// Pages per chunk of an inline (one-worker) scan: bounds its buffers.
constexpr uint64_t kInlineChunkPages = 64;

/// The chunks of one scan. With a pool, exec.workers * 4 of them: over-
/// decomposed relative to the worker count so a slow chunk (cold pages,
/// eviction pressure) cannot straggle the whole pass. Inline, chunks of
/// at most kInlineChunkPages pages, or one chunk when `whole`.
std::vector<ScanChunk> ChunksOf(uint64_t rows, size_t cells_per_page,
                                const PoolSlice& exec, bool whole) {
  if (exec.pool != nullptr) {
    return SplitPageAligned(rows, cells_per_page, exec.workers * 4);
  }
  const uint64_t cpp = std::max<uint64_t>(cells_per_page, 1);
  const uint64_t pages = (rows + cpp - 1) / cpp;
  return SplitPageAligned(
      rows, cells_per_page,
      whole ? 1 : (pages + kInlineChunkPages - 1) / kInlineChunkPages);
}

/// Per-chunk accumulation: a worker's private partial, or (inline) the
/// one running state every chunk folds into.
struct ChunkPartial {
  uint64_t rows = 0;
  DescriptiveStats desc;
  ValueCounts counts;
  std::vector<double> values;
};

/// count, min and max of `data` as a fold of DescriptiveStats::Add
/// leaves them (NaN-skipping; an all-NaN span has NaN extrema), with no
/// mean or m2 update. Merge keeps them exact across chunks.
DescriptiveStats Extremes(const std::vector<double>& data) {
  DescriptiveStats d;
  if (data.empty()) return d;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -mn;
  for (double x : data) {
    mn = x < mn ? x : mn;
    mx = x > mx ? x : mx;
  }
  if (mn > mx) mn = mx = std::numeric_limits<double>::quiet_NaN();
  d.count = data.size();
  d.min = mn;
  d.max = mx;
  return d;
}

/// Reads one chunk and folds it into `out`. `kernel`: a worker's fresh
/// partial, whose moments come from the span kernel; otherwise the
/// inline running state, which folds each value with Add in row order.
Status ScanOneChunk(const ScanChunk& chunk, const ColumnRangeReader& reader,
                    const ColumnScanSpec& spec, bool kernel,
                    ChunkPartial* out, ChunkScanStat* stat) {
  std::chrono::steady_clock::time_point start;
  if (stat != nullptr) start = std::chrono::steady_clock::now();
  STATDB_ASSIGN_OR_RETURN(std::vector<double> data,
                          reader(chunk.begin, chunk.end));
  out->rows += data.size();
  if (spec.filter) {
    std::erase_if(data,
                  [&rp = *spec.filter](double x) { return !rp.Matches(x); });
  }
  if (spec.want_moments && kernel) {
    // Span-batched kernel (simd/kernels.h): same count/min/max as the
    // serial fold, moments within the documented 4-lane tolerance.
    out->desc = simd::DescribeSpan(data.data(), data.size());
  } else if (spec.want_moments && spec.extremes_only) {
    out->desc.Merge(Extremes(data));
  } else if (spec.want_moments) {
    for (double x : data) out->desc.Add(x);
  }
  if (spec.want_counts) {
    out->counts.Reserve(data.size());
    for (double x : data) out->counts.Add(x);
  }
  if (stat != nullptr) {
    stat->rows = data.size();
    stat->wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  // Kept values come from one chunk per partial (ChunksOf's `whole`).
  if (spec.keep_values) out->values = std::move(data);
  return Status::OK();
}

}  // namespace

Result<ColumnScanResult> ParallelScanColumn(uint64_t rows,
                                            size_t cells_per_page,
                                            const ColumnRangeReader& reader,
                                            const ColumnScanSpec& spec,
                                            const PoolSlice& exec) {
  std::vector<ScanChunk> chunks =
      ChunksOf(rows, cells_per_page, exec, spec.keep_values);
  ColumnScanResult result;
  if (spec.time_chunks) result.chunk_stats.resize(chunks.size());
  // With a pool every chunk folds a private kernel partial; inline every
  // chunk folds into the one running state.
  const bool kernel = exec.pool != nullptr;
  std::vector<ChunkPartial> partials(kernel ? chunks.size() : 1);
  STATDB_RETURN_IF_ERROR(ForEachIndex(exec, chunks.size(), [&](size_t i) {
    return ScanOneChunk(
        chunks[i], reader, spec, kernel, &partials[kernel ? i : 0],
        result.chunk_stats.empty() ? nullptr : &result.chunk_stats[i]);
  }));

  // Barrier: merge in chunk order, so the merged state (and the
  // concatenated values) are deterministic regardless of which worker
  // finished first.
  for (ChunkPartial& p : partials) {
    result.rows += p.rows;
    result.desc.Merge(p.desc);
    if (result.values.empty()) {
      result.values = std::move(p.values);
    } else {
      result.values.insert(result.values.end(), p.values.begin(),
                           p.values.end());
    }
  }
  if (!spec.want_counts) return result;
  if (partials.size() == 1) {
    result.counts = std::move(partials[0].counts);
    return result;
  }
  // On a mostly-distinct column the count merge costs as much as the
  // scan itself; a single-threaded fold here would cap the whole pass at
  // ~2x (Amdahl). Values are hash-partitioned into the same shard of
  // every partial, so one task per shard folds its slice of all partials
  // with no cross-shard writes.
  STATDB_RETURN_IF_ERROR(
      ForEachIndex(exec, ValueCounts::kShards, [&](size_t s) {
        size_t total = 0;
        for (const ChunkPartial& p : partials) {
          total += p.counts.shards[s].size();
        }
        result.counts.shards[s].reserve(total);
        for (const ChunkPartial& p : partials) {
          result.counts.MergeShard(p.counts, s);
        }
        return Status::OK();
      }));
  return result;
}

Status FoldPairsInline(
    uint64_t rows, size_t cells_per_page, const PairRangeReader& reader,
    const std::function<Status(const std::vector<double>& xs,
                               const std::vector<double>& ys)>& fold) {
  std::vector<double> xs, ys;
  for (const ScanChunk& c :
       ChunksOf(rows, cells_per_page, /*exec=*/{}, /*whole=*/false)) {
    xs.clear();
    ys.clear();
    STATDB_RETURN_IF_ERROR(reader(c.begin, c.end, &xs, &ys));
    STATDB_RETURN_IF_ERROR(fold(xs, ys));
  }
  return Status::OK();
}

Result<ComomentStats> ParallelScanPairs(uint64_t rows, size_t cells_per_page,
                                        const PairRangeReader& reader,
                                        const PoolSlice& exec) {
  ComomentStats merged;
  if (exec.pool == nullptr) {
    STATDB_RETURN_IF_ERROR(FoldPairsInline(
        rows, cells_per_page, reader,
        [&merged](const std::vector<double>& xs,
                  const std::vector<double>& ys) {
          for (size_t i = 0; i < xs.size(); ++i) merged.Add(xs[i], ys[i]);
          return Status::OK();
        }));
    return merged;
  }
  std::vector<ScanChunk> chunks =
      ChunksOf(rows, cells_per_page, exec, /*whole=*/false);
  std::vector<ComomentStats> partials(chunks.size());
  STATDB_RETURN_IF_ERROR(ForEachIndex(exec, chunks.size(), [&](size_t i) {
    std::vector<double> xs, ys;
    STATDB_RETURN_IF_ERROR(reader(chunks[i].begin, chunks[i].end, &xs, &ys));
    partials[i] = simd::ComomentSpan(xs.data(), ys.data(), xs.size());
    return Status::OK();
  }));
  for (const ComomentStats& p : partials) merged.Merge(p);
  return merged;
}

}  // namespace statdb
