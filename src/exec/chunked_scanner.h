#ifndef STATDB_EXEC_CHUNKED_SCANNER_H_
#define STATDB_EXEC_CHUNKED_SCANNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "simd/pushdown.h"
#include "stats/partial_stats.h"

namespace statdb {

/// Half-open row range [begin, end) assigned to one scan task.
struct ScanChunk {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Splits [0, rows) into up to `num_chunks` contiguous ranges whose
/// boundaries fall on multiples of `cells_per_page`, so no two chunks
/// share a storage page and each worker's reads are whole-page. Returns
/// fewer (possibly zero) chunks when the column is small.
std::vector<ScanChunk> SplitPageAligned(uint64_t rows, size_t cells_per_page,
                                        size_t num_chunks);

/// Reads the non-missing numeric cells of rows [begin, end) of one
/// column, in row order. Must be safe to call from multiple threads
/// concurrently (ConcreteView::ReadNumericRange is the canonical
/// binding). Kept as a callback so the execution layer stays below
/// core/ in the dependency DAG.
using ColumnRangeReader =
    std::function<Result<std::vector<double>>(uint64_t begin, uint64_t end)>;

/// Reads the row-aligned numeric pairs of rows [begin, end) of two
/// columns, dropping pairs with either cell missing (pairwise deletion,
/// matching the serial bivariate path).
using PairRangeReader = std::function<Status(
    uint64_t begin, uint64_t end, std::vector<double>* xs,
    std::vector<double>* ys)>;

/// What a column scan should accumulate.
struct ColumnScanSpec {
  /// Only values the predicate matches are folded, counted and kept.
  std::optional<simd::RunPredicate> filter;
  /// Fold DescriptiveStats.
  bool want_moments = true;
  /// Inline scans fold only count, min and max, with the exact
  /// NaN-skipping update and no mean or m2 (the members need nothing
  /// else). Kernel partials ignore it.
  bool extremes_only = false;
  /// Build the per-shard value-count maps (mode / distinct).
  bool want_counts = false;
  /// Keep the column values themselves (order-dependent functions —
  /// median, quantiles — and incremental-maintainer arming need them).
  /// Chunks are concatenated in row order, so `values` is bit-identical
  /// to the serial ReadNumericColumn result.
  bool keep_values = false;
  /// Fill ColumnScanResult::chunk_stats (per-chunk wall time and rows)
  /// for query tracing. Off by default so the untraced hot path pays no
  /// clock reads.
  bool time_chunks = false;
};

/// Wall time and volume of one scan task (spec.time_chunks only). Each
/// task writes its own pre-sized slot, so no synchronization is needed
/// beyond the pool's join barrier.
struct ChunkScanStat {
  uint64_t rows = 0;    // non-missing cells this chunk yielded
  double wall_ms = 0;   // read + fold wall time on the worker
};

/// Merged result of one pass over a column.
struct ColumnScanResult {
  uint64_t rows = 0;      // non-missing cells read, before the filter
  DescriptiveStats desc;  // count/sum/mean/m2/min/max, merged pairwise
  ValueCounts counts;     // populated when spec.want_counts
  std::vector<double> values;  // populated when spec.keep_values
  std::vector<ChunkScanStat> chunk_stats;  // spec.time_chunks only
};

/// Splits one view column into `exec.workers * 4` page-aligned chunks
/// (over-decomposed so one cold chunk cannot straggle the pass), scans
/// them on the pool (each folding a private span-kernel partial), and
/// merges the partials in chunk order at the join barrier. With a null
/// pool it folds every value with DescriptiveStats::Add in row order on
/// the caller (ComputeDescriptive's moments, bit for bit), in chunks of
/// 64 pages unless the values are kept.
Result<ColumnScanResult> ParallelScanColumn(uint64_t rows,
                                            size_t cells_per_page,
                                            const ColumnRangeReader& reader,
                                            const ColumnScanSpec& spec,
                                            const PoolSlice& exec);

/// Reads the pairs of rows [0, rows) on the caller in page-aligned
/// chunks of at most 64 pages, and hands each chunk's pairs to `fold` in
/// row order.
Status FoldPairsInline(
    uint64_t rows, size_t cells_per_page, const PairRangeReader& reader,
    const std::function<Status(const std::vector<double>& xs,
                               const std::vector<double>& ys)>& fold);

/// Same shape for a two-column pass: span-kernel co-moment partials
/// merged in chunk order; with a null pool, ComomentStats::Add over
/// FoldPairsInline (ComputeComoments of the pairs, bit for bit).
Result<ComomentStats> ParallelScanPairs(uint64_t rows, size_t cells_per_page,
                                        const PairRangeReader& reader,
                                        const PoolSlice& exec);

}  // namespace statdb

#endif  // STATDB_EXEC_CHUNKED_SCANNER_H_
