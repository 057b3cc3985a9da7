#ifndef STATDB_EXEC_COMPRESSED_SCAN_H_
#define STATDB_EXEC_COMPRESSED_SCAN_H_

#include "common/result.h"
#include "common/status.h"
#include "exec/chunked_scanner.h"
#include "exec/thread_pool.h"
#include "simd/kernels.h"
#include "simd/pushdown.h"
#include "storage/compressed_column_file.h"

namespace statdb {

/// Compressed-domain column scans (DESIGN.md §14): aggregation directly
/// over the RLE sidecar's run records, never materializing cells. Work
/// and I/O scale with the run count, not the row count — on a
/// high-compression column that is orders of magnitude less of both.
///
/// Parallel shape mirrors ParallelScanColumn: compressed pages are split
/// into page-aligned chunks (runs never straddle pages), each chunk folds
/// its runs into a private partial on a worker, and partials merge in
/// chunk order at the barrier, so the answer is deterministic for a given
/// chunking. Versus the serial per-cell oracle, count/min/max are exact
/// and sum/mean/m2 carry the documented Chan-et-al. tolerance class.

/// Full-column compressed-domain scan: ScanCompressedFiltered under the
/// trivial predicate. `values`/`chunk_stats` stay empty.
Result<ColumnScanResult> ScanCompressedColumn(const CompressedColumnFile& file,
                                              simd::RunValueKind kind,
                                              bool want_counts,
                                              const PoolSlice& exec);

/// Result of a filtered compressed-domain scan: how many rows matched,
/// plus the aggregate partials over exactly those rows.
struct FilteredScanResult {
  uint64_t rows = 0;
  DescriptiveStats desc;
  ValueCounts counts;  // populated when want_counts
};

/// Predicate/aggregate pushdown (§4.3 scan-offload generalized): the
/// predicate evaluates once per run, matching runs contribute their whole
/// length in O(1), and no row is ever materialized. `kind` says how the
/// stored raws decode (ints cast, doubles bit-cast — TransposedTable's
/// encoding); with want_counts each run is one ValueCounts::AddRun,
/// bit-identical to cell-at-a-time Add. Equivalent to
/// filter-then-materialize over the decoded column (NaN cells match only
/// the kAll predicate, exactly like a double comparison would decide).
Result<FilteredScanResult> ScanCompressedFiltered(
    const CompressedColumnFile& file, simd::RunValueKind kind,
    const simd::RunPredicate& pred, bool want_counts, const PoolSlice& exec);

}  // namespace statdb

#endif  // STATDB_EXEC_COMPRESSED_SCAN_H_
