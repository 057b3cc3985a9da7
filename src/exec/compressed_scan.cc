#include "exec/compressed_scan.h"

#include <limits>
#include <utility>
#include <vector>

namespace statdb {

Result<FilteredScanResult> ScanCompressedFiltered(
    const CompressedColumnFile& file, simd::RunValueKind kind,
    const simd::RunPredicate& pred, bool want_counts, const PoolSlice& exec) {
  // Whole pages per chunk (runs never straddle pages), 4 chunks per
  // worker like ParallelScanColumn so one cold chunk cannot straggle.
  const std::vector<ScanChunk> chunks = SplitPageAligned(
      file.page_count(), /*cells_per_page=*/1,
      exec.pool == nullptr ? 1 : exec.workers * 4);
  const std::vector<uint64_t>& starts = file.page_starts();

  struct ChunkPartial {
    uint64_t rows = 0;
    DescriptiveStats desc;
    ValueCounts counts;
  };
  std::vector<ChunkPartial> partials(chunks.size());
  STATDB_RETURN_IF_ERROR(ForEachIndex(
      exec, chunks.size(),
      [&chunks, &partials, &starts, &file, kind, &pred,
       want_counts](size_t i) -> Status {
        STATDB_ASSIGN_OR_RETURN(
            std::vector<RleRun> runs,
            file.ReadRuns(chunks[i].begin, chunks[i].end));
        std::vector<simd::MatchedRun> matched(runs.size());
        size_t m = simd::FilterRuns(
            runs.data(), runs.size(), kind, starts[chunks[i].begin],
            /*row_begin=*/0,
            /*row_end=*/std::numeric_limits<uint64_t>::max(), pred,
            matched.data());
        partials[i].rows = simd::MatchedRowCount(matched.data(), m);
        partials[i].desc = simd::DescribeMatchedRuns(matched.data(), m);
        if (want_counts) {
          for (size_t r = 0; r < m; ++r) {
            partials[i].counts.AddRun(matched[r].value, matched[r].length);
          }
        }
        return Status::OK();
      }));

  FilteredScanResult result;
  for (ChunkPartial& p : partials) {
    result.rows += p.rows;
    result.desc.Merge(p.desc);
    if (want_counts) result.counts.Merge(p.counts);
  }
  return result;
}

Result<ColumnScanResult> ScanCompressedColumn(const CompressedColumnFile& file,
                                              simd::RunValueKind kind,
                                              bool want_counts,
                                              const PoolSlice& exec) {
  // The trivial predicate matches every present run, unclipped.
  STATDB_ASSIGN_OR_RETURN(
      FilteredScanResult all,
      ScanCompressedFiltered(file, kind, simd::RunPredicate{}, want_counts,
                             exec));
  ColumnScanResult result;
  result.rows = all.rows;
  result.desc = all.desc;
  result.counts = std::move(all.counts);
  return result;
}

}  // namespace statdb
