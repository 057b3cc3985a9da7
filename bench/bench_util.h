#ifndef STATDB_BENCH_BENCH_UTIL_H_
#define STATDB_BENCH_BENCH_UTIL_H_

// Shared plumbing for the experiment harnesses. Each bench binary
// regenerates one experiment from DESIGN.md §4 and prints a table of
// the series EXPERIMENTS.md records.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/result.h"
#include "relational/datagen.h"
#include "storage/storage_manager.h"

namespace statdb {
namespace bench {

template <typename T>
T Unwrap(Result<T> r) {
  if (!r.ok()) {
    std::cerr << "BENCH FATAL: " << r.status().ToString() << std::endl;
    std::exit(1);
  }
  return std::move(r).value();
}

inline void CheckOk(const Status& s) {
  if (!s.ok()) {
    std::cerr << "BENCH FATAL: " << s.ToString() << std::endl;
    std::exit(1);
  }
}

/// Wall-clock stopwatch (milliseconds).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The canonical tape+disk installation used by the experiments.
inline std::unique_ptr<StorageManager> MakeInstallation(
    size_t tape_pool = 1024, size_t disk_pool = 16384) {
  auto sm = std::make_unique<StorageManager>();
  CheckOk(sm->AddDevice("tape", DeviceCostModel::Tape(), tape_pool)
              .status());
  CheckOk(sm->AddDevice("disk", DeviceCostModel::Disk(), disk_pool)
              .status());
  return sm;
}

inline Table MakeCensus(uint64_t rows, uint64_t seed = 42,
                        bool sorted = false) {
  CensusOptions opts;
  opts.rows = rows;
  opts.sorted_by_categories = sorted;
  Rng rng(seed);
  return Unwrap(GenerateCensusMicrodata(opts, &rng));
}

inline void Header(const std::string& id, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

}  // namespace bench
}  // namespace statdb

#endif  // STATDB_BENCH_BENCH_UTIL_H_
