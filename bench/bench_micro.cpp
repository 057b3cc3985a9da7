// Google-benchmark microbenchmarks for the hot paths underneath the
// experiment harnesses: statistics kernels, incremental maintainers,
// B+-tree operations, column scans and RLE.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "rules/incremental.h"
#include "stats/descriptive.h"
#include "stats/order.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/column_file.h"
#include "storage/rle.h"

namespace statdb {
namespace {

std::vector<double> RandomColumn(int64_t n, uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (int64_t i = 0; i < n; ++i) out.push_back(rng.Normal(0, 1));
  return out;
}

void BM_Descriptive(benchmark::State& state) {
  std::vector<double> data = RandomColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDescriptive(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Descriptive)->Range(1 << 10, 1 << 20);

void BM_MedianFullSort(benchmark::State& state) {
  std::vector<double> data = RandomColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Median(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MedianFullSort)->Range(1 << 10, 1 << 20);

void BM_MedianWindowApply(benchmark::State& state) {
  std::vector<double> data = RandomColumn(state.range(0));
  auto m = MakeMedianWindowMaintainer(100);
  if (!m->Initialize(data).ok()) state.SkipWithError("init failed");
  Rng rng(5);
  size_t idx = 0;
  for (auto _ : state) {
    double fresh = rng.Normal(0, 1);
    auto r = m->Apply(CellDelta::Change(data[idx], fresh));
    data[idx] = fresh;
    if (!r.ok()) {
      (void)m->Initialize(data);
    }
    idx = (idx + 1) % data.size();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MedianWindowApply)->Range(1 << 12, 1 << 18);

void BM_MomentMaintainerApply(benchmark::State& state) {
  std::vector<double> data = RandomColumn(1 << 16);
  auto m = MakeVarianceMaintainer();
  if (!m->Initialize(data).ok()) state.SkipWithError("init failed");
  Rng rng(5);
  size_t idx = 0;
  for (auto _ : state) {
    double fresh = rng.Normal(0, 1);
    benchmark::DoNotOptimize(
        m->Apply(CellDelta::Change(data[idx], fresh)));
    data[idx] = fresh;
    idx = (idx + 1) % data.size();
  }
}
BENCHMARK(BM_MomentMaintainerApply);

void BM_BTreePut(benchmark::State& state) {
  SimulatedDevice dev("d", DeviceCostModel::Memory());
  BufferPool pool(&dev, 1 << 16);
  auto tree = BPlusTree::Create(&pool);
  if (!tree.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%012lld", (long long)i++);
    benchmark::DoNotOptimize((*tree)->Put(key, "value"));
  }
}
BENCHMARK(BM_BTreePut);

void BM_BTreeGet(benchmark::State& state) {
  SimulatedDevice dev("d", DeviceCostModel::Memory());
  BufferPool pool(&dev, 1 << 16);
  auto tree = BPlusTree::Create(&pool);
  if (!tree.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%012lld", (long long)i);
    (void)(*tree)->Put(key, "value");
  }
  int64_t i = 0;
  for (auto _ : state) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%012lld", (long long)(i++ % n));
    benchmark::DoNotOptimize((*tree)->Get(key));
  }
}
BENCHMARK(BM_BTreeGet)->Range(1 << 10, 1 << 16);

void BM_ColumnScan(benchmark::State& state) {
  SimulatedDevice dev("d", DeviceCostModel::Memory());
  BufferPool pool(&dev, 1 << 16);
  ColumnFile col(&pool);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    (void)col.Append(i);
  }
  for (auto _ : state) {
    int64_t sum = 0;
    (void)col.ScanPages(0, col.size(),
                        [&sum](uint64_t, const ColumnPageView& page) {
                          for (size_t i = 0; i < page.size(); ++i) {
                            if (page.valid(i)) sum += page.raw(i);
                          }
                          return Status::OK();
                        });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ColumnScan)->Range(1 << 12, 1 << 18);

void BM_RleEncodeDecode(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::optional<int64_t>> cells;
  for (int64_t i = 0; i < state.range(0); ++i) {
    cells.push_back(rng.Zipf(4, 1.0));
  }
  std::sort(cells.begin(), cells.end());
  for (auto _ : state) {
    auto runs = RleEncode(cells);
    benchmark::DoNotOptimize(RleDecode(runs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RleEncodeDecode)->Range(1 << 12, 1 << 18);

}  // namespace
}  // namespace statdb

BENCHMARK_MAIN();
