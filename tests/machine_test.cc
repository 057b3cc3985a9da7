#include "machine/machine.h"

#include "gtest/gtest.h"

namespace statdb {
namespace {

TEST(MachineTest, IndexedProbeBeatsScanForPointLookups) {
  DbMachineConfig cfg;
  // 1000 pages of summary entries, ~50 entries/page.
  CostEstimate scan = HostSearchScan(cfg, 1000, 50000);
  CostEstimate indexed = HostSearchIndexed(cfg, 3);
  EXPECT_LT(indexed.total_ms, scan.total_ms);
}

TEST(MachineTest, AssociativeDiskBeatsHostScanOnBigSummaryDb) {
  // §4.3: "a pseudo-associative disk of some type seems to be a
  // reasonable database machine organization" for Summary-DB searches.
  DbMachineConfig cfg;
  CostEstimate host = HostSearchScan(cfg, 2000, 100000);
  CostEstimate machine = MachineAssociativeSearch(cfg, 2000, 5);
  EXPECT_LT(machine.total_ms, host.total_ms);
}

TEST(MachineTest, AssociativeDiskCostGrowsWithCylinders) {
  DbMachineConfig cfg;
  CostEstimate small = MachineAssociativeSearch(cfg, 10, 1);
  CostEstimate large = MachineAssociativeSearch(cfg, 10000, 1);
  EXPECT_GT(large.total_ms, small.total_ms);
  // One cylinder minimum: tiny searches cost one revolution.
  EXPECT_GE(small.total_ms, cfg.revolution_ms);
}

TEST(MachineTest, OffloadWinsForLargeScans) {
  DbMachineConfig cfg;
  uint64_t pages = 10000;
  uint64_t tuples = pages * 500;
  CostEstimate host = HostAggregateScan(cfg, pages, tuples);
  CostEstimate machine = MachineAggregateOffload(cfg, pages);
  EXPECT_LT(machine.total_ms, host.total_ms);
}

TEST(MachineTest, HostFineForTinyScans) {
  // With one page there is little to offload; costs are comparable
  // (within one random access).
  DbMachineConfig cfg;
  CostEstimate host = HostAggregateScan(cfg, 1, 500);
  CostEstimate machine = MachineAggregateOffload(cfg, 1);
  EXPECT_LT(host.total_ms, machine.total_ms + cfg.host_random_ms);
}

TEST(MachineTest, EstimatesCarryPlansAndPages) {
  DbMachineConfig cfg;
  CostEstimate e = HostSearchScan(cfg, 7, 10);
  EXPECT_EQ(e.pages_touched, 7u);
  EXPECT_NE(e.plan.find("scan"), std::string::npos);
  CostEstimate m = MachineAssociativeSearch(cfg, 7, 2);
  EXPECT_NE(m.plan.find("associative"), std::string::npos);
}

TEST(MachineTest, ZeroPageEdgeCases) {
  DbMachineConfig cfg;
  CostEstimate e = HostSearchScan(cfg, 0, 0);
  EXPECT_GE(e.total_ms, 0.0);
  CostEstimate m = MachineAggregateOffload(cfg, 0);
  EXPECT_GE(m.total_ms, 0.0);
  CostEstimate c = HostCompressedAggregateScan(cfg, 0, 0);
  EXPECT_GE(c.total_ms, 0.0);
}

TEST(MachineTest, CompressedScanBeatsMaterializedByCompressionRatio) {
  // 100k tuples in 1000 pages; at 100x RLE compression the sidecar holds
  // 1000 runs in 10 pages. Both the I/O and the CPU term shrink by the
  // ratio, so the compressed host scan must win by a wide margin...
  DbMachineConfig cfg;
  CostEstimate host = HostAggregateScan(cfg, 1000, 100000);
  CostEstimate compressed = HostCompressedAggregateScan(cfg, 10, 1000);
  EXPECT_GT(host.total_ms, 3.0 * compressed.total_ms);
  EXPECT_EQ(compressed.pages_touched, 10u);
  EXPECT_NE(compressed.plan.find("compressed"), std::string::npos);
  // ...and even beat the on-device offload engine: streaming 1000 raw
  // pages at media rate costs more than reading 10 compressed ones.
  CostEstimate machine = MachineAggregateOffload(cfg, 1000);
  EXPECT_GT(machine.total_ms, compressed.total_ms);
}

TEST(MachineTest, CompressedScanDegeneratesToHostScanWithoutRuns) {
  // An incompressible column (every run length 1) has pages ~= raw pages
  // and runs == tuples: the model must NOT claim a win there.
  DbMachineConfig cfg;
  CostEstimate host = HostAggregateScan(cfg, 1000, 100000);
  CostEstimate compressed = HostCompressedAggregateScan(cfg, 1400, 100000);
  EXPECT_GE(compressed.total_ms, host.total_ms);
}

// E13 (§4.3): the slower the host's CPU, the more a whole-column
// aggregate gains from offload to the database machine.
TEST(MachineTest, SlowerHostCpuFavoursOffload) {
  DbMachineConfig cfg;
  double previous = 0;
  for (double us : {0.5, 2.0, 8.0, 32.0}) {
    cfg.host_cpu_per_tuple_us = us;
    const double speedup =
        HostAggregateScan(cfg, 10'000, 10'000 * 500).total_ms /
        MachineAggregateOffload(cfg, 10'000).total_ms;
    EXPECT_GT(speedup, previous) << us << " us per tuple";
    previous = speedup;
  }
}

}  // namespace
}  // namespace statdb
