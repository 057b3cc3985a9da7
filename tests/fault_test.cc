#include "fault/fault.h"

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"
#include "core/dbms.h"
#include "fault/wal.h"
#include "gtest/gtest.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace statdb {
namespace {

Page MakePage(uint8_t fill) {
  Page p;
  p.data.fill(fill);
  return p;
}

TEST(FaultScheduleTest, RandomIsDeterministicPerSeed) {
  FaultSchedule a = FaultSchedule::Random(1234, 100, 8);
  FaultSchedule b = FaultSchedule::Random(1234, 100, 8);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
  }
  EXPECT_EQ(a.Describe(), b.Describe());
  FaultSchedule c = FaultSchedule::Random(1235, 100, 8);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(FaultScheduleTest, RandomRespectsHorizonAndKinds) {
  FaultSchedule s = FaultSchedule::Random(7, 50, 20);
  ASSERT_EQ(s.events.size(), 20u);
  for (const FaultEvent& e : s.events) {
    EXPECT_GE(e.nth, 1u);
    EXPECT_LE(e.nth, 50u);
    EXPECT_NE(e.kind, FaultKind::kPowerCut);
    EXPECT_NE(e.kind, FaultKind::kPermanentFailure);
    EXPECT_LT(e.bit, kPageSize * 8);
  }
}

TEST(FaultDeviceTest, TransientErrorFailsOnceThenSucceeds) {
  FaultSchedule s;
  s.events.push_back({FaultKind::kTransientError, /*on_write=*/true, 1, 0});
  FaultInjectingDevice dev("d", DeviceCostModel::Memory(), s);
  PageId pid = dev.AllocatePage();
  Page p = MakePage(0xAB);
  Status first = dev.WritePage(pid, p);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  STATDB_ASSERT_OK(dev.WritePage(pid, p));
  Page got;
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));
  EXPECT_EQ(got.data, p.data);
  EXPECT_EQ(dev.counters().transient_errors, 1u);
  EXPECT_FALSE(dev.dead());
}

TEST(FaultDeviceTest, PermanentFailureKillsDeviceUntilCleared) {
  FaultSchedule s;
  s.events.push_back({FaultKind::kPermanentFailure, /*on_write=*/false, 2, 0});
  FaultInjectingDevice dev("d", DeviceCostModel::Memory(), s);
  PageId pid = dev.AllocatePage();
  STATDB_ASSERT_OK(dev.WritePage(pid, MakePage(1)));
  Page got;
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));  // read #1: fine
  EXPECT_EQ(dev.ReadPage(pid, &got).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(dev.dead());
  // Dead means *everything* fails, including writes.
  EXPECT_EQ(dev.WritePage(pid, MakePage(2)).code(), StatusCode::kUnavailable);
  dev.ClearFaults();
  EXPECT_FALSE(dev.dead());
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));
  EXPECT_EQ(got.data[0], 1);
  // Counters survive the reboot.
  EXPECT_GE(dev.counters().permanent_errors, 1u);
}

TEST(FaultDeviceTest, TornWritePersistsHalfThePage) {
  FaultSchedule s;
  s.events.push_back({FaultKind::kTornWrite, /*on_write=*/true, 2, 0});
  FaultInjectingDevice dev("d", DeviceCostModel::Memory(), s);
  PageId pid = dev.AllocatePage();
  STATDB_ASSERT_OK(dev.WritePage(pid, MakePage(0x11)));  // write #1: old image
  EXPECT_EQ(dev.WritePage(pid, MakePage(0x22)).code(),
            StatusCode::kUnavailable);  // write #2 tears
  Page got;
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));
  for (size_t i = 0; i < kPageSize / 2; ++i) {
    ASSERT_EQ(got.data[i], 0x22) << "first half should be new at byte " << i;
  }
  for (size_t i = kPageSize / 2; i < kPageSize; ++i) {
    ASSERT_EQ(got.data[i], 0x11) << "second half should be old at byte " << i;
  }
  EXPECT_EQ(dev.counters().torn_writes, 1u);
}

TEST(FaultDeviceTest, BitFlipIsSilentAndFlipsExactlyOneBit) {
  FaultSchedule s;
  s.events.push_back({FaultKind::kBitFlip, /*on_write=*/false, 1, 12345});
  FaultInjectingDevice dev("d", DeviceCostModel::Memory(), s);
  PageId pid = dev.AllocatePage();
  Page p = MakePage(0x00);
  STATDB_ASSERT_OK(dev.WritePage(pid, p));
  Page got;
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));  // fires silently
  size_t diff_bits = 0;
  for (size_t i = 0; i < kPageSize; ++i) {
    uint8_t x = got.data[i] ^ p.data[i];
    while (x != 0) {
      diff_bits += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(diff_bits, 1u);
  EXPECT_EQ(got.data[12345 / 8], uint8_t(1u << (12345 % 8)));
  EXPECT_EQ(dev.counters().bit_flips, 1u);
  // The flip corrupted the *stored* page: later reads see it too.
  Page again;
  STATDB_ASSERT_OK(dev.ReadPage(pid, &again));
  EXPECT_EQ(again.data, got.data);
}

TEST(FaultDeviceTest, PowerCutTearsThenDies) {
  FaultSchedule s;
  s.events.push_back({FaultKind::kPowerCut, /*on_write=*/true, 2, 0});
  FaultInjectingDevice dev("d", DeviceCostModel::Memory(), s);
  PageId pid = dev.AllocatePage();
  STATDB_ASSERT_OK(dev.WritePage(pid, MakePage(0xAA)));
  EXPECT_EQ(dev.WritePage(pid, MakePage(0xBB)).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(dev.dead());
  EXPECT_EQ(dev.counters().power_cuts, 1u);
  EXPECT_EQ(dev.counters().torn_writes, 1u);
  dev.ClearFaults();
  Page got;
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));
  EXPECT_EQ(got.data[0], 0xBB);                // first half landed
  EXPECT_EQ(got.data[kPageSize - 1], 0xAA);    // second half did not
}

TEST(FaultDeviceTest, SameScheduleSameIoSequenceIsBitIdentical) {
  FaultSchedule s = FaultSchedule::Random(99, 40, 6);
  FaultInjectingDevice a("a", DeviceCostModel::Memory(), s);
  FaultInjectingDevice b("b", DeviceCostModel::Memory(), s);
  for (int i = 0; i < 8; ++i) {
    a.AllocatePage();
    b.AllocatePage();
  }
  // Drive both devices through the same interleaving of reads and writes
  // and require identical outcomes at every step.
  for (uint64_t op = 0; op < 40; ++op) {
    PageId pid = op % 8;
    if (op % 3 == 0) {
      Page p = MakePage(uint8_t(op));
      Status sa = a.WritePage(pid, p);
      Status sb = b.WritePage(pid, p);
      EXPECT_EQ(sa.code(), sb.code()) << "write op " << op;
    } else {
      Page pa, pb;
      Status sa = a.ReadPage(pid, &pa);
      Status sb = b.ReadPage(pid, &pb);
      EXPECT_EQ(sa.code(), sb.code()) << "read op " << op;
      if (sa.ok() && sb.ok()) {
        EXPECT_EQ(pa.data, pb.data) << "read op " << op;
      }
    }
  }
  EXPECT_EQ(a.counters().transient_errors, b.counters().transient_errors);
  EXPECT_EQ(a.counters().torn_writes, b.counters().torn_writes);
  EXPECT_EQ(a.counters().bit_flips, b.counters().bit_flips);
}

TEST(FaultDeviceTest, CutPowerRefusesAllIo) {
  FaultInjectingDevice dev("d", DeviceCostModel::Memory());
  PageId pid = dev.AllocatePage();
  STATDB_ASSERT_OK(dev.WritePage(pid, MakePage(7)));
  dev.CutPower();
  Page got;
  EXPECT_EQ(dev.ReadPage(pid, &got).code(), StatusCode::kUnavailable);
  EXPECT_EQ(dev.WritePage(pid, MakePage(8)).code(), StatusCode::kUnavailable);
  dev.ClearFaults();
  STATDB_ASSERT_OK(dev.ReadPage(pid, &got));
  EXPECT_EQ(got.data[0], 7);
}

TEST(ChecksumTest, Crc32cKnownVectorsAndSensitivity) {
  // RFC 3720 test vector: 32 bytes of zero.
  uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  uint8_t ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62A8AB43u);
  // The standard CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // Every single-bit flip of a page changes the CRC (spot-checked here;
  // the exhaustive guarantee is exercised by the recovery test).
  Page p = MakePage(0x5C);
  const uint32_t base = Crc32c(p.data.data(), kPageSize);
  for (uint32_t bit = 0; bit < 64; ++bit) {
    p.data[bit / 8] ^= uint8_t(1u << (bit % 8));
    EXPECT_NE(Crc32c(p.data.data(), kPageSize), base) << "bit " << bit;
    p.data[bit / 8] ^= uint8_t(1u << (bit % 8));
  }
}

TEST(ChecksumTest, DispatchedCrcMatchesPortableReference) {
  // Bytes with no period shorter than the buffer, and 8 bytes of slack
  // so every start offset mod 8 can cover lengths up to 4200.
  std::vector<uint8_t> buf(4200 + 8);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = uint8_t(x);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 4200; ++len) {
      const uint8_t* p = buf.data() + start;
      ASSERT_EQ(Crc32cExtend(kCrc32cInit, p, len),
                Crc32cExtendPortable(kCrc32cInit, p, len))
          << "start " << start << " len " << len;
    }
  }
  // Chained extends over any split equal the one-shot CRC.
  const uint8_t* p = buf.data() + 3;
  const size_t len = kPageSize + 13;
  const uint32_t whole = Crc32c(p, len);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{2047}, size_t{4096}, len}) {
    uint32_t state = Crc32cExtend(kCrc32cInit, p, cut);
    state = Crc32cExtend(state, p + cut, len - cut);
    EXPECT_EQ(state ^ kCrc32cXorOut, whole) << "cut " << cut;
    uint32_t mixed = Crc32cExtendPortable(kCrc32cInit, p, cut);
    mixed = Crc32cExtend(mixed, p + cut, len - cut);
    EXPECT_EQ(mixed ^ kCrc32cXorOut, whole) << "cut " << cut;
  }
}

// --- decoders size nothing by an untrusted count ----------------------------

TEST(DecodeBoundsTest, WalBodyWithHugePageCountIsDataLoss) {
  // 20 bytes: magic, lsn, empty attr hint, npages = 0xFFFFFFFF.
  WalRecord empty;
  empty.lsn = 1;
  std::vector<uint8_t> body = RedoLog::SerializeBody(empty);
  body.resize(20);
  std::memset(body.data() + 16, 0xFF, 4);
  auto rec = RedoLog::ParseBody(body);
  EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(rec.status().message().find("element count 4294967295"),
            std::string::npos);
}

// Logs one commit record carrying `manifest` on a fresh installation and
// recovers from it.
Status RecoverFromManifest(std::vector<uint8_t> manifest) {
  StorageManager storage;
  STATDB_RETURN_IF_ERROR(
      storage.AddDevice("tape", DeviceCostModel::Memory(), 16).status());
  STATDB_RETURN_IF_ERROR(
      storage.AddDevice("disk", DeviceCostModel::Memory(), 16).status());
  STATDB_ASSIGN_OR_RETURN(
      SimulatedDevice * wal_dev,
      storage.AddDevice("wal", DeviceCostModel::Memory(), 8));
  {
    RedoLog log(wal_dev);
    STATDB_RETURN_IF_ERROR(log.Open().status());
    WalRecord rec;
    rec.lsn = 1;
    rec.manifest = std::move(manifest);
    STATDB_RETURN_IF_ERROR(log.Append(rec));
  }
  StatisticalDbms db(&storage);
  STATDB_RETURN_IF_ERROR(db.EnableDurability("wal"));
  return db.Recover();
}

TEST(DecodeBoundsTest, ManifestWithHugeCountsIsDataLoss) {
  constexpr uint32_t kHuge = 0xFFFFFFFFu;
  auto header = [](ByteWriter* w) {
    w->PutU32(0x4D414E49);  // "MANI"
    w->PutU32(2);
  };
  // Data set whose schema claims kHuge attributes.
  ByteWriter schema;
  header(&schema);
  schema.PutU32(1);
  schema.PutString("census");
  schema.PutU32(kHuge);
  // Raw table with an empty schema whose page list claims kHuge ids.
  ByteWriter page_ids;
  header(&page_ids);
  page_ids.PutU32(0);
  page_ids.PutU32(1);
  page_ids.PutString("census");
  page_ids.PutU32(0);
  page_ids.PutU32(kHuge);
  // View claiming kHuge columns.
  ByteWriter columns;
  header(&columns);
  columns.PutU32(0);
  columns.PutU32(0);
  columns.PutU32(1);
  columns.PutString("v");
  columns.PutU32(0);  // schema
  columns.PutU64(1);  // view version
  columns.PutU64(0);  // rows
  columns.PutU32(kHuge);
  // View with one column claiming kHuge labels.
  ByteWriter labels;
  header(&labels);
  labels.PutU32(0);
  labels.PutU32(0);
  labels.PutU32(1);
  labels.PutString("v");
  labels.PutU32(0);
  labels.PutU64(1);
  labels.PutU64(0);
  labels.PutU32(1);  // one column
  labels.PutU32(0);  // no pages
  labels.PutU64(0);  // no cells
  labels.PutU32(kHuge);
  for (ByteWriter* w : {&schema, &page_ids, &columns, &labels}) {
    // Enough trailing bytes that the count, not a short read, is what
    // a decoder has to reject.
    for (int i = 0; i < 64; ++i) w->PutU8(0);
    Status s = RecoverFromManifest(w->Take());
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_NE(s.message().find("element count 4294967295"), std::string::npos)
        << s.ToString();
  }
}

}  // namespace
}  // namespace statdb
