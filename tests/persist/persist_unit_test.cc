/// Unit tests for the persistence building blocks: CRC32C, the binary
/// coding helpers, the snapshot format, the WAL (framing, LSN continuity,
/// torn tails, group commit) and the fault-injection env.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "persist/coding.h"
#include "persist/crc32c.h"
#include "persist/env.h"
#include "persist/fail_fs.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace rdfrel::persist {
namespace {

TEST(PersistTestCrc, KnownValuesAndMasking) {
  // CRC32C("123456789") is the classic check value.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  uint32_t c = Crc32c("some payload");
  EXPECT_NE(MaskCrc(c), c);
  EXPECT_EQ(UnmaskCrc(MaskCrc(c)), c);
}

TEST(PersistTestCrc, Incremental) {
  EXPECT_EQ(Crc32c("6789", Crc32c("12345")), Crc32c("123456789"));
}

TEST(PersistTestCoding, RoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0xDEADBEEF);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutI64(&buf, -42);
  PutDouble(&buf, 2.5);
  PutString(&buf, "hello");
  PutString(&buf, "");

  ByteReader r(buf);
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_EQ(r.ReadDouble().value(), 2.5);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(PersistTestCoding, TruncationIsDataLoss) {
  std::string buf;
  PutString(&buf, "hello");
  const std::string short_by_one = buf.substr(0, buf.size() - 1);
  ByteReader r(short_by_one);
  EXPECT_TRUE(r.ReadString().status().IsDataLoss());
  const std::string length_prefix_only = buf.substr(0, 2);
  ByteReader r2(length_prefix_only);
  EXPECT_TRUE(r2.ReadString().status().IsDataLoss());
  ByteReader r3(std::string_view{});
  EXPECT_TRUE(r3.ReadU64().status().IsDataLoss());
}

TEST(PersistTestSnapshot, RoundTrip) {
  SnapshotSections in;
  in[1] = "meta-bytes";
  in[2] = std::string("\x00\x01\x02", 3);
  in[7] = "";
  std::string file = EncodeSnapshot(in);
  auto out = DecodeSnapshot(file);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST(PersistTestSnapshot, EveryCorruptedByteIsDetected) {
  SnapshotSections in;
  in[1] = "meta";
  in[2] = "payload-payload-payload";
  std::string file = EncodeSnapshot(in);
  // Flip one bit at every offset: decode must fail (or, for bits inside
  // unused padding — there is none in this format — still match).
  for (size_t i = 0; i < file.size(); ++i) {
    std::string bad = file;
    bad[i] ^= 1;
    auto out = DecodeSnapshot(bad);
    EXPECT_FALSE(out.ok()) << "flip at offset " << i << " undetected";
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsDataLoss()) << out.status().ToString();
    }
  }
  // Truncation at every length.
  for (size_t len = 0; len < file.size(); ++len) {
    auto out = DecodeSnapshot(std::string_view(file).substr(0, len));
    EXPECT_FALSE(out.ok()) << "truncation to " << len << " undetected";
  }
}

TEST(PersistTestSnapshot, FileRoundTripThroughEnv) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("d").ok());
  SnapshotSections in;
  in[4] = "catalog";
  ASSERT_TRUE(WriteSnapshotFile(&env, "d/snapshot-1.snap", in).ok());
  // The tmp file must not linger.
  auto names = env.ListDir("d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  auto out = ReadSnapshotFile(&env, "d/snapshot-1.snap");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(PersistTestWal, AppendAndReplay) {
  MemEnv env;
  WalOptions opts;
  opts.sync = WalSync::kEveryRecord;
  auto w = WalWriter::Create(&env, "wal-1.log", 10, opts);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ((*w)->Append(1, "first").value(), 10u);
  EXPECT_EQ((*w)->Append(2, "second").value(), 11u);
  EXPECT_EQ((*w)->Append(1, "").value(), 12u);
  ASSERT_TRUE((*w)->Close().ok());

  auto replay = ReadWalFile(&env, "wal-1.log", 10);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn);
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].lsn, 10u);
  EXPECT_EQ(replay->records[0].type, 1);
  EXPECT_EQ(replay->records[0].payload, "first");
  EXPECT_EQ(replay->records[2].lsn, 12u);
  EXPECT_EQ(replay->valid_bytes, replay->file_bytes);
}

TEST(PersistTestWal, TornTailAtEveryTruncationPoint) {
  MemEnv env;
  WalOptions opts;
  opts.sync = WalSync::kEveryRecord;
  auto w = WalWriter::Create(&env, "wal-1.log", 1, opts).value();
  const uint64_t header_end = env.FileSize("wal-1.log").value();
  std::vector<uint64_t> clean_sizes;  // file size after each append
  ASSERT_TRUE(w->Append(1, "alpha").ok());
  clean_sizes.push_back(env.FileSize("wal-1.log").value());
  ASSERT_TRUE(w->Append(1, "beta").ok());
  clean_sizes.push_back(env.FileSize("wal-1.log").value());
  ASSERT_TRUE(w->Append(1, "gamma").ok());
  ASSERT_TRUE(w->Close().ok());
  const std::string full = env.ReadFile("wal-1.log").value();

  for (uint64_t len = 0; len <= full.size(); ++len) {
    env.SetFile("wal-1.log", full.substr(0, len));
    auto replay = ReadWalFile(&env, "wal-1.log", 1);
    if (len < header_end) {
      // The header itself may be cut: that is an error, not a torn tail.
      if (!replay.ok()) continue;
    }
    ASSERT_TRUE(replay.ok()) << "len=" << len;
    // The number of recovered records equals the number of fully
    // contained appends.
    size_t want = 0;
    while (want < clean_sizes.size() && clean_sizes[want] <= len) ++want;
    if (len == full.size()) want = 3;
    EXPECT_EQ(replay->records.size(), want) << "len=" << len;
    // A cut exactly at a record boundary is indistinguishable from a
    // clean shorter log, so only mid-record cuts report a torn tail.
    const bool at_boundary =
        len == full.size() || len == header_end ||
        std::find(clean_sizes.begin(), clean_sizes.end(), len) !=
            clean_sizes.end();
    EXPECT_EQ(replay->torn, !at_boundary) << "len=" << len;
    // Trust must end exactly at the last clean boundary.
    if (replay->torn) {
      uint64_t boundary =
          want == 0 ? replay->valid_bytes : clean_sizes[want - 1];
      EXPECT_EQ(replay->valid_bytes, boundary) << "len=" << len;
    }
  }
}

TEST(PersistTestWal, CorruptMiddleRecordEndsTrustBeforeIt) {
  MemEnv env;
  WalOptions opts;
  opts.sync = WalSync::kEveryRecord;
  auto w = WalWriter::Create(&env, "wal-1.log", 1, opts).value();
  ASSERT_TRUE(w->Append(1, "alpha").ok());
  uint64_t first_end = env.FileSize("wal-1.log").value();
  ASSERT_TRUE(w->Append(1, "beta").ok());
  ASSERT_TRUE(w->Close().ok());
  std::string bytes = env.ReadFile("wal-1.log").value();
  bytes[first_end + 9] ^= 0x40;  // inside the second record
  env.SetFile("wal-1.log", bytes);

  auto replay = ReadWalFile(&env, "wal-1.log", 1);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->torn);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "alpha");
  EXPECT_EQ(replay->valid_bytes, first_end);
}

TEST(PersistTestWal, LsnGapStopsReplay) {
  // A reader expecting LSN 5 must not accept a file starting at 7.
  MemEnv env;
  WalOptions opts;
  opts.sync = WalSync::kEveryRecord;
  auto w = WalWriter::Create(&env, "wal-1.log", 7, opts).value();
  ASSERT_TRUE(w->Append(1, "x").ok());
  ASSERT_TRUE(w->Close().ok());
  auto replay = ReadWalFile(&env, "wal-1.log", 5);
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(replay.status().IsDataLoss()) << replay.status().ToString();
}

TEST(PersistTestWal, GroupCommitDurabilityAndStats) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);  // counters only, no fault
  WalOptions opts;
  opts.sync = WalSync::kGroupCommit;
  opts.group_commit_interval_ms = 1;
  auto w = WalWriter::Create(&env, "wal-1.log", 1, opts).value();
  uint64_t header_syncs = env.sync_count();

  constexpr int kThreads = 4, kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = w->Append(1, std::string("t").append(std::to_string(t)));
        ASSERT_TRUE(lsn.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(w->Close().ok());

  EXPECT_EQ(w->appended_records(), kThreads * kPerThread);
  // Group commit must have amortized fsyncs below one per record.
  EXPECT_LT(env.sync_count() - header_syncs,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(w->group_commit_batches(), 0u);
  EXPECT_EQ(w->group_commit_records(), w->appended_records());

  auto replay = ReadWalFile(&env, "wal-1.log", 1);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->torn);
  EXPECT_EQ(replay->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(PersistTestFaultEnv, TruncateAfterOffset) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kTruncateAfter;
  spec.path_substr = "victim";
  spec.offset = 6;
  env.set_fault(spec);

  auto f = env.NewWritableFile("victim.log", true).value();
  ASSERT_TRUE(f->Append("0123").ok());   // fully below the offset
  ASSERT_TRUE(f->Append("4567").ok());   // straddles: only "45" lands
  ASSERT_TRUE(f->Append("89").ok());     // fully beyond: dropped
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(mem.ReadFile("victim.log").value(), "012345");
  EXPECT_GE(env.faults_injected(), 2u);

  // Non-matching paths are untouched.
  auto g = env.NewWritableFile("other.log", true).value();
  ASSERT_TRUE(g->Append("0123456789").ok());
  ASSERT_TRUE(g->Close().ok());
  EXPECT_EQ(mem.ReadFile("other.log").value(), "0123456789");
}

TEST(PersistTestFaultEnv, DropWriteAndBitFlip) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  FaultSpec spec;
  spec.mode = FaultSpec::Mode::kDropWrite;
  spec.offset = 5;
  env.set_fault(spec);
  auto f = env.NewWritableFile("a", true).value();
  ASSERT_TRUE(f->Append("0123").ok());
  ASSERT_TRUE(f->Append("45").ok());  // covers offset 5: dropped
  ASSERT_TRUE(f->Append("67").ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(mem.ReadFile("a").value(), "012367");

  FaultSpec flip;
  flip.mode = FaultSpec::Mode::kBitFlip;
  flip.offset = 2;
  env.set_fault(flip);
  auto h = env.NewWritableFile("b", true).value();
  ASSERT_TRUE(h->Append("AAAA").ok());
  ASSERT_TRUE(h->Close().ok());
  EXPECT_EQ(mem.ReadFile("b").value(), std::string("AA") + char('A' ^ 1) +
                                           "A");
  EXPECT_EQ(env.faults_injected(), 2u);
}

}  // namespace
}  // namespace rdfrel::persist
