// Unit tests for the simulated-SSD versioned log (store::VersionedLog):
// crash-boundary durability semantics in isolation from the protocol
// stack. The invariants pinned here are the ones total-failure recovery
// leans on: staged records are never acknowledged early, a crash mid-flush
// keeps only whole sectors (a record straddling the last sector is torn),
// cold starts are no-ops, and recovery and the ragged trim keep the
// surviving records byte for byte.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "store/versioned_log.hpp"

namespace spindle::store {
namespace {

std::vector<std::byte> payload_of(std::size_t size, std::byte fill) {
  return std::vector<std::byte>(size, fill);
}

// The payload stage() gives its `i`-th record.
std::vector<std::byte> staged_payload(std::size_t i, std::uint64_t extent) {
  return payload_of(extent - kRecordHeaderBytes,
                    std::byte{static_cast<unsigned char>(i)});
}

// Stage `n` records whose on-media extent is exactly `extent` bytes each.
void stage(VersionedLog& log, std::size_t n, std::uint64_t extent,
           std::int64_t first_seq = 0) {
  ASSERT_GE(extent, kRecordHeaderBytes);
  for (std::size_t i = 0; i < n; ++i) {
    log.append(first_seq + static_cast<std::int64_t>(i), /*sender=*/0,
               /*index=*/static_cast<std::int64_t>(i),
               staged_payload(i, extent));
  }
}

// Byte-compare every surviving record's payload with what was appended.
void expect_payloads(const VersionedLog& log,
                     const std::vector<std::vector<std::byte>>& want) {
  ASSERT_EQ(log.records().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(log.records()[i].payload, want[i]) << "record " << i;
  }
}

TEST(VersionedLog, StagedRecordsAreVisibleButNotDurable) {
  VersionedLog log;
  log.open_epoch(0);
  stage(log, 3, 256);
  // Write-behind optimistic view: immediately readable...
  EXPECT_EQ(log.size(), 3u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records()[2].payload, staged_payload(2, 256));
  // ...but nothing is durable until a flush commits.
  EXPECT_EQ(log.committed_size(), 0u);
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.flush_commit();
  EXPECT_EQ(log.committed_size(), 3u);
}

TEST(VersionedLog, CrashBeforeFlushLosesEverythingStaged) {
  // "The Completion Fallacy": a posted write the device never started on
  // is not stable storage. No flush was in flight, so the staged suffix
  // vanishes entirely at recovery.
  VersionedLog log;
  log.open_epoch(0);
  log.append_committed(0, 0, 0, payload_of(32, std::byte{1}));
  stage(log, 4, 256, /*first_seq=*/1);
  log.note_crash(/*now=*/500);
  EXPECT_EQ(log.recover(), 4u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.committed_size(), 1u);
  EXPECT_EQ(log.torn_records(), 4u);
  expect_payloads(log, {payload_of(32, std::byte{1})});
}

TEST(VersionedLog, CrashMidFlushKeepsWholeSectorsOnly) {
  // Four 256-byte records in one batch, sector 512, crash 62.5% through
  // the flush: the device reached 640 raw bytes but persists only the
  // whole sector below it (512), i.e. exactly two records.
  static_assert(kSectorBytes == 512);
  VersionedLog log;
  log.open_epoch(0);
  stage(log, 4, 256);
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.note_crash(/*now=*/625);
  EXPECT_EQ(log.recover(), 2u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.committed_size(), 2u);
  EXPECT_EQ(log.torn_records(), 2u);
  expect_payloads(log, {staged_payload(0, 256), staged_payload(1, 256)});
}

TEST(VersionedLog, RecordStraddlingTheLastSectorIsTorn) {
  // Second record (384-byte extent) straddles the 512-byte sector the
  // device reached: it is torn and dropped even though most of its bytes
  // hit media. Only the first record survives.
  VersionedLog log;
  log.open_epoch(0);
  log.append(0, 0, 0, payload_of(256 - kRecordHeaderBytes, std::byte{0}));
  log.append(1, 0, 1, payload_of(384 - kRecordHeaderBytes, std::byte{1}));
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.note_crash(/*now=*/850);  // frac 0.85 of 640 bytes -> 544 raw -> 512
  EXPECT_EQ(log.recover(), 1u);
  EXPECT_EQ(log.size(), 1u);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].seq, 0);
  expect_payloads(log, {payload_of(256 - kRecordHeaderBytes, std::byte{0})});
}

TEST(VersionedLog, OnlyTheFirstCrashOfALifeCounts) {
  // note_crash is idempotent: a second crash note (the injector firing a
  // redundant total_failure event on an already-dead node) must not move
  // the survivor boundary.
  VersionedLog log;
  log.open_epoch(0);
  stage(log, 4, 256);
  log.flush_begin(/*now=*/0, /*eta=*/1000);
  log.note_crash(/*now=*/625);
  log.note_crash(/*now=*/999);  // later instant; must be ignored
  EXPECT_TRUE(log.crash_noted());
  EXPECT_EQ(log.recover(), 2u);
  EXPECT_EQ(log.size(), 2u);
  expect_payloads(log, {staged_payload(0, 256), staged_payload(1, 256)});
}

TEST(VersionedLog, ColdStartRecoveryIsANoOp) {
  VersionedLog log;
  log.open_epoch(0);
  EXPECT_EQ(log.recover(), 0u);
  EXPECT_EQ(log.size(), 0u);
  // A restart of a process whose last flush completed keeps everything.
  log.append_committed(0, 0, 0, payload_of(32, std::byte{7}));
  EXPECT_EQ(log.recover(), 0u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.committed_size(), 1u);
}

TEST(VersionedLog, VersionVectorCountsCommittedRecordsPerEpoch) {
  VersionedLog log;
  log.open_epoch(0);
  log.append_committed(0, 0, 0, payload_of(32, std::byte{0}));
  log.append_committed(1, 1, 0, payload_of(32, std::byte{1}));
  log.open_epoch(1);
  log.append_committed(2, 0, 1, payload_of(32, std::byte{2}));
  stage(log, 2, 64, /*first_seq=*/3);  // staged: must not be announced
  const auto vv = log.version_vector();
  ASSERT_EQ(vv.size(), 2u);
  EXPECT_EQ(vv[0], (std::pair<std::uint32_t, std::uint64_t>{0, 2}));
  EXPECT_EQ(vv[1], (std::pair<std::uint32_t, std::uint64_t>{1, 1}));
}

TEST(VersionedLog, RaggedTrimKeepsThePrefix) {
  VersionedLog log;
  log.open_epoch(0);
  std::vector<std::vector<std::byte>> appended;
  for (std::size_t i = 0; i < 5; ++i) {
    appended.push_back(
        payload_of(32 + i, std::byte{static_cast<unsigned char>(i)}));
    log.append_committed(static_cast<std::int64_t>(i), 0,
                         static_cast<std::int64_t>(i), appended.back());
  }
  log.truncate_records(3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.committed_size(), 3u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().back().seq, 2);
  appended.resize(3);
  expect_payloads(log, appended);
  // Trimming past the end is a no-op.
  log.truncate_records(10);
  EXPECT_EQ(log.size(), 3u);
  expect_payloads(log, appended);
}

}  // namespace
}  // namespace spindle::store
