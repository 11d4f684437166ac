#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "smc/ring.hpp"

namespace spindle::smc {
namespace {

struct RingFixture : ::testing::Test {
  sim::Engine engine;
  net::TimingModel timing;
  net::Fabric fabric{engine, timing, 3};
  std::vector<std::unique_ptr<RingGroup>> rings;
  static constexpr std::uint32_t kWindow = 4;
  static constexpr std::uint32_t kMsg = 64;

  void SetUp() override {
    std::vector<net::NodeId> members{0, 1, 2};
    // Nodes 0 and 1 are senders (sender indices 0 and 1); node 2 receives.
    for (net::NodeId id : members) {
      const std::size_t sender_idx = id < 2 ? id : SIZE_MAX;
      rings.push_back(std::make_unique<RingGroup>(
          fabric, id, members, sender_idx, 2, kWindow, kMsg));
    }
    std::vector<RingGroup*> ptrs;
    for (auto& r : rings) ptrs.push_back(r.get());
    RingGroup::connect(ptrs);
  }

  std::vector<std::size_t> peers_of_0{1, 2};

  void write_msg(RingGroup& ring, std::int64_t idx, char fill,
                 std::uint32_t len = kMsg) {
    auto slot = ring.slot_data(idx);
    std::memset(slot.data(), fill, len);
    ring.mark_ready(idx, len, 0);
  }
};

TEST_F(RingFixture, TrailerAnnouncesMessageMonotonically) {
  EXPECT_EQ(rings[0]->trailer(0, 0).count, 0);
  write_msg(*rings[0], 0, 'a');
  const SlotTrailer t = rings[0]->trailer(0, 0);
  EXPECT_EQ(t.count, 1);
  EXPECT_EQ(t.len, kMsg);
  EXPECT_EQ(t.flags, 0u);
}

TEST_F(RingFixture, PushDataThenTrailersDeliversMessage) {
  write_msg(*rings[0], 0, 'x', 10);
  sim::Nanos cost = rings[0]->push_data(0, 1, peers_of_0);
  cost += rings[0]->push_trailers(0, 1, peers_of_0);
  EXPECT_GT(cost, 0);
  engine.run();
  // Receiver (node 2) sees the announcement and the payload.
  EXPECT_EQ(rings[2]->trailer(0, 0).count, 1);
  EXPECT_EQ(rings[2]->trailer(0, 0).len, 10u);
  auto msg = rings[2]->message(0, 0, 10);
  EXPECT_EQ(msg[0], static_cast<std::byte>('x'));
  EXPECT_EQ(msg[9], static_cast<std::byte>('x'));
  // Sender index 1's row is untouched.
  EXPECT_EQ(rings[2]->trailer(1, 0).count, 0);
}

TEST_F(RingFixture, BatchedPushIsOneWritePairPerTarget) {
  for (std::int64_t i = 0; i < 3; ++i) write_msg(*rings[0], i, 'b');
  const auto before = fabric.stats(0).writes_posted;
  rings[0]->push_data(0, 3, peers_of_0);
  rings[0]->push_trailers(0, 3, peers_of_0);
  // 3 messages, 2 targets: 2 data writes + 2 trailer writes, not 12.
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 4);
  engine.run();
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rings[1]->trailer(0, i).count, i + 1);
  }
}

TEST_F(RingFixture, WraparoundSplitsIntoTwoWritesPerTarget) {
  // Fill indices 2..5: slots 2,3,0,1 — wraps after slot 3.
  for (std::int64_t i = 0; i < 6; ++i) write_msg(*rings[0], i, 'c');
  std::vector<std::size_t> one_peer{2};
  const auto before = fabric.stats(0).writes_posted;
  rings[0]->push_data(2, 6, one_peer);
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 2);
  rings[0]->push_trailers(2, 6, one_peer);
  EXPECT_EQ(fabric.stats(0).writes_posted, before + 4);
  engine.run();
  for (std::int64_t i = 2; i < 6; ++i) {
    EXPECT_EQ(rings[2]->trailer(0, i).count, i + 1);
  }
}

TEST_F(RingFixture, SlotReuseOverwritesOldTrailer) {
  write_msg(*rings[0], 0, 'o');
  write_msg(*rings[0], static_cast<std::int64_t>(kWindow), 'n');  // same slot
  const SlotTrailer t = rings[0]->trailer(0, kWindow);
  EXPECT_EQ(t.count, kWindow + 1);
  // Reading the old index maps to the same slot and shows the *new* count —
  // exactly why the protocol must not reuse a slot before delivery.
  EXPECT_EQ(rings[0]->trailer(0, 0).count, kWindow + 1);
}

TEST_F(RingFixture, NullAnnouncementIsTrailerOnly) {
  rings[0]->mark_ready(0, 0, kNullFlag);
  const auto before_bytes = fabric.stats(0).bytes_posted;
  rings[0]->push_trailers(0, 1, peers_of_0);
  // 16-byte trailer per target, no payload bytes.
  EXPECT_EQ(fabric.stats(0).bytes_posted, before_bytes + 2 * sizeof(SlotTrailer));
  engine.run();
  const SlotTrailer t = rings[2]->trailer(0, 0);
  EXPECT_EQ(t.count, 1);
  EXPECT_EQ(t.flags, kNullFlag);
  EXPECT_EQ(t.len, 0u);
}

TEST_F(RingFixture, MemoryAccountingMatchesPaperFormula) {
  // §4.1.2: total slot space per node ~ senders * w * (m + 16 here).
  // Our layout separates trailers, so row = w*stride + w*16.
  const std::size_t expected = 2 * (kWindow * kMsg + kWindow * 16);
  EXPECT_EQ(rings[0]->memory_bytes(), expected);
}

TEST_F(RingFixture, OneByteMessagesKeepTrailersAligned) {
  std::vector<net::NodeId> members{0, 1};
  sim::Engine eng2;
  net::Fabric fab2(eng2, timing, 2);
  RingGroup a(fab2, 0, members, 0, 1, 3, 1);
  RingGroup b(fab2, 1, members, SIZE_MAX, 1, 3, 1);
  RingGroup* ptrs[] = {&a, &b};
  RingGroup::connect(ptrs);
  auto slot = a.slot_data(0);
  slot[0] = static_cast<std::byte>(7);
  a.mark_ready(0, 1, 0);
  std::vector<std::size_t> target{1};
  a.push_data(0, 1, target);
  a.push_trailers(0, 1, target);
  eng2.run();
  EXPECT_EQ(b.trailer(0, 0).count, 1);
  EXPECT_EQ(b.message(0, 0, 1)[0], static_cast<std::byte>(7));
}

TEST_F(RingFixture, EmptyRangePushIsFree) {
  EXPECT_EQ(rings[0]->push_data(5, 5, peers_of_0), 0);
  EXPECT_EQ(rings[0]->push_trailers(5, 5, peers_of_0), 0);
}

// A data push lands only each slot's message bytes, while the wire model
// (bytes charged, landing time) still sees whole slots.
TEST(RingLiveExtents, DataPushLandsMessageBytesOnlyAndChargesWholeSlots) {
  constexpr std::uint32_t kSlot = 4096;
  std::vector<net::NodeId> members{0, 1};
  sim::Engine eng;
  net::TimingModel timing;
  net::Fabric fab(eng, timing, 2);
  RingGroup a(fab, 0, members, 0, 1, 4, kSlot);
  RingGroup b(fab, 1, members, SIZE_MAX, 1, 4, kSlot);
  RingGroup* ptrs[] = {&a, &b};
  RingGroup::connect(ptrs);

  // Stale bytes fill the sender's slots beyond each message: they must not
  // reach the receiver.
  const std::uint32_t lens[] = {256, 100};
  const char fills[] = {'p', 'q'};
  for (std::int64_t k = 0; k < 2; ++k) {
    auto slot = a.slot_data(k);
    std::memset(slot.data(), 0xee, slot.size());
    std::memset(slot.data(), fills[k], lens[k]);
    a.mark_ready(k, lens[k], 0);
  }
  std::vector<std::size_t> target{1};
  const auto before = fab.stats(0).bytes_posted;
  a.push_data(0, 2, target);
  EXPECT_EQ(fab.stats(0).bytes_posted - before, 2u * kSlot);
  EXPECT_EQ(fab.payload_stats().bytes_copied, 256u + 100u);
  eng.run();
  const sim::Nanos landed = eng.now();

  for (std::int64_t k = 0; k < 2; ++k) {
    const auto slot = b.message(0, k, kSlot);
    for (std::uint32_t i = 0; i < kSlot; ++i) {
      const auto want =
          i < lens[k] ? static_cast<std::byte>(fills[k]) : std::byte{0};
      ASSERT_EQ(slot[i], want) << "message " << k << " byte " << i;
    }
  }

  // Twin fabric: a plain post of the same span size lands at the same time.
  sim::Engine eng2;
  net::Fabric fab2(eng2, timing, 2);
  std::vector<std::byte> src(2 * kSlot), dst(2 * kSlot);
  const net::RegionId region = fab2.register_region(1, dst);
  fab2.post_write(0, region, 0, src);
  eng2.run();
  EXPECT_EQ(eng2.now(), landed);
  EXPECT_EQ(fab2.stats(0).bytes_posted, 2u * kSlot);
}

/// mincore() residency of every page that [base, base + len) overlaps: one
/// entry per page, bit 0 set when resident. Empty if the range is unmapped.
std::vector<unsigned char> residency(const std::byte* base, std::size_t len) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(base) & ~(page - 1);
  const auto end = reinterpret_cast<std::uintptr_t>(base) + len;
  std::vector<unsigned char> vec((end - begin + page - 1) / page);
  if (::mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()) !=
      0) {
    vec.clear();
  }
  return vec;
}

std::size_t resident_pages(const std::byte* base, std::size_t len) {
  const std::vector<unsigned char> vec = residency(base, len);
  EXPECT_FALSE(vec.empty()) << "range not mapped";
  std::size_t n = 0;
  for (unsigned char v : vec) n += v & 1u;
  return n;
}

// Ring memory is committed on first touch: a new ring has no resident data
// page, and k small messages commit at most k data pages at the receiver.
TEST(RingLiveExtents, ReceiverCommitsOnlyTouchedPages) {
  constexpr std::uint32_t kWindow = 16;
  constexpr std::uint32_t kSlot = 10240;  // paper default: 2.5 pages
  constexpr std::int64_t kPushes = 3;
  std::vector<net::NodeId> members{0, 1};
  sim::Engine eng;
  net::TimingModel timing;
  net::Fabric fab(eng, timing, 2);
  RingGroup a(fab, 0, members, 0, 1, kWindow, kSlot);
  RingGroup b(fab, 1, members, SIZE_MAX, 1, kWindow, kSlot);
  RingGroup* ptrs[] = {&a, &b};
  RingGroup::connect(ptrs);

  // One sender row: window data slots, then window trailers.
  const std::byte* base = b.message(0, 0, 0).data();
  const std::size_t data_bytes = std::size_t{kWindow} * kSlot;
  const std::size_t trailer_bytes = b.memory_bytes() - data_bytes;
  const std::size_t trailer_pages =
      residency(base + data_bytes, trailer_bytes).size();
  EXPECT_EQ(resident_pages(base, data_bytes), 0u);

  std::vector<std::size_t> target{1};
  for (std::int64_t k = 0; k < kPushes; ++k) {
    auto slot = a.slot_data(k);
    std::memset(slot.data(), 'm', 256);
    a.mark_ready(k, 256, 0);
    a.push_data(k, k + 1, target);
    a.push_trailers(k, k + 1, target);
    eng.run();
    ASSERT_EQ(b.trailer(0, k).count, k + 1);
  }
  const std::size_t data_resident = resident_pages(base, data_bytes);
  EXPECT_GE(data_resident, 1u);
  EXPECT_LE(data_resident, static_cast<std::size_t>(kPushes));
  EXPECT_LE(resident_pages(base, b.memory_bytes()),
            static_cast<std::size_t>(kPushes) + trailer_pages);
}

}  // namespace
}  // namespace spindle::smc
