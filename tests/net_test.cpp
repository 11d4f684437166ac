#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "net/registered_memory.hpp"

namespace spindle::net {
namespace {

struct FabricFixture : ::testing::Test {
  sim::Engine engine;
  TimingModel timing;
  Fabric fabric{engine, timing, 4};

  std::vector<std::byte> mem_a = std::vector<std::byte>(4096);
  std::vector<std::byte> mem_b = std::vector<std::byte>(4096);
  RegionId region_a, region_b;

  void SetUp() override {
    region_a = fabric.register_region(0, mem_a);
    region_b = fabric.register_region(1, mem_b);
  }

  static std::vector<std::byte> bytes(std::initializer_list<int> v) {
    std::vector<std::byte> out;
    for (int x : v) out.push_back(static_cast<std::byte>(x));
    return out;
  }
};

TEST_F(FabricFixture, WriteLandsAtDestinationAfterLatency) {
  auto payload = bytes({1, 2, 3, 4});
  const sim::Nanos cost = fabric.post_write(0, region_b, 100, payload);
  EXPECT_EQ(cost, timing.post_cpu_first);
  EXPECT_EQ(mem_b[100], std::byte{0});  // not yet visible
  engine.run();
  EXPECT_EQ(mem_b[100], std::byte{1});
  EXPECT_EQ(mem_b[103], std::byte{4});
  // Delivery time ~ post cost + isolated latency.
  const sim::Nanos expect = cost + timing.isolated_latency(4);
  EXPECT_NEAR(static_cast<double>(engine.now()), static_cast<double>(expect),
              static_cast<double>(timing.nic_min_occupancy));
}

TEST_F(FabricFixture, LatencyModelMatchesPaperFigure1) {
  // Paper: 1.73 us at 1 B, 2.46 us at 4 KB, nearly flat in between.
  const double lat_1b = static_cast<double>(timing.isolated_latency(1));
  const double lat_4k = static_cast<double>(timing.isolated_latency(4096));
  EXPECT_NEAR(lat_1b, 1730.0, 60.0);
  EXPECT_NEAR(lat_4k, 2460.0, 80.0);
  EXPECT_LT(lat_4k / lat_1b, 1.6);  // "nearly constant"
}

TEST_F(FabricFixture, PerLinkFifoEvenWhenSmallFollowsLarge) {
  // A large write followed by a tiny one on the same link must not be
  // overtaken (RDMA memory-fence guarantee the SST depends on).
  std::vector<std::byte> big(3000, std::byte{7});
  auto small = bytes({9});
  std::vector<int> order;
  fabric.post_write(0, region_b, 0, big);
  fabric.post_write(0, region_b, 4000, small);
  bool small_after_big = false;
  engine.run_until([&] {
    if (mem_b[4000] == std::byte{9}) {
      small_after_big = mem_b[2999] == std::byte{7};
      return true;
    }
    return false;
  });
  EXPECT_TRUE(small_after_big);
}

TEST_F(FabricFixture, BurstPostsAreCheaper) {
  auto payload = bytes({1});
  const sim::Nanos first = fabric.post_write(0, region_b, 0, payload);
  const sim::Nanos second = fabric.post_write(0, region_b, 8, payload);
  EXPECT_EQ(first, timing.post_cpu_first);
  EXPECT_EQ(second, timing.post_cpu_next);
  engine.run();
  // After the burst, a fresh post is expensive again.
  const sim::Nanos later = fabric.post_write(0, region_b, 16, payload);
  EXPECT_EQ(later, timing.post_cpu_first);
  engine.run();
}

TEST_F(FabricFixture, EgressSerializesAtLineRate) {
  // Two 10 KB writes back to back: second delivery roughly one occupancy
  // later than the first.
  std::vector<std::byte> buf(10240, std::byte{5});
  fabric.post_write(0, region_b, 0, std::span<const std::byte>(buf.data(), 1024));
  std::vector<sim::Nanos> deliveries;
  // Track deliveries via doorbell signals.
  engine.spawn([](sim::Engine& e, Fabric& f,
                  std::vector<sim::Nanos>& d) -> sim::Co<> {
    while (d.size() < 2) {
      if (co_await f.doorbell(1).wait_for(sim::millis(1))) {
        d.push_back(e.now());
      } else {
        co_return;
      }
    }
  }(engine, fabric, deliveries));
  fabric.post_write(0, region_b, 2048, std::span<const std::byte>(buf.data(), 1024));
  engine.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const sim::Nanos gap = deliveries[1] - deliveries[0];
  EXPECT_GE(gap, timing.occupancy(1024) - 5);
}

TEST_F(FabricFixture, IsolatedNodeTrafficIsDropped) {
  auto payload = bytes({42});
  fabric.isolate(1);
  fabric.post_write(0, region_b, 0, payload);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});
  EXPECT_TRUE(fabric.is_isolated(1));
  EXPECT_FALSE(fabric.is_isolated(0));
}

TEST_F(FabricFixture, InFlightWriteToCrashedNodeDropped) {
  auto payload = bytes({42});
  fabric.post_write(0, region_b, 0, payload);
  fabric.isolate(1);  // crash while in flight
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});
}

TEST_F(FabricFixture, StatsCountPostsAndDeliveries) {
  auto payload = bytes({1, 2});
  fabric.post_write(0, region_b, 0, payload);
  fabric.post_write(0, region_b, 8, payload);
  engine.run();
  EXPECT_EQ(fabric.stats(0).writes_posted, 2u);
  EXPECT_EQ(fabric.stats(0).bytes_posted, 4u);
  EXPECT_EQ(fabric.stats(1).writes_delivered, 2u);
  EXPECT_GT(fabric.stats(0).post_cpu, 0);
}

TEST_F(FabricFixture, DoorbellSignalsOnDelivery) {
  bool rang = false;
  engine.spawn([](Fabric& f, bool& r) -> sim::Co<> {
    r = co_await f.doorbell(1).wait_for(sim::millis(1));
  }(fabric, rang));
  auto payload = bytes({1});
  fabric.post_write(0, region_b, 0, payload);
  engine.run();
  EXPECT_TRUE(rang);
}

TEST_F(FabricFixture, LoopbackWriteIsImmediate) {
  auto payload = bytes({5});
  auto region_self = fabric.register_region(0, mem_a);
  fabric.post_write(0, region_self, 7, payload);
  EXPECT_EQ(mem_a[7], std::byte{5});  // visible without running the engine
}

TEST_F(FabricFixture, ControlWritesOvertakeBulkData) {
  // A tiny control write (its own QP) posted after a large bulk write to
  // the same destination arrives first — the Derecho SST/SMC separation.
  std::vector<std::byte> bulk_dst(512 * 1024);
  std::vector<std::byte> ctl_dst(64);
  auto bulk_region = fabric.register_region(1, bulk_dst);
  auto control_region = fabric.register_region(1, ctl_dst, Channel::control);
  std::vector<std::byte> big(512 * 1024, std::byte{7});
  fabric.post_write(0, bulk_region, 0, big);  // ~41us of line time
  auto small = bytes({9});
  fabric.post_write(0, control_region, 0, small);
  bool control_first = false;
  engine.run_until([&] {
    if (ctl_dst[0] == std::byte{9}) {
      control_first = bulk_dst[1000] != std::byte{7};
      return true;
    }
    return bulk_dst[1000] == std::byte{7};  // bulk landed first: fail
  });
  EXPECT_TRUE(control_first);
  engine.run();
}

TEST_F(FabricFixture, SharedChannelAblationDisablesOvertaking) {
  TimingModel shared = timing;
  shared.separate_control_channel = false;
  sim::Engine eng2;
  Fabric fab2(eng2, shared, 2);
  std::vector<std::byte> dst_bulk(1 << 20), dst_ctl(64);
  auto rb = fab2.register_region(1, dst_bulk, Channel::bulk);
  auto rc = fab2.register_region(1, dst_ctl, Channel::control);
  std::vector<std::byte> big(512 * 1024, std::byte{7});
  fab2.post_write(0, rb, 0, big);
  auto small = std::vector<std::byte>{std::byte{9}};
  fab2.post_write(0, rc, 0, small);
  bool bulk_first = false;
  eng2.run_until([&] {
    if (dst_bulk[1000] == std::byte{7}) {
      bulk_first = dst_ctl[0] != std::byte{9};
      return true;
    }
    return dst_ctl[0] == std::byte{9};
  });
  EXPECT_TRUE(bulk_first) << "without separate QPs the ack must queue";
  eng2.run();
}

// ---------------------------------------------------------------------------
// Fan-out posts: one shared payload snapshot per post
// ---------------------------------------------------------------------------

struct FanOutFixture : FabricFixture {
  std::vector<std::byte> mem_c = std::vector<std::byte>(4096);
  std::vector<std::byte> mem_d = std::vector<std::byte>(4096);
  std::vector<RegionId> targets;

  void SetUp() override {
    FabricFixture::SetUp();
    targets = {region_b, fabric.register_region(2, mem_c),
               fabric.register_region(3, mem_d)};
  }

  /// Every pooled buffer went back to a free list exactly once: a missed
  /// release leaves a live snapshot, a double release an extra free entry.
  void expect_pool_quiescent() {
    const Fabric::PayloadStats p = fabric.payload_stats();
    EXPECT_EQ(p.live, 0u);
    EXPECT_EQ(p.live_bytes, 0u);
    EXPECT_EQ(p.idle, p.pooled);
  }
};

TEST_F(FanOutFixture, EveryTargetReceivesIdenticalBytes) {
  auto payload = bytes({1, 2, 3, 4, 5});
  const sim::Nanos cost = fabric.post_write(0, targets, 64, payload);
  EXPECT_EQ(cost, timing.post_cpu_first + 2 * timing.post_cpu_next);
  engine.run();
  for (const auto* mem : {&mem_b, &mem_c, &mem_d}) {
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           mem->begin() + 64));
  }
  EXPECT_EQ(fabric.stats(0).writes_posted, 3u);
  EXPECT_EQ(fabric.stats(0).bytes_posted, 15u);
  const Fabric::PayloadStats p = fabric.payload_stats();
  EXPECT_EQ(p.snapshots, 1u);  // one copy, not one per target
  EXPECT_EQ(p.bytes_copied, 5u);
  EXPECT_EQ(p.peak_live, 1u);
  EXPECT_EQ(p.peak_live_bytes, 5u);
  EXPECT_EQ(p.pooled, 1u);
  expect_pool_quiescent();
}

TEST_F(FanOutFixture, LandsWhenPerTargetPostsWould) {
  // The fan-out is the per-target loop with the copy hoisted out: same
  // burst costs, same transmit order, same landing times.
  const auto landing_times = [&](Fabric& f, sim::Engine& e,
                                 const std::vector<RegionId>& dsts,
                                 bool fan_out) {
    std::vector<sim::Nanos> at(4, -1);
    for (NodeId n = 1; n <= 3; ++n) {
      e.spawn([](sim::Engine& eng, Fabric& fab, NodeId node,
                 sim::Nanos& out) -> sim::Co<> {
        if (co_await fab.doorbell(node).wait_for(sim::millis(1))) {
          out = eng.now();
        }
      }(e, f, n, at[n]));
    }
    std::vector<std::byte> big(3000, std::byte{7});
    sim::Nanos cost = 0;
    if (fan_out) {
      cost = f.post_write(0, dsts, 0, big);
    } else {
      for (RegionId r : dsts) cost += f.post_write(0, r, 0, big);
    }
    e.run();
    at[0] = cost;
    return at;
  };
  sim::Engine eng2;
  Fabric fab2(eng2, timing, 4);
  std::vector<std::byte> m1(4096), m2(4096), m3(4096);
  const std::vector<RegionId> singles = {fab2.register_region(1, m1),
                                         fab2.register_region(2, m2),
                                         fab2.register_region(3, m3)};
  const std::vector<sim::Nanos> fanned =
      landing_times(fabric, engine, targets, true);
  for (NodeId n = 1; n <= 3; ++n) EXPECT_GT(fanned[n], fanned[0]);
  EXPECT_EQ(fanned, landing_times(fab2, eng2, singles, false));
  EXPECT_EQ(fabric.payload_stats().snapshots, 1u);
  EXPECT_EQ(fab2.payload_stats().snapshots, 3u);
}

TEST_F(FanOutFixture, SnapshotTakenAtPostTime) {
  auto src = bytes({1, 2, 3, 4});
  fabric.post_write(0, targets, 0, src);
  src.assign(src.size(), std::byte{0x55});  // mutated after the post
  engine.run();
  for (const auto* mem : {&mem_b, &mem_c, &mem_d}) {
    EXPECT_EQ((*mem)[0], std::byte{1});
    EXPECT_EQ((*mem)[3], std::byte{4});
  }
}

TEST_F(FanOutFixture, ReleasedOnceWhenATargetIsIsolatedMidFlight) {
  auto payload = bytes({9, 9});
  fabric.post_write(0, targets, 0, payload);
  fabric.isolate(2);  // one target dies with the write on the wire
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{9});
  EXPECT_EQ(mem_c[0], std::byte{0});
  EXPECT_EQ(mem_d[0], std::byte{9});
  expect_pool_quiescent();
  // The recycled buffer serves the next post: no second allocation.
  fabric.post_write(0, targets, 8, payload);
  engine.run();
  EXPECT_EQ(fabric.payload_stats().pooled, 1u);
  expect_pool_quiescent();
}

TEST_F(FanOutFixture, IsolatedTargetsAtPostTimeShareNoSnapshot) {
  auto payload = bytes({3});
  fabric.isolate(1);
  fabric.isolate(2);
  fabric.isolate(3);
  EXPECT_EQ(fabric.post_write(0, targets, 0, payload),
            timing.post_cpu_first + 2 * timing.post_cpu_next);
  EXPECT_EQ(fabric.payload_stats().snapshots, 0u);  // nothing to stage
  engine.run();
  expect_pool_quiescent();
}

TEST_F(FanOutFixture, ReleasedOnceAfterEgressPauseAndResume) {
  auto payload = bytes({6, 7});
  fabric.pause_egress(0);
  fabric.post_write(0, targets, 0, payload);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});  // queued behind the stalled NIC
  EXPECT_EQ(fabric.payload_stats().live, 1u);
  fabric.resume_egress(0);
  engine.run();
  for (const auto* mem : {&mem_b, &mem_c, &mem_d}) {
    EXPECT_EQ((*mem)[1], std::byte{7});
  }
  expect_pool_quiescent();
}

TEST_F(FanOutFixture, ReleasedOnceWhenATargetDiesWhilePaused) {
  auto payload = bytes({6});
  fabric.pause_egress(0);
  fabric.post_write(0, targets, 0, payload);
  fabric.isolate(3);  // dropped at resume, the others still land
  fabric.resume_egress(0);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{6});
  EXPECT_EQ(mem_d[0], std::byte{0});
  expect_pool_quiescent();
}

TEST_F(FanOutFixture, ReleasedOnceOnCrashWhilePaused) {
  auto payload = bytes({6});
  fabric.pause_egress(0);
  fabric.post_write(0, targets, 0, payload);
  fabric.post_write(0, targets, 8, payload);
  EXPECT_EQ(fabric.payload_stats().live, 2u);
  fabric.isolate(0);  // the stalled send queue dies with the node
  expect_pool_quiescent();
  fabric.resume_egress(0);
  engine.run();
  EXPECT_EQ(mem_b[0], std::byte{0});
  expect_pool_quiescent();
}

TEST(TimingModel, OccupancyScalesWithSize) {
  TimingModel t;
  EXPECT_EQ(t.occupancy(1), t.nic_min_occupancy);
  EXPECT_GT(t.occupancy(1 << 20), t.occupancy(10240));
  // 1 MB at 12.5 GB/s is 80 us of line time.
  EXPECT_NEAR(static_cast<double>(t.occupancy(1 << 20)), 83886.0, 200.0);
}

std::size_t page_bytes() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

bool all_zero(const RegisteredMemory& m) {
  return std::all_of(m.data(), m.data() + m.size(),
                     [](std::byte b) { return b == std::byte{0}; });
}

// Pages of a region resident now (mincore); the region must be mapped.
std::size_t resident_pages(const RegisteredMemory& m) {
  std::vector<unsigned char> vec((m.size() + page_bytes() - 1) /
                                 page_bytes());
  EXPECT_EQ(::mincore(const_cast<std::byte*>(m.data()), m.size(),
                      vec.data()),
            0);
  std::size_t n = 0;
  for (unsigned char v : vec) n += v & 1u;
  return n;
}

// Small and large regions alike read as zeros, start on a page and do not
// overlap; none commits a page before it is touched.
TEST(RegisteredMemory, RegionsArePageAlignedDisjointZeroAndUncommitted) {
  const std::size_t sizes[] = {1, 384, 4096, 5000, 69632, 9u << 20};
  std::vector<std::unique_ptr<RegisteredMemory>> regions;
  for (std::size_t size : sizes) {
    regions.push_back(std::make_unique<RegisteredMemory>(size));
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const RegisteredMemory& m = *regions[i];
    ASSERT_EQ(m.size(), sizes[i]);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % page_bytes(), 0u);
    EXPECT_EQ(resident_pages(m), 0u) << "size " << m.size();
    EXPECT_TRUE(all_zero(m)) << "size " << m.size();
    for (std::size_t j = 0; j < i; ++j) {
      const RegisteredMemory& o = *regions[j];
      EXPECT_TRUE(m.data() + m.size() <= o.data() ||
                  o.data() + o.size() <= m.data());
    }
  }
  RegisteredMemory empty(0);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);
}

// A destroyed region hands its pages back while its slab lives on, and
// space carved again after the slab empties reads as zeros.
TEST(RegisteredMemory, DestroyedRegionDropsItsPagesAndReusedSpaceReadsZero) {
  constexpr std::size_t kSize = 69632;  // 17 pages, like a 16-node ring
  auto keeper = std::make_unique<RegisteredMemory>(kSize);
  auto dead = std::make_unique<RegisteredMemory>(kSize);
  std::memset(dead->data(), 0xab, kSize);
  EXPECT_EQ(resident_pages(*dead), kSize / page_bytes());
  const std::byte* const dead_at = dead->data();
  dead.reset();
  // The keeper holds the slab, so the dead range is still mapped.
  std::vector<unsigned char> vec(kSize / page_bytes());
  ASSERT_EQ(::mincore(const_cast<std::byte*>(dead_at), kSize, vec.data()),
            0);
  EXPECT_TRUE(std::none_of(vec.begin(), vec.end(),
                           [](unsigned char v) { return v & 1u; }));

  // Empty the slab: the next region is carved from its front again.
  std::memset(keeper->data(), 0xcd, kSize);
  const std::byte* const front = keeper->data();
  keeper.reset();
  RegisteredMemory again(kSize);
  EXPECT_EQ(again.data(), front);
  EXPECT_EQ(resident_pages(again), 0u);
  EXPECT_TRUE(all_zero(again));
}

}  // namespace
}  // namespace spindle::net
