// Parallel conservative-lookahead engine (ctest -L parallel).
//
// Three layers of coverage:
//  1. sim::ParallelEngine unit tests — window mechanics (drain, run_to
//     horizons, run_until at window granularity, the idle watchdog), the
//     one-worker engine running its wheel directly, and the refusal of a
//     direct run on one worker of a partitioned engine.
//  2. Byte-identity cross-checks: the three determinism-lock cluster
//     configurations (tests/determinism_lock_test.cpp) run to a fixed
//     virtual horizon at 1, 2 and 4 workers, and the FULL digest — every
//     per-node delivery record with its virtual timestamp, plus the merged
//     protocol counters — must be identical across worker counts. Since the
//     1-worker run is the plain serial engine (already pinned against the
//     historical goldens by determinism_lock_test), equality here pins the
//     parallel runs to the goldens transitively.
//  3. A chaos slice: cpu stalls, predicate delays, degraded links (latency
//     multipliers >= 1) and jittered links, each identical at 1, 2 and 4
//     workers (link jitter is a per-link counter hash, so its draws do not
//     depend on the worker count). The fabric calls that cannot run across
//     partitions throw on a multi-worker cluster.
//  4. A write posted from the main thread between runs lands at 2 workers
//     exactly as at 1.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/group.hpp"
#include "metrics/metrics.hpp"
#include "sim/parallel.hpp"
#include "digest.hpp"

namespace spindle {
namespace {

// ---------------------------------------------------------------------------
// sim::ParallelEngine units
// ---------------------------------------------------------------------------

TEST(ParallelEngineUnit, DrainRunsEveryWorkerDry) {
  sim::ParallelEngine pe(2, 1'000);
  int fired0 = 0, fired1 = 0;
  // Two independent event chains, one per worker, spanning many windows.
  std::function<void(sim::Nanos)> chain0 = [&](sim::Nanos at) {
    pe.worker(0).schedule_fn(at, [&, at] {
      if (++fired0 < 10) chain0(at + 700);
    });
  };
  std::function<void(sim::Nanos)> chain1 = [&](sim::Nanos at) {
    pe.worker(1).schedule_fn(at, [&, at] {
      if (++fired1 < 10) chain1(at + 1'300);
    });
  };
  chain0(100);
  chain1(250);
  pe.run();
  EXPECT_EQ(fired0, 10);
  EXPECT_EQ(fired1, 10);
  EXPECT_EQ(pe.steps(), 20u);
  // Last events: w0 at 100+9*700=6400, w1 at 250+9*1300=11950.
  EXPECT_EQ(pe.now(), 11'950);
  EXPECT_GE(pe.windows(), 1u);
}

TEST(ParallelEngineUnit, RunToStopsAtHorizonAndSyncsClocks) {
  sim::ParallelEngine pe(2, 1'000);
  int fired = 0;
  pe.worker(0).schedule_fn(100, [&] { ++fired; });
  pe.worker(1).schedule_fn(50'000, [&] { ++fired; });
  pe.run_to(10'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(pe.worker(0).now(), 10'000);
  EXPECT_EQ(pe.worker(1).now(), 10'000);
  EXPECT_EQ(pe.now(), 10'000);
  pe.run_to(60'000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(pe.now(), 60'000);
}

TEST(ParallelEngineUnit, RunUntilStopsWhenConditionHolds) {
  sim::ParallelEngine pe(4, 500);
  // Per-worker slots, summed only in the condition (which runs at a
  // barrier with all workers parked) — the accounting pattern every
  // parallel-mode client must follow; a single shared counter would be a
  // data race across workers.
  std::uint64_t count[4] = {0, 0, 0, 0};
  for (std::size_t w = 0; w < 4; ++w) {
    for (int i = 1; i <= 50; ++i) {
      pe.worker(w).schedule_fn(i * 400, [&slot = count[w]] { ++slot; });
    }
  }
  const auto total = [&] { return count[0] + count[1] + count[2] + count[3]; };
  const bool met = pe.run_until([&] { return total() >= 60; });
  EXPECT_TRUE(met);
  EXPECT_GE(total(), 60u);   // met...
  EXPECT_LT(total(), 200u);  // ...but well before the drain
}

TEST(ParallelEngineUnit, RunUntilReportsDrainWithoutMeeting) {
  sim::ParallelEngine pe(2, 1'000);
  int fired = 0;
  pe.worker(0).schedule_fn(10, [&] { ++fired; });
  const bool met = pe.run_until([] { return false; });
  EXPECT_FALSE(met);
  EXPECT_EQ(fired, 1);
}

TEST(ParallelEngineUnit, OneWorkerRunsItsWheelDirectly) {
  sim::ParallelEngine pe(1, 1'000);
  int fired = 0;
  pe.worker(0).schedule_fn(100, [&] { ++fired; });
  pe.worker(0).schedule_fn(5'000, [&] { ++fired; });
  // Checked between events, as on a plain Engine: the second event is
  // never reached.
  EXPECT_TRUE(pe.run_until([&] { return fired == 1; }));
  EXPECT_EQ(pe.now(), 100);
  pe.run_to(3'000);
  EXPECT_EQ(pe.now(), 3'000);
  pe.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(pe.steps(), 2u);
  EXPECT_EQ(pe.windows(), 0u);
  // Worker 0 of a one-worker engine is a plain Engine and may run itself.
  pe.worker(0).schedule_fn(6'000, [&] { ++fired; });
  pe.worker(0).run();
  EXPECT_EQ(fired, 3);
}

TEST(ParallelEngineUnit, PartitionedWorkerRefusesDirectRuns) {
  sim::ParallelEngine pe(2, 1'000);
  int fired = 0;
  pe.worker(0).schedule_fn(100, [&] { ++fired; });
  EXPECT_THROW(pe.worker(0).run_until([] { return false; }),
               std::logic_error);
  EXPECT_THROW(pe.worker(0).run(), std::logic_error);
  EXPECT_THROW(pe.worker(1).run_to(1'000), std::logic_error);
  EXPECT_EQ(fired, 0);
  // The engine itself still drives both wheels.
  pe.run();
  EXPECT_EQ(fired, 1);
}

// One watchdog rule at every worker count: no event beyond max_virtual is
// dispatched, so a far-future event neither runs nor moves the clock.
TEST(ParallelEngineUnit, WatchdogAbortsBeyondMaxVirtual) {
  for (const std::size_t workers : {1u, 2u}) {
    sim::ParallelEngine pe(workers, 1'000);
    int fired = 0;
    pe.worker(workers - 1).schedule_fn(sim::seconds(100), [&] { ++fired; });
    const bool met = pe.run_until([] { return false; }, sim::millis(1));
    EXPECT_FALSE(met) << workers << " workers";
    EXPECT_EQ(fired, 0) << workers << " workers";
    EXPECT_EQ(pe.now(), 0) << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Cluster byte-identity across worker counts
// ---------------------------------------------------------------------------

using test::Digest;
using test::tag_of;

struct RunSpec {
  std::size_t nodes;
  std::size_t subgroups;
  std::size_t messages;
  std::uint64_t seed;
  sst::Discipline discipline = sst::Discipline::strict_rr;
  /// Fault installation hook, called right after start() (workers are not
  /// running yet, so main-thread fabric/node calls are safe here).
  std::function<void(core::Cluster&)> chaos;
  net::TimingModel timing{};
};

/// Run `spec` with `workers` simulation threads up to the fixed virtual
/// horizon, and digest everything observable: per-node delivery records
/// (subgroup, sender, seq, index, virtual delivery time, payload tag) in
/// upcall order, final virtual time, the merged protocol counters and the
/// payload-staging counts.
/// Both serial and parallel runs execute the exact same event set when
/// driven by run_to(), so the digests must agree bit-for-bit.
std::uint64_t digest_to_horizon(const RunSpec& spec, std::size_t workers,
                                sim::Nanos horizon,
                                std::uint64_t* delivered_out = nullptr) {
  core::ClusterConfig cc;
  cc.nodes = spec.nodes;
  cc.seed = spec.seed;
  cc.discipline = spec.discipline;
  cc.timing = spec.timing;
  cc.sim_threads = workers;
  core::Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  opts.max_msg_size = 1024;
  opts.window_size = 32;
  std::vector<core::SubgroupId> sgs;
  for (std::size_t g = 0; g < spec.subgroups; ++g) {
    sgs.push_back(cluster.create_subgroup(
        {"sg" + std::to_string(g), members, members, opts}));
  }
  cluster.start();
  if (spec.chaos) spec.chaos(cluster);

  struct Rec {
    std::uint32_t sg;
    std::uint64_t sender;
    std::int64_t seq;
    std::int64_t idx;
    sim::Nanos at;
    std::uint64_t tag;
  };
  std::vector<std::vector<Rec>> per_node(spec.nodes);
  for (net::NodeId m : members) {
    sim::Engine& eng = cluster.engine_for(m);
    for (core::SubgroupId sg : sgs) {
      cluster.node(m).set_delivery_handler(
          sg, [&per_node, &eng, m](const core::Delivery& d) {
            per_node[m].push_back(Rec{d.subgroup, d.sender, d.seq,
                                      d.sender_index, eng.now(),
                                      tag_of(d.data)});
          });
    }
  }
  for (core::SubgroupId sg : sgs) {
    for (std::size_t s = 0; s < spec.nodes; ++s) {
      cluster.engine_for(members[s])
          .spawn([](core::Cluster* c, net::NodeId id, core::SubgroupId g,
                    std::size_t count, std::uint64_t base) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              if (c->node(id).stopped()) co_return;
              const std::uint64_t tag = base + i;
              co_await c->node(id).send(g, 256,
                                        [tag](std::span<std::byte> buf) {
                                          std::memcpy(buf.data(), &tag,
                                                      sizeof tag);
                                        });
            }
          }(&cluster, members[s], sg, spec.messages,
            (sg + 1) * 1'000'000 + (s + 1) * 10'000));
    }
  }
  cluster.run_to(horizon);

  std::uint64_t seen = 0;
  for (core::SubgroupId sg : sgs) seen += cluster.total_delivered(sg);
  if (delivered_out) *delivered_out = seen;

  Digest d;
  d.mix(static_cast<std::uint64_t>(cluster.now()));
  for (const auto& recs : per_node) {
    d.mix(recs.size());
    for (const Rec& r : recs) {
      d.mix(r.sg);
      d.mix(r.sender);
      d.mix(static_cast<std::uint64_t>(r.seq));
      d.mix(static_cast<std::uint64_t>(r.idx));
      d.mix(static_cast<std::uint64_t>(r.at));
      d.mix(r.tag);
    }
  }
  const metrics::ClusterStats stats = cluster.stats();
  d.mix_counters(stats.total);
  // Payload staging is part of the contract: the same posts take the same
  // snapshots whichever worker runs them (the peaks are host-plane only).
  d.mix(stats.net.payload_snapshots);
  d.mix(stats.net.payload_bytes_copied);
  cluster.shutdown();
  // Landings on destination workers released every shared snapshot once.
  const net::Fabric::PayloadStats p = cluster.fabric().payload_stats();
  EXPECT_EQ(p.live, 0u) << workers << " workers";
  EXPECT_EQ(p.idle, p.pooled) << workers << " workers";
  EXPECT_GT(p.peak_live, 0u) << workers << " workers";
  return d.h;
}

/// Serial probe: completion time of the workload (run_until on one thread),
/// used to pick a horizon that covers the whole run for every worker count.
sim::Nanos completion_horizon(const RunSpec& spec) {
  core::ClusterConfig cc;
  cc.nodes = spec.nodes;
  cc.seed = spec.seed;
  cc.discipline = spec.discipline;
  cc.timing = spec.timing;
  core::Cluster cluster(cc);
  std::vector<net::NodeId> members;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    members.push_back(static_cast<net::NodeId>(i));
  }
  core::ProtocolOptions opts = core::ProtocolOptions::spindle();
  opts.max_msg_size = 1024;
  opts.window_size = 32;
  std::vector<core::SubgroupId> sgs;
  for (std::size_t g = 0; g < spec.subgroups; ++g) {
    sgs.push_back(cluster.create_subgroup(
        {"sg" + std::to_string(g), members, members, opts}));
  }
  cluster.start();
  if (spec.chaos) spec.chaos(cluster);
  for (core::SubgroupId sg : sgs) {
    for (std::size_t s = 0; s < spec.nodes; ++s) {
      cluster.engine().spawn(
          [](core::Cluster* c, net::NodeId id, core::SubgroupId g,
             std::size_t count, std::uint64_t base) -> sim::Co<> {
            for (std::size_t i = 0; i < count; ++i) {
              if (c->node(id).stopped()) co_return;
              const std::uint64_t tag = base + i;
              co_await c->node(id).send(g, 256,
                                        [tag](std::span<std::byte> buf) {
                                          std::memcpy(buf.data(), &tag,
                                                      sizeof tag);
                                        });
            }
          }(&cluster, members[s], sg, spec.messages,
            (sg + 1) * 1'000'000 + (s + 1) * 10'000));
    }
  }
  const std::uint64_t expect =
      spec.subgroups * spec.nodes * spec.messages * spec.nodes;
  const bool done = cluster.run_until(
      [&] {
        std::uint64_t seen = 0;
        for (core::SubgroupId sg : sgs) seen += cluster.total_delivered(sg);
        return seen >= expect;
      },
      sim::seconds(30));
  EXPECT_TRUE(done) << "serial probe stalled";
  const sim::Nanos t = cluster.now();
  cluster.shutdown();
  // Past-completion margin: also pins the idle/backoff tail behaviour.
  return t + sim::micros(100);
}

void expect_identical_across_workers(const RunSpec& spec) {
  const sim::Nanos horizon = completion_horizon(spec);
  const std::uint64_t expect =
      spec.subgroups * spec.nodes * spec.messages * spec.nodes;
  std::uint64_t d1 = 0, d2 = 0, d4 = 0;
  const std::uint64_t h1 = digest_to_horizon(spec, 1, horizon, &d1);
  const std::uint64_t h2 = digest_to_horizon(spec, 2, horizon, &d2);
  const std::uint64_t h4 = digest_to_horizon(spec, 4, horizon, &d4);
  EXPECT_EQ(d1, expect);
  EXPECT_EQ(d2, expect);
  EXPECT_EQ(d4, expect);
  std::printf("digest W1=0x%llx W2=0x%llx W4=0x%llx (horizon %lld ns)\n",
              static_cast<unsigned long long>(h1),
              static_cast<unsigned long long>(h2),
              static_cast<unsigned long long>(h4),
              static_cast<long long>(horizon));
  EXPECT_EQ(h1, h2) << "2-worker run diverged from serial";
  EXPECT_EQ(h1, h4) << "4-worker run diverged from serial";
}

TEST(ParallelDeterminism, Fig03SingleSubgroupIdenticalAt124Workers) {
  expect_identical_across_workers(
      {8, 1, 100, 7, sst::Discipline::strict_rr, nullptr});
}

TEST(ParallelDeterminism, Fig09BatchedMultigroupIdenticalAt124Workers) {
  expect_identical_across_workers(
      {6, 3, 40, 11, sst::Discipline::strict_rr, nullptr});
}

TEST(ParallelDeterminism, Fig09DrrIdenticalAt124Workers) {
  expect_identical_across_workers(
      {6, 3, 40, 11, sst::Discipline::drr, nullptr});
}

// One shared control/bulk lane: SST pushes then take ingress serialization
// at the receiver like bulk writes, on every worker's landings.
TEST(ParallelDeterminism, SharedControlChannelIdenticalAt124Workers) {
  RunSpec spec{6, 2, 30, 13, sst::Discipline::strict_rr, nullptr};
  spec.timing.separate_control_channel = false;
  expect_identical_across_workers(spec);
}

// ---------------------------------------------------------------------------
// Writes posted from the main thread between runs
// ---------------------------------------------------------------------------

/// A 2-node cluster run to 10 us; then, from the main thread, node 0 writes
/// a fresh word into a region on node 1 (it lands at kLanding) and a timer
/// on node 1 at `timer_at` reads the region. Returns whether the timer saw
/// the new bytes. `noop_at_post` first queues an empty event on node 0's
/// worker at the post instant.
constexpr sim::Nanos kLanding = 12'730;

bool timer_sees_write(std::size_t workers, sim::Nanos timer_at,
                      bool noop_at_post) {
  core::ClusterConfig cc;
  cc.nodes = 2;
  cc.sim_threads = workers;
  core::Cluster cluster(cc);
  EXPECT_EQ(cluster.sim_workers(), workers);
  net::Fabric& fabric = cluster.fabric();
  std::array<std::byte, 8> mem{};
  const net::RegionId region = fabric.register_region(1, mem);
  cluster.run_to(sim::micros(10));
  if (noop_at_post) cluster.engine_for(0).schedule_fn(sim::micros(10), [] {});
  std::array<std::byte, 8> fresh;
  fresh.fill(std::byte{0x5a});
  fabric.post_write(0, region, 0, fresh);
  bool seen = false;
  cluster.engine_for(1).schedule_fn(
      timer_at, [&] { seen = mem[0] == std::byte{0x5a}; });
  cluster.run();
  return seen;
}

// Between runs every worker is idle, so such a post lands at once through
// the same arrival code as at one worker, with the key a one-worker
// schedule would stamp: a timer at the landing instant, scheduled after the
// post, runs after the landing; a later one sees it too.
TEST(ParallelBetweenRuns, MainThreadWriteLandsAsAtOneWorker) {
  for (const std::size_t workers : {1u, 2u}) {
    EXPECT_FALSE(timer_sees_write(workers, kLanding - 1, false))
        << workers << " workers";
    EXPECT_TRUE(timer_sees_write(workers, kLanding, false))
        << workers << " workers";
    EXPECT_TRUE(timer_sees_write(workers, kLanding, true))
        << workers << " workers";
    EXPECT_TRUE(timer_sees_write(workers, kLanding + 500, false))
        << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Chaos slice under the parallel engine
// ---------------------------------------------------------------------------

// Deterministic faults (no link jitter): a cpu-stalled host, a slowed
// delivery predicate, and a degraded link (latency x2). Parallel runs must
// still match serial bit-for-bit.
TEST(ParallelChaos, DeterministicFaultSliceMatchesSerial) {
  RunSpec spec{6, 2, 30, 23, sst::Discipline::strict_rr, nullptr};
  spec.chaos = [](core::Cluster& cluster) {
    // Degraded (never faster) link 1 -> 4, installed at t=0 from the main
    // thread before the workers launch.
    cluster.fabric().set_link_fault(1, 4, 2.0, 0);
    // Mid-run host faults, scheduled on the owning node's worker.
    cluster.engine_for(2).schedule_fn(sim::micros(40), [&cluster] {
      cluster.node(2).set_cpu_stall_until(sim::micros(90));
    });
    cluster.engine_for(3).schedule_fn(sim::micros(20), [&cluster] {
      cluster.node(3).delay_predicate("deliver", sim::micros(120), 700);
    });
  };
  expect_identical_across_workers(spec);
}

// Jittered links: per-link jitter is a counter-keyed hash stream drawn on
// the link's source worker in that node's event order, so it is the same
// at every worker count, one worker included.
TEST(ParallelChaos, JitteredLinksAgreeAcrossWorkerCounts) {
  RunSpec spec{6, 2, 30, 29, sst::Discipline::strict_rr, nullptr};
  spec.chaos = [](core::Cluster& cluster) {
    cluster.fabric().set_link_fault(0, 5, 1.5, 400);
    cluster.fabric().set_link_fault(4, 1, 1.0, 900);
  };
  expect_identical_across_workers(spec);
}

// The fabric calls that cannot run across partitions refuse a
// multi-worker cluster in every build type, not only under assertions.
TEST(ParallelChaos, CrossPartitionFabricCallsThrow) {
  core::ClusterConfig cc;
  cc.nodes = 4;
  cc.sim_threads = 2;
  core::Cluster cluster(cc);
  ASSERT_EQ(cluster.sim_workers(), 2u);
  net::Fabric& fabric = cluster.fabric();
  alignas(8) std::array<std::byte, 8> word{};
  const net::RegionId region = fabric.register_region(3, word);
  EXPECT_THROW(fabric.isolate(1), std::logic_error);
  EXPECT_THROW(fabric.restore(1), std::logic_error);
  EXPECT_THROW(fabric.set_link_fault(0, 3, 0.5, 0), std::logic_error);
  EXPECT_THROW(fabric.rdma_faa(0, region, 0, 1), std::logic_error);
  EXPECT_THROW(fabric.rdma_cas(0, region, 0, 0, 1), std::logic_error);
  EXPECT_THROW(cluster.crash(1), std::logic_error);
  EXPECT_FALSE(fabric.is_isolated(1));
  // Multipliers >= 1 keep the lookahead bound, so they are allowed.
  EXPECT_NO_THROW(fabric.set_link_fault(0, 3, 2.0, 0));
}

}  // namespace
}  // namespace spindle
