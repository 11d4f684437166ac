#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "workload/client_swarm.hpp"
#include "workload/experiment.hpp"
#include "workload/recovery.hpp"
#include "workload/table.hpp"
#include "digest.hpp"

namespace spindle::workload {
namespace {

using test::Digest;

TEST(Workload, SenderCountPatterns) {
  EXPECT_EQ(sender_count(SenderPattern::all, 16), 16u);
  EXPECT_EQ(sender_count(SenderPattern::half, 16), 8u);
  EXPECT_EQ(sender_count(SenderPattern::half, 5), 2u);
  EXPECT_EQ(sender_count(SenderPattern::half, 1), 1u);
  EXPECT_EQ(sender_count(SenderPattern::one, 16), 1u);
}

TEST(Workload, HalfSendersDeliverExpectedCount) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.senders = SenderPattern::half;  // 2 senders
  cfg.messages_per_sender = 50;
  cfg.message_size = 256;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 2u * 50u * 4u);
  EXPECT_EQ(r.expected_deliveries, 2u * 50u * 4u);
}

TEST(Workload, InactiveSubgroupsCarryNoTraffic) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.subgroups = 4;
  cfg.active_subgroups = 1;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 3u * 40u * 3u);
  EXPECT_GT(r.active_predicate_fraction, 0.2);
  EXPECT_LE(r.active_predicate_fraction, 1.0);
}

TEST(Workload, MultipleActiveSubgroupsMultiplyTraffic) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.subgroups = 2;
  cfg.active_subgroups = 2;
  cfg.messages_per_sender = 30;
  cfg.message_size = 256;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 2u * 3u * 30u * 3u);
}

TEST(Workload, DelayedForeverSendersAreExcludedFromTarget) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 40;
  cfg.message_size = 256;
  cfg.delayed_senders = 1;
  cfg.delayed_forever = true;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.expected_deliveries, 2u * 40u * 3u);
}

TEST(Workload, DelayedSenderLatencySplitIsRecorded) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.messages_per_sender = 40;
  cfg.message_size = 1024;
  cfg.delayed_senders = 1;
  cfg.post_send_delay = sim::micros(20);
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.continuous_sender_latency_ns.count(), 0u);
  EXPECT_GT(r.delayed_sender_latency_ns.count(), 0u);
}

TEST(Workload, UnorderedModeDeliversEverythingToo) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 50;
  cfg.message_size = 512;
  cfg.opts.mode = core::DeliveryMode::unordered;
  auto r = run_experiment(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats.total.messages_delivered, 3u * 50u * 3u);
}

TEST(Workload, WatchdogReportsIncompleteRuns) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 1000000;  // cannot finish in the tiny budget
  cfg.message_size = 10240;
  cfg.max_virtual = sim::micros(200);
  auto r = run_experiment(cfg);
  EXPECT_FALSE(r.completed);
}

TEST(Workload, ActiveSubgroupsBeyondSubgroupsAreRejected) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.subgroups = 1;
  cfg.active_subgroups = 2;  // no second subgroup to send into
  cfg.messages_per_sender = 50;
  cfg.message_size = 256;
  cfg.max_virtual = sim::millis(50);
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-driver golden digests. Each pins everything its driver reports that
// the engine can influence (virtual times, step counts, delivery totals,
// histogram buckets), so a reordered spawn, handler or completion check in
// a driver shows up as a digest change.

constexpr std::uint64_t kGoldenExperiment = 0x865e2238fc071353;
constexpr std::uint64_t kGoldenSwarm = 0x7290eac23d93c7d2;
constexpr std::uint64_t kGoldenRecovery = 0xed95c6c3b1f8a602;
constexpr std::uint64_t kGoldenTotalRecoveryDriver = 0xafe93e7d23e67bc1;

// 2 subgroups, 2 of 4 nodes sending, sender 0 pausing after each send.
ExperimentResult run_digest_experiment(std::size_t sim_threads) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.subgroups = cfg.active_subgroups = 2;
  cfg.senders = SenderPattern::half;
  cfg.messages_per_sender = 40;
  cfg.message_size = 1024;
  cfg.delayed_senders = 1;
  cfg.post_send_delay = sim::micros(10);
  cfg.seed = 3;
  cfg.sim_threads = sim_threads;
  return run_experiment(cfg);
}

TEST(WorkloadDigest, ExperimentGolden) {
  const ExperimentResult r = run_digest_experiment(1);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(Digest{}.mix_all(r.cost.makespan, r.cost.engine_steps,
                             r.expected_deliveries,
                             r.stats.total.messages_delivered,
                             r.stats.total.bytes_delivered,
                             r.delayed_sender_latency_ns,
                             r.continuous_sender_latency_ns),
            kGoldenExperiment);
  const ExperimentResult par = run_digest_experiment(2);
  ASSERT_TRUE(par.completed);
  EXPECT_EQ(par.cost.sim_workers, 2u);
  EXPECT_EQ(par.cost.makespan, r.cost.makespan);
  EXPECT_EQ(Digest{}.mix_all(par.continuous_sender_latency_ns),
            Digest{}.mix_all(r.continuous_sender_latency_ns));
}

TEST(WorkloadDigest, ClientSwarmGolden) {
  SwarmConfig cfg;
  cfg.sessions_per_relay = 150;  // 2 relays
  cfg.duration = sim::millis(2);
  cfg.seed = 3;
  const SwarmResult r = run_client_swarm(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.ok, 0u);
  EXPECT_EQ(Digest{}.mix_all(r.offered, r.ok, r.busy, r.cancelled,
                             r.disconnected, r.shed, r.cost.makespan,
                             r.cost.engine_steps, r.latency_ns),
            kGoldenSwarm);
}

TEST(WorkloadDigest, RecoveryGolden) {
  const RecoveryResult r = run_recovery(RecoveryConfig{});
  EXPECT_GT(r.install_ns, 0);
  EXPECT_EQ(Digest{}.mix_all(r.detect_ns, r.install_ns, r.first_delivery_ns,
                             r.max_gap_ns, r.pre_mmps, r.post_mmps,
                             r.delivered_total),
            kGoldenRecovery);
}

TEST(WorkloadDigest, TotalRecoveryGolden) {
  const TotalRecoveryResult r = run_total_recovery(TotalRecoveryConfig{});
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(Digest{}.mix_all(r.halt_ns, r.install_ns, r.first_new_delivery_ns,
                             r.lcp_records, r.max_pre_records, r.lost_records,
                             r.replayed, r.delivered_after, r.recovered),
            kGoldenTotalRecoveryDriver);
}

TEST(Workload, BenchScaleDefaultsToOne) {
  ::unsetenv("SPINDLE_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::setenv("SPINDLE_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  ::setenv("SPINDLE_BENCH_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  ::unsetenv("SPINDLE_BENCH_SCALE");
}

TEST(Workload, AveragedRunsUseDistinctSeeds) {
  ExperimentConfig cfg;
  cfg.nodes = 3;
  cfg.messages_per_sender = 40;
  cfg.message_size = 1024;
  auto avg = run_averaged(cfg, 3);
  EXPECT_GT(avg.mean_gbps, 0.0);
  // Different seeds give (slightly) different runs, hence nonzero stddev.
  EXPECT_GT(avg.stddev_gbps, 0.0);
  EXPECT_TRUE(avg.last.completed);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(1234), "1234");
}

}  // namespace
}  // namespace spindle::workload
