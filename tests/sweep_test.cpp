// Seed-parallel sweep determinism: running the same configs on a thread
// pool must produce results identical to running them serially — per-seed
// determinism is untouched because each job owns its entire engine. Every
// deterministic field of ExperimentResult is compared (the wall-clock
// setup_seconds and run_seconds are inherently nondeterministic and are
// excluded).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "workload/experiment.hpp"
#include "workload/sweep.hpp"

namespace {

using namespace spindle;
using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::SweepOptions;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.subgroups = 1;
  cfg.senders = workload::SenderPattern::all;
  cfg.messages_per_sender = 60;
  cfg.message_size = 4096;
  cfg.seed = 42;
  return cfg;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cost.makespan, b.cost.makespan);
  EXPECT_EQ(a.cost.engine_steps, b.cost.engine_steps);
  EXPECT_EQ(a.expected_deliveries, b.expected_deliveries);
  EXPECT_EQ(a.throughput_gbps, b.throughput_gbps);  // bitwise, not approx
  EXPECT_EQ(a.delivery_rate_per_node, b.delivery_rate_per_node);
  EXPECT_EQ(a.median_latency_us, b.median_latency_us);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us);
  EXPECT_EQ(a.active_predicate_fraction, b.active_predicate_fraction);
  const metrics::ProtocolCounters& ca = a.stats.total;
  const metrics::ProtocolCounters& cb = b.stats.total;
  EXPECT_EQ(ca.messages_sent, cb.messages_sent);
  EXPECT_EQ(ca.messages_delivered, cb.messages_delivered);
  EXPECT_EQ(ca.bytes_delivered, cb.bytes_delivered);
  EXPECT_EQ(ca.rdma_writes_posted, cb.rdma_writes_posted);
  EXPECT_EQ(ca.delivery_latency_ns.count(), cb.delivery_latency_ns.count());
  EXPECT_EQ(ca.delivery_latency_ns.median(), cb.delivery_latency_ns.median());
  EXPECT_EQ(a.continuous_sender_latency_ns.count(),
            b.continuous_sender_latency_ns.count());
  EXPECT_EQ(a.delayed_sender_latency_ns.count(),
            b.delayed_sender_latency_ns.count());
}

TEST(ParallelSweep, MatchesSerialExecutionPerSeed) {
  const ExperimentConfig cfg = small_config();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;

  const std::vector<ExperimentResult> s =
      workload::run_seed_sweep(cfg, 4, serial);
  const std::vector<ExperimentResult> p =
      workload::run_seed_sweep(cfg, 4, parallel);
  ASSERT_EQ(s.size(), 4u);
  ASSERT_EQ(p.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("seed index " + std::to_string(i));
    expect_identical(s[i], p[i]);
  }

  // Different seeds really are different runs (the sweep isn't degenerate).
  EXPECT_NE(s[0].cost.makespan, s[1].cost.makespan);
}

TEST(ParallelSweep, ResultsAreInJobOrderRegardlessOfThreads) {
  // A cheap pure function: results must land at their job's index even
  // when many more jobs than threads race for slots.
  SweepOptions opt;
  opt.threads = 3;
  const std::vector<std::uint64_t> out =
      workload::parallel_sweep<std::uint64_t>(
          97, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); },
          opt);
  ASSERT_EQ(out.size(), 97u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::uint64_t>(i * i));
  }
}

TEST(ParallelSweep, PropagatesJobExceptions) {
  SweepOptions opt;
  opt.threads = 2;
  EXPECT_THROW(workload::parallel_sweep<int>(
                   8,
                   [](std::size_t i) {
                     if (i == 5) throw std::runtime_error("job 5 failed");
                     return static_cast<int>(i);
                   },
                   opt),
               std::runtime_error);
}

TEST(ParallelSweep, ThreadCountResolution) {
  EXPECT_EQ(workload::sweep_thread_count(3), 3u);
  EXPECT_GE(workload::sweep_thread_count(0), 1u);
}

}  // namespace
