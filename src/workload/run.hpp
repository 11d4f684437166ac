#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "core/group.hpp"
#include "sim/time.hpp"

namespace spindle::workload {

/// Simulator cost of one timed driver run (run_experiment, run_sharded,
/// run_client_swarm): the perf-trajectory numbers the BENCH_*.json reports
/// track. Wall time splits at the return of start(): setup is building and
/// starting the cluster; run is everything after it (the simulated run,
/// metric collection and the shutdown drain), which is where the engine
/// dispatches its events. RunClock writes the wall times.
struct RunCost {
  std::uint64_t engine_steps = 0;
  double setup_seconds = 0;
  double run_seconds = 0;
  std::size_t sim_workers = 1;  // worker threads the run used (1 = serial)
  sim::Nanos makespan = 0;      // virtual span the run's metrics cover

  /// Engine events dispatched per wall second of the run.
  double events_per_sec() const {
    return run_seconds > 0 ? static_cast<double>(engine_steps) / run_seconds
                           : 0;
  }
};

/// Wall clock of one run, written into `cost`: setup runs from construction
/// to started(), the run from there to finish().
class RunClock {
 public:
  explicit RunClock(RunCost& cost) : cost_(cost) {}
  void started() { cost_.setup_seconds = lap(); }
  void finish(std::uint64_t engine_steps) {
    cost_.engine_steps = engine_steps;
    cost_.run_seconds = lap();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double lap() {
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double> secs = now - lap_start_;
    lap_start_ = now;
    return secs.count();
  }
  RunCost& cost_;
  Clock::time_point lap_start_ = Clock::now();
};

/// Worker-thread count from SPINDLE_SIM_THREADS (default 1): what a
/// driver's `sim_threads == 0` resolves to.
inline std::size_t sim_threads_from_env() {
  const char* env = std::getenv("SPINDLE_SIM_THREADS");
  const long v = env != nullptr ? std::atol(env) : 0;
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

/// The cluster config a driver starts from (`sim_threads == 0` resolved).
inline core::ClusterConfig cluster_config(std::size_t nodes,
                                          std::uint64_t seed,
                                          std::size_t sim_threads) {
  core::ClusterConfig cc;
  cc.nodes = nodes;
  cc.seed = seed;
  cc.sim_threads = sim_threads > 0 ? sim_threads : sim_threads_from_env();
  return cc;
}

/// Payload builder writing `tag` into the first 8 bytes, when they fit.
inline std::function<void(std::span<std::byte>)> tag_payload(
    std::uint64_t tag) {
  return [tag](std::span<std::byte> buf) {
    if (buf.size() >= sizeof tag) std::memcpy(buf.data(), &tag, sizeof tag);
  };
}

/// One timed run of a driver's core::Cluster: construction starts the setup
/// clock and builds the cluster; start() stops it; run_until_complete()
/// runs until the per-node completion slots sum to the target and applies
/// the makespan rule; finish() shuts down, then records steps and run time.
class ClusterRun {
 public:
  /// A node's completion slot, written only by the worker that owns the
  /// node (its handlers run there) and summed only at a barrier.
  struct Completion {
    sim::Engine* engine = nullptr;  // the node's engine
    std::uint64_t count = 0;
    sim::Nanos last_at = 0;
    /// Counts one tracked delivery; returns its virtual time.
    sim::Nanos record() { ++count; return last_at = engine->now(); }
  };

  ClusterRun(const core::ClusterConfig& cc, RunCost& cost)
      : cost_(cost), clock_(cost), completions_(cc.nodes), cluster_(cc) {
    for (std::size_t i = 0; i < cc.nodes; ++i) {
      nodes_.push_back(static_cast<net::NodeId>(i));
      completions_[i].engine = &cluster_.engine_for(nodes_.back());
    }
  }

  core::Cluster& cluster() { return cluster_; }
  const std::vector<net::NodeId>& nodes() const { return nodes_; }  // 0..n-1
  Completion& completion(net::NodeId m) { return completions_[m]; }

  void start() {
    cluster_.start();
    clock_.started();
  }

  /// Sets cost.makespan to the last tracked completion (worker-count
  /// invariant, unlike the halt time), or to cluster.now() if the run
  /// timed out or tracked nothing. Returns whether `expected` was reached.
  bool run_until_complete(std::uint64_t expected,
                          sim::Nanos max_virtual = sim::seconds(600)) {
    const bool completed = cluster_.run_until(
        [&] {
          std::uint64_t total = 0;
          for (const Completion& c : completions_) total += c.count;
          return total >= expected;
        },
        max_virtual);
    for (const Completion& c : completions_) {
      cost_.makespan = std::max(cost_.makespan, c.last_at);
    }
    if (!completed || cost_.makespan == 0) cost_.makespan = cluster_.now();
    cost_.sim_workers = cluster_.sim_workers();
    return completed;
  }

  void finish() {
    cluster_.shutdown();
    clock_.finish(cluster_.steps());
  }

 private:
  RunCost& cost_;
  RunClock clock_;
  std::vector<Completion> completions_;  // outlives the cluster's drain
  core::Cluster cluster_;
  std::vector<net::NodeId> nodes_;
};

}  // namespace spindle::workload
