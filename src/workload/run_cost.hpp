#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace spindle::workload {

/// Simulator cost of one timed driver run (run_experiment, run_sharded,
/// run_client_swarm): the perf-trajectory numbers the BENCH_*.json reports
/// track. Wall time splits at the return of start(): setup is building and
/// starting the cluster; run is everything after it (the simulated run,
/// metric collection and the shutdown drain), which is where the engine
/// dispatches its events.
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

using WallClock = std::chrono::steady_clock;

/// Wall seconds elapsed since `start`.
inline double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace spindle::workload
