#pragma once

#include <cstdint>

#include "dds/client_mux.hpp"
#include "metrics/metrics.hpp"
#include "metrics/registry.hpp"
#include "workload/run.hpp"

namespace spindle::workload {

/// Arrival process of the open-loop client swarm. All three shapes are
/// driven by independent per-relay RNG streams (sim::Rng::fork), so adding
/// a relay never perturbs another relay's arrivals.
enum class ArrivalShape {
  poisson,  // memoryless arrivals at the offered rate
  bursty,   // on/off square wave: the offered rate compressed into
            // `burst_duty` of every `modulation_period` (same mean rate)
  diurnal,  // sinusoidal rate modulation around the offered rate
};

const char* to_string(ArrivalShape s);

/// Open-loop front-tier scenario: `relays` topic members each carry a
/// dds::ClientMux with `sessions_per_relay` live sessions, and a per-relay
/// arrival process issues request/reply RPCs at the offered rate without
/// waiting for completions (open loop — overload shows up as latency and
/// Busy sheds, not as a slowed generator).
struct SwarmConfig {
  std::size_t core_nodes = 4;   // topic members (all publish + subscribe)
  std::size_t relays = 2;       // first `relays` members carry a mux
  std::size_t sessions_per_relay = 1000;
  double offered_rps_per_relay = 50'000;
  ArrivalShape shape = ArrivalShape::poisson;
  /// Period of the bursty/diurnal rate modulation.
  sim::Nanos modulation_period = sim::millis(2);
  double burst_duty = 0.25;       // bursty: active fraction of each period
  double diurnal_amplitude = 0.8;  // diurnal: rate swing, 0..1
  std::uint32_t request_bytes = 64;
  std::uint32_t reply_bytes = 64;
  sim::Nanos duration = sim::millis(20);     // arrival window
  sim::Nanos drain_grace = sim::seconds(5);  // extra time to drain in-flight
  std::uint64_t seed = 1;
  dds::MuxConfig mux;        // service is replaced by a fixed-size echo
  dds::SessionLink link;
};

struct SwarmResult {
  bool completed = false;    // every issued request resolved in time
  std::uint64_t offered = 0;  // requests issued by the generators
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t disconnected = 0;
  double offered_rps = 0;    // measured, all relays
  /// ok replies over the full span (arrival window plus whatever drain the
  /// backlog needed) — saturates at pipeline capacity under overload, where
  /// ok/duration would credit the drain to the window.
  double goodput_rps = 0;
  /// RTT of ok replies (admission wait included — that is what an external
  /// client observes).
  metrics::Histogram latency_ns;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  /// Snapshot at completion; stats.relays holds the per-mux admission and
  /// occupancy counters.
  metrics::ClusterStats stats;
  std::uint64_t shed = 0;    // sum of requests_shed over the relays
  /// Simulator cost; cost.makespan spans window start -> last request
  /// resolved.
  RunCost cost;
};

/// Build the domain, connect the sessions, run the arrival window plus the
/// drain, and collect latency/admission statistics. Deterministic for a
/// given config.
SwarmResult run_client_swarm(const SwarmConfig& cfg);

}  // namespace spindle::workload
