// SST-vs-FAA cross-shard sequencer comparison: the same sharded workload
// (8 nodes, k shard subgroups, hash-keyed singles + a cross-shard stream)
// run twice per cell — once with the SST polling sequencer (push xreq, grant
// predicate scan, grant-pair push back) and once with the one-sided
// fetch-add ticket counter (net::TicketSequencer: one NIC round trip, no
// remote CPU, no predicate scan). Sweep: k in {2, 4, 8} x cross fraction in
// {1%, 10%, 50%}.
//
// Headline metric: median sequencer grant latency (lock wait excluded) —
// the FAA arm must beat the SST arm at every measured cell, since a ~2x
// write-latency RMW round trip (~3.7 us, DESIGN.md §3g) undercuts an SST
// grant's two one-sided writes *plus* the sequencer's polling-loop service
// delay and the requester's own poll interval. Throughput rides along for
// the end-to-end comparison.
//
// Correctness gate (projection identity): a dedicated fixed-size cell —
// independent of SPINDLE_BENCH_SCALE, so the smoke run exercises exactly
// the configuration this gate was validated on — is run through both arms
// and member 0's per-shard merged-projection digests must match
// digest-for-digest. The digests are commutative folds over payload tags
// (workload::ShardedResult::shard_projection_digests): the gsn map and the
// cross copies' arrival points relative to singles are functions of
// grant-transport timing, so the two modes legitimately *interleave*
// crosses differently — but each shard's projection must carry exactly the
// same message set exactly once in both modes. The gate (plus equal grant
// counts per cell) catches dropped, duplicated, or misrouted messages on
// the FAA path; the bench exits non-zero on drift.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/sharded.hpp"

using namespace spindle;
using namespace spindle::bench;
using workload::ShardedConfig;
using workload::ShardedResult;

namespace {

ShardedConfig base_config(std::size_t shards, double cross_fraction,
                          core::SequencerKind mode) {
  ShardedConfig cfg;
  cfg.nodes = 8;
  cfg.shards = shards;
  cfg.messages_per_sender = std::max<std::size_t>(scaled(200), 100);
  cfg.message_size = 4096;
  cfg.cross_fraction = cross_fraction;
  cfg.cross_width = 2;
  cfg.opts = core::ProtocolOptions::spindle();
  cfg.sequencer_mode = mode;
  // Fabric one-sided atomics are serial-engine-only (v1), and the grant
  // latency comparison must not be confounded by engine mode anyway.
  cfg.sim_threads = 1;
  cfg.seed = 1;
  return cfg;
}

std::string pct(double f) {
  return std::to_string(static_cast<int>(f * 100 + 0.5)) + "%";
}

/// The scale-independent projection-identity gate cell (mirrors the
/// two-shard determinism-lock configuration of shard_test).
ShardedConfig gate_config(core::SequencerKind mode) {
  ShardedConfig cfg = base_config(2, 0.10, mode);
  cfg.nodes = 6;
  cfg.messages_per_sender = 60;
  cfg.message_size = 512;
  cfg.seed = 5;
  return cfg;
}

}  // namespace

int main() {
  Table t("Cross-shard sequencer: SST polling vs one-sided FAA ticket "
          "(8 nodes, 4KB messages)",
          {"shards", "cross", "mode", "grant p50 us", "grant p99 us",
           "tput GB/s", "grants", "wall s"});
  BenchReport report("atomics_seq");
  report.set_provenance(1, std::max<std::size_t>(scaled(200), 100));
  report.set_shard_provenance(8, 0.50);
  // Atomics cost-model constants in effect (DESIGN.md §3g calibration).
  const net::TimingModel timing{};
  report.add_metric("timing_atomic_unit_occupancy_ns",
                    static_cast<double>(timing.atomic_unit_occupancy));
  report.add_metric("timing_post_cpu_first_ns",
                    static_cast<double>(timing.post_cpu_first));
  report.add_metric("timing_post_cpu_next_ns",
                    static_cast<double>(timing.post_cpu_next));
  report.add_metric("timing_wire_base_latency_ns",
                    static_cast<double>(timing.wire_base_latency));

  // --- Projection-identity gate (fixed-size cell, both arms) -------------
  const ShardedResult gate_sst =
      workload::run_sharded(gate_config(core::SequencerKind::sst));
  const ShardedResult gate_faa =
      workload::run_sharded(gate_config(core::SequencerKind::faa));
  bool projection_drift = !gate_sst.completed || !gate_faa.completed ||
                          gate_sst.shard_projection_digests !=
                              gate_faa.shard_projection_digests;
  report.add_metric("gate_projection_drift", projection_drift ? 1 : 0);
  for (std::size_t sh = 0;
       sh < gate_sst.shard_projection_digests.size() && !projection_drift;
       ++sh) {
    report.add_metric(
        "gate_proj_digest_lo32_shard" + std::to_string(sh),
        static_cast<double>(gate_sst.shard_projection_digests[sh] &
                            0xffffffffu));
  }

  // --- k x cross-fraction sweep, SST and FAA arms ------------------------
  bool incomplete = false;
  bool faa_always_faster = true;
  for (std::size_t shards :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (double cross : {0.01, 0.10, 0.50}) {
      std::uint64_t p50[2] = {0, 0};
      std::uint64_t grants[2] = {0, 0};
      for (const core::SequencerKind mode :
           {core::SequencerKind::sst, core::SequencerKind::faa}) {
        const bool faa = mode == core::SequencerKind::faa;
        const ShardedResult r =
            workload::run_sharded(base_config(shards, cross, mode));
        incomplete = incomplete || !r.completed;
        p50[faa ? 1 : 0] = r.grant_latency_ns.median();
        grants[faa ? 1 : 0] = r.grants_issued;
        const std::string label = std::string(faa ? "faa" : "sst") + "_k" +
                                  std::to_string(shards) + "_x" + pct(cross);
        t.row({Table::integer(shards), pct(cross), faa ? "faa" : "sst",
               Table::num(static_cast<double>(r.grant_latency_ns.median()) /
                              1e3, 2),
               Table::num(static_cast<double>(
                              r.grant_latency_ns.percentile(99)) / 1e3, 2),
               gbps(r.throughput_gbps), Table::integer(r.grants_issued),
               Table::num(r.cost.setup_seconds + r.cost.run_seconds, 2) +
                   (r.completed ? "" : " [INCOMPLETE: watchdog tripped]")});
        report.add_run(label, r.cost, r.throughput_gbps, r.expected_deliveries);
        report.add_metric("grant_p50_us_" + label,
                          static_cast<double>(r.grant_latency_ns.median()) /
                              1e3);
        report.add_metric("grant_p99_us_" + label,
                          static_cast<double>(
                              r.grant_latency_ns.percentile(99)) / 1e3);
        report.add_metric("tput_gbps_" + label, r.throughput_gbps);
      }
      if (p50[1] >= p50[0]) faa_always_faster = false;
      // Both transports must grant exactly one gsn per cross of the
      // schedule — a FAA ticket skipped or double-consumed would show here.
      if (grants[0] != grants[1]) projection_drift = true;
      report.add_metric("faa_speedup_k" + std::to_string(shards) + "_x" +
                            pct(cross),
                        p50[1] > 0 ? static_cast<double>(p50[0]) /
                                         static_cast<double>(p50[1])
                                   : 0);
    }
  }
  t.print();
  report.add_metric("faa_median_below_sst_everywhere",
                    faa_always_faster ? 1 : 0);
  report.write();

  if (projection_drift) {
    std::fprintf(stderr,
                 "atomics_seq: PROJECTION DRIFT — the SST and FAA arms of "
                 "the gate cell disagree on a per-shard merged projection\n");
    return 1;
  }
  if (!faa_always_faster) {
    std::fprintf(stderr,
                 "atomics_seq: FAA median grant latency failed to beat SST "
                 "in at least one cell\n");
    return 1;
  }
  if (incomplete) {
    std::fprintf(stderr, "atomics_seq: a cell tripped the watchdog\n");
    return 1;
  }
  return 0;
}
