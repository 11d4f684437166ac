// Tracing overhead: the same experiment with tracing off and on. Recording
// never touches the simulation engine, so the virtual-time results must be
// *identical*; the only cost is host-side wall clock (ring-buffer stores),
// reported here as a percentage. This is the acceptance gate for "the
// tracing-disabled path is within noise" — disabled tracing is one branch
// per record() call.

#include <cstdio>

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.senders = SenderPattern::all;
  cfg.message_size = 10240;
  cfg.opts = core::ProtocolOptions::spindle();
  cfg.messages_per_sender = scaled(400);
  return cfg;
}

/// Wall milliseconds of one run: setup plus run, from its RunCost.
double wall_ms(const ExperimentResult& r) {
  return (r.cost.setup_seconds + r.cost.run_seconds) * 1e3;
}

}  // namespace

int main() {
  ExperimentConfig off = base_config();
  ExperimentConfig on = base_config();
  on.trace.enabled = true;
  on.trace.ring_capacity = 1 << 18;

  // Interleave a warmup of each so allocator state is comparable.
  workload::run_experiment(off);
  workload::run_experiment(on);

  const ExperimentResult r_off = workload::run_experiment(off);
  const ExperimentResult r_on = workload::run_experiment(on);
  const double ms_off = wall_ms(r_off);
  const double ms_on = wall_ms(r_on);

  Table t("Tracing overhead (8 nodes, all senders, 10KB)",
          {"tracing", "GB/s", "makespan (us)", "events", "wall (ms)"});
  t.row({"off", gbps(r_off.throughput_gbps),
         Table::num(sim::to_seconds(r_off.cost.makespan) * 1e6, 1),
         Table::integer(r_off.trace_events), Table::num(ms_off, 1)});
  t.row({"on", gbps(r_on.throughput_gbps),
         Table::num(sim::to_seconds(r_on.cost.makespan) * 1e6, 1),
         Table::integer(r_on.trace_events), Table::num(ms_on, 1)});
  t.print();

  if (r_off.cost.makespan != r_on.cost.makespan) {
    std::printf("FAIL: tracing perturbed virtual time (%lld != %lld)\n",
                static_cast<long long>(r_off.cost.makespan),
                static_cast<long long>(r_on.cost.makespan));
    return 1;
  }
  std::printf("virtual time identical with tracing on; wall-clock delta "
              "%+.1f%%\n",
              ms_off > 0 ? (ms_on - ms_off) / ms_off * 100.0 : 0.0);
  return 0;
}
