// Ablation of two fabric-level design choices called out in DESIGN.md /
// EXPERIMENTS.md. Not a paper figure — these quantify modeling decisions
// that turned out to be load-bearing for reproducing the paper's shapes.
//
//  A. Separate SST (control) vs SMC (bulk) connections. RDMA orders only
//     within a QP; Derecho keeps the SST on its own QPs. If the 8-byte
//     acknowledgments instead share the bulk FIFO, they are head-of-line
//     blocked behind hundred-KB batched data writes and the stability
//     feedback loop degenerates into burst-and-stall.
//
//  B. Doorbell-batched verb posting (Kalia et al.): consecutive posts in a
//     burst cost less CPU than the first. Without it, posting dominates the
//     polling thread exactly as §3.2 describes for the baseline.

#include "bench_util.hpp"

using namespace spindle;
using namespace spindle::bench;

int main() {
  Table t("Ablation: fabric design choices (16 nodes, all senders, 10KB)",
          {"configuration", "GB/s", "median latency (us)", "post CPU %"});

  auto run = [&](const char* name, bool separate, bool doorbell_batching) {
    ExperimentConfig cfg;
    cfg.nodes = 16;
    cfg.senders = SenderPattern::all;
    cfg.message_size = 10240;
    cfg.messages_per_sender = scaled(400);
    cfg.opts = core::ProtocolOptions::spindle();
    cfg.timing.separate_control_channel = separate;
    if (!doorbell_batching) {
      cfg.timing.post_cpu_next = cfg.timing.post_cpu_first;
    }
    auto r = workload::run_experiment(cfg);
    const double post_pct = 100.0 * static_cast<double>(r.stats.total.post_cpu) /
                            16.0 / static_cast<double>(r.cost.makespan);
    t.row({name, gbps(r.throughput_gbps),
           Table::num(r.median_latency_us, 0), Table::num(post_pct, 0)});
  };

  run("separate QPs + doorbell batching (default)", true, true);
  run("shared FIFO (acks behind bulk data)", false, true);
  run("separate QPs, no doorbell batching", true, false);
  run("shared FIFO, no doorbell batching", false, false);
  t.print();
  return 0;
}
