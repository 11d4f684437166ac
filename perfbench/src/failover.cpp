// failover: a 16-node core::ManagedGroup under continuous open-loop
// senders (every member submits one message per period, at a seeded phase)
// loses one non-leader member mid-run. Measures failure detection, view
// install and the longest delivery gap a survivor sees.

#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "core/view.hpp"
#include "fault/vsync.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace sc = spindle::core;
namespace sim = spindle::sim;
using spindle::fault::VsyncChecker;
using spindle::net::NodeId;

namespace {

// Trace events kept per node in a traced run: several times what the
// busiest node records, so the ring never wraps (add_trace_layer checks).
constexpr std::size_t kTraceRing = std::size_t{1} << 18;
constexpr std::size_t kNodes = 16;
constexpr NodeId kVictim = 7;
constexpr std::uint32_t kMsgBytes = 256;
constexpr sim::Nanos kPeriod = sim::micros(20);

struct Plan {
  sim::Nanos crash_at = 0;
  sim::Nanos horizon = 0;  // last submission before this instant
  std::vector<sim::Nanos> phase;  // per sender

  std::uint64_t sends(NodeId n) const {
    const sim::Nanos end = n == kVictim ? crash_at : horizon;
    return end > phase[n] ? static_cast<std::uint64_t>((end - phase[n] + kPeriod - 1) / kPeriod) : 0;
  }
  sim::Nanos send_time(NodeId n, std::uint64_t k) const {
    return phase[n] + static_cast<sim::Nanos>(k) * kPeriod;
  }
};

sc::ManagedGroup::Config group_config(const RunParams& p) {
  sc::ManagedGroup::Config gc;
  gc.nodes = kNodes;
  gc.seed = p.seed;
  gc.trace.enabled = p.traced;
  gc.trace.ring_capacity = kTraceRing;
  return gc;
}

std::vector<sc::SubgroupConfig> layout(const sc::View& v) {
  sc::SubgroupConfig cfg;
  cfg.name = "failover";
  cfg.members = v.members;
  cfg.senders = v.members;
  cfg.opts = sc::ProtocolOptions::spindle();
  cfg.opts.max_msg_size = kMsgBytes;
  cfg.opts.window_size = 16;
  return {cfg};
}

/// Schedule every member's submissions. `note` (optional) assigns the
/// per-sender index, as the VsyncChecker requires.
void schedule_sends(sc::ManagedGroup& g, const Plan& plan, VsyncChecker* note) {
  for (NodeId n = 0; n < kNodes; ++n) {
    for (std::uint64_t k = 0; k < plan.sends(n); ++k) {
      g.engine().schedule_fn(plan.send_time(n, k), [&g, n, k, note] {
        const std::uint64_t idx = note != nullptr ? note->note_send(n, 0) : k;
        g.send(n, 0, VsyncChecker::make_payload(n, idx, kMsgBytes));
      });
    }
  }
}

/// Per-member delivery record of the measured run.
struct Member {
  std::vector<std::uint64_t> next = std::vector<std::uint64_t>(kNodes, 0);
  std::uint64_t delivered = 0;
  std::uint64_t bad = 0;
  sim::Nanos last_at = 0;
  sim::Nanos max_gap = 0;
  Samples latency_ns;
};

/// The gate: the same seeded run with fault::VsyncChecker attached, driven
/// to the instant the measured run completed. Its invariants (including
/// complete delivery of every surviving sender's messages) must hold over
/// the survivors.
void vsync_gate(const RunParams& p, const Plan& plan, sim::Nanos done_at,
                RunResult& r) {
  Span s("fault.VsyncChecker run");
  sc::ManagedGroup g(group_config(RunParams{p.seed, false, p.tiny}), layout);
  g.start();
  VsyncChecker checker;
  checker.attach(g);
  schedule_sends(g, plan, &checker);
  g.engine().schedule_fn(plan.crash_at, [&g] { g.crash(kVictim); });
  g.engine().run_to(done_at);
  for (const std::string& v : checker.check(g)) r.violation("failover: vsync: " + v);
  g.shutdown();
}

}  // namespace

RunResult run_failover(const RunParams& p) {
  Plan plan;
  plan.crash_at = p.tiny ? sim::micros(600) : sim::millis(15);
  plan.horizon = p.tiny ? sim::micros(1500) : sim::millis(30);
  sim::Rng rng(p.seed ^ 0xfa11'0fe7ULL);
  for (std::size_t n = 0; n < kNodes; ++n) {
    plan.phase.push_back(static_cast<sim::Nanos>(rng.below(kPeriod)));
  }
  RunResult r;

  std::unique_ptr<sc::ManagedGroup> g;
  {
    Span s("core.ManagedGroup()");
    g = std::make_unique<sc::ManagedGroup>(group_config(p), layout);
    r.ctor_s = s.end();
  }
  std::vector<Member> members(kNodes);
  {
    Span s("core.ManagedGroup.start");
    g->start();
    for (NodeId m = 0; m < kNodes; ++m) {
      Member& mem = members[m];
      sim::Engine& eng = g->engine();
      g->set_delivery_handler(m, 0, [&mem, &eng, &plan](const sc::Delivery& d) {
        std::uint64_t tag[2] = {0, 0};
        std::memcpy(tag, d.data.data(), sizeof tag);
        const sim::Nanos now = eng.now();
        if (tag[0] >= kNodes || tag[1] != mem.next[tag[0]]) {
          ++mem.bad;
        } else {
          ++mem.next[tag[0]];
          mem.latency_ns.add(static_cast<double>(
              now - plan.send_time(static_cast<NodeId>(tag[0]), tag[1])));
        }
        if (mem.delivered > 0) mem.max_gap = std::max(mem.max_gap, now - mem.last_at);
        mem.last_at = now;
        ++mem.delivered;
      });
    }
    r.start_s = s.end();
  }
  schedule_sends(*g, plan, nullptr);
  sim::Engine& eng = g->engine();
  eng.schedule_fn(plan.crash_at, [&g] { g->crash(kVictim); });

  std::uint64_t survivor_sends = 0;
  for (NodeId n = 0; n < kNodes; ++n) survivor_sends += n == kVictim ? 0 : plan.sends(n);
  const auto survivors_done = [&] {
    for (NodeId m = 0; m < kNodes; ++m) {
      if (m == kVictim) continue;
      for (NodeId n = 0; n < kNodes; ++n) {
        if (n != kVictim && members[m].next[n] < plan.sends(n)) return false;
      }
    }
    return true;
  };

  LayerInputs in;
  const std::uint64_t steps0 = eng.steps();
  sim::Nanos detect = 0;
  sim::Nanos install = 0;
  bool completed = false;
  {
    Span s("sim.run_until");
    const sim::Nanos watchdog = plan.horizon + sim::millis(50);
    if (eng.run_until([&] { return g->view_change_in_progress(); }, watchdog)) {
      detect = eng.now() - plan.crash_at;
      // The first epoch's counters, before its cluster is retired.
      Span st("core.stats");
      in.collect(g->cluster());
    }
    if (eng.run_until([&] { return g->epoch() >= 1; }, watchdog)) {
      install = eng.now() - plan.crash_at;
    }
    completed = eng.run_until(
        [&] { return eng.now() >= plan.horizon && survivors_done(); }, watchdog);
    r.run_s = s.end();
  }
  const sim::Nanos done_at = eng.now();
  r.events = eng.steps() - steps0;

  r.attempted = survivor_sends;
  std::uint64_t missing = 0;
  Samples latency;
  sim::Nanos outage = 0;
  sim::Nanos last = 0;
  std::uint64_t bytes = 0;
  for (NodeId m = 0; m < kNodes; ++m) {
    if (m == kVictim) continue;
    const Member& mem = members[m];
    for (NodeId n = 0; n < kNodes; ++n) {
      if (n != kVictim) missing += plan.sends(n) - std::min(mem.next[n], plan.sends(n));
    }
    if (mem.bad != 0) r.violation("failover: survivor saw " + std::to_string(mem.bad) + " out-of-order or duplicate deliveries");
    latency.append(mem.latency_ns);
    outage = std::max(outage, mem.max_gap);
    last = std::max(last, mem.last_at);
    bytes += mem.delivered * kMsgBytes;
  }
  if (!completed) r.violation("failover: survivors did not deliver every survivor message");
  if (detect == 0 || install == 0) r.violation("failover: the crash was not detected and installed");
  if (g->view().members.size() != kNodes - 1) r.violation("failover: final view is not the 15 survivors");
  r.failed = std::min<std::uint64_t>(missing, survivor_sends);

  const double secs = sim::to_seconds(last);
  r.virt.set("throughput_gbps", "GB/s",
             secs > 0 ? static_cast<double>(bytes) / (kNodes - 1) / secs / 1e9 : 0);
  r.virt.pct("delivery_p50_us", latency, 50);
  r.virt.pct("delivery_p999_us", latency, 99.9);
  r.virt.set("outage_us", "us", static_cast<double>(outage) / 1e3);

  {
    Span s("core.stats");
    in.collect(g->cluster());
    std::uint64_t sent = 0;
    for (const auto& snap : in.snapshots) sent += snap.total.messages_sent;
    in.msgs_sent = sent;
    in.app_bytes = sent * kMsgBytes;
    in.nodes = kNodes;
    in.sender_threads = kNodes;  // one failure-atomic send pump per member
    in.span_ns = last;
    add_protocol_layers(in, r);
    r.layer.set("core.detect_us", "us", static_cast<double>(detect) / 1e3);
    r.layer.set("core.install_us", "us", static_cast<double>(install) / 1e3);
    if (p.traced) add_trace_layer(g->tracer(), sent, r);
  }

  {
    Span s("core.shutdown+destroy");
    g->shutdown();
    g.reset();
    r.teardown_s = s.end();
  }
  if (p.gate) vsync_gate(p, plan, done_at, r);
  return r;
}

}  // namespace perfbench
