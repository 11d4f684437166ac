// paper16: the paper's Fig 16/17 configuration. 16 nodes, one subgroup,
// every node a sender of 10 KB messages, ProtocolOptions::spindle(). Closed
// loop: each sender thread claims its next ring slot as soon as one frees.

#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "core/group.hpp"

namespace perfbench {

namespace sc = spindle::core;
namespace sim = spindle::sim;

namespace {

// Trace events kept per node in a traced run: several times what the
// busiest node records, so the ring never wraps (add_trace_layer checks).
constexpr std::size_t kTraceRing = std::size_t{1} << 18;
constexpr std::size_t kNodes = 16;
constexpr std::uint32_t kMsgBytes = 10240;

sim::Co<> sender(sc::Cluster* c, spindle::net::NodeId id, sc::SubgroupId sg,
                 std::uint64_t count, std::uint64_t seed) {
  sc::Node& node = c->node(id);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t words[2] = {(std::uint64_t{id} << 32) | i,
                                    content_word(seed, id, i)};
    co_await node.send(sg, kMsgBytes, [&words](std::span<std::byte> buf) {
      std::memcpy(buf.data(), words, sizeof words);
    });
  }
}

/// Per-member delivery record: FIFO position per sender (exactly-once and
/// no gaps), an order-sensitive digest of the whole stream, latencies.
struct Member {
  std::vector<std::uint64_t> next;
  std::uint64_t delivered = 0;
  std::uint64_t bad = 0;
  std::uint64_t digest = kFnvOffset;
  sim::Nanos last_at = 0;
  Samples latency_ns;
};

}  // namespace

RunResult run_paper16(const RunParams& p) {
  const std::uint64_t per_sender = p.tiny ? 20 : 300;
  RunResult r;

  sc::ClusterConfig cc;
  cc.nodes = kNodes;
  cc.seed = p.seed;
  cc.sim_threads = 1;
  cc.trace.enabled = p.traced;
  cc.trace.ring_capacity = kTraceRing;

  std::unique_ptr<sc::Cluster> cluster;
  {
    Span s("core.Cluster()");
    cluster = std::make_unique<sc::Cluster>(cc);
    r.ctor_s = s.end();
  }
  std::vector<spindle::net::NodeId> all(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) all[i] = static_cast<spindle::net::NodeId>(i);
  std::vector<Member> members(kNodes);
  sc::SubgroupId sg = 0;
  {
    Span s("core.create_subgroup+start");
    sc::SubgroupConfig cfg;
    cfg.name = "paper16";
    cfg.members = all;
    cfg.senders = all;
    cfg.opts = sc::ProtocolOptions::spindle();
    sg = cluster->create_subgroup(cfg);
    cluster->start();
    for (spindle::net::NodeId m : all) {
      Member& mem = members[m];
      mem.next.assign(kNodes, 0);
      sim::Engine& eng = cluster->engine_for(m);
      cluster->node(m).set_delivery_handler(
          sg, [&mem, &eng, seed = p.seed](const sc::Delivery& d) {
            std::uint64_t words[2] = {0, 0};
            std::memcpy(words, d.data.data(), sizeof words);
            const std::uint64_t from = words[0] >> 32;
            const std::uint64_t i = words[0] & 0xffffffffu;
            if (from != d.sender || from >= mem.next.size() ||
                i != mem.next[from] || words[1] != content_word(seed, from, i)) {
              ++mem.bad;
            } else {
              ++mem.next[from];
            }
            ++mem.delivered;
            mem.digest = fnv(fnv(mem.digest, words[0]), words[1]);
            mem.last_at = eng.now();
            if (d.sent_at >= 0) {
              mem.latency_ns.add(static_cast<double>(eng.now() - d.sent_at));
            }
          });
    }
    r.start_s = s.end();
  }
  for (spindle::net::NodeId id : all) {
    cluster->engine_for(id).spawn(sender(cluster.get(), id, sg, per_sender, p.seed));
  }

  const std::uint64_t sends = kNodes * per_sender;
  const std::uint64_t expected = sends * kNodes;
  const std::uint64_t steps0 = cluster->steps();
  bool completed = false;
  {
    Span s("sim.run_until");
    completed = cluster->run_until(
        [&] {
          std::uint64_t n = 0;
          for (const Member& m : members) n += m.delivered;
          return n >= expected;
        },
        sim::seconds(60));
    r.run_s = s.end();
  }
  r.events = cluster->steps() - steps0;

  // Gates: every member delivered every message exactly once, in per-sender
  // order, with intact content, and all members saw the identical stream.
  r.attempted = sends;
  std::uint64_t missing = 0;
  Samples latency;
  sim::Nanos makespan = 0;
  for (const Member& m : members) {
    for (std::uint64_t n : m.next) missing += per_sender - std::min(n, per_sender);
    if (m.bad != 0) r.violation("paper16: member saw " + std::to_string(m.bad) + " out-of-order, duplicate or corrupt deliveries");
    if (m.digest != members[0].digest) r.violation("paper16: delivery digests differ between members");
    latency.append(m.latency_ns);
    makespan = std::max(makespan, m.last_at);
  }
  if (!completed) r.violation("paper16: run did not complete");
  if (latency.count() != expected) r.violation("paper16: missing send timestamps");
  // A message counts as failed when any member misses it.
  r.failed = std::min<std::uint64_t>(missing, sends);
  if (missing != 0) r.violation("paper16: " + std::to_string(missing) + " (member, message) deliveries missing");

  const double secs = sim::to_seconds(makespan);
  r.virt.set("throughput_gbps", "GB/s",
             secs > 0 ? static_cast<double>(sends) * kMsgBytes / secs / 1e9 : 0);
  r.virt.pct("delivery_p50_us", latency, 50);
  r.virt.pct("delivery_p999_us", latency, 99.9);
  r.virt.set("makespan_us", "us", static_cast<double>(makespan) / 1e3);

  {
    Span s("core.stats");
    LayerInputs in;
    in.collect(*cluster);
    in.msgs_sent = sends;
    in.app_bytes = sends * kMsgBytes;
    in.nodes = kNodes;
    in.sender_threads = kNodes;
    in.span_ns = makespan;
    add_protocol_layers(in, r);
  }
  if (p.traced) add_trace_layer(cluster->tracer(), sends, r);

  {
    Span s("core.shutdown+destroy");
    cluster->shutdown();
    cluster.reset();
    r.teardown_s = s.end();
  }
  return r;
}

}  // namespace perfbench
