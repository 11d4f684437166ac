// swarm: 4 core nodes plus 2 relays (one dds::ClientMux each, 1000
// sessions per relay). Open loop: per relay, Poisson arrivals at 120 krps
// (the knee of bench_client_swarm) issue 64 B request/reply RPCs on random
// sessions without waiting for completions. Latency runs from each
// request's arrival instant; the generator lives in virtual time, so it is
// never late.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "dds/client_mux.hpp"
#include "dds/dds.hpp"
#include "dds/session.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace sc = spindle::core;
namespace sim = spindle::sim;
namespace dds = spindle::dds;
using spindle::net::NodeId;

namespace {

// Trace events kept per node in a traced run: several times what the
// busiest node records, so the ring never wraps (add_trace_layer checks).
constexpr std::size_t kTraceRing = std::size_t{1} << 21;
constexpr std::size_t kCore = 4;
constexpr std::size_t kRelays = 2;
constexpr std::size_t kSessions = 1000;
constexpr double kRpsPerRelay = 120'000;
constexpr std::uint32_t kBytes = 64;
constexpr std::uint8_t kTopic = 1;

struct Ctx {
  sim::Engine* eng = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t bad_echo = 0;
  std::uint64_t outstanding = 0;
  std::size_t generators_done = 0;
  sim::Nanos last_resolved = 0;
  Samples rtt_ns;
};

sim::Co<> one_request(Ctx* c, dds::Session* s, std::uint64_t relay,
                      std::uint64_t k) {
  const sim::Nanos arrival = c->eng->now();
  std::vector<std::byte> body(kBytes);
  const std::uint64_t head[2] = {(relay << 32) | k, content_word(c->seed, relay, k)};
  std::memcpy(body.data(), head, sizeof head);
  ++c->outstanding;
  const dds::Reply r = co_await s->request(body);
  if (r.status == dds::ReplyStatus::ok) {
    ++c->ok;
    c->rtt_ns.add(static_cast<double>(c->eng->now() - arrival));
    if (r.data.size() < sizeof head ||
        std::memcmp(r.data.data(), head, sizeof head) != 0) {
      ++c->bad_echo;
    }
  } else {
    ++c->not_ok;
  }
  c->last_resolved = c->eng->now();
  --c->outstanding;
}

sim::Co<> generator(Ctx* c, std::vector<dds::Session*> sessions,
                    std::uint64_t relay, sim::Rng rng, sim::Nanos duration) {
  const sim::Nanos end = c->eng->now() + duration;
  const double rate_per_ns = kRpsPerRelay / 1e9;
  std::uint64_t k = 0;
  for (;;) {
    const double u = rng.unit();
    const auto gap = static_cast<sim::Nanos>(-std::log(1.0 - u) / rate_per_ns) + 1;
    co_await c->eng->sleep(gap);
    if (c->eng->now() >= end) break;
    dds::Session* s = sessions[rng.below(sessions.size())];
    ++c->offered;
    c->eng->spawn(one_request(c, s, relay, k++));
  }
  ++c->generators_done;
}

}  // namespace

RunResult run_swarm(const RunParams& p) {
  const sim::Nanos duration = p.tiny ? sim::millis(5) : sim::millis(200);
  RunResult r;
  Ctx ctx;
  ctx.seed = p.seed;

  sc::ClusterConfig cc;
  cc.nodes = kCore + kRelays;  // gateways sit after the core members
  cc.seed = p.seed;
  cc.sim_threads = 1;
  cc.trace.enabled = p.traced;
  cc.trace.ring_capacity = kTraceRing;

  std::unique_ptr<dds::Domain> domain;
  {
    Span s("dds.Domain()");
    domain = std::make_unique<dds::Domain>(cc);
    r.ctor_s = s.end();
  }
  sc::Cluster& cluster = domain->cluster();
  std::vector<dds::ClientMux*> muxes;
  // Delivery tap at every core member (send -> upcall of each relayed
  // envelope); the cost hook charges nothing.
  std::vector<Samples> delivery_ns(kCore);
  std::vector<std::uint64_t> delivered_bytes(kCore, 0);
  {
    Span s("dds.create_topic+mux+start");
    dds::TopicConfig tc;
    tc.name = "swarm";
    tc.topic_id = kTopic;
    tc.max_sample_size = 2 * kBytes;  // envelope headroom
    for (std::size_t n = 0; n < kCore; ++n) {
      tc.publishers.push_back(static_cast<NodeId>(n));
      tc.subscribers.push_back(static_cast<NodeId>(n));
    }
    domain->create_topic(tc);
    dds::MuxConfig mc;
    dds::SessionLink link;
    mc.per_message_overhead = link.per_message_overhead;
    mc.service = [](std::span<const std::byte> req) {
      std::vector<std::byte> out(kBytes);
      std::memcpy(out.data(), req.data(), std::min(out.size(), req.size()));
      return out;
    };
    for (std::size_t i = 0; i < kRelays; ++i) {
      muxes.push_back(&domain->create_client_mux(
          kTopic, static_cast<NodeId>(kCore + i), static_cast<NodeId>(i), mc));
    }
    domain->start();
    const sc::SubgroupId sg = domain->topic_subgroup(kTopic);
    for (std::size_t m = 0; m < kCore; ++m) {
      sim::Engine& eng = cluster.engine_for(static_cast<NodeId>(m));
      Samples& lat = delivery_ns[m];
      std::uint64_t& bytes = delivered_bytes[m];
      cluster.node(static_cast<NodeId>(m)).set_delivery_cost_hook(
          sg, [&lat, &bytes, &eng](const sc::Delivery& d) -> sim::Nanos {
            if (d.sent_at >= 0) lat.add(static_cast<double>(eng.now() - d.sent_at));
            bytes += d.data.size();
            return 0;
          });
    }
    r.start_s = s.end();
  }
  std::vector<std::vector<dds::Session*>> sessions(kRelays);
  {
    Span s("dds.connect");
    for (std::size_t i = 0; i < kRelays; ++i) {
      for (std::size_t k = 0; k < kSessions; ++k) {
        if (dds::Session* sess = muxes[i]->connect()) sessions[i].push_back(sess);
      }
    }
    r.connect_s = s.end();
  }
  ctx.eng = &domain->engine();
  sim::Rng root(p.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t i = 0; i < kRelays; ++i) {
    if (sessions[i].size() != kSessions) r.violation("swarm: a session connect was refused");
    ctx.eng->spawn(generator(&ctx, sessions[i], i, root.fork(), duration));
  }

  const sim::Nanos window_start = ctx.eng->now();
  const std::uint64_t steps0 = cluster.steps();
  bool completed = false;
  {
    Span s("sim.run_until");
    completed = cluster.run_until(
        [&] { return ctx.generators_done == kRelays && ctx.outstanding == 0; },
        window_start + duration + sim::seconds(5));
    r.run_s = s.end();
  }
  r.events = cluster.steps() - steps0;

  // Gates: every request resolved, every ok reply echoes its request head.
  r.attempted = ctx.offered;
  r.failed = ctx.not_ok + ctx.bad_echo + ctx.outstanding;
  if (!completed || ctx.outstanding != 0) r.violation("swarm: requests left unresolved");
  if (ctx.bad_echo != 0) r.violation("swarm: " + std::to_string(ctx.bad_echo) + " replies do not echo their request");
  if (ctx.not_ok != 0) r.violation("swarm: " + std::to_string(ctx.not_ok) + " requests not ok (shed, cancelled or disconnected)");

  Samples delivery;
  std::uint64_t bytes = 0;
  for (std::size_t m = 0; m < kCore; ++m) {
    delivery.append(delivery_ns[m]);
    bytes += delivered_bytes[m];
  }
  const sim::Nanos span = std::max(ctx.last_resolved - window_start, duration);
  const double span_s = sim::to_seconds(span);
  r.virt.set("throughput_gbps", "GB/s",
             static_cast<double>(bytes) / static_cast<double>(kCore) / span_s / 1e9);
  r.virt.pct("delivery_p50_us", delivery, 50);
  r.virt.pct("delivery_p999_us", delivery, 99.9);
  r.virt.set("offered_rps", "1/s", static_cast<double>(ctx.offered) / sim::to_seconds(duration));
  r.virt.set("goodput_rps", "1/s", static_cast<double>(ctx.ok) / span_s,
             static_cast<std::int64_t>(ctx.ok));
  r.virt.pct("rpc_p50_us", ctx.rtt_ns, 50);
  r.virt.pct("rpc_p999_us", ctx.rtt_ns, 99.9);

  std::uint64_t relayed = 0;
  {
    Span s("core.stats");
    LayerInputs in;
    in.collect(cluster);
    const auto& snap = in.snapshots.back();
    in.msgs_sent = snap.total.messages_sent;
    in.app_bytes = bytes / kCore;
    in.nodes = kCore;
    in.sender_threads = kRelays;  // each mux relay actor publishes
    in.span_ns = span;
    add_protocol_layers(in, r);
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t waiters = 0;
    std::uint64_t up = 0;
    std::uint64_t down = 0;
    for (const auto& rt : snap.relays) {
      admitted += rt.requests_admitted;
      shed += rt.requests_shed;
      waiters = std::max<std::uint64_t>(waiters, rt.peak_credit_waiters);
      up = std::max<std::uint64_t>(up, rt.peak_uplink_queue);
      down = std::max<std::uint64_t>(down, rt.peak_downlink_queue);
    }
    r.layer.set("dds.admitted", "count", static_cast<double>(admitted));
    r.layer.set("dds.shed", "count", static_cast<double>(shed));
    r.layer.set("dds.peak_credit_waiters", "count", static_cast<double>(waiters));
    r.layer.set("dds.peak_uplink_queue", "count", static_cast<double>(up));
    r.layer.set("dds.peak_downlink_queue", "count", static_cast<double>(down));
    if (in.msgs_sent != admitted) r.violation("swarm: relayed envelopes != admitted requests");
    relayed = in.msgs_sent;
  }
  if (p.traced) add_trace_layer(cluster.tracer(), relayed, r);

  {
    Span s("dds.shutdown+destroy");
    domain->shutdown();
    domain.reset();
    r.teardown_s = s.end();
  }
  return r;
}

}  // namespace perfbench
