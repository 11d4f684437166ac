// sharded: 8 nodes, one OrderingDomain with k = 4 persistent shards, the
// default SST sequencer, 256 B messages of which 10% are cross-shard sends
// of width 2. Closed loop: each node runs one stream per shard plus one
// cross-shard stream, each sending its next message as soon as the
// previous send returns.

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <memory>

#include "bench.hpp"
#include "core/domain.hpp"
#include "core/group.hpp"

namespace perfbench {

namespace sc = spindle::core;
namespace sim = spindle::sim;
using spindle::net::NodeId;

namespace {

// Trace events kept per node in a traced run: several times what the
// busiest node records, so the ring never wraps (add_trace_layer checks).
constexpr std::size_t kTraceRing = std::size_t{1} << 18;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kShards = 4;
constexpr std::size_t kCrossWidth = 2;
constexpr std::uint32_t kMsgBytes = 256;
constexpr std::uint64_t kCrossPerMille = 100;

/// Schedule decision of message i of `sender`: cross-shard or not, and the
/// routing key (singles) or the first shard of the mask (crosses).
std::uint64_t schedule_hash(std::uint64_t seed, NodeId sender, std::uint64_t i) {
  return fnv(content_word(seed, sender, i), 0x5eed);
}
bool is_cross(std::uint64_t h) { return (h >> 12) % 1000 < kCrossPerMille; }
std::uint32_t cross_mask(std::uint64_t h) {
  const std::size_t base = (h >> 33) % kShards;
  std::uint32_t mask = 0;
  for (std::size_t j = 0; j < kCrossWidth; ++j) mask |= 1u << ((base + j) % kShards);
  return mask;
}

void fill(std::span<std::byte> buf, NodeId id, std::uint64_t i, std::uint64_t seed) {
  const std::uint64_t words[2] = {(std::uint64_t{id} << 32) | i,
                                  content_word(seed, id, i)};
  std::memcpy(buf.data(), words, sizeof words);
}

sim::Co<> single_stream(sc::OrderingDomain* dom, sc::Node* node, NodeId id,
                        std::vector<std::uint64_t> indices, std::uint64_t seed) {
  for (std::uint64_t i : indices) {
    if (node->stopped()) co_return;
    co_await dom->send(id, schedule_hash(seed, id, i), kMsgBytes,
                       [&](std::span<std::byte> buf) { fill(buf, id, i, seed); });
  }
}

sim::Co<> cross_stream(sc::OrderingDomain* dom, sc::Node* node, NodeId id,
                       std::vector<std::uint64_t> indices, std::uint64_t seed) {
  for (std::uint64_t i : indices) {
    if (node->stopped()) co_return;
    co_await dom->send_multi(id, cross_mask(schedule_hash(seed, id, i)), kMsgBytes,
                             [&](std::span<std::byte> buf) { fill(buf, id, i, seed); });
  }
}

struct Record {
  std::int64_t seq;
  sim::Nanos sent_at;
  sim::Nanos delivered_at;
};

struct Member {
  std::vector<char> seen;  // [sender * per_sender + i]
  std::uint64_t delivered = 0;
  std::uint64_t bad = 0;
  sim::Nanos last_at = 0;
  std::vector<std::uint64_t> proj = std::vector<std::uint64_t>(kShards, kFnvOffset);
  Samples latency_ns;
  Samples cross_ns;
  // Persistence: shard records delivered here, awaiting the global frontier.
  std::vector<std::deque<Record>> pending = std::vector<std::deque<Record>>(kShards);
  std::uint64_t durable = 0;
  std::uint64_t advances = 0;
  Samples durable_ns;
  Samples persist_lag_ns;
};

}  // namespace

RunResult run_sharded(const RunParams& p) {
  const std::uint64_t per_sender = p.tiny ? 100 : 2000;
  RunResult r;

  sc::ClusterConfig cc;
  cc.nodes = kNodes;
  cc.seed = p.seed;
  cc.sim_threads = 1;
  cc.trace.enabled = p.traced;
  cc.trace.ring_capacity = kTraceRing;

  std::unique_ptr<sc::Cluster> cluster;
  std::unique_ptr<sc::OrderingDomain> dom;
  {
    Span s("core.Cluster()");
    cluster = std::make_unique<sc::Cluster>(cc);
    r.ctor_s = s.end();
  }
  std::vector<NodeId> all(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) all[i] = static_cast<NodeId>(i);
  std::vector<Member> members(kNodes);
  {
    Span s("core.OrderingDomain()+start+attach");
    sc::DomainConfig dc;
    dc.shards = kShards;
    dc.members = all;
    dc.opts = sc::ProtocolOptions::spindle();
    dc.opts.persistent = true;
    dc.sequencer = 0;
    dc.sequencer_mode = sc::SequencerKind::sst;
    dom = std::make_unique<sc::OrderingDomain>(*cluster, dc);
    cluster->start();
    for (NodeId m : all) {
      Member& mem = members[m];
      mem.seen.assign(kNodes * per_sender, 0);
      sim::Engine& eng = cluster->engine_for(m);
      dom->attach(m, [&mem, &eng, seed = p.seed, per_sender](const sc::DomainDelivery& d) {
        std::uint64_t words[2] = {0, 0};
        std::memcpy(words, d.data.data(), sizeof words);
        const std::uint64_t from = words[0] >> 32;
        const std::uint64_t i = words[0] & 0xffffffffu;
        if (from >= kNodes || i >= per_sender ||
            words[1] != content_word(seed, from, i) ||
            mem.seen[from * per_sender + i] != 0) {
          ++mem.bad;
        } else {
          mem.seen[from * per_sender + i] = 1;
        }
        ++mem.delivered;
        mem.last_at = eng.now();
        for (std::uint32_t mask = d.shard_mask; mask != 0; mask &= mask - 1) {
          const auto sh = static_cast<std::size_t>(std::countr_zero(mask));
          if (sh < kShards) mem.proj[sh] = fnv(mem.proj[sh], words[0]);
        }
        if (d.sent_at >= 0) {
          const auto lat = static_cast<double>(eng.now() - d.sent_at);
          mem.latency_ns.add(lat);
          if (d.cross) mem.cross_ns.add(lat);
        }
      });
      // Durability taps on each shard subgroup: the delivery cost hook sees
      // every shard record (seq, send time) and charges nothing; the
      // persistence handler reports the global frontier.
      for (std::size_t sh = 0; sh < kShards; ++sh) {
        const sc::SubgroupId sg = dom->shard_subgroup(sh);
        auto& pending = mem.pending[sh];
        cluster->node(m).set_delivery_cost_hook(
            sg, [&pending, &eng](const sc::Delivery& d) -> sim::Nanos {
              pending.push_back(Record{d.seq, d.sent_at, eng.now()});
              return 0;
            });
        cluster->node(m).set_persistence_handler(
            sg, [&pending, &mem, &eng](std::int64_t frontier) {
              ++mem.advances;
              while (!pending.empty() && pending.front().seq <= frontier) {
                const Record& rec = pending.front();
                if (rec.sent_at >= 0) {
                  mem.durable_ns.add(static_cast<double>(eng.now() - rec.sent_at));
                }
                mem.persist_lag_ns.add(static_cast<double>(eng.now() - rec.delivered_at));
                ++mem.durable;
                pending.pop_front();
              }
            });
      }
    }
    r.start_s = s.end();
  }

  std::uint64_t singles = 0;
  std::uint64_t crosses = 0;
  std::size_t streams = 0;
  for (NodeId id : all) {
    std::vector<std::vector<std::uint64_t>> per_shard(kShards);
    std::vector<std::uint64_t> cross;
    for (std::uint64_t i = 0; i < per_sender; ++i) {
      const std::uint64_t h = schedule_hash(p.seed, id, i);
      if (is_cross(h)) {
        cross.push_back(i);
      } else {
        per_shard[dom->shard_of(h)].push_back(i);
      }
    }
    sc::Node* node = &cluster->node(id);
    for (auto& idx : per_shard) {
      if (idx.empty()) continue;
      singles += idx.size();
      ++streams;
      cluster->engine_for(id).spawn(single_stream(dom.get(), node, id, std::move(idx), p.seed));
    }
    crosses += cross.size();
    if (!cross.empty()) {
      ++streams;
      cluster->engine_for(id).spawn(cross_stream(dom.get(), node, id, std::move(cross), p.seed));
    }
  }

  const std::uint64_t sends = kNodes * per_sender;
  const std::uint64_t expected = sends * kNodes;
  const std::uint64_t records = (singles + crosses * kCrossWidth) * kNodes;
  const std::uint64_t steps0 = cluster->steps();
  bool completed = false;
  {
    Span s("sim.run_until");
    completed = cluster->run_until(
        [&] {
          std::uint64_t n = 0;
          std::uint64_t d = 0;
          for (const Member& m : members) {
            n += m.delivered;
            d += m.durable;
          }
          return n >= expected && d >= records;
        },
        sim::seconds(60));
    r.run_s = s.end();
  }
  r.events = cluster->steps() - steps0;

  // Gates: exactly-once merged delivery of every send at every member, and
  // identical per-shard projections of the merged stream everywhere.
  r.attempted = sends;
  std::uint64_t missing = 0;
  Samples latency;
  Samples cross_lat;
  Samples durable;
  Samples lag;
  std::uint64_t advances = 0;
  std::uint64_t durable_records = 0;
  sim::Nanos makespan = 0;
  for (const Member& m : members) {
    missing += static_cast<std::uint64_t>(std::count(m.seen.begin(), m.seen.end(), 0));
    if (m.bad != 0) r.violation("sharded: member saw " + std::to_string(m.bad) + " duplicate or corrupt deliveries");
    if (m.proj != members[0].proj) r.violation("sharded: per-shard projections differ between members");
    latency.append(m.latency_ns);
    cross_lat.append(m.cross_ns);
    durable.append(m.durable_ns);
    lag.append(m.persist_lag_ns);
    advances += m.advances;
    durable_records += m.durable;
    makespan = std::max(makespan, m.last_at);
  }
  if (!completed) r.violation("sharded: run did not complete");
  if (latency.count() != expected) r.violation("sharded: missing send timestamps");
  if (durable_records != records) r.violation("sharded: not every shard record became durable");
  if (dom->grants_issued() != crosses) r.violation("sharded: sequencer grants != cross-shard sends");
  r.failed = std::min<std::uint64_t>(missing, sends);
  if (missing != 0) r.violation("sharded: " + std::to_string(missing) + " (member, message) deliveries missing");

  const double secs = sim::to_seconds(makespan);
  r.virt.set("throughput_gbps", "GB/s",
             secs > 0 ? static_cast<double>(sends) * kMsgBytes / secs / 1e9 : 0);
  r.virt.pct("delivery_p50_us", latency, 50);
  r.virt.pct("delivery_p999_us", latency, 99.9);
  r.virt.pct("cross_p999_us", cross_lat, 99.9);
  r.virt.pct("durable_p999_us", durable, 99.9);
  r.virt.set("makespan_us", "us", static_cast<double>(makespan) / 1e3);

  {
    Span s("core.stats");
    LayerInputs in;
    in.collect(*cluster);
    // A cross-shard send is multicast once per involved shard.
    in.msgs_sent = singles + crosses * kCrossWidth;
    in.app_bytes = in.msgs_sent * kMsgBytes;
    in.nodes = kNodes;
    in.sender_threads = streams;
    in.span_ns = makespan;
    add_protocol_layers(in, r);
    const auto grants = dom->grant_latency();
    r.layer.set("core.grant_p50_us", "us", static_cast<double>(grants.percentile(50)) / 1e3,
                static_cast<std::int64_t>(grants.count()));
    r.layer.set("core.grant_p999_us", "us", static_cast<double>(grants.percentile(99.9)) / 1e3,
                static_cast<std::int64_t>(grants.count()));
    r.layer.pct("store.persist_lag_p999_us", lag, 99.9);
    r.layer.set("store.records_per_frontier_advance", "count",
                advances > 0 ? static_cast<double>(durable_records) / static_cast<double>(advances) : 0,
                static_cast<std::int64_t>(advances));
  }
  if (p.traced) add_trace_layer(cluster->tracer(), singles + crosses * kCrossWidth, r);

  {
    Span s("core.shutdown+destroy");
    cluster->shutdown();
    dom.reset();
    cluster.reset();
    r.teardown_s = s.end();
  }
  return r;
}

}  // namespace perfbench
