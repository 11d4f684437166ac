#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace spindle::net {

Fabric::Fabric(sim::Engine& engine, const TimingModel& timing,
               std::size_t n_nodes)
    : engine_(engine),
      timing_(timing),
      n_(n_nodes),
      isolated_(n_nodes, 0),
      stats_(n_nodes),
      egress_free_(n_nodes, 0),
      ingress_free_(n_nodes, 0),
      control_egress_free_(n_nodes, 0),
      last_post_time_(n_nodes, -1),
      burst_end_(n_nodes, -1),
      atomics_free_(n_nodes, 0),
      egress_paused_(n_nodes, 0),
      egress_queue_(n_nodes),
      link_faults_(n_nodes * n_nodes),
      engine_of_node_(n_nodes, &engine),
      part_of_node_(n_nodes, 0),
      jitter_seq_(n_nodes * n_nodes, 0) {
  doorbells_.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    doorbells_.push_back(std::make_unique<sim::Signal>(engine));
  }
}

void Fabric::configure_partitions(std::vector<sim::Engine*> engine_of_node,
                                  std::vector<std::uint32_t> part_of_node,
                                  std::size_t n_partitions) {
  assert(engine_of_node.size() == n_ && part_of_node.size() == n_);
  assert(regions_.empty() && "configure_partitions before register_region");
  assert(n_partitions >= 1);
  n_parts_ = n_partitions;
  engine_of_node_ = std::move(engine_of_node);
  part_of_node_ = std::move(part_of_node);
  staged_.assign(n_parts_ * n_parts_, {});
  merge_scratch_.assign(n_parts_, {});
  // Built in place: a pool holds atomics, so it is never moved.
  pools_ = std::vector<PayloadPool>(n_parts_);
  // Rebind each doorbell to its node's worker engine, so a delivery
  // signalling it schedules the wake-up on the owning wheel.
  for (std::size_t i = 0; i < n_; ++i) {
    doorbells_[i] = std::make_unique<sim::Signal>(*engine_of_node_[i]);
  }
}

RegionId Fabric::register_region(NodeId node, std::span<std::byte> mem,
                                 Channel channel) {
  assert(node < n_);
  regions_.push_back(
      Region{node, mem, channel, std::vector<sim::Nanos>(n_, 0)});
  return RegionId{static_cast<std::uint32_t>(regions_.size() - 1)};
}

std::span<std::byte> Fabric::region_mem(RegionId id) {
  assert(id.index < regions_.size());
  return regions_[id.index].mem;
}

NodeId Fabric::region_node(RegionId id) const {
  assert(id.index < regions_.size());
  return regions_[id.index].node;
}

sim::Nanos Fabric::charge_post(NodeId src_node, sim::Nanos now) {
  // Burst detection: a post at the same instant as the previous one, or
  // starting exactly where the previous post's CPU cost ended, continues a
  // doorbell-batched burst.
  const bool in_burst =
      (now == last_post_time_[src_node]) || (now == burst_end_[src_node]);
  const sim::Nanos cost =
      in_burst ? timing_.post_cpu_next : timing_.post_cpu_first;
  last_post_time_[src_node] = now;
  burst_end_[src_node] = now + cost;
  stats_[src_node].post_cpu += cost;
  return cost;
}

sim::Nanos Fabric::post_write(NodeId src_node, std::span<const RegionId> dsts,
                              std::size_t dst_offset,
                              std::span<const std::byte> src,
                              std::span<const Extent> live) {
  const Extent whole{0, src.size()};
  if (live.empty()) live = {&whole, 1};
  assert(std::all_of(live.begin(), live.end(),
                     [&](const Extent& e) {
                       return e.off + e.len <= src.size();
                     }) &&
         "live extent outside the source span");
  const sim::Nanos now = node_engine(src_node).now();
  auto& st = stats_[src_node];
  // Snapshot the payload once, on the first target that needs it (DMA reads
  // source memory at transmission; the SST push discipline guarantees the
  // source is not mutated in a way that violates monotonicity, but we
  // snapshot for strict post-time semantics). Buffers are pooled, so this
  // is a memcpy, not an allocation; every target shares it.
  Payload* payload = nullptr;
  sim::Nanos total = 0;
  for (const RegionId dst : dsts) {
    assert(dst.index < regions_.size());
    Region& region = regions_[dst.index];
    assert(dst_offset + src.size() <= region.mem.size() &&
           "RDMA write out of registered region bounds");
    assert(std::all_of(live.begin(), live.end(),
                       [&](const Extent& e) {
                         return dst_offset + e.off + e.len <=
                                region.mem.size();
                       }) &&
           "live extent out of registered region bounds");
    const NodeId dst_node = region.node;

    const sim::Nanos cost = charge_post(src_node, now);
    total += cost;
    ++st.writes_posted;
    st.bytes_posted += src.size();

    if (isolated_[src_node] || isolated_[dst_node]) {
      continue;  // traffic silently dropped
    }

    if (src_node == dst_node) {
      // Loopback: the NIC still performs the DMA, but we deliver immediately
      // with no wire latency (Derecho writes to its own row locally and
      // never posts self-writes; this path exists for completeness).
      for (const Extent& e : live) {
        std::memcpy(region.mem.data() + dst_offset + e.off,
                    src.data() + e.off, e.len);
      }
      ++st.writes_delivered;
      continue;
    }

    if (payload == nullptr) {
      payload = acquire_payload(part_of(src_node), src, live);
    }
    // No landing can run before this post returns (serial: same thread;
    // parallel: staged until the barrier), so counting up as we go is safe.
    payload->refs.fetch_add(1, std::memory_order_relaxed);

    if (egress_paused_[src_node]) {
      // NIC stall (fault injection): the verb is posted and the CPU cost is
      // paid, but the send queue backs up until resume_egress().
      egress_queue_[src_node].push_back(
          QueuedWrite{dst, dst_offset, payload});
      continue;
    }

    // The verb reaches the NIC when the CPU finishes posting it.
    transmit(src_node, dst, dst_offset, payload, now + cost);
  }
  return total;
}

void Fabric::require_one_partition(const char* what) const {
  if (n_parts_ > 1) {
    throw std::logic_error(std::string("net::Fabric::") + what +
                           ": not supported with more than one simulation "
                           "worker (sim_threads > 1)");
  }
}

sim::Co<AtomicResult> Fabric::rdma_faa(NodeId src_node, RegionId dst,
                                       std::size_t dst_offset,
                                       std::uint64_t add) {
  require_one_partition("rdma_faa");
  return atomic_rmw(src_node, dst, dst_offset, /*is_cas=*/false, add, 0);
}

sim::Co<AtomicResult> Fabric::rdma_cas(NodeId src_node, RegionId dst,
                                       std::size_t dst_offset,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
  require_one_partition("rdma_cas");
  return atomic_rmw(src_node, dst, dst_offset, /*is_cas=*/true, expected,
                    desired);
}

sim::Co<AtomicResult> Fabric::atomic_rmw(NodeId src_node, RegionId dst,
                                         std::size_t dst_offset, bool is_cas,
                                         std::uint64_t arg0,
                                         std::uint64_t arg1) {
  assert(dst.index < regions_.size());
  Region& region = regions_[dst.index];
  assert(dst_offset % 8 == 0 && dst_offset + 8 <= region.mem.size() &&
         "RDMA atomic must target an aligned 8-byte word inside the region");
  const NodeId dst_node = region.node;
  sim::Engine& eng = engine_;
  const sim::Nanos now = eng.now();

  // Posting the atomic verb costs the same doorbell-batched CPU as a write;
  // unlike post_write the cost is slept here, inside the coroutine.
  const sim::Nanos cost = charge_post(src_node, now);
  ++stats_[src_node].atomics_posted;
  co_await eng.sleep(cost);

  if (isolated_[src_node] || isolated_[dst_node]) {
    co_return AtomicResult{};  // verb completes in error
  }

  sim::Nanos exec_start;
  sim::Nanos done;
  if (src_node == dst_node) {
    // Loopback: still executed by the NIC atomics unit (a CPU store would
    // not be atomic against concurrent remote atomics), but no wire legs.
    exec_start = std::max(eng.now(), atomics_free_[dst_node]);
    done = exec_start + timing_.atomic_unit_occupancy;
    atomics_free_[dst_node] = done;
  } else {
    // Request leg: a 16-byte masked-atomic request through the region
    // channel's egress lane, shaped by any injected link fault.
    const bool control = region.channel == Channel::control &&
                         timing_.separate_control_channel;
    sim::Nanos arrival = link_leg(src_node, dst_node, 16, control, eng.now());

    // Same QP FIFO as writes (the §2.2 memory fence): the RMW executes
    // after every earlier write on this (source, region) QP has landed, and
    // writes posted after it land after its execution.
    sim::Nanos& fifo = region.fifo[src_node];
    if (arrival <= fifo) arrival = fifo + 1;

    // The target NIC's single atomics unit: concurrent atomics to this
    // node, from any source and to any region, serialize here.
    exec_start = std::max(arrival, atomics_free_[dst_node]);
    const sim::Nanos exec_end = exec_start + timing_.atomic_unit_occupancy;
    atomics_free_[dst_node] = exec_end;
    fifo = exec_end;

    // Response leg: 8 bytes of fetched data back to the initiator.
    sim::Nanos& resp_egress =
        control ? control_egress_free_[dst_node] : egress_free_[dst_node];
    const sim::Nanos resp_end = std::max(resp_egress, exec_end) +
                                timing_.occupancy(8);
    resp_egress = resp_end;
    done = resp_end + timing_.latency_adder(8);
  }

  // The RMW itself runs at exec_start; `res` lives in this coroutine frame,
  // which stays suspended past `done` > exec_start, so the raw pointer is
  // safe.
  AtomicResult res;
  eng.schedule_fn(exec_start, [this, idx = dst.index,
                               off = static_cast<std::uint32_t>(dst_offset),
                               is_cas, arg0, arg1, dst_node, out = &res] {
    if (isolated_[dst_node]) return;  // target died before execution
    std::byte* p = regions_[idx].mem.data() + off;
    std::uint64_t old;
    std::memcpy(&old, p, sizeof old);
    bool modify = true;
    std::uint64_t next = old;
    if (is_cas) {
      modify = old == arg0;
      if (modify) next = arg1;
    } else {
      next = old + arg0;
    }
    if (modify) std::memcpy(p, &next, sizeof next);
    ++stats_[dst_node].atomics_executed;
    out->ok = true;
    out->value = old;
    if (modify) doorbells_[dst_node]->signal();
  });
  co_await eng.sleep(done - eng.now());
  if (isolated_[src_node]) co_return AtomicResult{};  // response lost
  co_return res;
}

Fabric::Payload* Fabric::acquire_payload(std::size_t stripe,
                                         std::span<const std::byte> src,
                                         std::span<const Extent> live) {
  PayloadPool& pool = pools_[stripe];
  if (pool.free_list.empty()) {
    pool.store.emplace_back();
    pool.free_list.push_back(&pool.store.back());
  }
  Payload* p = pool.free_list.back();
  pool.free_list.pop_back();
  // Pack the live extents; empty ones have nothing to land. Sized once,
  // as a whole-span copy would be, so the buffer grows only to fit.
  std::size_t live_bytes = 0;
  for (const Extent& e : live) live_bytes += e.len;
  p->bytes.clear();
  p->bytes.reserve(live_bytes);
  p->extents.clear();
  for (const Extent& e : live) {
    if (e.len == 0) continue;
    const auto from = src.begin() + static_cast<std::ptrdiff_t>(e.off);
    p->bytes.insert(p->bytes.end(), from,
                    from + static_cast<std::ptrdiff_t>(e.len));
    p->extents.push_back(e);
  }
  p->wire_size = src.size();
  ++pool.snapshots;
  pool.bytes_copied += p->bytes.size();
  ++pool.live;
  pool.live_bytes += static_cast<std::int64_t>(p->bytes.size());
  // One partition has one stripe, so its gauges are the fabric's; more
  // partitions sample the sum at window barriers (sample_payload_peak).
  if (n_parts_ == 1) note_payload_peak(pool.live, pool.live_bytes);
  return p;
}

void Fabric::release_payload(std::size_t stripe, Payload* p) {
  // acq_rel: every other holder's landing memcpy happens-before the reuse.
  if (p->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  PayloadPool& pool = pools_[stripe];
  --pool.live;
  pool.live_bytes -= static_cast<std::int64_t>(p->bytes.size());
  p->bytes.clear();
  pool.free_list.push_back(p);
}

void Fabric::note_payload_peak(std::int64_t live, std::int64_t live_bytes) {
  peak_live_payloads_ =
      std::max(peak_live_payloads_, static_cast<std::uint64_t>(live));
  peak_live_payload_bytes_ =
      std::max(peak_live_payload_bytes_,
               static_cast<std::uint64_t>(live_bytes));
}

void Fabric::sample_payload_peak() {
  std::int64_t live = 0;
  std::int64_t live_bytes = 0;
  for (const PayloadPool& pool : pools_) {
    live += pool.live;
    live_bytes += pool.live_bytes;
  }
  note_payload_peak(live, live_bytes);
}

Fabric::PayloadStats Fabric::payload_stats() const {
  PayloadStats out;
  std::int64_t live = 0;
  std::int64_t live_bytes = 0;
  for (const PayloadPool& pool : pools_) {
    out.snapshots += pool.snapshots;
    out.bytes_copied += pool.bytes_copied;
    out.pooled += pool.store.size();
    out.idle += pool.free_list.size();
    live += pool.live;
    live_bytes += pool.live_bytes;
  }
  out.live = static_cast<std::uint64_t>(live);
  out.live_bytes = static_cast<std::uint64_t>(live_bytes);
  out.peak_live = std::max(peak_live_payloads_, out.live);
  out.peak_live_bytes = std::max(peak_live_payload_bytes_, out.live_bytes);
  return out;
}

sim::Nanos Fabric::jitter_draw(NodeId src, NodeId dst, sim::Nanos jitter) {
  // Hash (link, per-link draw counter): every link's draws happen on its
  // source node's worker in that node's event order, so the sequence is
  // the same for every worker count (a shared RNG would depend on the
  // global interleaving of draws across links).
  const std::size_t link = src * n_ + dst;
  std::uint64_t x = 0xfab51cULL ^ (0x9e3779b97f4a7c15ULL * (link + 1)) ^
                    (++jitter_seq_[link] * 0xd1342543de82ef95ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<sim::Nanos>(x % static_cast<std::uint64_t>(jitter));
}

sim::Nanos Fabric::link_leg(NodeId src_node, NodeId dst_node,
                            std::size_t size, bool control,
                            sim::Nanos ready) {
  // Link-fault shaping (fault injection): scaled latency plus jitter. The
  // per-QP FIFO clamp at the landing keeps writes ordered regardless of the
  // draw.
  const LinkFault& lf = link_faults_[src_node * n_ + dst_node];
  sim::Nanos adder = timing_.latency_adder(size);
  if (lf.latency_mult != 1.0) {
    adder = static_cast<sim::Nanos>(static_cast<double>(adder) *
                                    lf.latency_mult);
  }
  if (lf.jitter > 0) adder += jitter_draw(src_node, dst_node, lf.jitter);
  // Control QPs (SST pushes) carry tiny writes and interleave with bulk
  // traffic packet by packet: they serialize only among themselves and are
  // never head-of-line blocked behind an SMC data batch.
  sim::Nanos& lane =
      control ? control_egress_free_[src_node] : egress_free_[src_node];
  lane = std::max(lane, ready) + timing_.occupancy(size);
  return lane + adder;
}

void Fabric::transmit(NodeId src_node, RegionId dst, std::size_t dst_offset,
                      Payload* payload, sim::Nanos ready) {
  const Region& region = regions_[dst.index];
  const NodeId dst_node = region.node;
  const std::size_t size = payload->wire_size;
  const bool control =
      region.channel == Channel::control && timing_.separate_control_channel;
  sim::Engine& src_engine = node_engine(src_node);
  const sim::Engine::ContextKey k = src_engine.context_key();
  const auto [del_pu, del_s] = src_engine.draw_child_key();
  const Arrival a{dst, static_cast<std::uint32_t>(dst_offset), payload,
                  link_leg(src_node, dst_node, size, control, ready),
                  timing_.occupancy(size), src_node, dst_node, control,
                  src_engine.now(), k.b0, k.b1, k.d, k.pu, k.s, del_pu, del_s};
  // The destination half lands now when no other worker can be running:
  // one partition, or a post from outside any event (every worker is idle
  // between runs). Otherwise it is staged, and the barrier merge on the
  // destination's worker replays it in global post order.
  if (n_parts_ == 1 || k.s == 0) {
    deliver_arrival(a);
  } else {
    staged_[part_of(src_node) * n_parts_ + part_of(dst_node)].push_back(a);
  }
}

void Fabric::merge_arrivals(std::size_t dst_part) {
  std::vector<Arrival>& scratch = merge_scratch_[dst_part];
  scratch.clear();
  for (std::size_t sp = 0; sp < n_parts_; ++sp) {
    std::vector<Arrival>& cell = staged_[sp * n_parts_ + dst_part];
    scratch.insert(scratch.end(), cell.begin(), cell.end());
    cell.clear();
  }
  if (scratch.empty()) return;
  // One-worker order replay: one worker applies the destination half of
  // every transmit at post time, in global event order — which is exactly
  // the worker-count-invariant event key order (sim/sched.hpp). Sorting by
  // the posting event's full key, then by the per-post child index,
  // reproduces it bit for bit.
  std::sort(scratch.begin(), scratch.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.k_at != b.k_at) return a.k_at < b.k_at;
              if (a.k_b0 != b.k_b0) return a.k_b0 < b.k_b0;
              if (a.k_b1 != b.k_b1) return a.k_b1 < b.k_b1;
              if (a.k_d != b.k_d) return a.k_d < b.k_d;
              if (a.k_pu != b.k_pu) return a.k_pu < b.k_pu;
              if (a.k_s != b.k_s) return a.k_s < b.k_s;
              return a.del_s < b.del_s;
            });
  for (const Arrival& a : scratch) deliver_arrival(a);
  scratch.clear();
}

void Fabric::deliver_arrival(const Arrival& a) {
  Region& region = regions_[a.dst.index];
  sim::Nanos delivery;
  if (a.control) {
    delivery = a.base;
  } else {
    // Ingress serialization at the receiver's bulk lane.
    const sim::Nanos ingress_start =
        std::max(a.base - a.occ, ingress_free_[a.dst_node]);
    delivery = ingress_start + a.occ;
    ingress_free_[a.dst_node] = delivery;
  }
  // FIFO within (source, region) — one QP (the memory fence of §2.2).
  sim::Nanos& fifo = region.fifo[a.src_node];
  if (delivery <= fifo) delivery = fifo + 1;
  fifo = delivery;

  // Stamp exactly what schedule_fn in the posting context would have:
  // born at the posting time (b0 = k_at) by the posting event (b1 = its
  // b0, 0 outside any event), into the future (d = 0), with the identity
  // drawn at post time.
  engine_of_node_[a.dst_node]->schedule_fn_keyed(
      delivery, a.k_at, a.k_b0, 0, a.del_pu, a.del_s,
      [this, dst = a.dst, dst_offset = a.dst_offset, dst_node = a.dst_node,
       payload = a.payload] {
        if (isolated_[dst_node]) {  // died while in flight
          release_payload(part_of(dst_node), payload);
          return;
        }
        std::byte* to = regions_[dst.index].mem.data() + dst_offset;
        const std::byte* from = payload->bytes.data();
        for (const Extent& e : payload->extents) {
          std::memcpy(to + e.off, from, e.len);
          from += e.len;
        }
        ++stats_[dst_node].writes_delivered;
        release_payload(part_of(dst_node), payload);
        doorbells_[dst_node]->signal();
      });
}

void Fabric::isolate(NodeId node) {
  assert(node < n_);
  // Crash isolation flips a flag read by every other node's posts and
  // in-flight deliveries — inherently cross-partition, so it has no
  // race-free multi-worker story.
  require_one_partition("isolate");
  isolated_[node] = 1;
  // A dead NIC's send queue is gone; recycle the stalled payloads.
  for (QueuedWrite& w : egress_queue_[node]) release_payload(0, w.payload);
  egress_queue_[node].clear();
}

void Fabric::restore(NodeId node) {
  assert(node < n_);
  require_one_partition("restore");
  isolated_[node] = 0;
  egress_paused_[node] = 0;
  assert(egress_queue_[node].empty());
}

void Fabric::pause_egress(NodeId node) {
  assert(node < n_);
  egress_paused_[node] = 1;
}

void Fabric::resume_egress(NodeId node) {
  assert(node < n_);
  if (!egress_paused_[node]) return;
  egress_paused_[node] = 0;
  auto queued = std::move(egress_queue_[node]);
  egress_queue_[node].clear();
  const std::size_t stripe = part_of(node);
  if (isolated_[node]) {  // crashed while stalled: queue lost
    for (QueuedWrite& w : queued) release_payload(stripe, w.payload);
    return;
  }
  const sim::Nanos now = node_engine(node).now();
  for (auto& w : queued) {
    if (isolated_[regions_[w.dst.index].node]) {
      release_payload(stripe, w.payload);
      continue;
    }
    transmit(node, w.dst, w.dst_offset, w.payload, now);
  }
}

void Fabric::set_link_fault(NodeId src, NodeId dst, double latency_multiplier,
                            sim::Nanos jitter) {
  assert(src < n_ && dst < n_);
  // A multiplier below 1 could deliver faster than min_remote_delay(), the
  // parallel engine's lookahead bound — soundness, not just determinism.
  if (latency_multiplier < 1.0) {
    require_one_partition("set_link_fault (latency multiplier < 1)");
  }
  link_faults_[src * n_ + dst] = LinkFault{latency_multiplier, jitter};
}

}  // namespace spindle::net
