#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/timing.hpp"
#include "sim/engine.hpp"
#include "sim/mutex.hpp"

namespace spindle::net {

using NodeId = std::uint32_t;

/// Handle to a registered remote-writable memory region.
struct RegionId {
  std::uint32_t index = UINT32_MAX;
  bool valid() const noexcept { return index != UINT32_MAX; }
};

/// A byte range {off, len} within a write's source span: the bytes of the
/// write a receiver can ever read (see post_write).
struct Extent {
  std::size_t off = 0;
  std::size_t len = 0;
};

/// Traffic class of a region, modeling Derecho's use of separate RDMA
/// connections (QPs) for the SST and for SMC ring data. RDMA guarantees
/// ordering only *within* a QP: writes to the same region from the same
/// source stay FIFO (the memory-fence guarantee), but a tiny SST
/// acknowledgment on the control QP is not head-of-line blocked behind a
/// multi-hundred-KB SMC batch on the bulk QP — NICs interleave QPs
/// packet by packet.
enum class Channel { bulk, control };

/// Completion of a one-sided atomic (FAA/CAS). `ok` is false when either
/// endpoint was isolated — the verb completes in error (or never
/// completes) and the word is untouched unless the target executed it
/// before dying. `value` is the target word *before* the read-modify-write:
/// the fetched counter for FAA, the compared word for CAS (the swap
/// happened iff it equals `expected`).
struct AtomicResult {
  bool ok = false;
  std::uint64_t value = 0;
};

/// Simulated RDMA fabric: N nodes on a full-bisection switch.
///
/// Supports the one operation Derecho's small-message stack needs:
/// one-sided RDMA WRITE into a pre-registered remote region. Guarantees
/// modeled after the hardware properties the SST relies on (§2.2 of the
/// paper):
///
///  * **per-link FIFO / memory fence** — two writes posted in order from A
///    to B become visible at B in that order, never interleaved;
///  * **cache-line atomicity** — a write's bytes appear at the destination
///    all at once (the simulator copies the whole payload in one event);
///  * **zero-copy** — payload is snapshotted at post time (DMA semantics),
///    once per post however many targets it fans out to, and placed
///    directly into each destination's registered memory (only the live
///    extents a post names; the wire is charged for the whole span).
///
/// Failure injection: `isolate()` silently drops all traffic to and from a
/// node, modeling a crash as seen by the network.
class Fabric {
 public:
  Fabric(sim::Engine& engine, const TimingModel& timing, std::size_t n_nodes);

  sim::Engine& engine() noexcept { return engine_; }
  const TimingModel& timing() const noexcept { return timing_; }
  std::size_t size() const noexcept { return n_; }

  /// Register `mem` (owned by the caller, must outlive the Fabric's use) as
  /// remotely writable memory of `node`.
  RegionId register_region(NodeId node, std::span<std::byte> mem,
                           Channel channel = Channel::bulk);

  std::span<std::byte> region_mem(RegionId id);
  NodeId region_node(RegionId id) const;

  /// Spread the nodes over the workers of a multi-worker
  /// sim::ParallelEngine (a new fabric has one partition: every node on
  /// the constructor's engine). `engine_of_node[i]` is the worker engine
  /// that owns node i and `part_of_node[i]` its partition. Call once,
  /// before any region is registered. With more than one partition an
  /// inter-node post made inside an event is staged into a
  /// per-(src-partition, dst-partition) channel instead of landing at once
  /// (see transmit), and the owner must call merge_arrivals(p) for each
  /// partition at every lookahead barrier. The calls that cannot run
  /// across partitions throw std::logic_error there: isolate(), restore(),
  /// rdma_faa()/rdma_cas(), and set_link_fault() with a latency multiplier
  /// below 1 (it would break the lookahead bound).
  /// pause/resume_egress and set_link_fault must run on the affected
  /// source node's worker. Jitter draws are the same for every partition
  /// count (see jitter_draw).
  void configure_partitions(std::vector<sim::Engine*> engine_of_node,
                            std::vector<std::uint32_t> part_of_node,
                            std::size_t n_partitions);

  /// Land every staged arrival destined to partition `dst_part` through
  /// the one arrival path (deliver_arrival), in the one-worker global post
  /// order (sorted by the posting events' keys). Must be called on
  /// `dst_part`'s worker thread, at a barrier where all workers are parked
  /// between lookahead windows.
  void merge_arrivals(std::size_t dst_part);

  /// Post one one-sided write of `src` into (dst region, dst_offset) for
  /// every region in `dsts`, in order — the fan-out of a multicast push.
  ///
  /// Each target is its own verb on its own QP: it pays its own post CPU
  /// and takes its own trip through the wire model. The payload, however,
  /// is snapshotted once (DMA semantics: later changes to `src` never
  /// land) into a pooled, reference-counted buffer that every target
  /// shares, the way a NIC DMA-reads the source once per QP without a
  /// per-target host copy. The last landing or drop returns it to the pool.
  ///
  /// `live`, when not empty, lists the extents of `src` that receivers can
  /// ever read (an SMC data push names each slot's message bytes). Only
  /// those are snapshotted and landed; the rest of the destination range
  /// keeps whatever it held. The wire still carries the whole of `src`:
  /// transmission, ingress occupancy and NicStats::bytes_posted use
  /// src.size(), so virtual time does not depend on `live`. Empty means
  /// all of `src`.
  ///
  /// Returns the summed CPU cost of posting the verbs, charged to the
  /// calling simulated thread: the caller must `co_await engine.sleep(cost)`
  /// immediately (or accumulate costs of a burst and sleep once).
  /// Consecutive posts at the same virtual timestamp, or back-to-back after
  /// sleeping the returned cost, form a burst and are charged the cheaper
  /// `post_cpu_next`; so all but (at most) the first target of a fan-out
  /// are burst posts.
  sim::Nanos post_write(NodeId src_node, std::span<const RegionId> dsts,
                        std::size_t dst_offset, std::span<const std::byte> src,
                        std::span<const Extent> live = {});

  /// Single-target post: the one-element fan-out.
  sim::Nanos post_write(NodeId src_node, RegionId dst, std::size_t dst_offset,
                        std::span<const std::byte> src,
                        std::span<const Extent> live = {}) {
    return post_write(src_node, std::span<const RegionId>(&dst, 1),
                      dst_offset, src, live);
  }

  /// One-sided fetch-and-add on an aligned 8-byte word of a registered
  /// region: fetches the word, adds `add`, and returns the *old* value —
  /// executed entirely by the target NIC's atomics unit, no remote CPU.
  ///
  /// Cost model (DESIGN.md §3g): the caller's CPU pays the same
  /// doorbell-batched post cost as a write (charged inside the coroutine),
  /// then the request serializes through the source's egress lane, the wire,
  /// the target's single atomics execution unit (`atomic_unit_occupancy` —
  /// concurrent atomics to one node queue here), and a response leg back —
  /// ~2x the isolated 0-byte write latency when uncontended. Atomics share
  /// the per-(source, region) QP FIFO with writes: an atomic posted after a
  /// write executes after that write lands, and later writes land after it.
  ///
  /// v1 restriction: one partition only (throws std::logic_error
  /// otherwise). More partitions would need the RMW staged at a lookahead
  /// barrier like write arrivals; the read-back makes that a two-window
  /// protocol and is deferred.
  sim::Co<AtomicResult> rdma_faa(NodeId src_node, RegionId dst,
                                 std::size_t dst_offset, std::uint64_t add);

  /// One-sided compare-and-swap on an aligned 8-byte word: iff the word
  /// equals `expected`, replace it with `desired`. Returns the old word
  /// (swap succeeded iff value == expected). Same cost model and
  /// restrictions as rdma_faa.
  sim::Co<AtomicResult> rdma_cas(NodeId src_node, RegionId dst,
                                 std::size_t dst_offset,
                                 std::uint64_t expected,
                                 std::uint64_t desired);

  /// Doorbell of a node: signalled whenever a write lands in any of the
  /// node's regions. Pollers use it to wake from quiescent backoff.
  sim::Signal& doorbell(NodeId node) { return *doorbells_[node]; }

  /// Crash-style isolation: all in-flight and future traffic involving
  /// `node` is dropped.
  void isolate(NodeId node);
  bool is_isolated(NodeId node) const { return isolated_[node]; }

  /// Reconnect a previously isolated node (a process restart brought its
  /// NIC back). Nothing queued survives: the node rejoins with an empty
  /// send queue and fresh traffic only.
  void restore(NodeId node);

  /// Degraded-mode fault injection: stall all egress of `node` ("NIC
  /// stall"). Writes posted while stalled queue up in post order — the
  /// NIC's send queue backs up, nothing is lost — and drain through the
  /// normal wire model when resume_egress() runs. A node whose stall
  /// outlives the membership failure timeout looks exactly like a crashed
  /// node to its peers (heartbeats stop arriving) while it keeps receiving,
  /// which is the partial-failure case one-sided protocols find hardest.
  void pause_egress(NodeId node);
  void resume_egress(NodeId node);
  bool egress_paused(NodeId node) const { return egress_paused_[node]; }

  /// Degraded-mode fault injection: scale the latency of the src->dst link
  /// by `latency_multiplier` and add uniform jitter in [0, jitter) per
  /// write (congestion, routing flaps; RC retransmission shows up as
  /// latency, never as loss). multiplier 1 and jitter 0 restore the link.
  /// Per-QP FIFO is preserved regardless of jitter.
  void set_link_fault(NodeId src, NodeId dst, double latency_multiplier,
                      sim::Nanos jitter);

  struct NicStats {
    std::uint64_t writes_posted = 0;
    std::uint64_t bytes_posted = 0;
    std::uint64_t writes_delivered = 0;
    sim::Nanos post_cpu = 0;
    /// One-sided atomics initiated by this node (FAA + CAS posts).
    std::uint64_t atomics_posted = 0;
    /// Atomics executed by this node's NIC atomics unit on behalf of peers
    /// (including itself via loopback).
    std::uint64_t atomics_executed = 0;
  };
  const NicStats& stats(NodeId node) const { return stats_[node]; }

  /// Host-side cost of payload staging (see post_write): snapshots taken
  /// and the live bytes copied into them, summed over every source; the
  /// snapshots (and their payload bytes) held by in-flight or stalled
  /// writes, now and at the peak; and the pool's buffers, of which `idle`
  /// sit in free lists. Every buffer is live or idle, so at quiescence
  /// live == 0 and idle == pooled. Snapshot counts are a pure function of
  /// the run. One partition tracks the peak at every snapshot; more
  /// partitions sample it at window barriers (sample_payload_peak),
  /// so there it is a lower bound. Each landing or in-flight drop returns
  /// its reference on the destination's stripe. Read it only while the
  /// engine is not running.
  struct PayloadStats {
    std::uint64_t snapshots = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t live = 0;
    std::uint64_t live_bytes = 0;
    std::uint64_t peak_live = 0;
    std::uint64_t peak_live_bytes = 0;
    std::uint64_t pooled = 0;
    std::uint64_t idle = 0;
  };
  PayloadStats payload_stats() const;

  /// Fold the current live snapshot totals into the peaks. Needed only with
  /// more than one partition, where each stripe keeps its own gauges: call
  /// it while every worker is parked at a window barrier.
  void sample_payload_peak();

 private:
  struct Region {
    NodeId node;
    std::span<std::byte> mem;
    Channel channel;
    // Per-source last delivery time: FIFO within (source, region), i.e.
    // within one QP — the RDMA memory-fence guarantee of §2.2.
    std::vector<sim::Nanos> fifo;
  };
  struct LinkFault {
    double latency_mult = 1.0;
    sim::Nanos jitter = 0;
  };
  /// One post's payload snapshot, shared by all its targets: the live
  /// bytes packed back to back, the extents they land at (relative to the
  /// write's destination offset) and the size the wire carries. `refs`
  /// counts the targets still holding it (in flight, staged or stalled); it
  /// is atomic because with more than one partition the landings that drop
  /// it run on the destinations' workers.
  struct Payload {
    std::vector<std::byte> bytes;
    std::vector<Extent> extents;
    std::size_t wire_size = 0;
    std::atomic<std::uint32_t> refs{0};
  };
  struct QueuedWrite {
    RegionId dst;
    std::size_t dst_offset;
    Payload* payload;  // pool-owned, one reference
  };

  /// One write between its two halves. The source half (egress
  /// serialization and the link leg, see link_leg) is per source node and
  /// resolved at post time; the destination half (ingress serialization,
  /// the per-QP FIFO clamp and the landing event) is per *destination* node
  /// and is applied by deliver_arrival — at once, or at the barrier merge
  /// in the sort order below when the post was staged.
  struct Arrival {
    RegionId dst;
    std::uint32_t dst_offset;
    Payload* payload;  // one reference
    /// Bulk: arrival at the receiver NIC (pre-ingress). Control: delivery
    /// time (pre-FIFO-clamp) — control QPs skip ingress serialization.
    sim::Nanos base;
    sim::Nanos occ;  // bulk ingress occupancy
    NodeId src_node;
    NodeId dst_node;
    bool control;
    /// Posting time and full ordering key of the posting event
    /// (sim/sched.hpp; all zeros outside any event): sorting merged
    /// arrivals by (k_at, k_b0, k_b1, k_d, k_pu, k_s) reproduces the
    /// one-worker global post order, because that key is exactly the order
    /// a single wheel dispatches events in. (del_pu, del_s) is the identity
    /// the posting context drew for the landing event at post time
    /// (Engine::draw_child_key) — the same draw schedule_fn would make;
    /// del_s doubles as the final sort key ordering multiple posts from one
    /// event.
    sim::Nanos k_at, k_b0, k_b1;
    std::uint32_t k_d;
    std::uint64_t k_pu, k_s;
    std::uint64_t del_pu, del_s;
  };

  /// In-flight payload snapshots are pooled: the last target to land or
  /// drop a snapshot returns it for reuse, so steady-state traffic
  /// allocates nothing per write. The pool owns every buffer (deque keeps
  /// addresses stable); an event that never runs merely strands its buffer
  /// until the Fabric dies — no leak. Pools are striped per partition;
  /// callers always use the stripe of the worker thread they run on: a
  /// snapshot is taken from the poster's stripe and goes back to the
  /// stripe of whichever destination worker dropped the last reference, so
  /// buffers migrate between stripes without locking.
  Payload* acquire_payload(std::size_t stripe, std::span<const std::byte> src,
                           std::span<const Extent> live);
  void release_payload(std::size_t stripe, Payload* p);

  /// CPU cost of posting one verb from `src_node` at `now` (doorbell-
  /// batched: see post_write), recorded in its burst state and NicStats.
  sim::Nanos charge_post(NodeId src_node, sim::Nanos now);

  /// Source half of one wire leg of `size` bytes from `src_node` to
  /// `dst_node`: serialize on the sender's control or bulk egress lane from
  /// `ready`, then add the link latency (scaled and jittered by any
  /// injected link fault). Returns the arrival time at the receiver NIC.
  /// Shared by write posts and the atomics' request leg.
  sim::Nanos link_leg(NodeId src_node, NodeId dst_node, std::size_t size,
                      bool control, sim::Nanos ready);

  /// Wire model shared by post_write and resume_egress: the source half
  /// (link_leg) builds an Arrival, which lands through deliver_arrival at
  /// once with one partition or for a post made outside any event (every
  /// worker is idle then), and is otherwise staged for the barrier merge.
  void transmit(NodeId src_node, RegionId dst, std::size_t dst_offset,
                Payload* payload, sim::Nanos ready);
  /// The only landing: ingress serialization (bulk lane), per-QP FIFO
  /// clamp, and the landing event on the destination's wheel, keyed as
  /// schedule_fn in the posting context would key it. A target isolated
  /// while the write was in flight drops it. Either way the payload
  /// reference goes back to the destination's stripe.
  void deliver_arrival(const Arrival& a);

  /// Shared body of rdma_faa / rdma_cas. For FAA arg0 is the addend; for
  /// CAS arg0/arg1 are expected/desired.
  sim::Co<AtomicResult> atomic_rmw(NodeId src_node, RegionId dst,
                                   std::size_t dst_offset, bool is_cas,
                                   std::uint64_t arg0, std::uint64_t arg1);

  sim::Engine& node_engine(NodeId node) noexcept {
    return *engine_of_node_[node];
  }
  std::size_t part_of(NodeId node) const noexcept {
    return part_of_node_[node];
  }
  sim::Nanos jitter_draw(NodeId src, NodeId dst, sim::Nanos jitter);
  /// Throws std::logic_error naming `what` when there is more than one
  /// partition.
  void require_one_partition(const char* what) const;

  sim::Engine& engine_;
  TimingModel timing_;
  std::size_t n_;
  std::vector<Region> regions_;
  std::vector<std::unique_ptr<sim::Signal>> doorbells_;
  std::vector<char> isolated_;
  std::vector<NicStats> stats_;

  // NIC port availability (bulk lane) and a lightly-loaded control lane
  // (SST QPs) that interleaves with bulk traffic, per node.
  std::vector<sim::Nanos> egress_free_;
  std::vector<sim::Nanos> ingress_free_;
  std::vector<sim::Nanos> control_egress_free_;
  std::vector<sim::Nanos> last_post_time_;
  std::vector<sim::Nanos> burst_end_;
  // Per-node atomics-unit availability: every FAA/CAS targeting the node
  // holds the unit for atomic_unit_occupancy, so concurrent atomics queue.
  std::vector<sim::Nanos> atomics_free_;

  // Fault-injection state.
  std::vector<char> egress_paused_;
  std::vector<std::deque<QueuedWrite>> egress_queue_;
  std::vector<LinkFault> link_faults_;  // src * n_ + dst

  // Payload snapshot pool stripes (see acquire_payload; one per
  // partition).
  // Each stripe's counters are written only by the worker that owns it.
  // A snapshot can be taken on one stripe and returned on another, so a
  // stripe's live gauges may go negative; their sum over stripes is exact.
  // Aligned so that neighbouring stripes never share a cache line.
  struct alignas(64) PayloadPool {
    std::deque<Payload> store;
    std::vector<Payload*> free_list;
    std::uint64_t snapshots = 0;     // taken by posters on this stripe
    std::uint64_t bytes_copied = 0;
    std::int64_t live = 0;           // taken here minus returned here
    std::int64_t live_bytes = 0;
  };
  std::vector<PayloadPool> pools_{1};
  std::uint64_t peak_live_payloads_ = 0;
  std::uint64_t peak_live_payload_bytes_ = 0;
  void note_payload_peak(std::int64_t live, std::int64_t live_bytes);

  // Partition routing. staged_[s * P + d] (empty with one partition) is
  // written only by partition s's worker during a window and drained only
  // by partition d's worker at the barrier; the window barriers order the
  // two, so no cell needs a lock.
  std::size_t n_parts_ = 1;
  std::vector<sim::Engine*> engine_of_node_;
  std::vector<std::uint32_t> part_of_node_;
  std::vector<std::vector<Arrival>> staged_;
  std::vector<std::vector<Arrival>> merge_scratch_;  // per dst partition
  std::vector<std::uint64_t> jitter_seq_;            // per link draw count
};

}  // namespace spindle::net
