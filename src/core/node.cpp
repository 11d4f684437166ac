#include "core/node.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "core/group.hpp"

namespace spindle::core {

void SubgroupConfig::validate(
    std::span<const net::NodeId> cluster_members) const {
  const auto ctx = [this] { return "subgroup \"" + name + "\": "; };
  if (members.empty()) {
    throw std::invalid_argument(ctx() + "member list is empty");
  }
  if (senders.empty()) {
    throw std::invalid_argument(ctx() + "sender list is empty");
  }
  std::unordered_set<net::NodeId> seen(members.begin(), members.end());
  if (seen.size() != members.size()) {
    throw std::invalid_argument(ctx() + "member list contains duplicates");
  }
  for (net::NodeId m : members) {
    if (std::find(cluster_members.begin(), cluster_members.end(), m) ==
        cluster_members.end()) {
      throw std::invalid_argument(ctx() + "node " + std::to_string(m) +
                                  " is not a member of the cluster");
    }
  }
  for (net::NodeId s : senders) {
    if (!seen.contains(s)) {
      throw std::invalid_argument(ctx() + "sender " + std::to_string(s) +
                                  " is not a subgroup member");
    }
  }
  if (opts.window_size == 0) {
    throw std::invalid_argument(ctx() + "window_size must be >= 1");
  }
  if (opts.max_msg_size == 0) {
    throw std::invalid_argument(ctx() + "max_msg_size must be >= 1");
  }
  if (opts.persistent && opts.mode != DeliveryMode::atomic) {
    throw std::invalid_argument(ctx() +
                                "persistent mode requires atomic delivery");
  }
  if (weight == 0) {
    throw std::invalid_argument(ctx() + "scheduling weight must be >= 1");
  }
}

Node::Node(Cluster& cluster, net::NodeId id, sim::Rng rng)
    : cluster_(cluster),
      id_(id),
      engine_(cluster.engine_for(id)),
      rng_(rng),
      lock_(std::make_unique<sim::Mutex>(engine_)) {}

Node::~Node() = default;

void Node::add_subgroup(SubgroupState s) {
  delivered_per_sg_.resize(
      std::max<std::size_t>(delivered_per_sg_.size(), s.id + 1), 0);
  subgroups_.push_back(std::make_unique<SubgroupState>(std::move(s)));
}

SubgroupState* Node::find(SubgroupId sg) {
  for (auto& s : subgroups_) {
    if (s->id == sg) return s.get();
  }
  return nullptr;
}

const SubgroupState* Node::find(SubgroupId sg) const {
  for (const auto& s : subgroups_) {
    if (s->id == sg) return s.get();
  }
  return nullptr;
}

SubgroupState& Node::require(SubgroupId sg) {
  SubgroupState* s = find(sg);
  if (s == nullptr) {
    throw std::invalid_argument("node " + std::to_string(id_) +
                                " is not a member of subgroup " +
                                std::to_string(sg));
  }
  return *s;
}

void Node::init_sst(sst::Layout layout, const std::vector<net::NodeId>& all) {
  sst_ = std::make_unique<sst::Sst>(cluster_.fabric(), id_, all,
                                    std::move(layout));
}

void Node::set_delivery_handler(SubgroupId sg, DeliveryHandler h) {
  require(sg).handler = std::move(h);
}

void Node::set_batch_delivery_handler(SubgroupId sg, BatchDeliveryHandler h) {
  SubgroupState& s = require(sg);
  if (s.cfg.opts.mode != DeliveryMode::atomic) {
    throw std::invalid_argument("subgroup \"" + s.cfg.name +
                                "\": batched upcalls require atomic delivery");
  }
  s.batch_handler = std::move(h);
}

void Node::set_delivery_cost_hook(
    SubgroupId sg, std::function<sim::Nanos(const Delivery&)> h) {
  require(sg).delivery_cost_hook = std::move(h);
}

void Node::set_persistence_handler(SubgroupId sg,
                                   std::function<void(std::int64_t)> h) {
  SubgroupState& s = require(sg);
  if (!s.cfg.opts.persistent) {
    throw std::invalid_argument("subgroup \"" + s.cfg.name +
                                "\" is not persistent");
  }
  s.persist_handler = std::move(h);
}

std::vector<std::vector<std::byte>> Node::persistent_log(
    SubgroupId sg) const {
  const SubgroupState* s = find(sg);
  assert(s != nullptr);
  if (s->dlog == nullptr) return {};
  return s->dlog->copy_payloads();
}

const store::VersionedLog* Node::durable_store(SubgroupId sg) const {
  const SubgroupState* s = find(sg);
  assert(s != nullptr);
  return s->dlog;
}

std::int64_t Node::persisted_frontier(SubgroupId sg) const {
  const SubgroupState* s = find(sg);
  assert(s != nullptr);
  return s->persisted_local;
}

std::uint64_t Node::delivered_in(SubgroupId sg) const {
  return sg < delivered_per_sg_.size() ? delivered_per_sg_[sg] : 0;
}

sim::Nanos Node::predicate_cpu_in(SubgroupId sg) const {
  const SubgroupState* s = find(sg);
  return s ? s->predicate_cpu : 0;
}

void Node::wedge_all() {
  for (auto& s : subgroups_) s->wedged = true;
}

void Node::flush_persist_queue() {
  for (auto& sp : subgroups_) {
    SubgroupState& s = *sp;
    if (!s.cfg.opts.persistent) continue;
    while (!s.persist_queue.empty()) {
      auto entry = std::move(s.persist_queue.front());
      s.persist_queue.pop_front();
      if (entry.seq > s.persisted_local) s.persisted_local = entry.seq;
      s.dlog->append_committed(entry.seq, entry.sender, entry.index,
                               std::move(entry.bytes));
    }
    // Trailing nulls are not logged but are covered by the frontier.
    if (s.delivered_num > s.persisted_local) {
      s.persisted_local = s.delivered_num;
    }
  }
}

void Node::stop() {
  stopped_ = true;
  cluster_.fabric().doorbell(id_).signal();
}

sim::Nanos Node::hiccup_penalty(sim::Nanos& next) {
  const CpuModel& cpu = cluster_.cpu();
  if (cpu.hiccup_mean_gap <= 0) return 0;
  const sim::Nanos now = engine_.now();
  if (next == 0) {
    // First draw: desynchronize threads across nodes.
    next = now + static_cast<sim::Nanos>(rng_.below(
                     static_cast<std::uint64_t>(cpu.hiccup_mean_gap)));
    return 0;
  }
  if (now < next) return 0;
  next = now + cpu.hiccup_mean_gap / 2 +
         static_cast<sim::Nanos>(
             rng_.below(static_cast<std::uint64_t>(cpu.hiccup_mean_gap)));
  return cpu.hiccup_duration;
}

std::int64_t Node::min_delivered(const SubgroupState& s) const {
  std::int64_t m = INT64_MAX;
  for (std::size_t rank : s.member_sst_ranks) {
    m = std::min(m, sst_->read_i64(rank, s.f_delivered));
  }
  return m;
}

bool Node::slot_free(const SubgroupState& s, std::int64_t idx) const {
  const auto w = static_cast<std::int64_t>(s.cfg.opts.window_size);
  if (idx < w) return true;
  // The slot is recycled from message idx-w; safe only once that message
  // has been delivered by every member (§2.3).
  return s.seq_of(s.my_sender_idx, idx - w) <= min_delivered(s);
}

void Node::recompute_received_num(SubgroupState& s) {
  const auto S = static_cast<std::int64_t>(s.num_senders());
  std::int64_t first_missing = INT64_MAX;
  for (std::int64_t j = 0; j < S; ++j) {
    first_missing = std::min(first_missing, s.n_received[j] * S + j);
  }
  s.received_num = first_missing - 1;
}

sim::Co<> Node::send(SubgroupId sg, std::uint32_t len,
                     std::function<void(std::span<std::byte>)> builder,
                     std::uint32_t flags) {
  SubgroupState& s = require(sg);
  if (!s.is_sender()) {
    throw std::invalid_argument("node " + std::to_string(id_) +
                                " is not a sender of subgroup \"" +
                                s.cfg.name + "\"");
  }
  if (len > s.cfg.opts.max_msg_size) {
    throw std::invalid_argument(
        "message of " + std::to_string(len) + " bytes exceeds subgroup \"" +
        s.cfg.name + "\" max_msg_size " +
        std::to_string(s.cfg.opts.max_msg_size));
  }

  auto& eng = engine_;
  const CpuModel& cpu = cluster_.cpu();
  trace::Tracer& tr = cluster_.tracer();

  // Occasional scheduling hiccup (OS delay, §3.3) *before* the claim: a
  // descheduled sender thread is exactly the lagging-sender situation the
  // null-send scheme compensates for.
  if (const sim::Nanos stall = hiccup_penalty(next_app_hiccup_); stall > 0) {
    co_await eng.sleep(stall);
  }

  // Acquire a free ring slot, busy-polling like Derecho's sender path. The
  // wait time is the §4.1.1 "sender thread waiting for a free buffer".
  const sim::Nanos wait_start = eng.now();
  for (;;) {
    co_await lock_->lock();
    if (stopped_) {
      lock_->unlock();
      co_return;
    }
    if (!s.wedged && slot_free(s, s.claimed)) break;
    lock_->unlock();
    co_await eng.sleep(cpu.sender_poll_interval);
  }
  counters_.sender_wait += eng.now() - wait_start;

  const std::int64_t k = s.claimed;
  tr.record(id_, trace::Stage::slot_acquire, wait_start,
            eng.now() - wait_start, sg,
            static_cast<std::uint32_t>(s.my_sender_idx), k);
  // Generating the message writes `len` bytes into the slot (in-place
  // construction, §3.1); the memcpy_on_send mode (§4.4) pays a second copy
  // from an external buffer.
  sim::Nanos work = cpu.send_setup + cpu.construction_cost(len);
  auto slot = s.ring->slot_data(k);
  builder(slot.subspan(0, len));
  if (s.cfg.opts.memcpy_on_send) work += cpu.memcpy_cost(len);
  s.ring->mark_ready(k, len, flags & ~smc::kNullFlag);
  s.is_null[static_cast<std::size_t>(k % s.cfg.opts.window_size)] = 0;
  s.claimed = k + 1;
  cluster_.send_oracle().record(sg, s.my_sender_idx, k, eng.now());
  tr.record(id_, trace::Stage::construct, eng.now(), work, sg,
            static_cast<std::uint32_t>(s.my_sender_idx), k, len);
  ++counters_.messages_sent;

  if (s.cfg.opts.send_batching || s.pushed != k) {
    // Queued: the send predicate will aggregate and post (§3.2). The
    // `pushed != k` case covers unpushed nulls ahead of us when batching
    // is off — posting out of order would leave a trailer gap.
    co_await eng.sleep(work);
    lock_->unlock();
    co_return;
  }

  // Baseline: post this message's writes inline from the sender thread.
  co_await eng.sleep(work);
  s.pushed = k + 1;
  if (s.cfg.opts.early_lock_release) lock_->unlock();
  sim::Nanos post = s.ring->push_data(k, k + 1, s.ring_targets);
  post += s.ring->push_trailers(k, k + 1, s.ring_targets);
  counters_.send_batches.add(1);
  tr.record(id_, trace::Stage::send_batch, eng.now(), 0, sg,
            static_cast<std::uint32_t>(s.my_sender_idx), k, 1);
  tr.record(id_, trace::Stage::rdma_post, eng.now(), post, sg,
            static_cast<std::uint32_t>(s.my_sender_idx), k, 1);
  co_await eng.sleep(post);
  if (!s.cfg.opts.early_lock_release) lock_->unlock();
}

std::int64_t Node::declare_inactive(SubgroupId sg, std::int64_t rounds) {
  SubgroupState& s = require(sg);
  if (!s.is_sender()) {
    throw std::invalid_argument("node " + std::to_string(id_) +
                                " is not a sender of subgroup \"" +
                                s.cfg.name + "\"");
  }
  // Synchronous claim: safe without awaiting the lock because claims are
  // monotonic and the send predicate flushes whatever is queued. (The app
  // thread owns its sender indices; the polling thread never claims app
  // messages.)
  std::int64_t claimed = 0;
  while (claimed < rounds && !s.wedged && slot_free(s, s.claimed)) {
    const std::int64_t k = s.claimed;
    s.ring->mark_ready(k, 0, smc::kNullFlag);
    s.is_null[static_cast<std::size_t>(k % s.cfg.opts.window_size)] = 1;
    ++s.claimed;
    ++claimed;
  }
  counters_.nulls_sent += static_cast<std::uint64_t>(claimed);
  if (claimed > 0) {
    cluster_.tracer().record(id_, trace::Stage::null_send, engine_.now(), 0,
                             sg,
                             static_cast<std::uint32_t>(s.my_sender_idx), -1,
                             static_cast<std::uint64_t>(claimed));
  }
  return claimed;
}

sim::Co<> Node::send_bytes(SubgroupId sg, std::span<const std::byte> payload,
                           std::uint32_t flags) {
  co_await send(
      sg, static_cast<std::uint32_t>(payload.size()),
      [payload](std::span<std::byte> buf) {
        std::memcpy(buf.data(), payload.data(), payload.size());
      },
      flags);
}

}  // namespace spindle::core
