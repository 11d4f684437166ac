#include "core/group.hpp"

#include <algorithm>
#include <stdexcept>

namespace spindle::core {

void ClusterConfig::validate() const {
  if (nodes == 0) {
    throw std::invalid_argument("ClusterConfig: a cluster needs >= 1 node");
  }
  if (trace.enabled && trace.ring_capacity == 0) {
    throw std::invalid_argument(
        "ClusterConfig: trace.ring_capacity must be >= 1 when tracing is "
        "enabled");
  }
  if (discipline == sst::Discipline::drr && scan_interval <= 0) {
    throw std::invalid_argument(
        "ClusterConfig: drr needs scan_interval >= 1ns (the cold-subgroup "
        "probe bound)");
  }
  if (sim_threads == 0) {
    throw std::invalid_argument(
        "ClusterConfig: sim_threads must be >= 1");
  }
}

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      owned_sim_(std::make_unique<sim::ParallelEngine>(
          std::max<std::size_t>(1, std::min(cfg.sim_threads, cfg.nodes)),
          cfg.timing.min_remote_delay())),
      owned_fabric_(std::make_unique<net::Fabric>(owned_sim_->worker(0),
                                                  cfg.timing, cfg.nodes)),
      engine_(owned_sim_.get()),
      fabric_(owned_fabric_.get()),
      owned_tracer_(std::make_unique<trace::Tracer>(cfg.trace, cfg.nodes)),
      tracer_(owned_tracer_.get()),
      rng_(cfg.seed) {
  cfg_.validate();
  if (engine_->workers() > 1) {
    // Partition-aware fabric routing: per-node engines for posts and
    // doorbells, staged cross-partition channels, and the merge hook that
    // applies them at every lookahead barrier.
    std::vector<sim::Engine*> engine_of(cfg.nodes);
    std::vector<std::uint32_t> part_of(cfg.nodes);
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      part_of[i] =
          static_cast<std::uint32_t>(partition_of(static_cast<net::NodeId>(i)));
      engine_of[i] = &engine_->worker(part_of[i]);
    }
    fabric_->configure_partitions(std::move(engine_of), std::move(part_of),
                                  engine_->workers());
    engine_->set_merge_hook(
        [this](std::size_t p) { fabric_->merge_arrivals(p); });
    engine_->set_barrier_hook([this] { fabric_->sample_payload_peak(); });
  }
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    members_.push_back(static_cast<net::NodeId>(i));
  }
  nodes_.resize(cfg.nodes);
  for (net::NodeId id : members_) {
    nodes_[id] = std::make_unique<Node>(*this, id, rng_.fork());
  }
}

Cluster::Cluster(sim::ParallelEngine& engine, net::Fabric& fabric,
                 const ClusterConfig& cfg, std::vector<net::NodeId> members,
                 trace::Tracer* tracer)
    : cfg_(cfg),
      engine_(&engine),
      fabric_(&fabric),
      tracer_(tracer),
      rng_(cfg.seed),
      members_(std::move(members)) {
  cfg_.validate();
  if (tracer_ == nullptr) {
    owned_tracer_ = std::make_unique<trace::Tracer>(cfg.trace, fabric.size());
    tracer_ = owned_tracer_.get();
  }
  if (members_.empty()) throw std::invalid_argument("empty member list");
  nodes_.resize(fabric.size());
  for (net::NodeId id : members_) {
    if (id >= fabric.size()) throw std::invalid_argument("member not in fabric");
    nodes_[id] = std::make_unique<Node>(*this, id, rng_.fork());
  }
}

Cluster::~Cluster() { shutdown(); }

Node& Cluster::node(net::NodeId id) {
  if (!is_member(id)) {
    throw std::out_of_range("node " + std::to_string(id) +
                            " is not a member of this cluster");
  }
  return *nodes_[id];
}

SubgroupId Cluster::create_subgroup(SubgroupConfig cfg) {
  if (started_) {
    throw std::logic_error(
        "Cluster::create_subgroup(\"" + cfg.name +
        "\"): cluster already started — register every subgroup before "
        "start()");
  }
  cfg.validate(members_);
  subgroup_configs_.push_back(std::move(cfg));
  return static_cast<SubgroupId>(subgroup_configs_.size() - 1);
}

std::size_t Cluster::add_shared_i64_field(std::string name,
                                          std::int64_t init) {
  if (started_) {
    throw std::logic_error(
        "Cluster::add_shared_i64_field(\"" + name +
        "\"): cluster already started — the SST layout is fixed at start()");
  }
  shared_fields_.push_back(SharedField{std::move(name), init, {}});
  return shared_fields_.size() - 1;
}

sst::FieldId Cluster::shared_field(std::size_t handle) const {
  if (!started_) {
    throw std::logic_error(
        "Cluster::shared_field: fields resolve at start()");
  }
  if (handle >= shared_fields_.size()) {
    throw std::out_of_range("Cluster::shared_field: bad handle");
  }
  return shared_fields_[handle].field;
}

void Cluster::add_predicate_hook(
    std::function<void(Node&, sst::Predicates&)> hook) {
  if (started_) {
    throw std::logic_error(
        "Cluster::add_predicate_hook: cluster already started — predicate "
        "registries are built during start()");
  }
  predicate_hooks_.push_back(std::move(hook));
}

std::size_t Cluster::rank_of(net::NodeId id) const {
  for (std::size_t r = 0; r < members_.size(); ++r) {
    if (members_[r] == id) return r;
  }
  throw std::out_of_range("Cluster::rank_of: node " + std::to_string(id) +
                          " is not a member");
}

void Cluster::set_store_provider(
    std::function<store::VersionedLog*(net::NodeId, SubgroupId)> p) {
  if (started_) {
    throw std::logic_error(
        "Cluster::set_store_provider: cluster already started — durable "
        "logs are bound during start(), so a late provider could never "
        "take effect");
  }
  store_provider_ = std::move(p);
}

void Cluster::validate_setup() const {
  for (std::size_t i = 0; i < subgroup_configs_.size(); ++i) {
    try {
      subgroup_configs_[i].validate(members_);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(
          "Cluster::start(): subgroup #" + std::to_string(i) + " (\"" +
          subgroup_configs_[i].name + "\") is invalid: " + e.what());
    }
  }
}

void Cluster::start() {
  if (started_) throw std::logic_error("Cluster::start() called twice");
  validate_setup();
  started_ = true;

  // SST columns: received_num, delivered_num and (persistent mode)
  // persisted_num per subgroup (§2.2 / footnote 2).
  sst::Layout layout;
  struct SgFields {
    sst::FieldId received, delivered, persisted;
  };
  std::vector<SgFields> fields;
  fields.reserve(subgroup_configs_.size());
  for (std::size_t i = 0; i < subgroup_configs_.size(); ++i) {
    SgFields f;
    f.received = layout.add_i64("received_num[" + std::to_string(i) + "]");
    f.delivered = layout.add_i64("delivered_num[" + std::to_string(i) + "]");
    f.persisted = layout.add_i64("persisted_num[" + std::to_string(i) + "]");
    fields.push_back(f);
  }
  // Extension columns (cross-shard sequencer state etc.) go after the
  // per-subgroup columns. A cluster with no registered extensions builds a
  // byte-identical layout to the pre-extension code.
  for (SharedField& sf : shared_fields_) {
    sf.field = layout.add_i64(sf.name);
  }

  // SST rows span exactly this cluster's members; rank = index in members_.
  std::vector<std::size_t> rank_of(nodes_.size(), SIZE_MAX);
  for (std::size_t r = 0; r < members_.size(); ++r) {
    rank_of[members_[r]] = r;
  }
  std::vector<sst::Sst*> ssts;
  for (net::NodeId id : members_) {
    Node& node = *nodes_[id];
    node.init_sst(layout, members_);
    for (const auto& f : fields) {
      node.sst().init_field_all_rows_i64(f.received, -1);
      node.sst().init_field_all_rows_i64(f.delivered, -1);
      node.sst().init_field_all_rows_i64(f.persisted, -1);
    }
    for (const SharedField& sf : shared_fields_) {
      node.sst().init_field_all_rows_i64(sf.field, sf.init);
    }
    ssts.push_back(&node.sst());
  }
  sst::Sst::connect(ssts);

  for (SubgroupId sg = 0; sg < subgroup_configs_.size(); ++sg) {
    const SubgroupConfig& cfg = subgroup_configs_[sg];
    oracle_.add_subgroup(cfg.senders.size(), cfg.opts.window_size);

    std::vector<smc::RingGroup*> rings;
    for (net::NodeId member : cfg.members) {
      Node& node = *nodes_[member];
      SubgroupState s;
      s.id = sg;
      s.cfg = cfg;
      s.f_received = fields[sg].received;
      s.f_delivered = fields[sg].delivered;
      s.f_persisted = fields[sg].persisted;
      if (cfg.opts.persistent) {
        s.persist_signal = std::make_unique<sim::Signal>(engine_for(member));
        if (store_provider_) {
          s.dlog = store_provider_(member, sg);
          if (s.dlog == nullptr) {
            throw std::runtime_error(
                "Cluster::start(): store provider returned no log for "
                "node " + std::to_string(member) + ", persistent subgroup "
                "\"" + cfg.name + "\"");
          }
        } else {
          owned_logs_.push_back(std::make_unique<store::VersionedLog>());
          owned_logs_.back()->open_epoch(0);
          s.dlog = owned_logs_.back().get();
        }
      }
      const auto mit =
          std::find(cfg.members.begin(), cfg.members.end(), member);
      s.my_member_idx = static_cast<std::size_t>(mit - cfg.members.begin());
      const auto sit =
          std::find(cfg.senders.begin(), cfg.senders.end(), member);
      s.my_sender_idx = sit == cfg.senders.end()
                            ? SIZE_MAX
                            : static_cast<std::size_t>(
                                  sit - cfg.senders.begin());
      s.ring = std::make_unique<smc::RingGroup>(
          *fabric_, member, cfg.members,
          s.my_sender_idx == SIZE_MAX ? SIZE_MAX : s.my_sender_idx,
          cfg.senders.size(), cfg.opts.window_size, cfg.opts.max_msg_size);
      for (std::size_t i = 0; i < cfg.members.size(); ++i) {
        s.member_sst_ranks.push_back(rank_of[cfg.members[i]]);
        if (cfg.members[i] == member) continue;
        s.peer_ranks.push_back(rank_of[cfg.members[i]]);
        s.ring_targets.push_back(i);
      }
      s.n_received.assign(cfg.senders.size(), 0);
      s.is_null.assign(cfg.opts.window_size, 0);
      s.scan_cost_factor =
          cfg_.cpu.cold_multiplier(s.ring->memory_bytes());
      node.add_subgroup(std::move(s));
      rings.push_back(node.find(sg)->ring.get());
    }
    smc::RingGroup::connect(rings);
  }

  // One snapshot collector per member: a consistent copy of the node's
  // protocol counters with the live NIC statistics and lock-wait totals
  // folded in, plus the per-subgroup drill-down.
  for (net::NodeId id : members_) {
    Node* node = nodes_[id].get();
    registry_.add_collector([this, node, id](metrics::ClusterStats& stats) {
      metrics::NodeStats ns;
      ns.node = id;
      ns.counters = node->counters();
      const auto& nic = fabric_->stats(id);
      ns.counters.rdma_writes_posted = nic.writes_posted;
      ns.counters.rdma_bytes_posted = nic.bytes_posted;
      ns.counters.post_cpu = nic.post_cpu;
      ns.counters.atomics_posted = nic.atomics_posted;
      ns.counters.atomics_executed = nic.atomics_executed;
      ns.counters.lock_wait = node->lock().total_wait();
      for (const auto& s : node->subgroups()) {
        metrics::SubgroupStats sub{
            s->id, s->cfg.name, node->delivered_in(s->id), s->predicate_cpu,
            {}};
        // Per-predicate drill-down: each subgroup is one predicate group on
        // the node's scheduler, tagged with the subgroup id.
        if (const sst::Predicates* preds = node->predicates()) {
          preds->visit([&](const sst::Predicates::GroupOptions& g,
                           const sst::PredicateStats& p) {
            if (g.tag != s->id) return;
            sub.predicates.push_back(metrics::PredicateStat{
                p.name, sst::to_string(p.cls), p.evals, p.fires, p.cpu});
          });
          preds->visit_groups([&](const sst::Predicates::GroupOptions& g,
                                  const sst::Predicates::GroupSched& sc) {
            if (g.tag != s->id) return;
            sub.sched_deficit += sc.deficit;
            sub.sched_serviced += sc.serviced;
            sub.sched_demotions += sc.demotions;
          });
        }
        ns.subgroups.push_back(std::move(sub));
      }
      stats.nodes.push_back(std::move(ns));
    });
  }

  // Fabric-wide payload staging (shared by every epoch on one fabric).
  registry_.add_collector([this](metrics::ClusterStats& stats) {
    const net::Fabric::PayloadStats p = fabric_->payload_stats();
    stats.net = metrics::NetHostStats{p.snapshots, p.bytes_copied,
                                      p.peak_live, p.peak_live_bytes};
  });

  for (net::NodeId id : members_) nodes_[id]->start();
}

void Cluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (net::NodeId id : members_) nodes_[id]->stop();
  // Drain only when we own the engine; epoch clusters inside a managed
  // group share the engine with the membership service, which never quiesces.
  if (owned_sim_) run();
}

void Cluster::crash(net::NodeId id) {
  // Throws std::logic_error with more than one worker (see Fabric::isolate).
  fabric_->isolate(id);
  nodes_[id]->stop();
}

std::uint64_t Cluster::total_delivered(SubgroupId sg) const {
  std::uint64_t total = 0;
  for (net::NodeId id : members_) total += nodes_[id]->delivered_in(sg);
  return total;
}

}  // namespace spindle::core
