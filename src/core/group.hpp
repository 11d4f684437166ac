#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/node.hpp"
#include "core/options.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "trace/trace.hpp"

namespace spindle::core {

struct ClusterConfig {
  std::size_t nodes = 4;
  net::TimingModel timing{};
  CpuModel cpu{};
  std::uint64_t seed = 1;
  trace::TraceConfig trace{};  // event tracing (off by default)
  /// Predicate-scheduler service discipline for the data-plane polling
  /// thread. `strict_rr` is the bit-compatible default; `drr` enables
  /// deficit-weighted scheduling (hot subgroups stop paying a full lap of
  /// cold evaluations per round — the Fig. 13 multi-active regime).
  sst::Discipline discipline = sst::Discipline::strict_rr;
  /// DRR only: probe period for subgroups demoted onto the scan lane —
  /// the latency bound for a cold subgroup's first message under load.
  sim::Nanos scan_interval = sim::micros(25);
  /// Simulation worker threads of the cluster's sim::ParallelEngine. Nodes
  /// are block-partitioned across min(sim_threads, nodes) workers. One
  /// worker (the default) runs on the calling thread with no lookahead
  /// windows; more run conservative-lookahead windows on that many threads,
  /// and results are byte-identical to one worker (parallel_engine_test
  /// pins this against the determinism-lock goldens). With more than one
  /// worker, crash(), fabric isolate()/restore(), fabric atomics,
  /// link-fault multipliers below 1 and dds::Domain::create_client_mux
  /// throw std::logic_error, and the run must be driven through
  /// Cluster::run_until/run/run_to (a worker's own run methods throw).
  /// Only standalone clusters use this; epoch clusters under a
  /// ManagedGroup share the group's one-worker engine.
  std::size_t sim_threads = 1;

  /// Throws std::invalid_argument with a descriptive message if the
  /// configuration cannot form a cluster.
  void validate() const;
};

/// A Derecho-style top-level group of simulated machines plus its
/// subgroups. Owns the simulation engine, the RDMA fabric, one Node per
/// machine, the pipeline tracer, and the metrics registry.
///
/// Usage: construct, create_subgroup() for each application component,
/// start(), spawn application actors on engine(), run. Observability:
/// stats() for a merged counter snapshot, tracer() for the event stream.
class Cluster {
 public:
  /// Standalone cluster: owns its engine and fabric; members are all of
  /// cfg.nodes.
  explicit Cluster(ClusterConfig cfg);

  /// Epoch cluster for virtual synchrony (core/view.hpp): shares an
  /// existing one-worker engine + fabric and spans only `members` (a subset
  /// of the fabric's nodes — e.g. the survivors of a view change). When
  /// `tracer` is given, events land in that shared stream (so one trace
  /// spans every epoch); otherwise a private tracer is built from cfg.trace.
  Cluster(sim::ParallelEngine& engine, net::Fabric& fabric,
          const ClusterConfig& cfg, std::vector<net::NodeId> members,
          trace::Tracer* tracer = nullptr);

  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Register a subgroup. Pre-start() mutator: calling it after start()
  /// throws std::logic_error. The configuration is validated eagerly
  /// against this cluster's membership (so the offending call site gets
  /// the exception) and re-validated by start(); delivery order within a
  /// round follows the order of `cfg.senders`.
  SubgroupId create_subgroup(SubgroupConfig cfg);

  /// Protocol-extension point (e.g. the cross-shard sequencer of
  /// core/domain.hpp): declare an extra i64 SST column, appended after the
  /// per-subgroup columns when start() builds the layout. Pre-start()
  /// mutator; returns a handle resolved to a real sst::FieldId by
  /// shared_field() once the cluster has started. Every member's row gets
  /// `init` as the agreed initial value.
  std::size_t add_shared_i64_field(std::string name, std::int64_t init);

  /// Resolve a handle from add_shared_i64_field(). Post-start only.
  sst::FieldId shared_field(std::size_t handle) const;

  /// Protocol-extension point: `hook` runs once per member node while that
  /// node registers its data-plane predicates (Node::setup_predicates), so
  /// an extension can add its own predicate groups to the same scheduler —
  /// under whichever discipline the cluster runs. Pre-start() mutator.
  void add_predicate_hook(std::function<void(Node&, sst::Predicates&)> hook);

  /// SST rank of a member (row index in every subgroup's SST): the identity
  /// on a standalone cluster, the index into members_ on an epoch cluster.
  std::size_t rank_of(net::NodeId id) const;

  /// Durable-store binding for persistent subgroups. Pre-start() mutator:
  /// calling it after start() throws std::logic_error (the binding could
  /// never take effect — logs are wired during start()). When set, the
  /// provider supplies the versioned log for each (member, subgroup) — how
  /// a ManagedGroup keeps one log per node alive across epochs and
  /// restarts. Without a provider the cluster owns fresh logs (epoch 0),
  /// the standalone-group behaviour.
  void set_store_provider(
      std::function<store::VersionedLog*(net::NodeId, SubgroupId)> p);

  /// Validate the accumulated setup (every subgroup config against the
  /// final membership, with per-subgroup context on errors), then allocate
  /// and connect SST + ring buffers (the per-view memory layout of §2.3)
  /// and start every node's predicate thread. All misordered or invalid
  /// setup fails here loudly at the latest.
  void start();

  /// Wake-and-join: stop all predicate threads and drain the event queue.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Number of member nodes in this cluster (not the fabric size).
  std::size_t size() const noexcept { return members_.size(); }
  const std::vector<net::NodeId>& members() const noexcept { return members_; }
  bool is_member(net::NodeId id) const {
    return id < nodes_.size() && nodes_[id] != nullptr;
  }
  Node& node(net::NodeId id);
  /// Worker 0's engine: safe for pre-start scheduling at t=0 and post-run
  /// reads. With one worker it is the whole engine; with more, use
  /// engine_for() for per-node scheduling, and drive runs through the
  /// Cluster-level run methods below (the worker's own run methods throw).
  sim::Engine& engine() noexcept { return engine_->worker(0); }
  /// The engine that owns `id`'s events. All node-local scheduling (fault
  /// injection, sender actors) goes through this.
  sim::Engine& engine_for(net::NodeId id) noexcept {
    return engine_->worker(partition_of(id));
  }
  /// Static block partition of fabric node ids onto workers.
  std::size_t partition_of(net::NodeId id) const noexcept {
    return (static_cast<std::size_t>(id) * engine_->workers()) / cfg_.nodes;
  }
  /// Worker threads executing this cluster.
  std::size_t sim_workers() const noexcept { return engine_->workers(); }

  // --- run interface (use these, not engine().run_*, so the same driver
  // code works at every worker count) ---
  bool run_until(const std::function<bool()>& stop_condition,
                 sim::Nanos max_virtual = 0) {
    return engine_->run_until(stop_condition, max_virtual);
  }
  void run() { engine_->run(); }
  void run_to(sim::Nanos t) { engine_->run_to(t); }
  /// Virtual now (max over workers — valid between runs).
  sim::Nanos now() const noexcept { return engine_->now(); }
  /// Events dispatched (summed over workers).
  std::uint64_t steps() const noexcept { return engine_->steps(); }

  net::Fabric& fabric() noexcept { return *fabric_; }
  const ClusterConfig& config() const noexcept { return cfg_; }
  const CpuModel& cpu() const noexcept { return cfg_.cpu; }
  const SubgroupConfig& subgroup_config(SubgroupId sg) const {
    return subgroup_configs_[sg];
  }
  std::size_t num_subgroups() const noexcept {
    return subgroup_configs_.size();
  }

  /// Crash a node: isolate it on the fabric and halt its threads.
  void crash(net::NodeId id);

  /// Total application messages delivered by every member of `sg`
  /// (completion condition helper: equals members * sent when done).
  std::uint64_t total_delivered(SubgroupId sg) const;

  // --- observability ---

  /// One consistent snapshot of everything measurable: merged protocol
  /// counters (NIC statistics and lock waits folded in), with per-node and
  /// per-subgroup drill-down.
  metrics::ClusterStats stats() const { return registry_.snapshot(); }

  /// The snapshot registry behind stats(); extend it to fold additional
  /// counter sources into the same snapshot.
  metrics::Registry& registry() noexcept { return registry_; }

  /// The pipeline event tracer (shared across epochs under a ManagedGroup).
  trace::Tracer& tracer() noexcept { return *tracer_; }
  const trace::Tracer& tracer() const noexcept { return *tracer_; }

 private:
  friend class Node;  // send-time oracle access (trace-layer internal)

  trace::SendTimeOracle& send_oracle() noexcept { return oracle_; }

  /// Run every registered predicate hook against `n`'s scheduler (called
  /// from Node::setup_predicates, after the data-plane groups exist).
  void apply_predicate_hooks(Node& n, sst::Predicates& p) {
    for (auto& hook : predicate_hooks_) hook(n, p);
  }

  /// start()-time gate over everything the pre-start mutators accumulated:
  /// re-runs SubgroupConfig::validate for each registered subgroup and
  /// wraps failures with which subgroup (index + name) is at fault.
  void validate_setup() const;

  ClusterConfig cfg_;
  std::unique_ptr<sim::ParallelEngine> owned_sim_;  // standalone only
  std::unique_ptr<net::Fabric> owned_fabric_;
  sim::ParallelEngine* engine_;
  net::Fabric* fabric_;
  std::unique_ptr<trace::Tracer> owned_tracer_;
  trace::Tracer* tracer_;
  trace::SendTimeOracle oracle_;  // always-on latency side channel
  metrics::Registry registry_;
  sim::Rng rng_;
  std::vector<net::NodeId> members_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by NodeId; null for
                                              // fabric nodes outside members_
  std::vector<SubgroupConfig> subgroup_configs_;
  struct SharedField {
    std::string name;
    std::int64_t init;
    sst::FieldId field;  // resolved by start()
  };
  std::vector<SharedField> shared_fields_;
  std::vector<std::function<void(Node&, sst::Predicates&)>> predicate_hooks_;
  std::function<store::VersionedLog*(net::NodeId, SubgroupId)> store_provider_;
  std::vector<std::unique_ptr<store::VersionedLog>> owned_logs_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace spindle::core
