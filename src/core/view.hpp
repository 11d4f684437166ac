#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/group.hpp"

namespace spindle::core {

/// A membership view (epoch) in the virtual synchrony model (§2.1): fixed,
/// ordered membership known to every member; delivery order within the
/// epoch is a pure function of it.
struct View {
  std::uint32_t epoch = 0;
  std::vector<net::NodeId> members;
  std::vector<net::NodeId> departed;  // removed in the transition to this view
};

/// Application-defined mapping from a view to its subgroups. Must return
/// the same number of subgroups for every view (subgroup identity is
/// positional across views); memberships may shrink as nodes depart.
using SubgroupLayout = std::function<std::vector<SubgroupConfig>(const View&)>;

/// Virtual-synchrony managed group: runs Derecho-style membership on top
/// of the atomic multicast stack.
///
/// Protocol (a faithful simplification of Derecho's epoch termination):
///  1. every member heartbeats through a dedicated membership SST;
///  2. a member that misses heartbeats is *suspected*; suspicions propagate
///     by OR-ing SST rows and are never retracted;
///  3. on suspicion every member *wedges*: all subgroup sending, null
///     generation, acknowledgment and delivery freeze, and the member
///     publishes its frozen received_num values;
///  4. the leader (lowest unsuspected rank) computes the ragged trim — per
///     subgroup, the minimum frozen received_num over survivors — and
///     publishes it (guarded write);
///  5. survivors deliver exactly through the trim (messages at or below it
///     were received by every survivor; messages above it are discarded
///     everywhere), then install the next view with fresh SST/SMC memory;
///  6. senders re-send their discarded messages in the new view, before
///     any new messages (failure atomicity for surviving senders).
///
/// Simplifications vs. the full Derecho protocol, documented in DESIGN.md:
/// the install barrier is coordinated centrally by the simulation (the
/// distributed parts — suspicion, wedge, trim — run through the SST), and
/// joins are not supported (the paper does not evaluate reconfiguration).
class ManagedGroup {
 public:
  struct Config {
    std::size_t nodes = 4;
    net::TimingModel timing{};
    CpuModel cpu{};
    std::uint64_t seed = 1;
    sim::Nanos heartbeat_period = sim::micros(20);
    sim::Nanos failure_timeout = sim::micros(400);
    trace::TraceConfig trace{};  // one event stream spanning every epoch
    /// Data-plane predicate-scheduler discipline for every epoch cluster
    /// (membership predicates are paced and unaffected).
    sst::Discipline discipline = sst::Discipline::strict_rr;
    /// Total-failure recovery: how long after the last restart() the
    /// recovery coordinator waits for further rejoiners before computing
    /// the common durable prefix and installing the recovery view.
    sim::Nanos restart_settle = sim::micros(800);
  };

  /// What the recovery coordinator saw at a total-failure restart: the
  /// rejoining member set, every node's pre-recovery durable log (the
  /// optimistic device view, indexed [subgroup_index][node]), and the
  /// longest common durable prefix the members agreed on per subgroup.
  /// Snapshotted *before* the ragged trim and the replay.
  struct RecoveryInfo {
    std::uint32_t epoch = 0;  // the recovery view's epoch
    std::vector<net::NodeId> members;
    std::vector<std::vector<std::vector<std::vector<std::byte>>>> pre_logs;
    std::vector<std::size_t> common_prefix;  // per subgroup_index
  };
  using RecoveryObserver = std::function<void(const RecoveryInfo&)>;

  ManagedGroup(Config cfg, SubgroupLayout layout);
  ~ManagedGroup();
  ManagedGroup(const ManagedGroup&) = delete;
  ManagedGroup& operator=(const ManagedGroup&) = delete;

  void start();
  void shutdown();

  /// Worker 0 of the group's one-worker sim::ParallelEngine, which every
  /// epoch cluster borrows: with one worker it is the whole engine.
  sim::Engine& engine() noexcept { return engine_; }
  const Config& config() const noexcept { return cfg_; }
  net::Fabric& fabric() noexcept { return fabric_; }
  const View& view() const noexcept { return view_; }
  std::uint32_t epoch() const noexcept { return view_.epoch; }
  bool view_change_in_progress() const noexcept { return changing_; }
  std::uint32_t view_changes_completed() const noexcept {
    return view_.epoch;
  }
  Cluster& cluster() { return *epoch_cluster_; }

  /// The group-lifetime pipeline tracer: every epoch cluster records into
  /// this one stream, and the membership layer adds view_wedge / view_trim /
  /// view_install phase events, so one export shows the whole history.
  trace::Tracer& tracer() noexcept { return tracer_; }
  const trace::Tracer& tracer() const noexcept { return tracer_; }

  /// Failure-atomic multicast: the payload is retained by the group and
  /// automatically re-sent in the next view if a reconfiguration discards
  /// it. Completes when the message has been queued (not delivered).
  void send(net::NodeId from, std::size_t subgroup_index,
            std::vector<std::byte> payload);

  /// Deliveries at `node` for subgroup `subgroup_index`, across all views.
  void set_delivery_handler(net::NodeId node, std::size_t subgroup_index,
                            DeliveryHandler handler);

  /// Crash `node`: its traffic is dropped and its threads halt; the other
  /// members detect the failure and reconfigure.
  void crash(net::NodeId node);

  /// Restart `node` after a total failure: recover its durable logs
  /// (truncating any torn flush tail), reconnect it to the fabric, and
  /// announce its durable version vector through the membership SST. Once
  /// the group has halted and no further restart arrives for
  /// Config::restart_settle, the rejoiners agree on the longest common
  /// durable prefix, replay it to the delivery handlers, and resume in a
  /// fresh epoch. Calling this on a node that is still alive models a
  /// process restart: the node crashes first (torn tail and all).
  /// Returns false if the node is already rejoining or the group has been
  /// shut down for good.
  bool restart(net::NodeId node);

  /// Observer invoked inside each total-failure recovery, after the
  /// rejoiners exchanged version vectors but before the trim and replay.
  void add_recovery_observer(RecoveryObserver obs) {
    recovery_observers_.push_back(std::move(obs));
  }

  /// True while the group is halted with restarted nodes waiting for the
  /// recovery view to be computed.
  bool recovery_pending() const noexcept {
    return stopped_ && !terminated_ && restarting_mask_ != 0;
  }
  /// Completed total-failure recoveries over the group's lifetime.
  std::uint32_t recoveries() const noexcept { return recoveries_; }

  /// Graceful leave: the node wedges cleanly and departs with no message
  /// loss (modeled as an announced suspicion).
  void leave(net::NodeId node);

  /// Fault injection: deschedule `node`'s simulated threads (membership
  /// heartbeats and the data-plane polling thread) for `duration` — a slow
  /// host. Stalls longer than Config::failure_timeout provoke a *false
  /// suspicion* of a live node, which the membership layer resolves by
  /// removing it (the node observes its own suspicion and departs).
  void throttle_cpu(net::NodeId node, sim::Nanos duration);

  /// Fault injection: SSD latency spike at `node` — every flush op during
  /// the window pays `extra` on top of the normal op latency. Stalls the
  /// node's persistence frontier, never delivery.
  void degrade_ssd(net::NodeId node, sim::Nanos duration, sim::Nanos extra);

  /// Fault injection: for `duration`, every fire of the predicate named
  /// `name` at `node` charges `extra` additional compute — on the
  /// data-plane registry (receive/send/deliver/...) and the membership
  /// registry (heartbeat/suspicion/...) alike; unknown names are inert.
  /// The window outlives view changes (reapplied to each epoch cluster).
  void delay_predicate(net::NodeId node, const std::string& name,
                       sim::Nanos duration, sim::Nanos extra);

  /// Fault injection: hold back `node`'s data-plane PostPlan actions on
  /// `lane` for `duration` (a stalled QP lane; held posts release in lane
  /// order after the window). The window outlives view changes.
  void drop_postplan_lane(net::NodeId node, int lane, sim::Nanos duration);

  /// Fault injection: for `duration`, `node`'s data-plane scheduler sees
  /// phantom doorbell rings — idle backoff never engages and every round
  /// burns `extra` wasted compute (spurious predicate evaluations). The
  /// window outlives view changes.
  void force_spurious_evals(net::NodeId node, sim::Nanos duration,
                            sim::Nanos extra);

  /// Persistent subgroups: `node`'s on-disk log for subgroup
  /// `subgroup_index` across every epoch it was a member of, as the device
  /// optimistically sees it (an in-flight batch included — torn tails are
  /// resolved at restart, not at crash time). A survivor's queue is flushed
  /// inside each install barrier.
  std::vector<std::vector<std::byte>> persistent_log(
      net::NodeId node, std::size_t subgroup_index) const;

  /// The versioned log behind persistent_log(): records, committed/staged
  /// split and version vector. Null for non-persistent subgroups (or
  /// before the node's first persistent epoch).
  const store::VersionedLog* durable_store(net::NodeId node,
                                           std::size_t subgroup_index) const {
    return stores_[node][subgroup_index].get();
  }

  std::size_t num_subgroups() const noexcept { return num_subgroups_; }

  /// True once every member has departed and the group has shut down.
  bool halted() const noexcept { return stopped_; }

  bool is_alive(net::NodeId node) const { return alive_[node]; }

 private:
  struct PendingMessage {
    std::vector<std::byte> payload;
    bool in_flight = false;  // handed to the current epoch's sender
  };
  /// Per (node, subgroup_index) failure-atomic send queue + pump actor.
  struct SendQueue {
    std::deque<PendingMessage> q;
    bool pump_running = false;
    // Lifetime self-delivery pops: the queue front always holds the
    // sender's message number `popped`. Recovery compares it against the
    // durable prefix to drop entries the replay already covers (a fast
    // peer may have persisted a message its sender never saw delivered).
    std::uint64_t popped = 0;
  };

  // Membership service per-node state.
  struct MemberState {
    std::vector<std::int64_t> last_hb;        // last heartbeat value seen
    std::vector<sim::Nanos> last_change;      // when it changed
    std::int64_t hb = 0;                      // own heartbeat counter
    std::uint64_t suspected_mask = 0;
    bool wedged = false;
    bool saw_proposal = false;
  };

  /// Register one member's membership service on a paced sst::Predicates
  /// scheduler: heartbeat + suspicion (RECURRENT), wedge and proposal-ack
  /// (TRANSITION on the suspicion/proposal state), leader proposal
  /// (RECURRENT, guarded). One round per heartbeat period; every round's
  /// SST pushes are issued at the same virtual instant, in predicate order.
  void setup_membership_predicates(net::NodeId id);
  /// The install barrier as ONE_TIME predicates on its own paced scheduler
  /// (see the class comment: coordinated centrally): a total-failure halt,
  /// and the install trigger that fires once per epoch transition and is
  /// re-armed by install_next_view().
  void setup_coordinator_predicates();
  /// The total-failure recovery barrier: a RECURRENT predicate on its own
  /// paced scheduler (spawned lazily by the first restart()) that waits
  /// for the restart set to settle, then performs the recovery.
  void setup_recovery_predicates();
  void perform_recovery();
  sim::Co<> pump_actor(net::NodeId id, std::size_t sg_index);

  void wedge_node(net::NodeId id);
  void install_next_view(std::uint64_t failed_mask,
                         const std::vector<std::int64_t>& trim);
  void build_epoch_cluster();
  std::uint64_t all_suspicions() const;
  net::NodeId current_leader(std::uint64_t suspected) const;
  std::string diagnostics_dump() const;

  Config cfg_;
  SubgroupLayout layout_;
  sim::ParallelEngine sim_;  // one worker: epoch clusters borrow it
  sim::Engine& engine_;      // its worker 0
  net::Fabric fabric_;
  trace::Tracer tracer_;
  sim::Rng rng_;

  View view_;
  std::vector<char> alive_;
  bool changing_ = false;
  bool stopped_ = false;     // halted (total failure); recovery can clear it
  bool terminated_ = false;  // shut down for good; nothing restarts after
  std::size_t num_subgroups_ = 0;

  // Total-failure recovery state.
  std::uint64_t restarting_mask_ = 0;   // nodes waiting in the restart set
  sim::Nanos last_restart_at_ = 0;
  std::uint32_t recoveries_ = 0;
  /// Predicate generation: bumped by every recovery. Schedulers and pump
  /// actors capture the generation they were spawned under and exit when
  /// it moves on, so a stale coroutine with one pending wake-up cannot run
  /// alongside its respawned replacement once stopped_ is cleared.
  std::uint64_t pred_gen_ = 0;
  std::vector<RecoveryObserver> recovery_observers_;

  // Membership SST (fixed over the lifetime: rows for every node ever).
  std::vector<std::unique_ptr<sst::Sst>> member_sst_;
  sst::FieldId f_hb_, f_susp_, f_wedged_epoch_, f_installed_;
  sst::FieldId f_prop_epoch_, f_prop_failed_, f_prop_guard_;
  sst::FieldId f_restart_;              // restart announcement flag
  std::vector<sst::FieldId> f_frozen_;  // per subgroup
  std::vector<sst::FieldId> f_trim_;    // per subgroup (leader proposal)
  std::vector<sst::FieldId> f_durable_;  // per subgroup (committed records)
  std::vector<MemberState> mstate_;

  // Membership predicate schedulers (paced mode): one per member plus the
  // central coordinator. Fixed over the group lifetime — epoch transitions
  // re-arm the TRANSITION/ONE_TIME predicates instead of respawning.
  std::vector<std::size_t> everyone_;       // SST ranks 0..nodes-1
  std::vector<sim::Rng> membership_rng_;    // per-member pacing jitter
  std::vector<std::unique_ptr<sst::Predicates>> member_preds_;
  std::unique_ptr<sst::Predicates> coord_preds_;
  std::unique_ptr<sst::Predicates> recovery_preds_;
  sst::Predicates::PredId install_pred_ = 0;
  // Pre-recovery predicate schedulers: kept alive like retired_ because a
  // stale run() coroutine may still have one pending wake-up queued.
  std::vector<std::unique_ptr<sst::Predicates>> retired_preds_;

  std::unique_ptr<Cluster> epoch_cluster_;
  std::vector<core::SubgroupId> epoch_subgroups_;  // index -> SubgroupId
  // Retired epoch clusters: kept alive until shutdown because their
  // (stopped) poller coroutines may still have one pending wake-up in the
  // engine queue.
  std::vector<std::unique_ptr<Cluster>> retired_;

  // (node, sg_index) -> queue; handlers preserved across views.
  std::vector<std::vector<SendQueue>> queues_;
  std::vector<std::vector<DeliveryHandler>> handlers_;

  // Fault-injection windows, reapplied to the fresh Node objects of every
  // epoch cluster (faults outlive view changes).
  std::vector<sim::Nanos> cpu_stall_until_;
  std::vector<sim::Nanos> ssd_fault_until_;
  std::vector<sim::Nanos> ssd_extra_latency_;
  struct PredDelay {
    std::string name;
    sim::Nanos until = 0;
    sim::Nanos extra = 0;
  };
  std::vector<std::vector<PredDelay>> pred_delays_;  // per node
  struct LaneDrop {
    int lane = 0;
    sim::Nanos until = 0;
  };
  std::vector<std::vector<LaneDrop>> lane_drops_;  // per node
  struct SpuriousEvals {
    sim::Nanos until = 0;
    sim::Nanos extra = 0;
  };
  std::vector<std::vector<SpuriousEvals>> spurious_evals_;  // per node

  // (node, sg_index) -> simulated-SSD versioned log. Owned here — one
  // store per node survives every epoch transition (and, unlike the Node
  // objects, a crash): each epoch cluster borrows it through
  // Cluster::set_store_provider and stamps its records with the epoch.
  std::vector<std::vector<std::unique_ptr<store::VersionedLog>>> stores_;
};

}  // namespace spindle::core
