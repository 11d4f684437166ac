#include "workload/recovery.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace spindle::workload {

namespace {

/// The group both fault drivers run: one subgroup `name` over every view
/// member, all sending, spindle options with `cfg.msg_size` slots and a
/// 16-message window.
template <typename Cfg>
core::ManagedGroup fault_group(const Cfg& cfg, std::string name,
                               bool persistent) {
  core::ManagedGroup::Config gc;
  gc.nodes = cfg.nodes;
  gc.seed = cfg.seed;
  gc.failure_timeout = cfg.failure_timeout;
  return core::ManagedGroup(gc, [name = std::move(name), msg = cfg.msg_size,
                                 persistent](const core::View& v) {
    core::SubgroupConfig sc;
    sc.name = name;
    sc.members = v.members;
    sc.senders = v.members;
    sc.opts = core::ProtocolOptions::spindle();
    sc.opts.max_msg_size = msg;
    sc.opts.window_size = 16;
    sc.opts.persistent = persistent;
    return std::vector<core::SubgroupConfig>{sc};
  });
}

/// Continuous load: every node submits a message each `cfg.send_interval`
/// over [0, end). A crashed node's submissions are dropped by its dead
/// pump, as a real client's would be before it fails over.
template <typename Cfg>
void continuous_load(core::ManagedGroup& group, const Cfg& cfg,
                     sim::Nanos end) {
  for (net::NodeId n = 0; n < cfg.nodes; ++n) {
    for (sim::Nanos t = 0; t < end; t += cfg.send_interval) {
      group.engine().schedule_fn(t, [&group, n, msg = cfg.msg_size] {
        group.send(n, 0, std::vector<std::byte>(msg));
      });
    }
  }
}

}  // namespace

RecoveryResult run_recovery(const RecoveryConfig& cfg) {
  core::ManagedGroup group = fault_group(cfg, "recovery", false);
  group.start();
  sim::Engine& eng = group.engine();

  const net::NodeId observer = cfg.victim == 0 ? 1 : 0;
  std::vector<sim::Nanos> times;
  group.set_delivery_handler(observer, 0,
                             [&](const core::Delivery&) {
                               times.push_back(eng.now());
                             });

  continuous_load(group, cfg, cfg.horizon);

  eng.schedule_fn(cfg.crash_at, [&group, &cfg] { group.crash(cfg.victim); });

  RecoveryResult r;
  // Phase timestamps: wedge (suspicion raised), install, first delivery in
  // the new view.
  if (eng.run_until([&] { return group.view_change_in_progress(); },
                    cfg.horizon)) {
    r.detect_ns = eng.now() - cfg.crash_at;
  }
  sim::Nanos install_abs = 0;
  if (eng.run_until([&] { return group.epoch() >= 1; }, cfg.horizon)) {
    install_abs = eng.now();
    r.install_ns = install_abs - cfg.crash_at;
  }
  if (eng.run_until(
          [&] { return !times.empty() && times.back() >= install_abs; },
          cfg.horizon)) {
    r.first_delivery_ns = eng.now() - cfg.crash_at;
  }
  eng.run_to(cfg.horizon + sim::millis(2));

  r.delivered_total = times.size();
  for (std::size_t i = 1; i < times.size(); ++i) {
    r.max_gap_ns = std::max(r.max_gap_ns, times[i] - times[i - 1]);
  }

  // Steady-state throughput in a window before the crash vs. after the
  // reinstall, at the observer.
  const sim::Nanos w = std::min<sim::Nanos>(sim::millis(1), cfg.crash_at / 2);
  const auto count_in = [&](sim::Nanos lo, sim::Nanos hi) {
    return static_cast<double>(
        std::count_if(times.begin(), times.end(),
                      [&](sim::Nanos t) { return t >= lo && t < hi; }));
  };
  if (w > 0) {
    r.pre_mmps = count_in(cfg.crash_at - w, cfg.crash_at) * 1e3 /
                 static_cast<double>(w);
    r.post_mmps = count_in(install_abs, install_abs + w) * 1e3 /
                  static_cast<double>(w);
  }
  group.shutdown();
  return r;
}

TotalRecoveryResult run_total_recovery(const TotalRecoveryConfig& cfg) {
  core::ManagedGroup group = fault_group(cfg, "total-recovery", true);
  group.start();
  sim::Engine& eng = group.engine();

  TotalRecoveryResult r;

  // The recovery observer fires after the version-vector exchange and LCP
  // agreement, before the trim and replay: snapshot the durability ledger.
  bool past_recovery = false;
  group.add_recovery_observer(
      [&r, &past_recovery](const core::ManagedGroup::RecoveryInfo& info) {
        r.lcp_records = info.common_prefix[0];
        for (net::NodeId m : info.members) {
          r.max_pre_records =
              std::max<std::uint64_t>(r.max_pre_records,
                                      info.pre_logs[0][m].size());
        }
        r.lost_records = r.max_pre_records - r.lcp_records;
        past_recovery = true;
      });

  // Observer at node 0 (a restarter in every configuration): replayed
  // deliveries carry sent_at = -1, fresh post-recovery traffic a real
  // timestamp.
  sim::Nanos first_fresh = -1;
  group.set_delivery_handler(0, 0, [&](const core::Delivery& d) {
    if (d.sent_at < 0) {
      ++r.replayed;
      return;
    }
    if (past_recovery) {
      if (first_fresh < 0) first_fresh = eng.now();
      ++r.delivered_after;
    }
  });

  const sim::Nanos last_crash =
      cfg.crash_at +
      static_cast<sim::Nanos>(cfg.nodes - 1) * cfg.crash_stagger;
  const sim::Nanos first_restart = last_crash + cfg.restart_delay;
  const sim::Nanos load_end =
      first_restart +
      static_cast<sim::Nanos>(cfg.restarters) * cfg.restart_stagger +
      sim::millis(3);

  // Submissions keep coming through the outage (queued while the group is
  // down, resumed by the rejoiners after recovery).
  continuous_load(group, cfg, load_end);

  for (net::NodeId n = 0; n < cfg.nodes; ++n) {
    eng.schedule_fn(cfg.crash_at + static_cast<sim::Nanos>(n) *
                                       cfg.crash_stagger,
                    [&group, n] { group.crash(n); });
  }
  for (net::NodeId n = 0;
       n < static_cast<net::NodeId>(cfg.restarters); ++n) {
    eng.schedule_fn(first_restart + static_cast<sim::Nanos>(n) *
                                        cfg.restart_stagger,
                    [&group, n] { group.restart(n); });
  }

  if (eng.run_until([&] { return group.halted(); },
                    first_restart)) {
    r.halt_ns = eng.now() - cfg.crash_at;
  }
  sim::Nanos install_abs = 0;
  if (eng.run_until([&] { return group.recoveries() >= 1; },
                    load_end + sim::millis(50))) {
    install_abs = eng.now();
    r.install_ns = install_abs - first_restart;
    r.recovered = true;
  }
  if (r.recovered &&
      eng.run_until([&] { return first_fresh >= 0; },
                    load_end + sim::millis(50))) {
    r.first_new_delivery_ns = first_fresh - install_abs;
  }
  eng.run_to(load_end + sim::millis(2));
  group.shutdown();
  return r;
}

}  // namespace spindle::workload
