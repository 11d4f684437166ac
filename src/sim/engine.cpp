#include "sim/engine.hpp"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace spindle::sim {

namespace {
DetachedTask run_detached(Co<> actor) { co_await std::move(actor); }
}  // namespace

void Engine::spawn(Co<> actor) {
  auto task = run_detached(std::move(actor));
  schedule_handle(now_, task.handle);
}

void Engine::check_unpartitioned(const char* what) const {
  if (partitioned_) {
    throw std::logic_error(
        std::string("sim::Engine::") + what +
        ": this wheel is one worker of a multi-worker ParallelEngine — "
        "drive the run through the ParallelEngine (or core::Cluster)");
  }
}

void Engine::run() {
  check_unpartitioned("run");
  while (step()) {
  }
}

bool Engine::run_until(const std::function<bool()>& stop_condition,
                       Nanos max_virtual) {
  check_unpartitioned("run_until");
  // The watchdog bounds the dispatch itself: no event beyond max_virtual
  // runs, the same rule as the ParallelEngine's window negotiation.
  const Nanos limit =
      max_virtual > 0 ? max_virtual : std::numeric_limits<Nanos>::max();
  while (!stop_condition()) {
    if (step_until(limit)) continue;
    if (!diagnostics_provider_) return false;
    if (pending_events() > 0) {
      std::fprintf(stderr,
                   "sim::Engine::run_until: watchdog tripped at %lld ns\n%s",
                   static_cast<long long>(now_), diagnostics().c_str());
    } else {
      std::fprintf(stderr,
                   "sim::Engine::run_until: event queue drained at %lld ns "
                   "without meeting the stop condition\n%s",
                   static_cast<long long>(now_), diagnostics().c_str());
    }
    return false;
  }
  return true;
}

std::string Engine::diagnostics() const {
  std::ostringstream os;
  os << "engine: t=" << now_ << "ns steps=" << steps_
     << " pending_events=" << wheel_.live();
  Nanos next = 0;
  if (wheel_.peek_at(&next)) os << " next_event_at=" << next << "ns";
  const TimerWheel::Occupancy occ = wheel_.occupancy();
  os << "\nscheduler: ready=" << occ.ready
     << " wheel=" << occ.wheel << " overflow=" << occ.overflow << " window=["
     << occ.window_base << ".." << occ.window_end << ")ns\n";
  if (diagnostics_provider_) os << diagnostics_provider_();
  return os.str();
}

void Engine::run_to(Nanos t) {
  check_unpartitioned("run_to");
  advance_to(t);
}

void Engine::advance_to(Nanos t) {
  // Gate on step_until, not peek_at: peek_at may report a cancelled timer
  // inside the horizon, and dispatching past it would run a live event
  // beyond t. pop_until reclaims the dead nodes and stops at the horizon.
  while (step_until(t)) {
  }
  if (now_ < t) {
    now_ = t;
    wheel_.sync_now(t);
  }
}

}  // namespace spindle::sim
