#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include "bench.hpp"
#include "sst/predicates.hpp"
#include "trace/analysis.hpp"

namespace perfbench {

double Samples::percentile(double p) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const auto n = static_cast<double>(v_.size());
  const double rank = std::clamp(std::ceil(p / 100.0 * n), 1.0, n);
  return v_[static_cast<std::size_t>(rank) - 1];
}

void MetricSet::set(const std::string& name, const std::string& unit,
                    double value, std::int64_t n) {
  for (Metric& m : m_) {
    if (m.name == name) {
      m = Metric{name, unit, value, n};
      return;
    }
  }
  m_.push_back(Metric{name, unit, value, n});
}

void MetricSet::pct(const std::string& name, const Samples& ns, double p) {
  set(name, "us", ns.percentile(p) / 1e3, static_cast<std::int64_t>(ns.count()));
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : m_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// --- host spans -----------------------------------------------------------

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now_us(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                 s.end_us - s.start_us, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- protocol layers ------------------------------------------------------

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void LayerInputs::collect(spindle::core::Cluster& c) {
  snapshots.push_back(c.stats());
  for (spindle::net::NodeId id : c.members()) {
    const spindle::sst::Predicates* preds = c.node(id).predicates();
    if (preds == nullptr) continue;
    preds->visit([&](const spindle::sst::Predicates::GroupOptions&,
                     const spindle::sst::PredicateStats& p) {
      auto it = std::find_if(predicates.begin(), predicates.end(),
                             [&](const Predicate& e) { return e.name == p.name; });
      if (it == predicates.end()) {
        predicates.push_back(Predicate{p.name, 0, 0});
        it = std::prev(predicates.end());
      }
      it->evals += p.evals;
      it->fires += p.fires;
    });
  }
}

void add_protocol_layers(const LayerInputs& in, RunResult& out) {
  spindle::metrics::ProtocolCounters t;
  for (const auto& snap : in.snapshots) t.merge(snap.total);
  const auto msgs = static_cast<double>(in.msgs_sent);
  const auto n_msgs = static_cast<std::int64_t>(in.msgs_sent);
  const auto span = static_cast<double>(in.span_ns);
  MetricSet& L = out.layer;

  L.set("net.writes_per_msg", "count",
        ratio(static_cast<double>(t.rdma_writes_posted), msgs), n_msgs);
  L.set("net.bytes_per_msg", "ratio",
        ratio(static_cast<double>(t.rdma_bytes_posted),
              static_cast<double>(in.app_bytes)),
        n_msgs);
  L.set("net.post_cpu_ns_per_msg", "ns",
        ratio(static_cast<double>(t.post_cpu), msgs), n_msgs);
  L.set("net.atomics", "count", static_cast<double>(t.atomics_posted));

  L.set("smc.sender_wait_frac", "ratio",
        ratio(static_cast<double>(t.sender_wait),
              static_cast<double>(in.sender_threads) * span));
  L.set("smc.send_batch_p50", "count",
        static_cast<double>(t.send_batches.median()),
        static_cast<std::int64_t>(t.send_batches.count()));
  L.set("smc.receive_batch_p50", "count",
        static_cast<double>(t.receive_batches.median()),
        static_cast<std::int64_t>(t.receive_batches.count()));
  L.set("smc.null_ratio", "ratio",
        ratio(static_cast<double>(t.nulls_sent),
              static_cast<double>(t.messages_sent)),
        static_cast<std::int64_t>(t.messages_sent));

  std::uint64_t evals = 0;
  for (const auto& p : in.predicates) evals += p.evals;
  L.set("sst.predicate_cpu_ns_per_msg", "ns",
        ratio(static_cast<double>(t.predicate_cpu), msgs), n_msgs);
  L.set("sst.evals", "count", static_cast<double>(evals));
  for (const auto& p : in.predicates) {
    L.set("sst.fire_ratio." + p.name, "ratio",
          ratio(static_cast<double>(p.fires), static_cast<double>(p.evals)),
          static_cast<std::int64_t>(p.evals));
  }

  L.set("core.delivery_batch_p50", "count",
        static_cast<double>(t.delivery_batches.median()),
        static_cast<std::int64_t>(t.delivery_batches.count()));
  // Share of all simulated threads' time (pollers and senders) spent
  // waiting for a node's shared-state lock.
  L.set("core.lock_wait_frac", "ratio",
        ratio(static_cast<double>(t.lock_wait),
              static_cast<double>(in.nodes + in.sender_threads) * span));
}

// --- trace layer ----------------------------------------------------------

namespace {

using spindle::trace::Event;
using spindle::trace::Stage;

// Same message identity as trace::lifecycle(): (subgroup, sender, index),
// and (message, node) for the per-receiver legs.
std::uint64_t msg_key(const Event& e) {
  return (static_cast<std::uint64_t>(e.subgroup) << 48) ^
         (static_cast<std::uint64_t>(e.sender) << 32) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.msg_index));
}
std::uint64_t node_msg_key(const Event& e) {
  return msg_key(e) * 1000003ULL + e.node;
}

}  // namespace

void add_trace_layer(const spindle::trace::Tracer& tracer,
                     std::uint64_t msgs_sent, RunResult& out) {
  Span span("trace.analyze");
  std::uint64_t dropped = 0;
  std::uint64_t peak = 0;
  for (std::uint32_t n = 0; n < tracer.nodes(); ++n) {
    if (tracer.dropped(n) != 0) {
      out.violation("trace: node " + std::to_string(n) + " dropped " +
                    std::to_string(tracer.dropped(n)) + " events");
    }
    dropped += tracer.dropped(n);
  }

  std::vector<std::vector<Event>> per_node(tracer.nodes());
  for (std::uint32_t n = 0; n < tracer.nodes(); ++n) {
    per_node[n] = tracer.events(n);
    peak = std::max<std::uint64_t>(peak, per_node[n].size());
  }

  double slot_ns = 0;
  double post_ns = 0;
  double fire_ns = 0;
  std::unordered_map<std::uint64_t, std::int64_t> constructed;
  for (const auto& evs : per_node) {
    for (const Event& e : evs) {
      switch (e.stage) {
        case Stage::construct:
          constructed[msg_key(e)] = e.t;
          break;
        case Stage::slot_acquire:
          slot_ns += static_cast<double>(e.dur);
          break;
        case Stage::rdma_post:
          post_ns += static_cast<double>(e.dur);
          break;
        case Stage::predicate_fire:
          fire_ns += static_cast<double>(e.dur);
          break;
        default:
          break;
      }
    }
  }
  Samples c2r;
  Samples r2d;
  std::unordered_map<std::uint64_t, std::int64_t> received;
  for (const auto& evs : per_node) {
    for (const Event& e : evs) {
      if (e.stage == Stage::receive) {
        received[node_msg_key(e)] = e.t;
        const auto c = constructed.find(msg_key(e));
        if (c != constructed.end() && e.t >= c->second) {
          c2r.add(static_cast<double>(e.t - c->second));
        }
      } else if (e.stage == Stage::deliver) {
        const auto r = received.find(node_msg_key(e));
        if (r != received.end() && e.t >= r->second) {
          r2d.add(static_cast<double>(e.t - r->second));
        }
      }
    }
  }
  // The library analyzer must see the same legs (its percentiles are
  // bucketed, so only the sample counts are compared).
  const auto rep = spindle::trace::lifecycle(tracer);
  if (rep.construct_to_receive_ns.count() != c2r.count() ||
      rep.receive_to_deliver_ns.count() != r2d.count()) {
    out.violation("trace: lifecycle sample counts disagree with trace::lifecycle()");
  }

  const auto msgs = static_cast<double>(msgs_sent);
  const auto n_msgs = static_cast<std::int64_t>(msgs_sent);
  MetricSet& L = out.layer;
  L.pct("trace.construct_to_receive_p50_us", c2r, 50);
  L.pct("trace.receive_to_deliver_p999_us", r2d, 99.9);
  L.set("trace.slot_acquire_ns_per_msg", "ns", ratio(slot_ns, msgs), n_msgs);
  L.set("trace.rdma_post_ns_per_msg", "ns", ratio(post_ns, msgs), n_msgs);
  L.set("trace.predicate_fire_ns_per_msg", "ns", ratio(fire_ns, msgs), n_msgs);
  L.set("trace.events", "count", static_cast<double>(tracer.total_recorded()));
  L.set("trace.dropped", "count", static_cast<double>(dropped));
  L.set("trace.peak_node_events", "count", static_cast<double>(peak));
}

}  // namespace perfbench
