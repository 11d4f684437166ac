#pragma once

// Shared types of the repository benchmark: run parameters, the per-run
// result every workload fills, exact-percentile samples, and the host span
// log the benchmark records around its own calls into each layer.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/group.hpp"
#include "metrics/registry.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// What one workload run is asked to do. `tiny` shrinks the run to the
/// self-check size; everything else is fixed by the workload itself.
struct RunParams {
  std::uint64_t seed = 1;
  bool traced = false;
  bool tiny = false;
  /// Also run the workload's separate correctness-gate run, where it has
  /// one (failover); the driver asks for it once per process.
  bool gate = false;
};

/// Latency samples kept whole, so percentiles are exact (nearest rank)
/// rather than read from a bucketed histogram.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  std::size_t count() const { return v_.size(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double percentile(double p) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// One named measurement. `n` is the sample count behind a percentile or
/// ratio (-1 where a count does not apply).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::int64_t n = -1;
};

class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value,
           std::int64_t n = -1);
  /// Percentile `p` of nanosecond samples `ns`, in µs, with the count.
  void pct(const std::string& name, const Samples& ns, double p);
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& all() const { return m_; }

 private:
  std::vector<Metric> m_;
};

/// Everything one workload run reports. Host times are process CPU seconds
/// measured around the public API calls; `virt` holds the deterministic
/// virtual-time end-to-end metrics, `layer` the per-layer ones.
struct RunResult {
  double ctor_s = 0;      // cluster / domain / group construction
  double start_s = 0;     // create + start (+ attach)
  double connect_s = 0;   // front-tier session connects (swarm only)
  double run_s = 0;       // first run call -> completion
  double teardown_s = 0;  // shutdown + destruction
  std::uint64_t events = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  MetricSet virt;
  MetricSet layer;

  double setup_s() const { return ctor_s + start_s + connect_s; }
  void violation(std::string v) { violations.push_back(std::move(v)); }
};

// --- host spans -----------------------------------------------------------

/// In-memory log of host spans (wall-clock start and end, and the span that
/// encloses each). Written out as Chrome trace JSON when the benchmark ends.
class SpanLog {
 public:
  static SpanLog& get();
  int open(const char* name);
  void close(int id);
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double now_us() const;
};

/// CPU seconds this process has used (all threads, user + system).
double process_cpu_s();

/// RAII span. Host timings are taken as process CPU time: the serial engine
/// runs on one thread, so on an idle machine this equals wall time, and it
/// does not count time the process waits for a core another tenant holds.
class Span {
 public:
  explicit Span(const char* name)
      : id_(SpanLog::get().open(name)), cpu0_(process_cpu_s()) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Close the span now; returns the CPU seconds it covered.
  double end() {
    if (id_ >= 0) {
      cpu_s_ = process_cpu_s() - cpu0_;
      SpanLog::get().close(id_);
      id_ = -1;
    }
    return cpu_s_;
  }

 private:
  int id_;
  double cpu0_;
  double cpu_s_ = 0;
};

// --- shared per-layer extraction -----------------------------------------

/// Totals of the protocol layers (net, smc, sst, core) from one or more
/// stats snapshots, folded into `out.layer`. `msgs_sent` is the number of
/// application messages multicast, `app_bytes` their payload bytes,
/// `sender_threads` the simulated application threads that send (each
/// node also runs one polling thread), `span_ns` the virtual length of the
/// measured run.
struct LayerInputs {
  struct Predicate {
    std::string name;
    std::uint64_t evals = 0;
    std::uint64_t fires = 0;
  };
  /// Snapshot `c`'s counters and add up the evals and fires of every
  /// predicate on every member's scheduler (the sequencer's grant
  /// predicate included, which cluster.stats() does not break out).
  void collect(spindle::core::Cluster& c);

  std::vector<spindle::metrics::ClusterStats> snapshots;
  std::vector<Predicate> predicates;  // first-seen order
  std::uint64_t msgs_sent = 0;
  std::uint64_t app_bytes = 0;
  std::size_t nodes = 0;
  std::size_t sender_threads = 0;
  std::int64_t span_ns = 0;
};
void add_protocol_layers(const LayerInputs& in, RunResult& out);

/// The trace layer of a traced run: lifecycle legs computed exactly from
/// the event stream, and Stage span durations per application message.
/// Records a violation if any node's ring dropped events.
void add_trace_layer(const spindle::trace::Tracer& tracer,
                     std::uint64_t msgs_sent, RunResult& out);


/// FNV-1a step over one 64-bit value.
inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// Seed-keyed content word of message `i` from `sender`, written into every
/// payload and checked at delivery.
inline std::uint64_t content_word(std::uint64_t seed, std::uint64_t sender,
                                  std::uint64_t i) {
  return fnv(fnv(fnv(kFnvOffset, seed), sender), i);
}

// --- workloads ------------------------------------------------------------

RunResult run_paper16(const RunParams& p);
RunResult run_sharded(const RunParams& p);
RunResult run_swarm(const RunParams& p);
RunResult run_failover(const RunParams& p);

}  // namespace perfbench
