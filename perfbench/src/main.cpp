// Repository benchmark driver: runs one workload repeatedly for a fixed
// wall-clock budget in this process, checks every run's correctness gates
// and determinism, and prints every metric by name with its unit. The last
// line of standard output is one JSON object with the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
//
//   perfbench --workload paper16|sharded|swarm|failover --seed N
//             --seconds S --trace 0|1 [--tiny] [--commit ID]

#include <malloc.h>
#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Named {
  const char* name;
  const char* unit;
};

// The metric contract: the last line of an untraced run carries exactly
// kEndToEnd, of a traced run exactly kPerLayer; a count or ratio of a layer
// the workload does not exercise reads 0. The report lines print more:
// run_s, which on a shared machine drifts by more than any usable bound
// between sets of runs minutes apart (kPerLayer keeps sim.events_per_s),
// the workload-specific end-to-end metrics, and the times only one workload
// defines (grant, detect, install, persist lag, connect). Keep in step with
// BENCHMARK.json.
constexpr Named kEndToEnd[] = {
    {"throughput_gbps", "GB/s"}, {"delivery_p50_us", "us"},
    {"delivery_p999_us", "us"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Named kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"net.writes_per_msg", "count"},
    {"net.bytes_per_msg", "ratio"},
    {"net.post_cpu_ns_per_msg", "ns"},
    {"net.atomics", "count"},
    {"smc.sender_wait_frac", "ratio"},
    {"smc.send_batch_p50", "count"},
    {"smc.receive_batch_p50", "count"},
    {"smc.null_ratio", "ratio"},
    {"sst.predicate_cpu_ns_per_msg", "ns"},
    {"sst.evals", "count"},
    {"sst.fire_ratio.receive", "ratio"},
    {"sst.fire_ratio.null_send", "ratio"},
    {"sst.fire_ratio.send", "ratio"},
    {"sst.fire_ratio.deliver", "ratio"},
    {"sst.fire_ratio.persist_frontier", "ratio"},
    {"sst.fire_ratio.domain.grant", "ratio"},
    {"core.delivery_batch_p50", "count"},
    {"core.lock_wait_frac", "ratio"},
    {"core.cluster_ctor_s", "s"},
    {"core.start_s", "s"},
    {"core.teardown_s", "s"},
    {"store.records_per_frontier_advance", "count"},
    {"dds.admitted", "count"},
    {"dds.shed", "count"},
    {"dds.peak_credit_waiters", "count"},
    {"dds.peak_uplink_queue", "count"},
    {"dds.peak_downlink_queue", "count"},
    {"trace.construct_to_receive_p50_us", "us"},
    {"trace.receive_to_deliver_p999_us", "us"},
    {"trace.slot_acquire_ns_per_msg", "ns"},
    {"trace.rdma_post_ns_per_msg", "ns"},
    {"trace.predicate_fire_ns_per_msg", "ns"},
    {"trace.overhead", "ratio"},
};

/// Independent inputs per run: run i uses seed --seed * kSubRuns + i mod
/// kSubRuns. A single input's tail latency moves by several percent with
/// the seed; the median over five is steadier.
constexpr std::size_t kSubRuns = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper16|sharded|swarm|failover --seed N --seconds S --trace "
               "0|1 [--tiny] [--commit ID]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::stoull(val());
    } else if (k == "--seconds") {
      a.seconds = std::stod(val());
    } else if (k == "--trace") {
      a.trace = val() != "0";
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--commit") {
      a.commit = val();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

void print_provenance(const Args& a) {
  std::printf("# provenance: workload=%s seed=%llu commit=%s build=%s nproc=%zu "
              "sim_threads=1 trace=%d tiny=%d seconds=%g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.commit.c_str(), PERFBENCH_BUILD_TYPE, cpus_available(),
              a.trace ? 1 : 0, a.tiny ? 1 : 0, a.seconds);
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPINDLE_", 8) == 0) std::printf("# env: %s\n", *e);
  }
}

RunResult run_once(const std::string& w, const RunParams& p) {
  Span s("run");
  if (w == "paper16") return run_paper16(p);
  if (w == "sharded") return run_sharded(p);
  if (w == "swarm") return run_swarm(p);
  if (w == "failover") return run_failover(p);
  usage(("unknown workload " + w).c_str());
}

/// Virtual-time metrics are a pure function of the seed: any difference
/// between two runs of the same process is a determinism failure.
void check_same_virtual(const RunResult& ref, const RunResult& r,
                        const char* what, std::vector<std::string>& out) {
  for (const Metric& m : ref.virt.all()) {
    const Metric* o = r.virt.find(m.name);
    if (o == nullptr || o->value != m.value || o->n != m.n) {
      out.push_back(std::string(what) + ": virtual metric " + m.name +
                    " differs between runs");
    }
  }
}

/// Per-metric median over the first kSubRuns runs (one per sub-seed); the
/// sample count is that of the first sub-run.
MetricSet median_over_subruns(const std::vector<RunResult>& rs,
                              MetricSet RunResult::*field) {
  MetricSet out;
  const std::size_t k = std::min(rs.size(), kSubRuns);
  for (const Metric& m : (rs.front().*field).all()) {
    std::vector<double> v;
    for (std::size_t i = 0; i < k; ++i) {
      if (const Metric* o = (rs[i].*field).find(m.name)) v.push_back(o->value);
    }
    out.set(m.name, m.unit, median(v), m.n);
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_metric(const Metric& m) {
  if (m.n >= 0) {
    std::printf("metric %-38s %18.6f %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.n));
  } else {
    std::printf("metric %-38s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  print_provenance(a);
  // Keep freed heap memory for reuse, so repetitions after the first reuse
  // faulted-in pages instead of timing the kernel zeroing fresh ones.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  RunParams p;
  p.tiny = a.tiny;

  // Run i uses sub-seed i mod kSubRuns of --seed, so virtual metrics are
  // medians over kSubRuns independent inputs. Runs repeat until the
  // wall-clock budget is spent; traced runs alternate with untraced ones on
  // the same sub-seeds, so their ratio is the tracing overhead. The first run
  // of each kind is a warm-up: gated like every run, but not timed.
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<RunResult> plain;
  std::vector<RunResult> traced;
  while (plain.size() < kSubRuns || elapsed() < a.seconds ||
         (a.trace && traced.size() < plain.size())) {
    const bool trace_this = a.trace && traced.size() < plain.size();
    const std::size_t i = trace_this ? traced.size() : plain.size();
    p.seed = a.seed * kSubRuns + i % kSubRuns;
    p.traced = trace_this;
    p.gate = !trace_this && i < kSubRuns;
    (trace_this ? traced : plain).push_back(run_once(a.workload, p));
  }

  // Gates: each run's own checks, plus determinism: a repeated sub-seed and
  // its traced run reproduce the first run's virtual metrics exactly.
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      const RunResult& r = (*set)[i];
      violations.insert(violations.end(), r.violations.begin(), r.violations.end());
      attempted += r.attempted;
      failed += r.failed;
      if (set == &traced) {
        check_same_virtual(plain[i % kSubRuns], r, "traced", violations);
      } else if (i >= kSubRuns) {
        check_same_virtual(plain[i - kSubRuns], r, "repeat", violations);
      }
    }
  }

  // Host times: the median over the timed runs.
  const auto med = [](const std::vector<RunResult>& rs, double (*f)(const RunResult&)) {
    std::vector<double> v;
    for (std::size_t i = rs.size() > 1 ? 1 : 0; i < rs.size(); ++i) v.push_back(f(rs[i]));
    return median(v);
  };
  const auto timed = [](const std::vector<RunResult>& rs) {
    return static_cast<std::int64_t>(rs.size() > 1 ? rs.size() - 1 : rs.size());
  };
  const double run_s = med(plain, [](const RunResult& r) { return r.run_s; });

  MetricSet e2e = median_over_subruns(plain, &RunResult::virt);
  e2e.set("failed_frac", "ratio",
          attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
          static_cast<std::int64_t>(attempted));
  e2e.set("setup_s", "s", med(plain, [](const RunResult& r) { return r.setup_s(); }),
          timed(plain));
  e2e.set("run_s", "s", run_s, timed(plain));
  e2e.set("peak_rss_mb", "MB", peak_rss_mb());
  e2e.set("cold_setup_s", "s", plain.front().setup_s());
  e2e.set("cold_run_s", "s", plain.front().run_s);

  MetricSet layer = median_over_subruns(traced.empty() ? plain : traced, &RunResult::layer);
  std::vector<double> events;
  for (std::size_t i = 0; i < kSubRuns; ++i) events.push_back(static_cast<double>(plain[i].events));
  layer.set("sim.events", "count", median(events));
  layer.set("sim.events_per_s", "1/s",
            med(plain, [](const RunResult& r) {
              return r.run_s > 0 ? static_cast<double>(r.events) / r.run_s : 0;
            }),
            timed(plain));
  layer.set("core.cluster_ctor_s", "s", med(plain, [](const RunResult& r) { return r.ctor_s; }),
            timed(plain));
  layer.set("core.start_s", "s", med(plain, [](const RunResult& r) { return r.start_s; }),
            timed(plain));
  layer.set("core.teardown_s", "s", med(plain, [](const RunResult& r) { return r.teardown_s; }),
            timed(plain));
  if (a.workload == "swarm") {
    layer.set("dds.connect_s", "s", med(plain, [](const RunResult& r) { return r.connect_s; }),
              timed(plain));
  }
  if (!traced.empty()) {
    const double traced_run_s = med(traced, [](const RunResult& r) { return r.run_s; });
    layer.set("trace.overhead", "ratio", run_s > 0 ? traced_run_s / run_s : 0,
              timed(traced));
  }

  std::printf("# runs: untraced=%zu traced=%zu (first of each untimed) wall=%.3fs\n"
              "# run_s per untraced run:",
              plain.size(), traced.size(), elapsed());
  for (const RunResult& r : plain) std::printf(" %.4f", r.run_s);
  std::printf("\n");
  std::printf("# virtual and per-layer values: median over %zu sub-runs (seeds %llu..%llu), n per sub-run;"
              " host times: median over timed runs\n",
              kSubRuns, static_cast<unsigned long long>(a.seed * kSubRuns),
              static_cast<unsigned long long>(a.seed * kSubRuns + kSubRuns - 1));
  std::printf("# end-to-end\n");
  for (const Metric& m : e2e.all()) print_metric(m);
  std::printf("# per-layer%s\n", a.trace ? "" : " (untraced run; trace.* need --trace 1)");
  for (const Metric& m : layer.all()) print_metric(m);
  for (const Named& n : kPerLayer) {
    if (layer.find(n.name) == nullptr) {
      std::printf("metric %-38s %18s %s (not exercised by %s)\n", n.name, "-",
                  n.unit, a.workload.c_str());
    }
  }
  for (const std::string& v : violations) std::printf("# GATE FAILED: %s\n", v.c_str());

  // Host spans go under the working directory (the repository root).
  std::filesystem::create_directories(".bench_out");
  const std::string spans = ".bench_out/" + a.workload + "-seed" +
                            std::to_string(a.seed) + "-trace" +
                            (a.trace ? "1" : "0") + ".spans.json";
  if (!SpanLog::get().write_chrome_json(spans)) {
    violations.push_back("could not write " + spans);
  } else {
    std::printf("# host spans written to %s\n", spans.c_str());
  }

  const bool correct = violations.empty() && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  const MetricSet& src = a.trace ? layer : e2e;
  const auto emit = [&](const Named& n) {
    const Metric* m = src.find(n.name);
    json += first ? "" : ", ";
    first = false;
    json.append("\"").append(n.name).append("\": {\"value\": ");
    json.append(json_number(m != nullptr ? m->value : 0.0));
    json.append(", \"unit\": \"").append(n.unit).append("\"}");
  };
  if (a.trace) {
    for (const Named& n : kPerLayer) emit(n);
  } else {
    for (const Named& n : kEndToEnd) emit(n);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
