#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The benchmark is compiled into .bench_build/ (CMake, Release) on first use;
later runs rebuild incrementally. The measured program prints every metric
by name with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
non-zero when any correctness gate fails, when the build fails, or when the
program does not finish in time.

--self-check runs every workload at its tiny size, traced and untraced, and
asserts that every metric named in perfbench/README.md for that workload is
emitted, that the final JSON carries exactly the BENCHMARK.json metrics, and
that every gate passes.
"""

import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("paper16", "sharded", "swarm", "failover")
RUN_TIMEOUT_S = 170

# Metrics each workload must print (self-check), beyond the per-layer
# metrics every workload prints.
E2E_ALL = ["throughput_gbps", "delivery_p50_us", "delivery_p999_us",
           "failed_frac", "setup_s", "run_s", "peak_rss_mb"]
E2E_EXTRA = {
    "paper16": [],
    "sharded": ["cross_p999_us", "durable_p999_us"],
    "swarm": ["goodput_rps", "rpc_p50_us", "rpc_p999_us", "offered_rps"],
    "failover": ["outage_us"],
}
LAYER_ALL = [
    "sim.events", "sim.events_per_s", "net.writes_per_msg",
    "net.bytes_per_msg", "net.post_cpu_ns_per_msg", "net.atomics",
    "smc.sender_wait_frac", "smc.send_batch_p50", "smc.receive_batch_p50",
    "smc.null_ratio", "sst.predicate_cpu_ns_per_msg", "sst.evals",
    "sst.fire_ratio.receive", "sst.fire_ratio.null_send",
    "sst.fire_ratio.send", "sst.fire_ratio.deliver",
    "core.delivery_batch_p50", "core.lock_wait_frac", "core.cluster_ctor_s",
    "core.start_s", "core.teardown_s",
    "trace.construct_to_receive_p50_us", "trace.receive_to_deliver_p999_us",
    "trace.slot_acquire_ns_per_msg", "trace.rdma_post_ns_per_msg",
    "trace.predicate_fire_ns_per_msg", "trace.overhead",
]
LAYER_EXTRA = {
    "paper16": [],
    "sharded": ["sst.fire_ratio.persist_frontier", "sst.fire_ratio.domain.grant",
                "core.grant_p50_us", "core.grant_p999_us",
                "store.persist_lag_p999_us",
                "store.records_per_frontier_advance"],
    "swarm": ["dds.admitted", "dds.shed", "dds.peak_credit_waiters",
              "dds.peak_uplink_queue", "dds.peak_downlink_queue",
              "dds.connect_s"],
    "failover": ["core.detect_us", "core.install_us"],
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            # Build output goes to stderr: stdout carries only the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return BINARY.exists()


def provenance_id():
    """Commit when the tree is a git checkout, plus a digest of the sources
    the benchmark builds (the only identity a plain checkout has)."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        base = ROOT / sub
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()[:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "git:%s,src:%s" % (commit, h.hexdigest()[:12])


def run(workload, seed, seconds, trace, tiny=False, echo=True):
    """Run the program once. Returns (exit code, stdout text)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", provenance_id()]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return obj


def printed_metrics(text):
    names = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric" and parts[2] != "-":
            names.add(parts[1])
    return names


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            code, out = run(w, 1, 0, trace, tiny=True, echo=False)
            tag = "%s trace=%d" % (w, trace)
            res = last_json(out)
            if code != 0 or res is None or not res["correct"]:
                problems.append("%s: gate failed or no result (exit %d)" % (tag, code))
                continue
            want = E2E_ALL + E2E_EXTRA[w] + LAYER_ALL + LAYER_EXTRA[w]
            if not trace:
                want = [n for n in want if not n.startswith("trace.")]
            missing = sorted(set(want) - printed_metrics(out))
            if missing:
                problems.append("%s: metrics not printed: %s" % (tag, ", ".join(missing)))
            expect = layer_names if trace else e2e_names
            if list(res["metrics"]) != expect:
                problems.append("%s: final JSON metrics differ from BENCHMARK.json" % tag)
            print("self-check %-18s ok=%s attempted=%d" %
                  (tag, not problems, res["attempted"]))
    for p in problems:
        print("self-check FAILED: " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return self_check()
    code, out = run(args.workload, args.seed, args.seconds, args.trace == 1)
    if last_json(out) is None:
        log("the program printed no result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
