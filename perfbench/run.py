#!/usr/bin/env python3
"""End-to-end profiling benchmark: trace -> artifact throughput, daemon
latency, and a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload vpr-full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One run builds the orpbench program and the orp-traced daemon from the
checkout's sources (Release, default check level) in .bench_build/orpbench,
sets the workload up from --seed (trace recording plus the live reference
artifacts, several times, reporting the median), then measures for
--seconds seconds. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it makes a few untraced runs and one traced run and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "orpbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "orpbench-work")

WORKLOADS = ["vpr-full", "twolf-leap", "twolf-full-t2", "daemon-mix"]
DAEMON_WORKLOADS = {"daemon-mix"}
SETUP_REPS = 3
MIN_RUNS = 3
RUN_TIMEOUT_S = 120

DIMS = ["instr", "group", "object", "offset"]

END_TO_END = [
    ("events_per_s", "1/s"),
    ("block_rtt_p50_ms", "ms"),
    ("block_rtt_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cpu_s_per_mevent", "s/Mevent"),
    ("profile_bytes", "B"),
    ("success_frac", "frac"),
    ("setup_s", "s"),
]

PER_LAYER = (
    [
        ("traceio.decode_ns_per_event", "ns"),
        ("traceio.bytes_per_event", "B"),
        ("omc.translate_ns_per_event", "ns"),
        ("omc.mru_hit_frac", "frac"),
        ("omc.shared_hit_frac", "frac"),
        ("omc.page_hit_frac", "frac"),
        ("omc.tree_lookup_frac", "frac"),
    ]
    + [("sequitur.%s.ns_per_symbol" % d, "ns") for d in DIMS]
    + [("sequitur.%s.body_symbols" % d, "count") for d in DIMS]
    + [("sequitur.%s.rules" % d, "count") for d in DIMS]
    + [
        ("whomp.consume_ns_per_tuple", "ns"),
        ("whomp.serialize_ms", "ms"),
    ]
    + [("whomp.worker.%s.busy_frac" % d, "frac") for d in DIMS]
    + [
        ("whomp.producer_wait_frac", "frac"),
        ("leap.consume_ns_per_tuple", "ns"),
        ("leap.serialize_ms", "ms"),
        ("leap.substreams", "count"),
        ("leap.captured_access_frac", "frac"),
        ("session.inject_ns_per_event", "ns"),
        ("session.finalize_ms", "ms"),
        ("session.open_ms", "ms"),
        ("session.close_ms", "ms"),
        ("session.snapshot_ms", "ms"),
        ("session.shard_busy_frac", "frac"),
        ("bench.trace_overhead_frac", "frac"),
        ("bench.layer_coverage_frac", "frac"),
    ]
)


class BenchError(Exception):
    pass


def log(msg):
    print("orpbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds orpbench and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources not found under " + ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # A build tree of another checkout: start over.
            shutil.rmtree(BUILD_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "orpbench-build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.isfile(cache):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 1), "--target", "orpbench",
                      "orp-traced"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=out,
                               stdin=subprocess.DEVNULL) != 0:
                raise BenchError("build failed; see " + log_path)
    return (os.path.join(BUILD_DIR, "orpbench"),
            os.path.join(BUILD_DIR, "orp-traced"))


def run_json(cmd):
    """Runs one orpbench subcommand and returns its JSON line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          timeout=RUN_TIMEOUT_S, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d" % (" ".join(cmd[1:3]), proc.returncode))
    return json.loads(lines[-1])


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.rsplit(".", 1)[-1] in ("orpt", "omsg", "leap"):
            h.update(name.encode())
            with open(os.path.join(path, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, with the first failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = ""

    def add(self, result):
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        if result.get("error") and not self.first_error:
            self.first_error = result["error"]

    def check(self, ok, what):
        self.add({"attempted": 1, "failed": 0 if ok else 1,
                  "error": "" if ok else what})


def setup(bench, workload, seed, work, tiny, tally):
    """Sets the workload up SETUP_REPS times; returns the median seconds
    and a line describing the input size."""
    times, digests, result = [], set(), None
    for _ in range(SETUP_REPS):
        if os.path.isdir(work):
            shutil.rmtree(work)
        os.makedirs(work)
        cmd = [bench, "setup", "--workload=" + workload, "--seed=%d" % seed,
               "--dir=" + work] + (["--tiny"] if tiny else [])
        t0 = time.perf_counter()
        result = run_json(cmd)
        times.append(time.perf_counter() - t0)
        tally.add(result)
        digests.add(digest_dir(work))
    tally.check(len(digests) == 1, "set-up is not deterministic")
    note = "set-up: %d events, %d trace bytes" % (result["events"],
                                                  result["trace_bytes"])
    return statistics.median(times), note


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 100)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def untraced_cmd(bench, daemon, workload, work, tiny):
    if workload in DAEMON_WORKLOADS:
        cmd = [bench, "daemon", "--daemon-bin=" + daemon]
    else:
        cmd = [bench, "replay"]
    return cmd + ["--workload=" + workload, "--dir=" + work] + (
        ["--tiny"] if tiny else [])


def timed_runs(cmd, seconds, tally):
    """Repeats \\p cmd for at least \\p seconds and MIN_RUNS runs."""
    runs = []
    t0 = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        result = run_json(cmd)
        tally.add(result)
        runs.append(result)
    sizes = {r["profile_bytes"] for r in runs}
    tally.check(len(sizes) == 1, "artifact size differs between runs")
    return runs


def block_latencies(runs, daemon):
    """Sorted block-latency samples and a line describing them."""
    if daemon:
        rtts = sorted(x for r in runs for x in r["rtt_ms"])
        return rtts, "block_rtt: %d EVENTS round trips pooled over %d runs" % (
            len(rtts), len(runs))
    # Every replay run ingests the same blocks: take each block's median
    # over the runs, so that a block slowed by a transient preemption in
    # one run does not set the tail.
    rtts = sorted(statistics.median(b) for b in zip(*(r["rtt_ms"] for r in runs)))
    return rtts, "block_rtt: %d blocks, each the median of %d runs" % (
        len(rtts), len(runs))


def end_to_end(runs, daemon, setup_s, tally):
    rtts, note = block_latencies(runs, daemon)
    per_mevent = [r["cpu_s"] / (r["events"] / 1e6) for r in runs]
    success = 1.0 - tally.failed / max(tally.attempted, 1)
    values = {
        "events_per_s": statistics.median(r["events"] / r["wall_s"] for r in runs),
        "block_rtt_p50_ms": statistics.median(rtts) if rtts else 0.0,
        "block_rtt_p99_ms": percentile(rtts, 99),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "cpu_s_per_mevent": statistics.median(per_mevent),
        "profile_bytes": runs[-1]["profile_bytes"],
        "success_frac": success,
        "setup_s": setup_s,
    }
    note += ", %d events per run" % runs[-1]["events"]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, note


def per_layer(bench, daemon, workload, work, tiny, tally):
    """MIN_RUNS untraced runs, then one traced run."""
    base = untraced_cmd(bench, daemon, workload, work, tiny)
    untraced = []
    for _ in range(MIN_RUNS):
        result = run_json(base)
        tally.add(result)
        untraced.append(result)
    spans = os.path.join(work, "spans.tsv")
    if workload in DAEMON_WORKLOADS:
        traced = run_json(base + ["--spans=" + spans])
    else:
        traced = run_json([bench, "traced", "--workload=" + workload,
                           "--dir=" + work, "--spans=" + spans] + (
                               ["--tiny"] if tiny else []))
    tally.add(traced)
    tally.check(traced["profile_bytes"] == untraced[-1]["profile_bytes"],
                "traced artifacts differ from the untraced run's")
    wall = statistics.median(r["wall_s"] for r in untraced)
    traced["bench.trace_overhead_frac"] = traced["wall_s"] / wall - 1.0
    # Metrics that do not apply to this workload read 0 (README.md).
    metrics = {k: {"value": float(traced.get(k, 0.0)), "unit": u}
               for k, u in PER_LAYER}
    return metrics, "spans written to " + os.path.relpath(spans, ROOT)


def fingerprint(bench, workload, seed, seconds, trace):
    info = run_json([bench, "info"])
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            sha = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, universal_newlines=True).strip()
        except (subprocess.CalledProcessError, OSError):
            pass
    src = hashlib.sha256()
    for base in ("src", "tools", "perfbench"):
        for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, base))):
            for name in sorted(files):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        src.update(f.read())
    mhz = []
    try:
        with open("/proc/cpuinfo") as f:
            mhz = [float(l.split(":")[1]) for l in f if l.startswith("cpu MHz")]
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest()[:16],
        "build_type": info["build_type"],
        "orp_check_level": info["check_level"],
        "orp_version": info["orp_version"],
        "nproc": os.cpu_count(),
        "cpu_mhz": round(statistics.mean(mhz), 1) if mhz else 0,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def bench_once(args):
    bench, daemon = build()
    name = args.workload + ("-tiny" if args.tiny else "")
    work = os.path.join(WORK_DIR, name)
    tally = Tally()
    setup_s, setup_note = setup(bench, args.workload, args.seed, work,
                                args.tiny, tally)
    if args.trace:
        metrics, note = per_layer(bench, daemon, args.workload, work,
                                  args.tiny, tally)
    else:
        runs = timed_runs(untraced_cmd(bench, daemon, args.workload, work,
                                       args.tiny), args.seconds, tally)
        metrics, note = end_to_end(runs, args.workload in DAEMON_WORKLOADS,
                                   setup_s, tally)
    fp = fingerprint(bench, args.workload, args.seed, args.seconds, args.trace)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(work, "result-trace%d.json" % args.trace), "w") as f:
        json.dump({"fingerprint": fp, "note": note,
                   "first_error": tally.first_error, **result}, f, indent=1)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(setup_note)
    print(note)
    if tally.first_error:
        print("first failure: " + tally.first_error)
    print(json.dumps(result))
    return 0


def smoke():
    """Runs every workload tiny, traced and not, and checks the output."""
    expected = {0: dict(END_TO_END), 1: dict(PER_LAYER)}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != expected[trace]:
                log("BENCHMARK.json %s differs from run.py" % key)
                return 1
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            log("BENCHMARK.json workloads differ from run.py")
            return 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--tiny"], stdout=subprocess.PIPE,
                universal_newlines=True, stdin=subprocess.DEVNULL)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys")
                if not result["correct"] or result["failed"]:
                    problems.append("failed operations")
                got = result["metrics"]
                if set(got) != set(expected[trace]):
                    problems.append("metric names %s" % sorted(
                        set(got) ^ set(expected[trace])))
                for k, m in got.items():
                    if m.get("unit") != expected[trace].get(k) or not isinstance(
                            m.get("value"), (int, float)):
                        problems.append("metric " + k)
            except (IndexError, ValueError, KeyError):
                problems.append("no result line (exit %d)" % proc.returncode)
            if proc.returncode != 0:
                problems.append("exit %d" % proc.returncode)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %-14s trace=%d %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest workload scales (smoke test)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload tiny and check every metric")
    args = p.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            p.error("--workload is required")
        return bench_once(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
