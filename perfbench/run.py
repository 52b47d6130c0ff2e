#!/usr/bin/env python3
"""Benchmark runner for the cloudsync simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which pulls in ../src) with CMake, then runs timed samples
of one workload in whole passes over a fixed pool of input seeds, as many
passes as fit in --seconds (at least one). Every sample is a fresh process
(see sample.cpp for why). --seed sets the order of each pass, so the same seed
gives the same inputs, and every run's median is taken over the same inputs:
one trace seed alone moves fleet_replay's throughput by +-14%. Each sample's
outputs are checked against the ones golden.json records for its input seed.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones. With --trace 1 the run alternates untraced and traced
samples on the same inputs and reports the per-layer ones, plus the tracing
overhead (the median traced-minus-untraced time of a pair).

Maintenance: `--record-golden` re-records golden.json for the whole pool. Do
this only on purpose, when the simulator's outputs are meant to change.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("fleet_replay", "fleet_small_files", "server_sessions")
POOL = range(1, 9)           # input seeds of a full run
REDUCED_POOL = range(1, 5)   # input seeds of a --reduced run
MIN_TRACED_PAIRS = 2
SAMPLE_TIMEOUT_S = 150

LAYERS = ("util.sha256", "util.md5", "util.payload_gen", "compress.lzss_sizer",
          "chunking.signature", "chunking.delta", "dedup.analyze",
          "pipeline.analyze", "client.plan", "net.exchange", "storage.put",
          "storage.commit", "trace.generate")
LAYER_FIELDS = ("inclusive_ns", "self_ns", "calls", "bytes")
MEMOS = ("shipped_size", "fingerprint", "signature", "delta", "generation")
SERVER_METRICS = ("server.diff_ns", "server.transfer_ns", "server.apply_ns",
                  "server.admission_wait_ns", "server.lock_busy_ns",
                  "server.lock_contention_ratio", "server.dedup_hit_ratio")

# Layers each workload must reach. A traced run that shows zero calls on one
# of these has lost its wrapper (see check_wrapping for the other layers).
ACTIVE_LAYERS = {
    "fleet_replay": set(LAYERS) - {"pipeline.analyze"},
    "fleet_small_files": set(LAYERS) - {"pipeline.analyze"},
    "server_sessions": {"util.sha256", "util.payload_gen", "storage.commit"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the simulator sources (src/) are missing next to perfbench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return {t: os.path.join(out, t) for t in targets}


def check_wrapping(totals_by_layer, workload):
    """Problems with layers whose traced call count says the wrap is broken.

    A layer with zero calls is fine only if the libraries reference one of
    its entries from another object (so --wrap can see the calls) and the
    workload is not expected to reach it.
    """
    problems = []
    undefined = set()
    nm = shutil.which("nm")
    libs = []
    for dirpath, _, files in os.walk(os.path.join(build_dir(), "cloudsync")):
        libs += [os.path.join(dirpath, f) for f in files if f.endswith(".a")]
    if nm and libs:
        res = subprocess.run([nm, "-u", *libs], capture_output=True, text=True)
        undefined = {line.split()[-1] for line in res.stdout.splitlines()
                     if " U " in line}
    wrapped = wrapped_symbols()
    for name in LAYERS:
        if totals_by_layer.get(name + ".calls", 0) > 0:
            continue
        if name in ACTIVE_LAYERS[workload]:
            problems.append(f"{name}: zero calls on a workload that uses it")
        elif undefined and not any(s in undefined for s in wrapped.get(name, ())):
            problems.append(f"{name}: no cross-object call site to intercept")
    return problems


def wrapped_symbols():
    """Layer name -> mangled symbols, read from the wrapper files' sections."""
    by_layer = {}
    for source in ("wrap_spans.cpp", "wrap_probes.cpp"):
        current = None
        with open(os.path.join(HERE, source)) as f:
            for line in f:
                if line.startswith("// --- "):
                    current = line[7:].split()[0]
                elif "WRAP(_Z" in line and current:
                    sym = line.split("WRAP(")[1].split(")")[0]
                    by_layer.setdefault(current, []).append(sym)
    return by_layer


# --- samples -----------------------------------------------------------------

def run_sample(binary, workload, seed, threads=None, reduced=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if threads:
        cmd += ["--threads", str(threads)]
    if reduced:
        cmd.append("--reduced")
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=SAMPLE_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}: "
                           f"{res.stderr.strip()[-400:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def load_golden():
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def golden_key(workload, reduced):
    return workload + ("/reduced" if reduced else "")


def mix64(x):
    """splitmix64 finalizer."""
    x &= (1 << 64) - 1
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return x ^ (x >> 31)


def input_seeds(seed, reduced):
    """The pool, in the order a run with this --seed replays it."""
    pool = REDUCED_POOL if reduced else POOL
    return sorted(pool, key=lambda p: mix64(seed * 0x9E3779B97F4A7C15 + p))


def sample_problems(s, expected, seen_pids):
    """Why a sample's outputs cannot be trusted; empty when it passes."""
    problems = list(s["errors"])
    if s["failed"]:
        problems.append(f"{s['failed']} failed operations")
    if s["memo_warm_at_start"]:
        problems.append("process-wide memos were warm at start: not a fresh process")
    if s["pid"] in seen_pids:
        problems.append("sample repeated inside one process")
    if expected is None:
        problems.append(f"input seed {s['seed']} has no recorded outputs")
    elif s["check"] != expected:
        diff = {k: (s["check"].get(k), v) for k, v in expected.items()
                if s["check"].get(k) != v}
        problems.append(f"outputs differ from the recorded ones: {diff}")
    return problems


class RunState:
    def __init__(self, workload, reduced):
        self.golden = load_golden().get(golden_key(workload, reduced), {})
        self.pids = set()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def admit(self, s):
        problems = sample_problems(s, self.golden.get(str(s["seed"])), self.pids)
        self.pids.add(s["pid"])
        self.attempted += s["attempted"]
        self.failed += s["attempted"] if problems else s["failed"]
        self.problems += problems
        return not problems


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(samples):
    return {
        "files_per_s": (median([s["files"] / s["timed_s"] for s in samples]), "1/s"),
        "sessions_per_s": (median([s["transactions"] / s["timed_s"] for s in samples]), "1/s"),
        "session_p50_us": (median([s["latency_p50_ns"] / 1e3 for s in samples]), "us"),
        "setup_s": (median([s["setup_s"] for s in samples]), "s"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in samples]), "MB"),
    }


def per_layer(traced, untraced):
    names = [f"{l}.{f}" for l in LAYERS for f in LAYER_FIELDS]
    names += ["core.replay.self_ns", "store.peak_live_bytes", "store.intern_hit_ratio"]
    names += [f"memo.{m}.{f}" for m in MEMOS for f in ("hits", "misses", "hit_ratio")]
    out = {}
    for n in names:
        unit = ("ns" if n.endswith("_ns") else "count" if n.endswith((".calls", ".hits", ".misses"))
                else "bytes" if n.endswith("bytes") else "ratio")
        out[n] = (median([s["layers"].get(n, 0) for s in traced]), unit)
    for n in SERVER_METRICS:
        out[n] = (median([s["server"].get(n, 0) for s in traced]),
                  "ratio" if n.endswith("ratio") else "ns")
    # Samples come in (untraced, traced) pairs on the same inputs.
    out["tracing_overhead_s"] = (median([t["timed_s"] - u["timed_s"]
                                         for u, t in zip(untraced, traced)]), "s")
    return out


def host_block(sample):
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    host = dict(sample["host"])
    host["cpu_flags"] = {f: f in flags for f in ("sha_ni", "avx2", "avx512f")}
    host["march_native"] = False
    return host


def describe(s):
    return (f"sample pid={s['pid']} threads={s['threads']} setup={s['setup_s']:.4f}s "
            f"timed={s['timed_s']:.4f}s files={s['files']} "
            f"p50={s['latency_p50_ns'] / 1e3:.1f}us p99={s['latency_p99_ns'] / 1e3:.1f}us "
            f"({s['latency_samples']} latencies) rss={s['peak_rss_mb']:.1f}MB")


def bench(args):
    targets = ["perfbench_run"] + (["perfbench_traced"] if args.trace else [])
    bins = build(targets)
    state = RunState(args.workload, args.reduced)
    seeds = input_seeds(args.seed, args.reduced)
    untraced, traced = [], []

    def sample(binary, seed, into):
        s = run_sample(bins[binary], args.workload, seed, args.threads, args.reduced)
        state.admit(s)
        into.append(s)
        log(("traced " if into is traced else "") + describe(s))

    start = time.monotonic()
    if args.trace:
        # Each traced sample replays the inputs of the untraced one before
        # it, so their difference is the tracing overhead alone.
        for k, seed in enumerate(seeds):
            if k >= MIN_TRACED_PAIRS and time.monotonic() - start >= args.seconds:
                break
            sample("perfbench_run", seed, untraced)
            sample("perfbench_traced", seed, traced)
    else:
        # Whole passes only, so every run's median covers the same inputs.
        while True:
            pass_start = time.monotonic()
            for seed in seeds:
                sample("perfbench_run", seed, untraced)
            now = time.monotonic()
            if now - start + (now - pass_start) > args.seconds:
                break

    if traced:
        log("span time, parent>child (ns): " + json.dumps(traced[-1]["span_edges_ns"]))
        state.problems += check_wrapping(traced[-1]["layers"], args.workload)
        if state.problems:
            state.failed = max(state.failed, 1)
    for p in sorted(set(state.problems)):
        log("check failed: " + p)
    print(json.dumps({"host": host_block(untraced[0]), "workload": args.workload,
                      "seed": args.seed, "samples": len(untraced) + len(traced)}))

    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(json.dumps({
        "correct": not state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def record_golden(args):
    bins = build(["perfbench_run"])
    golden = load_golden()
    for workload in (args.workload,) if args.workload else WORKLOADS:
        table = golden.setdefault(golden_key(workload, args.reduced), {})
        for seed in REDUCED_POOL if args.reduced else POOL:
            s = run_sample(bins["perfbench_run"], workload, seed, args.threads,
                           args.reduced)
            if s["errors"] or s["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {s['errors']}")
            table[str(seed)] = s["check"]
            log(f"{workload} recorded: {json.dumps(s)}")
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="replay threads (fleet, default 1) or client threads "
                        "and shards (server, default nproc)")
    p.add_argument("--reduced", action="store_true", help="small inputs (smoke test)")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()
    if args.record_golden:
        return record_golden(args)
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
