#!/usr/bin/env python3
"""Build and run heat_bench, the repository's end-to-end benchmark.

One run (what BENCHMARK.json's command does). The last line of standard
output is the JSON result:

    python3 heatbench/heat_bench.py --workload mult-op --seed 1 \
        --seconds 20 --trace 0

A suite of runs, summarised as median and quartiles per metric:

    python3 heatbench/heat_bench.py run -k 3 --sets 2 --trace-runs 1 \
        -o heatbench/results/baseline.json

Two result files (or two sets of one file, as FILE#INDEX) against the
bounds in BENCHMARK.json:

    python3 heatbench/heat_bench.py compare BASE HEAD

The benchmark is compiled from source into $CARGO_TARGET_DIR (default
.bench_build) under the repository root on first use.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "heatbench")
BUILD_DIR = os.path.join(ROOT,
                         os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "heat_bench")
WORKLOADS = ["mult-op", "depth4-fused", "matvec16", "tenant-mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build heat_bench; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "heat_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            log(f"heat_bench: build failed: {e}")
            sys.exit(1)


def run_binary(workload, seed, seconds, trace, echo=True):
    """One run; returns (exit code, parsed result or None, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"heat_bench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None, ""
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout


def single(argv):
    p = argparse.ArgumentParser(description="one heat_bench run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    if a.seed < 0 or not 0 < a.seconds <= 3600:
        p.error("seed must be >= 0 and seconds in (0, 3600]")
    build()
    code, _, _ = run_binary(a.workload, a.seed, a.seconds, a.trace)
    return code


# --- suites -----------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs):
    """Per metric: median, quartiles, spread (IQR / |median|), unit."""
    out = {}
    names = runs[0]["metrics"].keys() if runs else []
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


def simd_level(stdout):
    for line in stdout.splitlines():
        if line.startswith("== heat_bench") and " simd " in line:
            return line.rsplit(" simd ", 1)[1].strip()
    return "unknown"


def tags(seconds, seeds, simd):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    compiler = "unknown"
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    try:
                        compiler = subprocess.run(
                            [cxx, "--version"], capture_output=True,
                            text=True, timeout=10).stdout.splitlines()[0]
                    except (OSError, subprocess.SubprocessError, IndexError):
                        compiler = cxx
    return {"git_sha": sha, "nproc": os.cpu_count(), "compiler": compiler,
            "simd": simd, "machine": platform.machine(),
            "seconds": seconds, "seeds": seeds}


def suite(argv):
    p = argparse.ArgumentParser(description="K runs per workload")
    p.add_argument("-k", type=int, default=3, help="runs per workload per set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace-runs", type=int, default=0,
                   help="traced runs per workload per set")
    p.add_argument("--seed", type=int, default=1,
                   help="run i of a set uses seed + i")
    p.add_argument("-o", "--output", required=True)
    a = p.parse_args(argv)
    seconds = load_benchmark()["run_seconds"]
    build()
    simd = "unknown"
    failures = 0
    runs = [{w: [] for w in WORKLOADS} for _ in range(a.sets)]
    traced = [{w: [] for w in WORKLOADS} for _ in range(a.sets)]

    def one(s, w, seed, trace, into):
        nonlocal simd, failures
        code, res, out = run_binary(w, seed, seconds, trace, echo=False)
        simd = simd_level(out) if simd == "unknown" else simd
        tag = f"set {s} {w} seed {seed}{' traced' if trace else ''}"
        if code != 0 or res is None or not res["correct"]:
            failures += 1
            log(f"{tag}: FAILED")
            return
        res["seed"] = seed
        into[w].append(res)
        log(f"{tag}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
            if not trace))

    # Sets and workloads take turns run by run, with the order
    # alternating, so the host's slow drift hits every set and workload
    # alike instead of whichever happened to run last.
    for i in range(a.k + a.trace_runs):
        trace = int(i >= a.k)
        seed = a.seed + (i - a.k if trace else i)
        for s in (range(a.sets) if i % 2 == 0 else reversed(range(a.sets))):
            order = WORKLOADS if (i + s) % 2 == 0 else WORKLOADS[::-1]
            for w in order:
                one(s, w, seed, trace, (traced if trace else runs)[s])
    sets = [{"runs": r, "traced": t,
             "summary": {w: summarise(v) for w, v in r.items() if v},
             "traced_summary": {w: summarise(v) for w, v in t.items() if v}}
            for r, t in zip(runs, traced)]
    doc = {"tags": tags(seconds, [a.seed + i for i in range(a.k)], simd),
           "sets": sets}
    with open(a.output, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print_spreads(doc)
    return 1 if failures else 0


def print_spreads(doc):
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    print(f"{'set':>3} {'workload':<13} {'metric':<18} {'median':>12} "
          f"{'spread':>8} {'bound':>6}  spread<bound/3")
    for s, st in enumerate(doc["sets"]):
        for w, metrics in st["summary"].items():
            for name, m in metrics.items():
                b = bounds.get(name)
                ok = "-" if b is None or name == "setup_s" else (
                    "yes" if m["spread"] < b / 3 else "NO")
                print(f"{s:>3} {w:<13} {name:<18} {m['median']:>12.6g} "
                      f"{100 * m['spread']:>7.2f}% "
                      f"{100 * b if b is not None else 0:>5.0f}%  {ok}")


# --- comparison -------------------------------------------------------------

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(spec):
    """FILE or FILE#INDEX -> ({workload: [untraced runs]},
    {workload: [traced runs]}); without #INDEX every set is pooled."""
    path, _, index = spec.partition("#")
    with open(path) as f:
        doc = json.load(f)
    sets = doc["sets"] if not index else [doc["sets"][int(index)]]
    runs, traced = {}, {}
    for st in sets:
        for w, r in st["runs"].items():
            runs.setdefault(w, []).extend(r)
        for w, r in st["traced"].items():
            traced.setdefault(w, []).extend(r)
    return runs, traced


def exact_metric(name, unit):
    """Per-layer figures of the modeled clock (and compile-time counts):
    pure functions of the inputs, so compared for exact equality."""
    return unit in ("count", "cycles", "fraction") or ".modeled_" in name


def verdict(base, head, better, bound):
    """improved / unchanged / regressed / unresolved for one metric.

    A change is judged on the relative difference of the medians, signed
    so that positive is worse. When the run-to-run spread (IQR over
    median, the wider of the two sides) exceeds the bound, or the metric
    has no bound, only a clean separation of every run, with at least
    three runs per side, counts."""
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (hmed - bmed) / abs(bmed) if bmed else sign * (hmed - bmed)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (hq3 - hq1) / abs(hmed) if hmed else 0.0)
    if spread > bound or bound == 0.0:
        if worse == 0.0 and spread == 0.0:
            return "unchanged", worse, spread
        # Separation means something only with a few runs per side.
        if min(len(base), len(head)) >= 3:
            if all(sign * (h - b) < 0 for h in head for b in base):
                return "improved", worse, spread
            if all(sign * (h - b) > 0 for h in head for b in base):
                return "regressed", worse, spread
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if worse < -bound:
        return "improved", worse, spread
    return "unchanged", worse, spread


def exact_verdict(base_runs, head_runs, name, better):
    """Pair runs by seed; every pair must agree to the bit."""
    b = {r["seed"]: r["metrics"][name]["value"] for r in base_runs}
    h = {r["seed"]: r["metrics"][name]["value"] for r in head_runs}
    seeds = sorted(set(b) & set(h))
    if not seeds:
        return "unresolved", 0.0, 0.0
    diffs = [h[s] - b[s] for s in seeds]
    if all(d == 0 for d in diffs):
        return "unchanged", 0.0, 0.0
    sign = 1.0 if better == "lower" else -1.0
    worse = sum(sign * d for d in diffs)
    return ("regressed" if worse > 0 else "improved"), worse, 0.0


def compare(argv):
    p = argparse.ArgumentParser(description="compare two result files")
    p.add_argument("base")
    p.add_argument("head")
    a = p.parse_args(argv)
    bench = load_benchmark()
    base_runs, base_traced = load_runs(a.base)
    head_runs, head_traced = load_runs(a.head)
    bad = 0
    print(f"{'workload':<13} {'metric':<40} {'base':>12} {'head':>12} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")

    def row(w, name, bmed, hmed, worse, spread, bound, v):
        print(f"{w:<13} {name:<40} {bmed:>12.6g} {hmed:>12.6g} "
              f"{100 * worse:>7.2f}% {100 * spread:>6.2f}% "
              f"{bound:>6}  {v}")

    for w in WORKLOADS:
        if not base_runs.get(w) or not head_runs.get(w):
            continue
        for m in bench["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in base_runs[w]]
            hv = [r["metrics"][m["name"]]["value"] for r in head_runs[w]]
            v, worse, spread = verdict(bv, hv, m["better"], m["bound"])
            bad += v in ("regressed", "unresolved")
            row(w, m["name"], statistics.median(bv), statistics.median(hv),
                worse, spread, f"{100 * m['bound']:.0f}%", v)
        if not base_traced.get(w) or not head_traced.get(w):
            continue
        for m in bench["per_layer"]:
            bt, ht = base_traced[w], head_traced[w]
            bv = [r["metrics"][m["name"]]["value"] for r in bt]
            hv = [r["metrics"][m["name"]]["value"] for r in ht]
            if exact_metric(m["name"], m["unit"]):
                v, worse, spread = exact_verdict(bt, ht, m["name"],
                                                 m["better"])
                bad += v != "unchanged"
                bound = "exact"
            else:
                # Host-clock per-layer figures have no bound: only a
                # clean separation of every run is a verdict.
                v, worse, spread = verdict(bv, hv, m["better"], 0.0)
                bound = "-"
            row(w, m["name"], statistics.median(bv), statistics.median(hv),
                worse, spread, bound, v)
    return 1 if bad else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "run":
        return suite(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    return single(argv)


if __name__ == "__main__":
    sys.exit(main())
