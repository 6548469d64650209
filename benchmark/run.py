#!/usr/bin/env python3
"""The repo benchmark: builds benchmark/tapbench.cc against the tapestry
library and runs the workloads described in benchmark/README.md.

One workload, one process (the form BENCHMARK.json's command is run in):

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

prints the metrics by name with their units and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric (--trace 0) or every per-layer metric (--trace 1).

Every workload (no --workload):

    python3 benchmark/run.py [--seed S] [--trace DIR] [--quick] [--runs N]
                             [--out DIR] [--record FILE]

runs each workload --runs times (default 2) with the same seed, prints the
median of every end-to-end metric and of the unbounded timings (ops per
second, p50 and p99 latency), and fails if a correctness check fails
or if two same-seed runs disagree on an exact counter.  --trace also runs
each workload traced, writing DIR/<workload>.trace.json, and prints the
per-layer ledger.  --quick divides every op count by 100 (a smoke run).
--out keeps each run's JSON for benchmark/compare.py; --record writes a
snapshot of the medians with the machine it ran on.

Exit status: 0 when every run completed and checked correct, 1 when a
check failed, 2 on a usage, build or environment error.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
OUT = BENCH / "out"

# At --seconds REFERENCE_SECONDS each workload runs its reference op count
# (about ten seconds of measured work on a 4-vCPU Xeon); op counts scale
# linearly with --seconds so same-seed runs repeat exactly.
REFERENCE_SECONDS = 10.0

# Each run's timings, printed and recorded without a regression bound
# (README.md, "Timings").
TIMINGS = [{"name": "ops_per_s", "unit": "ops/s"},
           {"name": "op_p50_us", "unit": "us"},
           {"name": "op_p99_us", "unit": "us"}]

# Fixed per workload, offset by --seed.
WORKLOAD_SEEDS = {
    "locate_read": 1100,
    "write_mix": 2200,
    "replicated_mix": 3300,
    "churn_event": 4400,
    "membership_waves": 5500,
}


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(BENCH.parent / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds tapbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"library sources not found under {ROOT} (CMakeLists.txt, src/)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    build_root = os.environ.get("CARGO_TARGET_DIR")
    bdir = (ROOT / build_root / "tapbench") if build_root else OUT / "build"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir)] + gen)
    steps.append(["cmake", "--build", str(bdir), "--target", "tapbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            die("build failed: " + " ".join(cmd))
    return bdir / "tapbench"


def run_workload(binary, workload, seed, seconds, quick, trace_dir):
    """Runs one workload in its own process; returns its result dict."""
    scale = seconds / REFERENCE_SECONDS / (100.0 if quick else 1.0)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    cmd = [str(binary), "--workload", workload,
           "--seed", str(WORKLOAD_SEEDS[workload] + seed),
           "--scale", repr(scale), "--tmpdir", str(tmpdir)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120 + 3 * seconds)
    except subprocess.TimeoutExpired:
        die(f"{workload} timed out", 1)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        die(f"{workload} exited with status {proc.returncode}", 1)
    result = json.loads(lines[-1])
    for err in result["errors"]:
        print(f"  {workload}: check failed: {err}", file=sys.stderr)
    return result


def result_line(result, metric_specs):
    """The result as the one-line object BENCHMARK.json's command prints:
    exactly the metrics in `metric_specs`, each with its unit."""
    metrics = {}
    for m in metric_specs:
        if m["name"] not in result["metrics"]:
            die(f"tapbench did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def fmt(v):
    return f"{v:.6g}"


def exact_mismatches(results, key):
    """Names of counters in results[*][key] that differ between runs."""
    names = set()
    for r in results[1:]:
        for name, v in r[key].items():
            if results[0][key].get(name) != v:
                names.add(name)
    return sorted(names)


def print_metrics(title, metric_specs, results, key="metrics"):
    print(title)
    for m in metric_specs:
        values = [r[key][m["name"]] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {m['name']:<40} {fmt(statistics.median(values)):>14} "
              f"{m['unit']:<6} (q1 {fmt(q1)}, q3 {fmt(q3)}, "
              f"spread {spread:.2%}, n={len(values)})")


def trace_dir_of(args):
    """Where traces go: None untraced, benchmark/out/traces for --trace 1."""
    if args.trace in (None, "0"):
        return None
    return OUT / "traces" if args.trace == "1" else Path(args.trace)


def run_one(args, spec):
    """One workload, one run, the result line last."""
    trace_dir = trace_dir_of(args)
    traced = trace_dir is not None
    binary = build()
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.quick, trace_dir)
    metric_specs = spec["per_layer"] if traced else spec["end_to_end"]
    line = result_line(result, metric_specs)
    print(f"{args.workload} seed {args.seed}: {line['attempted']} ops, "
          f"{line['failed']} failed")
    for name, m in line["metrics"].items():
        print(f"  {name} = {fmt(m['value'])} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        compiler = subprocess.run(["c++", "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": os.cpu_count(), "workers": min(4, os.cpu_count() or 1),
            "cpu_model": cpu, "compiler": compiler, "commit": commit or None}


def run_all(args, spec):
    """Full mode: every workload --runs times, then (with --trace) traced."""
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    trace_dir = trace_dir_of(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    snapshot, layers = {}, {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            r = run_workload(binary, w, args.seed, args.seconds, args.quick,
                             None)
            runs.append(r)
            if out_dir:
                r["result_line"] = result_line(r, spec["end_to_end"])
                (out_dir / f"{w}.e2e.{i}.json").write_text(json.dumps(r))
        print_metrics(f"{w} (seed {args.seed}, {args.runs} runs, "
                      f"{runs[0]['attempted']} ops/run)",
                      spec["end_to_end"], runs)
        print_metrics("  timings, no bound:", TIMINGS, runs, key="info")
        if not all(r["correct"] for r in runs):
            print(f"  FAIL: {w} failed a correctness check")
            status = 1
        diff = exact_mismatches(runs, "exact")
        if diff:
            print(f"  FAIL: same-seed runs differ on {', '.join(diff)}")
            status = 1
        snapshot[w] = {}
        for m in spec["end_to_end"] + TIMINGS:
            key = "info" if m in TIMINGS else "metrics"
            values = [r[key][m["name"]] for r in runs]
            q1, med, q3 = quartiles(values)
            snapshot[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                      "unit": m["unit"], "values": values}
    if trace_dir is not None:
        for w in workloads:
            traced = []
            for i in range(min(args.runs, 2)):
                r = run_workload(binary, w, args.seed, args.seconds,
                                 args.quick, trace_dir)
                traced.append(r)
                if out_dir:
                    (out_dir / f"{w}.trace.{i}.json").write_text(json.dumps(r))
            print_metrics(f"{w} per-layer ledger (traced, "
                          f"{trace_dir / (w + '.trace.json')})",
                          spec["per_layer"], traced)
            if not all(r["correct"] for r in traced):
                print(f"  FAIL: traced {w} failed a correctness check")
                status = 1
            diff = exact_mismatches(traced, "exact")
            if diff:
                print(f"  FAIL: same-seed traced runs differ on "
                      f"{', '.join(diff)}")
                status = 1
            layers[w] = {m["name"]: statistics.median(
                r["metrics"][m["name"]] for r in traced)
                for m in spec["per_layer"]}
    if args.record:
        record = {"created": time.strftime("%Y-%m-%d"),
                  "environment": environment(), "seed": args.seed,
                  "runs": args.runs, "seconds": args.seconds,
                  "quick": args.quick, "workloads": snapshot,
                  "per_layer_medians": layers}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print("OK" if status == 0 else "FAILED")
    return status


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(
        description="Build and run the repo benchmark (benchmark/README.md).")
    p.add_argument("--workload", choices=names,
                   help="run one workload once and print its result line")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed offset (1 default, 2 held out)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="sizes the op counts: about this many seconds "
                        "of measured work per run")
    p.add_argument("--trace", default=None,
                   help="0 or 1, or a directory for the trace files "
                        "(1 writes them to benchmark/out/traces)")
    p.add_argument("--quick", action="store_true",
                   help="divide every op count by 100 (smoke run)")
    p.add_argument("--runs", type=int, default=2,
                   help="same-seed runs per workload in full mode")
    p.add_argument("--out", help="keep each run's JSON in this directory")
    p.add_argument("--record", help="write a snapshot of the medians here")
    args = p.parse_args()
    if args.seconds <= 0 or args.runs < 1:
        p.error("--seconds and --runs must be positive")
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
