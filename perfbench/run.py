"""fsdim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread, one iteration at a time (closed loop,
concurrency 1).  Iterations repeat until the next one would end past
``--seconds``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced iterations
alternate and it carries the per-layer metrics.  Details, provenance and
the spans go to ``.bench_runs/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread for numpy's BLAS and FFT back ends; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
SETUP_REPEATS = 5
MIN_ITERATIONS = 2


def import_program():
    """Import fsdim from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, SRC)
    try:
        import fsdim
    except ImportError as exc:
        sys.exit(f"error: cannot import fsdim from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(fsdim.__file__))) != SRC:
        sys.exit(f"error: fsdim was imported from {fsdim.__file__}, not from {SRC}")
    return fsdim


def time_setup(workload: str, seed: int, workdir: str) -> float:
    """Median wall time of a fresh interpreter that imports fsdim and writes
    the seeded inputs (setup_inputs.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload, str(seed), workdir],
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: input set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


def provenance() -> dict:
    import numpy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def load_reference(workload: str, seed: int) -> dict:
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="ascii") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def untraced_metrics(outcomes, setup_s: float) -> dict:
    walls = [o.wall_s for o in outcomes]
    wall = statistics.median(walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "digits_per_s": {"value": statistics.median(o.digits / o.wall_s for o in outcomes),
                         "unit": "digits/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "req_dev_ratio": {"value": max(o.dev_ratio for o in outcomes), "unit": "ratio"},
    }


def traced_metrics(untraced, traced, tracers) -> tuple[dict, list[str]]:
    from tracing import EXACT_COUNTS, TIME_METRICS, layer_counts, layer_times

    problems = []
    counts = [layer_counts(t) for t in tracers]
    for name in EXACT_COUNTS:
        if len({c[name] for c in counts}) != 1:
            problems.append(f"{name} differs between traced iterations: "
                            f"{[c[name] for c in counts]}")
    times = [layer_times(t) for t in tracers]
    metrics = {}
    for name, value in counts[0].items():
        unit = "bytes" if name == "cli.bytes_written" else (
            "bits" if name.endswith("den_bits_max") else "count")
        metrics[name] = {"value": value, "unit": unit}
    tests = counts[0]["discrepancy.tests"]
    metrics["discrepancy.accept_ratio"] = {
        "value": counts[0]["discrepancy.accepted"] / tests if tests else 0.0, "unit": "ratio"}
    for name in TIME_METRICS:
        metrics[name] = {"value": statistics.median(t[name] for t in times), "unit": "s"}
    metrics["run.cpu_s"] = {"value": statistics.median(o.cpu_s for o in traced), "unit": "s"}
    metrics["tracing_overhead_s"] = {
        "value": statistics.median(o.wall_s for o in traced)
        - statistics.median(o.wall_s for o in untraced),
        "unit": "s",
    }
    return metrics, problems


def reconcile(untraced, traced, tracers) -> list[str]:
    """Trace checks: same construction with and without tracing, one
    select_step span per step, one a_m call per candidate of every step
    whose objective is not trivially zero."""
    from tracing import same_class

    problems = []
    digests = {o.digest for o in untraced + traced}
    if len(digests) != 1:
        problems.append(f"traced and untraced digests differ: {sorted(digests)}")
    for o, tr in zip(traced, tracers):
        if o.trace is None:
            continue  # already a failed iteration
        steps = o.trace.steps
        spans = tr.span_count("constructor.select_step")
        if spans != len(steps) or tr.counts["constructor.steps"] != len(steps):
            problems.append(f"{spans} select_step spans for {len(steps)} steps")
        scored = sum(s.candidates_examined for i, s in enumerate(steps)
                     if not all(same_class(p.u, s.u) for p in steps[:i + 1]))
        if tr.counts["expsum.a_m.calls"] != scored:
            problems.append(f"{tr.counts['expsum.a_m.calls']} a_m calls for {scored}"
                            " scored candidates")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    import workloads
    from tracing import Tracer, layer_counts

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(RUNS, exist_ok=True)
    reference = load_reference(args.workload, args.seed)

    setup_s = time_setup(args.workload, args.seed, os.path.join(workdir, "setup"))
    inputs = workloads.make_inputs(args.workload, args.seed, os.path.join(workdir, "inputs"))
    outdir = os.path.join(workdir, "out")

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(workloads.run_iteration(inputs, outdir))
        if args.trace:
            tracer = Tracer(trace_id=len(tracers))
            traced.append(workloads.run_iteration(inputs, outdir, tracer))
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= MIN_ITERATIONS and elapsed + per_round > args.seconds:
            break

    outcomes = untraced + traced
    problems = sorted({p for o in outcomes for p in o.problems})
    failed = sum(1 for o in outcomes if not o.ok)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "iterations": len(untraced), "traced_iterations": len(traced),
              "wall_s_each": [o.wall_s for o in untraced],
              "op_s_median": {op: statistics.median(o.op_s[op] for o in untraced)
                              for op in untraced[0].op_s},
              "provenance": provenance()}
    if args.workload != "measure":
        digests = sorted({o.digest for o in outcomes})
        detail["digest"] = digests[0] if len(digests) == 1 else digests
        detail["digest_matches_reference"] = (
            None if "digest" not in reference else digests == [reference["digest"]])
    if args.trace:
        metrics, count_problems = traced_metrics(untraced, traced, tracers)
        problems += count_problems
        if args.workload != "measure":
            problems += reconcile(untraced, traced, tracers)
        counts = layer_counts(tracers[0])
        ref_counts = reference.get("counts")
        detail["counts_match_reference"] = (
            None if ref_counts is None
            else {k: counts[k] for k in ref_counts} == ref_counts)
        with open(os.path.join(RUNS, f"spans-{tag}.jsonl"), "w", encoding="ascii") as fh:
            for tr in tracers:
                for sid, parent, name, t0, t1 in tr.spans:
                    fh.write(json.dumps([tr.trace_id, sid, parent, name, t0, t1]) + "\n")
        detail["counts"] = counts
    else:
        metrics = untraced_metrics(untraced, setup_s)
    detail["problems"] = problems
    if problems and not failed:
        failed = 1  # a run-level check (trace reconciliation, repeat counts) failed
    with open(os.path.join(RUNS, f"result-{tag}.json"), "w", encoding="ascii") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"detail": {k: detail[k] for k in detail if k != "provenance"}}))
    print(json.dumps({"correct": not problems, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
