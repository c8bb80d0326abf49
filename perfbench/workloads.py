"""The benchmark's workloads: seeded inputs, one timed iteration, output checks.

Every workload reaches the program only through its public functions
(``fsdim.cli.main``, ``check_requirements`` via the CLI, ``entropy_profile``
via the CLI, ``digits_prefix``, ``digit_at``, ``weyl_report`` and
``weyl_entropy_certificate``).  The checks in this file use their own
arithmetic, not the program's, wherever an independent answer is cheap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from tracing import Tracer, count_certificate, count_prefix, count_weyl_report, patched

WORKLOADS = ("construct-1class", "construct-2class", "measure")


# ---------------------------------------------------------------------------
# specifications (the tests shrink these; the shapes stay the same)


@dataclass(frozen=True)
class ConstructSpec:
    plan: str
    stages: int
    samples: int
    min_digits: int
    margin: Optional[float] = None


@dataclass(frozen=True)
class MeasureSpec:
    analyze_digits: int = 10**6  # base-4 digit file for `fsdim analyze --lmax 3`
    cert_prime: int = 1280107  # prime with primitive root 2, past 1/gamma'(0.2)
    cert_eps: float = 0.2
    cert_count: int = 4
    prefix_digits: int = 40_000  # digits_prefix length in bases 3 and 4
    pow4: int = 15_000  # denominator 4**pow4 * 3**pow3, about 6x10^4 bits
    pow3: int = 18_929
    report_t: int = 16  # weyl_report(x, 3, report_t, report_n), scalar path
    report_n: int = 4000
    probes: int = 16  # seeded positions where digits_prefix meets digit_at


CONSTRUCT_SPECS = {
    # one class: the objective is identically zero, so the filter and the
    # BlockCounter streaming are nearly all the work
    "construct-1class": ConstructSpec("q 2 1/2\ngrowth scaled 8 4\n", 1, 64, 5000),
    # two classes: the objective a_m dominates.  Without the margin floor
    # stage 2 needs blocks of >= 1114 base-3 digits and runs past 600 s.
    "construct-2class": ConstructSpec(
        "q 2 1/2\nq 3 1\ngrowth scaled 8 4\n", 2, 16, 1000, margin=0.05),
}
MEASURE_SPEC = MeasureSpec()


# ---------------------------------------------------------------------------
# seeded inputs


@dataclass
class Inputs:
    workload: str
    seed: int
    workdir: str
    argv: list[str] = field(default_factory=list)  # fsdim CLI arguments, no --out
    numerators: list[int] = field(default_factory=list)
    x: Optional[Fraction] = None
    probes: dict[int, list[int]] = field(default_factory=dict)


def make_inputs(workload: str, seed: int, workdir: str,
                spec=None) -> Inputs:
    """Write the workload's input files under workdir; same seed, same inputs."""
    os.makedirs(workdir, exist_ok=True)
    inp = Inputs(workload, seed, workdir)
    if workload in CONSTRUCT_SPECS:
        spec = spec or CONSTRUCT_SPECS[workload]
        plan_path = os.path.join(workdir, "plan.txt")
        with open(plan_path, "w", encoding="ascii") as fh:
            fh.write(spec.plan)
        inp.argv = [
            "construct", "--plan", plan_path, "--stages", str(spec.stages),
            "--mode", "sampled", "--samples", str(spec.samples), "--seed", str(seed),
            "--tolerance", "0.1", "--weyl-gamma", "0.8",
            "--min-digits", str(spec.min_digits),
        ]
        if spec.margin is not None:
            inp.argv += ["--margin", str(spec.margin)]
        return inp
    if workload != "measure":
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = spec or MEASURE_SPEC
    rng = np.random.default_rng([seed, 4])
    digits = rng.integers(0, 4, spec.analyze_digits).astype(str)
    lines = [" ".join(row) for row in np.array_split(digits, max(1, len(digits) // 64))]
    digit_path = os.path.join(workdir, "digits_base4.txt")
    with open(digit_path, "w", encoding="ascii") as fh:
        fh.write("base=4\n" + "\n".join(lines) + "\n")
    inp.argv = ["analyze", digit_path, "--lmax", "3"]
    r = random.Random(f"measure:{seed}")
    inp.numerators = r.sample(range(2, spec.cert_prime - 1), spec.cert_count)
    den = 4**spec.pow4 * 3**spec.pow3
    num = r.randrange(1, den)
    while math.gcd(num, 6) != 1:
        num = num + 1 if num + 1 < den else 1
    inp.x = Fraction(num, den)
    inp.probes = {b: sorted(r.sample(range(1, spec.prefix_digits + 1), spec.probes))
                  for b in (3, 4)}
    return inp


# ---------------------------------------------------------------------------
# one iteration


@dataclass
class Outcome:
    op_s: dict[str, float]  # wall seconds of each operation of the iteration
    cpu_s: float
    ok: bool
    problems: list[str]
    digits: int  # digits fixed (construct) or read and produced (measure)
    dev_ratio: float  # largest checked deviation over its threshold
    bytes_written: int
    digest: Optional[str] = None
    trace: object = None  # the ConstructionTrace, construct workloads only

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())


def _timed(op_s: dict, name: str, fn: Callable, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    op_s[name] = time.perf_counter() - t0
    return result


@contextlib.contextmanager
def _capture_construction(sink: list):
    import fsdim.cli as cli

    original = cli.run_construction

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    cli.run_construction = capture
    try:
        yield
    finally:
        cli.run_construction = original


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _to_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def construction_digest(trace) -> str:
    """sha256 of xi's numerator and denominator bytes and every chosen block.

    str(xi) is not usable: the points exceed Python's int-to-str digit limit.
    """
    h = hashlib.sha256()
    h.update(_to_bytes(trace.xi.numerator))
    h.update(b"/")
    h.update(_to_bytes(trace.xi.denominator))
    for s in trace.steps:
        h.update(f"|{s.m},{s.u},{s.a_m},{s.b_m}:".encode())
        h.update(bytes(s.digit_block.digits))
    return h.hexdigest()


def run_iteration(inp: Inputs, outdir: str, tracer: Optional[Tracer] = None,
                  spec=None) -> Outcome:
    """Run the workload once, closed loop, and check every output."""
    if os.path.exists(outdir):
        shutil.rmtree(outdir)
    os.makedirs(outdir)
    with patched(tracer):
        if inp.workload == "measure":
            outcome = _run_measure(inp, outdir, tracer, spec or MEASURE_SPEC)
        else:
            outcome = _run_construct(inp, outdir, tracer)
    if tracer is not None:
        tracer.counts["cli.bytes_written"] += outcome.bytes_written
    return outcome


def _wrapped(tracer: Optional[Tracer], name: str, fn: Callable, hook=None) -> Callable:
    return fn if tracer is None else tracer.wrap(name, fn, hook)


def _run_construct(inp: Inputs, outdir: str, tracer: Optional[Tracer]) -> Outcome:
    import fsdim.cli as cli

    main = _wrapped(tracer, "cli.main", cli.main)
    traces: list = []
    op_s: dict[str, float] = {}
    with _capture_construction(traces), contextlib.redirect_stdout(io.StringIO()):
        c0 = time.process_time()
        rc = _timed(op_s, "construct", main, inp.argv + ["--out", outdir])
        cpu = time.process_time() - c0

    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    monitors_path = os.path.join(outdir, "monitors.json")
    monitors = {}
    if os.path.exists(monitors_path):
        with open(monitors_path, encoding="utf-8") as fh:
            monitors = json.load(fh)
    if monitors.get("budget_exhausted", True):
        problems.append("step budget exhausted or monitors.json missing")
    ratios = []
    for k, verdicts in monitors.get("requirements", {}).items():
        for v in verdicts:
            if v["vacuous"]:
                continue
            if not v["passed"]:
                problems.append(f"stage {k} requirement {v['name']} failed")
            ratios.append(v["deviation"] / v["threshold"])
    if not ratios:
        problems.append("no non-vacuous requirement was checked")
    trace = traces[0] if traces else None
    if trace is None:
        problems.append("run_construction was not reached")
    return Outcome(
        op_s=op_s, cpu_s=cpu, ok=not problems, problems=problems,
        digits=sum(s.b_m - s.a_m for s in trace.steps) if trace else 0,
        dev_ratio=max(ratios, default=0.0),
        bytes_written=_dir_bytes(outdir),
        digest=construction_digest(trace) if trace else None,
        trace=trace,
    )


def _run_measure(inp: Inputs, outdir: str, tracer: Optional[Tracer], spec: MeasureSpec) -> Outcome:
    import fsdim.cli as cli
    from fsdim import digit_at, digits_prefix, weyl_entropy_certificate, weyl_report

    main = _wrapped(tracer, "cli.main", cli.main)
    certify = _wrapped(tracer, "expsum.weyl_entropy_certificate",
                       weyl_entropy_certificate, count_certificate)
    prefix = _wrapped(tracer, "base_arith.digits_prefix", digits_prefix, count_prefix)
    report_fn = _wrapped(tracer, "expsum.weyl_report", weyl_report, count_weyl_report)
    p = spec.cert_prime

    op_s: dict[str, float] = {}
    c0 = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = _timed(op_s, "analyze", main, inp.argv + ["--out", outdir])
    certs = [_timed(op_s, f"certificate-{i}", certify, Fraction(k, p), 2, spec.cert_eps, p - 1)
             for i, k in enumerate(inp.numerators)]
    words = {b: _timed(op_s, f"digits_prefix-{b}", prefix, inp.x, b, spec.prefix_digits)
             for b in (3, 4)}
    report = _timed(op_s, "weyl_report", report_fn, inp.x, 3, spec.report_t, spec.report_n)
    cpu = time.process_time() - c0

    problems = []
    if rc != 0:
        problems.append(f"analyze exit code {rc}")
    else:
        problems += _check_profile(inp, outdir)
    gamma = _certificate_gamma(spec.cert_eps)
    ratios = []
    for k, (ok, rep) in zip(inp.numerators, certs):
        ratios.append(rep.max_modulus / gamma)
        if not ok:
            problems.append(f"certificate for {k}/{p} failed")
            continue
        n = p - 1
        ones = _count_ones(k, p, n)
        if max(abs(ones / n - 0.5), abs((n - ones) / n - 0.5)) > spec.cert_eps:
            problems.append(f"digit frequencies of {k}/{p} are not within eps")
    for b, word in words.items():
        if len(word) != spec.prefix_digits:
            problems.append(f"base-{b} prefix has {len(word)} digits")
        elif any(word.digits[i - 1] != digit_at(inp.x, b, i) for i in inp.probes[b]):
            problems.append(f"base-{b} digits_prefix disagrees with digit_at")
    worst = _report_error(inp.x, report, spec)
    if not worst <= 1e-9:
        problems.append(f"weyl_report is off by {worst:.3e}")
    digits = (spec.analyze_digits + spec.cert_count * (p - 1)
              + 2 * spec.prefix_digits + spec.report_n)
    return Outcome(
        op_s=op_s, cpu_s=cpu, ok=not problems, problems=problems, digits=digits,
        dev_ratio=max(ratios), bytes_written=_dir_bytes(outdir),
    )


# ---------------------------------------------------------------------------
# independent checks


def _certificate_gamma(eps: float) -> float:
    # gamma'(eps) = eps**2 / (32 * T'(eps)) with T'(eps) = ceil(64 / eps**2)
    return eps * eps / (32.0 * math.ceil(64.0 / (eps * eps)))


def _count_ones(k: int, prime: int, n: int) -> int:
    # base-2 digits of k/prime at positions 1..n: digit j is 1 iff
    # 2 * (k * 2**(j-1) mod prime) >= prime; residues are formed per chunk
    chunk = 1 << 14
    powers = np.empty(chunk, dtype=np.int64)
    acc = 1
    for i in range(chunk):
        powers[i] = acc
        acc = (acc * 2) % prime
    step = pow(2, chunk, prime)
    start, ones, done = k % prime, 0, 0
    while done < n:
        take = min(chunk, n - done)
        residues = (start * powers[:take]) % prime
        ones += int(((2 * residues) // prime).sum())
        start = (start * step) % prime
        done += take
    return ones


def _check_profile(inp: Inputs, outdir: str) -> list[str]:
    # compare the last checkpoint row of each H_l with a batch recount
    digit_path = inp.argv[1]
    stem = os.path.splitext(os.path.basename(digit_path))[0]
    csv_path = os.path.join(outdir, f"{stem}_profile_base4.csv")
    if not os.path.exists(csv_path):
        return ["analyze wrote no profile"]
    with open(digit_path, encoding="ascii") as fh:
        fh.readline()
        digits = np.array(fh.read().split(), dtype=np.int64)
    n = len(digits)
    got = {}
    with open(csv_path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("n,"):
                continue
            cp, l, h = line.strip().split(",")
            if int(cp) == n:
                got[int(l)] = float(h)
    problems = []
    for l in (1, 2, 3):
        keys = np.zeros(n - l + 1, dtype=np.int64)
        for i in range(l):
            keys = keys * 4 + digits[i:n - l + 1 + i]
        c = np.bincount(keys).astype(np.float64)
        c = c[c > 0]
        total = n - l + 1
        want = (math.log(total) - float((c * np.log(c)).sum()) / total) / (l * math.log(4))
        if l not in got or abs(got[l] - want) > 1e-9:
            problems.append(f"H_{l} at {n} digits: analyze {got.get(l)}, recount {want}")
    return problems


def _report_error(x: Fraction, report, spec: MeasureSpec) -> float:
    # exact orbit phases frac(3**(j-1) x) by big-int recurrence, summed in numpy
    num, den = x.numerator, x.denominator
    r = num % den
    phases = np.empty(spec.report_n)
    for j in range(spec.report_n):
        phases[j] = r / den
        r = r * 3 % den
    worst = 0.0
    for t in range(1, spec.report_t + 1):
        want = np.exp(2j * math.pi * ((t * phases) % 1.0)).mean()
        worst = max(worst, abs(complex(report.averages[t]) - complex(want)))
    return worst
