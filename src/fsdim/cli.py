"""Command-line surface: analyze digit files, run constructions, verify.

Exit codes are a stable contract: 0 success (a budget-exhausted
construction is a warning, not an error), 1 verification failure,
2 usage or configuration error.  Every command is deterministic given
its flags and seed, and every CSV starts with a comment line recording
the resolved configuration.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Optional, Sequence

from .base_arith import DigitWord, digits_prefix, read_digit_file, write_digit_file
from .base_arith import atomic_write_text as _atomic_text
from .blockstats import dimension_estimate, entropy_profile
from .constructor import (
    ConstructionParams,
    check_requirements,
    monitor_summary,
    run_construction,
    write_trace_csv,
)
from .discrepancy import (
    DiscrepancyParams,
    FilterGiveUp,
    calibrate,
    star_discrepancy,
    star_discrepancy_brute,
)
from .expsum import a_m, a_m_naive, certificate_t_range, weyl_entropy_certificate
from .schedule import (
    ScaledGrowth,
    Schedule,
    check_sin_lower_bound,
    eta_constant,
    read_plan_file,
)

__all__ = ["main"]


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# analyze


def _checkpoint_grid(n: int) -> list[int]:
    # roughly geometric, always ending at the full length
    points = {n}
    step = n
    while step > 16:
        step //= 2
        points.add(step)
    return sorted(points)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        word = read_digit_file(args.digit_file)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read digit file: {exc}", 2)
    if not word.digits:
        return _fail("digit file is empty", 2)
    bases = args.base or [word.base]
    checkpoints = args.checkpoints or _checkpoint_grid(len(word))
    # every base is read before any file is written, so a failing one leaves none
    results = []
    for base in bases:
        reread = word if base == word.base else DigitWord(base, word.digits)
        profile = entropy_profile(reread, args.lmax, checkpoints)
        results.append((base, profile, dimension_estimate(profile)))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.digit_file))[0]
    for base, profile, estimate in results:
        header = (
            f"# fsdim analyze {args.digit_file} base={base} lmax={args.lmax}"
            f" checkpoints={','.join(str(c) for c in checkpoints)}\n"
        )
        buf = io.StringIO()
        profile.write_csv(buf)
        path = os.path.join(out_dir, f"{stem}_profile_base{base}.csv")
        _atomic_text(path, header + buf.getvalue())
        print(f"base {base}: dimension estimate {estimate:.6f}"
              f" (finite-prefix estimate, not a limit); profile -> {path}")
    return 0


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        plan = read_plan_file(args.plan)
    except (OSError, ValueError) as exc:
        return _fail(f"invalid plan: {exc}", 2)
    # each ConstructionParams field but the filter constants is a flag of that dest
    run_flags = [f.name for f in fields(ConstructionParams) if f.name != "disc"]
    params = ConstructionParams(**{name: getattr(args, name) for name in run_flags})
    # made before the run, so an unusable --out fails before minutes of work
    os.makedirs(args.out, exist_ok=True)
    try:
        trace = run_construction(plan, args.stages, params)
    except FilterGiveUp as exc:
        return _fail(f"candidate search failed: {exc}", 2)

    settings = " ".join(f"{name}={getattr(params, name)}" for name in run_flags)
    config = f"fsdim construct plan={args.plan} stages={args.stages} mode={args.mode} {settings}"
    write_trace_csv(trace, os.path.join(args.out, "trace.csv"), comment=config)

    requirements = {}
    for bounds in trace.stages:
        if bounds.p2 is None:
            _warn(f"stage {bounds.k} incomplete; digits not exported")
            continue
        requirements[bounds.k] = check_requirements(trace, bounds.k)
        word = trace.digits_for_stage(bounds.k)
        path = os.path.join(args.out, f"digits_stage{bounds.k}_base{bounds.v}.txt")
        write_digit_file(path, word)
        print(f"stage {bounds.k}: {len(word)} base-{bounds.v} digits -> {path}")

    summary = {"config": config}
    summary.update(monitor_summary(trace, requirements or None))
    _atomic_text(os.path.join(args.out, "monitors.json"),
                 json.dumps(summary, indent=2) + "\n")

    for k, verdicts in requirements.items():
        for v in verdicts:
            if not v.passed and not v.vacuous:
                _warn(f"stage {k} requirement {v.name} failed:"
                      f" deviation {v.deviation:.6f} > {v.threshold:.6f}")
    if trace.budget_exhausted:
        _warn("step budget exhausted before the last stage finished")
    print(f"{len(trace.steps)} steps; monitors -> {os.path.join(args.out, 'monitors.json')}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _suite_viete() -> list[tuple[str, bool, str]]:
    err = abs(eta_constant(40) - 2.0 / math.pi)
    return [("viete-40-terms", err < 1e-8, f"|product - 2/pi| = {err:.3e}")]


def _suite_sin_bound(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(2, 50)
        x = rng.uniform(-0.999999, 0.999999)
        if not check_sin_lower_bound(n, x):
            violations += 1
    return [("sin-lower-bound-sweep", violations == 0,
             f"{violations} violations in 10000 samples")]


def _suite_am_oracle(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(50):
        m = rng.randint(1, 6)
        bases = tuple(rng.choice((2, 3, 4, 5)) for _ in range(m))
        sched = Schedule(bases, ScaledGrowth(8, 4))
        x = Fraction(rng.randint(0, 2**40 - 1), 2**40)
        worst = max(worst, abs(a_m(x, m, sched) - a_m_naive(x, m, sched)))
    return [("am-incremental-vs-naive", worst <= 1e-9, f"max |diff| = {worst:.3e}")]


def _suite_discrepancy_oracle(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 200)
        points = [Fraction(rng.randint(0, 10**6 - 1), 10**6) for _ in range(n)]
        worst = max(worst, abs(star_discrepancy(points) - star_discrepancy_brute(points)))
    return [("star-discrepancy-vs-brute", worst <= 1e-12, f"max |diff| = {worst:.3e}")]


# The first prime above int(1/certificate_gamma(0.5)) + 2 = 32770 that has
# 2 as a primitive root.
_CERTIFICATE_PRIME = 32771


def _suite_weyl_certificate() -> list[tuple[str, bool, str]]:
    checks = []
    # full multiplicative orbit of 2 mod a prime: every average is exactly
    # -1/(D-1), so the certificate passes right at its threshold
    eps = 0.5
    d = _CERTIFICATE_PRIME
    ok, report = weyl_entropy_certificate(Fraction(1, d), 2, eps, d - 1)
    peak = max(abs(v) for v in report.averages.values())
    checks.append(("certificate-passes-prime-orbit", ok,
                   f"D={d} T'={certificate_t_range(eps)} max|avg|={peak:.3e}"))
    if ok:
        digits = digits_prefix(Fraction(1, d), 2, d - 1).digits
        dev = max(abs(digits.count(z) / (d - 1) - 0.5) for z in (0, 1))
        checks.append(("digit-frequencies-within-eps", dev <= eps,
                       f"max |P(z) - 1/2| = {dev:.3e}"))
    # a short purely periodic point correlates perfectly with some t
    bad_ok, _ = weyl_entropy_certificate(Fraction(1, 3), 2, eps, 4096)
    checks.append(("certificate-rejects-periodic", not bad_ok, "x = 1/3 in base 2"))
    return checks


# suite name -> check runner, called with the --seed value
_SUITES = {
    "viete": lambda seed: _suite_viete(),
    "sin-bound": _suite_sin_bound,
    "am-oracle": _suite_am_oracle,
    "discrepancy-oracle": _suite_discrepancy_oracle,
    "weyl-certificate": lambda seed: _suite_weyl_certificate(),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        names = tuple(_SUITES)
    elif args.suite in _SUITES:
        names = (args.suite,)
    else:
        return _fail(f"unknown suite {args.suite!r}; choose from"
                     f" {', '.join(_SUITES)} or all", 2)
    failures = 0
    for name in names:
        for label, passed, detail in _SUITES[name](args.seed):
            print(f"{'PASS' if passed else 'FAIL'} {name}/{label}: {detail}")
            failures += 0 if passed else 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    # checked before the run, so an unusable --out does not lose the calibration
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
        return _fail(f"--out {args.out} must name a file in an existing directory", 2)
    c = calibrate(args.base, length=args.length, samples=args.samples,
                  target=args.target, seed=args.seed)
    print(f"C_{args.base} = {c:.6f} (target pass rate {args.target},"
          f" {args.samples} words of length {args.length}, seed {args.seed})")
    if args.out:
        params = DiscrepancyParams.default().with_base(args.base, c)
        params.write_config(args.out)
        print(f"config -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsdim",
        description="Block entropies, exponential-sum diagnostics, and the"
                    " staged construction of points with prescribed"
                    " finite-state dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="entropy profile and dimension estimate"
                                       " of a digit file")
    p.add_argument("digit_file")
    p.add_argument("--base", type=int, action="append",
                   help="reinterpret the digits in this base (repeatable;"
                        " default: the file's own base)")
    p.add_argument("--lmax", type=int, default=3, help="largest block length")
    p.add_argument("--checkpoints", type=_int_list, default=None,
                   help="comma-separated prefix lengths (default: geometric grid)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="run the staged construction")
    run = ConstructionParams()  # a run flag's dest is its field, its default the field's
    p.add_argument("--plan", required=True, help="plan file (q/growth/alpha lines)")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--mode", choices=("sampled",), default="sampled",
                   help="candidate search (seeded sampling is the only one)")
    p.add_argument("--samples", type=int, default=run.samples, help="candidates per step")
    p.add_argument("--seed", default=run.seed)
    p.add_argument("--tolerance", type=float, default=run.tolerance,
                   help="threshold of every entropy close-out and requirement"
                        " (stands in for the paper's 2^-k values)")
    p.add_argument("--min-digits", type=int, default=run.min_digits,
                   help="digits each substage must fix before closing")
    p.add_argument("--budget", dest="step_budget", type=int, default=run.step_budget,
                   help="steps per substage")
    p.add_argument("--transition-l", type=float, default=run.transition_l,
                   help="block-length constant of the transition inequalities")
    p.add_argument("--margin", dest="transition_margin", type=float,
                   default=run.transition_margin,
                   help="floor for the transition margin (0 = exact)")
    p.add_argument("--weyl-gamma", type=float, default=run.weyl_gamma,
                   help="Weyl-average threshold gamma (checked against gamma/2)")
    p.add_argument("--t-cap", type=int, default=run.t_cap,
                   help="truncate the objective's frequency range")
    p.add_argument("--out", default="construction", help="output directory")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a lemma-check suite")
    p.add_argument("suite", help=f"one of {', '.join(_SUITES)}, or all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("calibrate", help="Monte-Carlo calibration of the"
                                         " discrepancy filter constant")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--target", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a filter config file here")
    p.set_defaults(func=cmd_calibrate)

    return parser


def _int_list(text: str) -> list[int]:
    try:
        values = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty checkpoint list")
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # arguments the parser accepts but a library routine or the OS rejects
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
