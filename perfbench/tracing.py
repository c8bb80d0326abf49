"""In-memory spans around fsdim's public functions, and the per-layer metrics.

A span records its name, start, end and the id of the span that was open
when it started.  Spans stay in memory; the runner writes them out when the
run ends.  A layer is a module of ``src/fsdim`` and a span's name starts
with its layer.  Self time is a span's duration minus the time its child
spans cover, so every ``*_s`` metric below is time spent in that layer's
own code.

Nothing under ``src/`` is instrumented.  :func:`patched` swaps the module
attributes through which ``fsdim.cli``, ``fsdim.constructor`` and
``fsdim.discrepancy`` call each other for wrappers and restores them on
exit; the runner wraps the public functions it calls itself with
:meth:`Tracer.wrap`.  Hooks also keep counts that are computed from call
arguments and results, so they repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Span recorder; one instance per traced iteration."""

    def __init__(self, trace_id: int = 0) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []  # [id, parent id or -1, name, start, end]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else -1, name,
                    time.perf_counter(), 0.0]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def keep_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def self_times(self) -> Counter:
        """Self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[sid]
        return out

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)


# ---------------------------------------------------------------------------
# count hooks


def same_class(r: int, s: int) -> bool:
    # r and s are powers of a common base iff their smallest roots agree
    return _smallest_root(r) == _smallest_root(s)


def _smallest_root(b: int) -> int:
    for t in range(2, b + 1):
        p = t
        while p < b:
            p *= t
        if p == b:
            return t
    raise ValueError(f"no root for {b}")


def _count_filter(tr: Tracer, args, kwargs, passed) -> None:
    word = args[0]
    tr.counts["discrepancy.tests"] += 1
    tr.counts["discrepancy.accepted"] += int(bool(passed))
    tr.counts["discrepancy.digits_scanned"] += len(word)


def a_m_terms(m: int, sched, t_cap: Optional[int]) -> int:
    """Phase evaluations a_m(x, m, sched, t_cap) asks for: sum over the
    inequivalent bases u of (j_hi - j_lo + 1) * t_max."""
    u_m = sched.base(m)
    bases = {sched.base(h) for h in range(1, m + 1) if not same_class(sched.base(h), u_m)}
    t_max = m if t_cap is None else min(m, t_cap)
    return sum(max(0, sched.angle_base(m + 1, u) - sched.angle_base(m, u)) * t_max
               for u in bases)


def _count_a_m(tr: Tracer, args, kwargs, result) -> None:
    x, m, sched = args[:3]
    t_cap = args[3] if len(args) > 3 else kwargs.get("t_cap")
    tr.counts["expsum.a_m.calls"] += 1
    tr.counts["expsum.a_m.terms"] += a_m_terms(m, sched, t_cap)
    tr.keep_max("expsum.a_m.den_bits_max", Fraction(x).denominator.bit_length())


def count_prefix(tr: Tracer, args, kwargs, word) -> None:
    tr.counts["base_arith.digits_prefix.calls"] += 1
    tr.counts["base_arith.digits_prefix.digits"] += len(word)
    tr.keep_max("base_arith.digits_prefix.den_bits_max",
                Fraction(args[0]).denominator.bit_length())


def _count_step(tr: Tracer, args, kwargs, choice) -> None:
    tr.counts["constructor.steps"] += 1
    tr.counts["constructor.candidates"] += choice.candidates_examined


def _count_closeout(tr: Tracer, args, kwargs, check) -> None:
    tr.counts["constructor.closeout.checks"] += 1


def _count_profile(tr: Tracer, args, kwargs, profile) -> None:
    # the streaming pass stops at the last checkpoint
    tr.counts["blockstats.digits_pushed"] += max(profile.checkpoints)


def count_certificate(tr: Tracer, args, kwargs, result) -> None:
    x = Fraction(args[0])
    tr.counts["expsum.certificate.calls"] += 1
    # the residue-count DFT runs over one slot per residue of the denominator
    tr.keep_max("expsum.certificate.fft_len", x.denominator)


def count_weyl_report(tr: Tracer, args, kwargs, report) -> None:
    tr.counts["expsum.weyl_report.terms"] += report.t_range * report.n


# (module, attribute, span name, hook): the names through which the CLI,
# the constructor and the filter reach the other layers
PATCHES = (
    ("fsdim.discrepancy", "low_discrepancy_test", "discrepancy.low_discrepancy_test", _count_filter),
    ("fsdim.constructor", "low_discrepancy_test", "discrepancy.low_discrepancy_test", _count_filter),
    ("fsdim.constructor", "sample_good_string", "discrepancy.sample_good_string", None),
    ("fsdim.constructor", "a_m", "expsum.a_m", _count_a_m),
    ("fsdim.constructor", "digits_prefix", "base_arith.digits_prefix", count_prefix),
    ("fsdim.constructor", "sigma_element_at", "base_arith.sigma_element_at", None),
    ("fsdim.constructor", "eta_g_at", "base_arith.eta_g_at", None),
    ("fsdim.constructor", "select_step", "constructor.select_step", _count_step),
    ("fsdim.constructor", "first_substage_done", "constructor.closeout", _count_closeout),
    ("fsdim.constructor", "second_substage_done", "constructor.closeout", _count_closeout),
    ("fsdim.constructor", "weyl_max_from_digits", "constructor.weyl_check", None),
    ("fsdim.constructor", "validate_good_sequence", "schedule.validate_good_sequence", None),
    ("fsdim.cli", "run_construction", "constructor.run_construction", None),
    ("fsdim.cli", "check_requirements", "constructor.check_requirements", None),
    ("fsdim.cli", "entropy_profile", "blockstats.entropy_profile", _count_profile),
    ("fsdim.cli", "read_plan_file", "cli.read", None),
    ("fsdim.cli", "read_digit_file", "cli.read", None),
    ("fsdim.cli", "write_trace_csv", "cli.write", None),
    ("fsdim.cli", "write_digit_file", "cli.write", None),
    ("fsdim.cli", "_atomic_text", "cli.write", None),
)


@contextlib.contextmanager
def patched(tracer: Optional[Tracer]):
    """Route the PATCHES names through ``tracer``; a no-op for None."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

COUNT_METRICS = (
    "discrepancy.tests",
    "discrepancy.accepted",
    "discrepancy.digits_scanned",
    "expsum.a_m.calls",
    "expsum.a_m.terms",
    "expsum.certificate.calls",
    "expsum.weyl_report.terms",
    "blockstats.digits_pushed",
    "base_arith.digits_prefix.calls",
    "base_arith.digits_prefix.digits",
    "constructor.steps",
    "constructor.candidates",
    "constructor.closeout.checks",
)
MAX_METRICS = (
    "expsum.a_m.den_bits_max",
    "expsum.certificate.fft_len",
    "base_arith.digits_prefix.den_bits_max",
)
# metric -> span names whose self time it sums
TIME_METRICS = {
    "discrepancy.self_s": ("discrepancy.sample_good_string", "discrepancy.low_discrepancy_test"),
    "expsum.a_m.self_s": ("expsum.a_m",),
    "expsum.certificate.self_s": ("expsum.weyl_entropy_certificate",),
    "expsum.weyl_report.self_s": ("expsum.weyl_report",),
    "blockstats.profile_s": ("blockstats.entropy_profile",),
    "base_arith.digits_prefix.self_s": ("base_arith.digits_prefix",),
    "base_arith.sigma_s": ("base_arith.sigma_element_at", "base_arith.eta_g_at"),
    "constructor.select_step.self_s": ("constructor.select_step",),
    "constructor.closeout.self_s": ("constructor.closeout",),
    "constructor.weyl_check_s": ("constructor.weyl_check",),
    "constructor.monitors_s": ("constructor.check_requirements",),
    "schedule.validate_s": ("schedule.validate_good_sequence",),
    "cli.write_s": ("cli.write",),
    "cli.read_s": ("cli.read",),
}
# counts that depend only on the inputs: they must repeat exactly for a seed
EXACT_COUNTS = (
    "expsum.a_m.terms",
    "discrepancy.digits_scanned",
    "expsum.certificate.fft_len",
    "base_arith.digits_prefix.digits",
)


def layer_counts(tracer: Tracer) -> dict[str, int]:
    """Every count and maximum of one traced iteration (0 when unused)."""
    out = {name: int(tracer.counts[name]) for name in COUNT_METRICS}
    out.update({name: int(tracer.maxima.get(name, 0)) for name in MAX_METRICS})
    out["cli.bytes_written"] = int(tracer.counts["cli.bytes_written"])
    return out


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per time metric of one traced iteration."""
    self_s = tracer.self_times()
    return {metric: sum(self_s[n] for n in names) for metric, names in TIME_METRICS.items()}
