"""The benchmark's own checks, on shrunken copies of its workloads.

    python3 -m pytest perfbench -q

They are not part of the repository's tier-1 suite (pytest collects
``tests/`` by default); run them after changing anything in perfbench/.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from run import HERE, ROOT, import_program, reconcile, traced_metrics

import_program()

import workloads  # noqa: E402
from tracing import EXACT_COUNTS, Tracer, layer_counts  # noqa: E402
from workloads import ConstructSpec, MeasureSpec  # noqa: E402

SMALL = {
    "construct-1class": ConstructSpec("q 2 1/2\ngrowth scaled 8 4\n", 1, 8, 600),
    "construct-2class": ConstructSpec("q 2 1/2\nq 3 1\ngrowth scaled 8 4\n", 2, 4, 300,
                                      margin=0.05),
    # 32771 is the first prime with primitive root 2 past 1/gamma'(0.5)
    "measure": MeasureSpec(analyze_digits=20_000, cert_prime=32771, cert_eps=0.5,
                           cert_count=2, prefix_digits=5000, pow4=1500, pow3=1893,
                           report_n=500, probes=8),
}


def _run(name, tmp_path, tracer=None, seed=3):
    spec = SMALL[name]
    inputs = workloads.make_inputs(name, seed, str(tmp_path / "in"), spec)
    outcome = workloads.run_iteration(inputs, str(tmp_path / "out"), tracer, spec)
    assert outcome.ok, outcome.problems
    return outcome


@pytest.mark.parametrize("name", ["construct-1class", "construct-2class"])
def test_traced_construction_reconciles(name, tmp_path):
    plain = _run(name, tmp_path)
    tracer = Tracer()
    traced = _run(name, tmp_path, tracer)
    assert reconcile([plain], [traced], [tracer]) == []
    counts = layer_counts(tracer)
    # filter tests are counted where they are looked up: in sample_good_string
    # (fsdim.discrepancy) for every non-vacuous sampled block
    assert counts["discrepancy.tests"] >= counts["discrepancy.accepted"] > 0
    if name == "construct-2class":
        assert counts["expsum.a_m.calls"] > 0 and counts["expsum.a_m.terms"] > 0
    else:
        assert counts["expsum.a_m.calls"] == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat(name, tmp_path):
    tracers = [Tracer(), Tracer()]
    outcomes = [_run(name, tmp_path, tr) for tr in tracers]
    first, second = (layer_counts(tr) for tr in tracers)
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    metrics, problems = traced_metrics(outcomes, outcomes, tracers)
    assert problems == []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(metrics) == sorted(per_layer)


def test_digest_tracks_the_seed(tmp_path):
    a = _run("construct-2class", tmp_path, seed=3).digest
    b = _run("construct-2class", tmp_path, seed=4).digest
    assert a == _run("construct-2class", tmp_path, seed=3).digest
    assert a != b


def test_measure_checks_catch_a_wrong_digit(tmp_path, monkeypatch):
    import fsdim

    real = fsdim.digits_prefix

    def off_by_one(x, base, n):
        word = real(x, base, n)
        digits = list(word.digits)
        digits[-1] = (digits[-1] + 1) % base
        return type(word)(base, tuple(digits))

    spec = dataclasses.replace(SMALL["measure"], probes=SMALL["measure"].prefix_digits)
    monkeypatch.setattr(fsdim, "digits_prefix", off_by_one)
    inputs = workloads.make_inputs("measure", 3, str(tmp_path / "in"), spec)
    outcome = workloads.run_iteration(inputs, str(tmp_path / "out"), None, spec)
    assert not outcome.ok
    assert any("digits_prefix disagrees" in p for p in outcome.problems)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "measure", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
