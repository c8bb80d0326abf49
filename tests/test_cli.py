"""End-to-end tests of the command-line interface."""

import json
import random

import pytest

from fsdim.base_arith import DigitWord, read_digit_file, write_digit_file
from fsdim.cli import main
from fsdim.discrepancy import DiscrepancyParams


@pytest.fixture()
def zeros_file(tmp_path):
    path = tmp_path / "zeros.txt"
    write_digit_file(path, DigitWord(2, (0,) * 5000))
    return str(path)


@pytest.fixture()
def bits_file(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "bits.txt"
    write_digit_file(path, DigitWord(2, tuple(rng.randrange(2) for _ in range(20000))))
    return str(path)


@pytest.fixture()
def plan_file(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("q 2 1/2\ngrowth scaled 8 4\n")
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_zeros_estimates_zero(zeros_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", zeros_file, "--lmax", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "dimension estimate 0.000000" in text
    csv_path = out / "zeros_profile_base2.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# fsdim analyze")
    assert lines[1] == "n,l,H"


def test_analyze_diluted_bits_in_base_four(bits_file, tmp_path, capsys):
    assert main(["analyze", bits_file, "--base", "4", "--lmax", "2",
                 "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    estimate = float(text.split("dimension estimate ")[1].split()[0])
    assert 0.45 <= estimate <= 0.55


def test_analyze_is_byte_identical_across_runs(bits_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", bits_file, "--lmax", "2", "--out", str(out1)]) == 0
    assert main(["analyze", bits_file, "--lmax", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    one = (out1 / "bits_profile_base2.csv").read_bytes()
    two = (out2 / "bits_profile_base2.csv").read_bytes()
    assert one == two


def test_analyze_rejects_base_smaller_than_digits(bits_file, capsys):
    assert main(["analyze", bits_file, "--base", "1", "--lmax", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_rejects_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_rejects_checkpoint_past_end(zeros_file, capsys):
    assert main(["analyze", zeros_file, "--checkpoints", "9999999"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# construct


def test_construct_single_stage_outputs(plan_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "construct", "--plan", plan_file, "--stages", "1",
        "--samples", "8", "--seed", "0", "--tolerance", "0.15",
        "--min-digits", "120", "--transition-l", "0.5",
        "--weyl-gamma", "0.8", "--budget", "200", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr()
    assert "steps" in printed.out
    assert "warning" not in printed.err

    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("# fsdim construct")
    assert trace_lines[1].startswith("m,k,substage")

    word = read_digit_file(out / "digits_stage1_base4.txt")
    assert word.base == 4
    assert len(word) > 240  # both substage floors fixed at least 120 each

    summary = json.loads((out / "monitors.json").read_text())
    assert summary["config"].startswith("fsdim construct")
    assert summary["budget_exhausted"] is False
    verdicts = summary["requirements"]["1"]
    assert all(v["passed"] or v["vacuous"] for v in verdicts)


def test_construct_rejects_inconsistent_plan(tmp_path, capsys):
    covered = "constants exist for bases 2, 3, 4, 5, 6"
    cases = [
        ("q 2 1/2\nq 4 1/3\n", ["invalid plan"]),  # 2 ~ 4 but targets disagree
        # stage 1 works in base 2^3: no filter constants
        ("q 2 1/3\n", ["base 8", covered]),
        # stage 1 alone is fine, but its close-out looks ahead to base 3^2
        ("q 2 1/2\nq 3 1/2\n", ["base 9", covered]),
    ]
    for i, (text, messages) in enumerate(cases):
        plan = tmp_path / f"bad{i}.txt"
        plan.write_text(text)
        out = tmp_path / f"run{i}"
        assert main(["construct", "--plan", str(plan), "--stages", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages), err
        assert not (out / "trace.csv").exists()


def test_construct_zero_stages_is_success(plan_file, tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["construct", "--plan", plan_file, "--stages", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "monitors.json").read_text())
    assert summary["steps"] == 0


def test_construct_budget_exhaustion_warns_but_succeeds(plan_file, tmp_path, capsys):
    out = tmp_path / "short"
    code = main([
        "construct", "--plan", plan_file, "--stages", "1",
        "--samples", "4", "--budget", "2", "--min-digits", "120",
        "--transition-l", "0.5", "--tolerance", "0.15",
        "--weyl-gamma", "0.8", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr()
    assert "budget exhausted" in printed.err
    summary = json.loads((out / "monitors.json").read_text())
    assert summary["budget_exhausted"] is True
    assert not (out / "digits_stage1_base4.txt").exists()


def test_construct_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "--stages", "1"])  # --plan is required
    assert info.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_viete(capsys):
    assert main(["verify", "viete"]) == 0
    assert "PASS viete" in capsys.readouterr().out


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for suite in ("viete", "sin-bound", "am-oracle", "discrepancy-oracle",
                  "weyl-certificate"):
        assert f"PASS {suite}" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_writes_config(tmp_path, capsys):
    out = tmp_path / "disc.ini"
    assert main(["calibrate", "--base", "2", "--samples", "30",
                 "--length", "600", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "C_2 = " in text
    params = DiscrepancyParams.read_config(out)
    printed = float(text.split("C_2 = ")[1].split()[0])
    assert params.c_for(2) == pytest.approx(printed, abs=1e-6)


def test_calibrate_rejects_bad_base(capsys):
    assert main(["calibrate", "--base", "1"]) == 2
    capsys.readouterr()
