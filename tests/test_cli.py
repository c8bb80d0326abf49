"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import json
import random

import pytest

from fsdim.base_arith import DigitWord, read_digit_file, write_digit_file
from fsdim.cli import _build_parser, main
from fsdim.constructor import ConstructionParams
from fsdim.discrepancy import DiscrepancyParams
from test_blockstats import naive_entropy


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


def test_analyze_rejects_base_smaller_than_digits(bits_file, tmp_path, capsys):
    assert main(["analyze", bits_file, "--base", "1", "--lmax", "1"]) == 2
    assert "error" in capsys.readouterr().err
    # base 4 reads fine, base 2 meets digit 3: the error names both, and
    # neither profile is written
    quads = tmp_path / "quads.txt"
    write_digit_file(quads, DigitWord(4, (0, 1, 3) * 100))
    out = tmp_path / "out"
    assert main(["analyze", str(quads), "--base", "4", "--base", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: digit 3 out of range for base 2\n"
    assert not out.exists()


def test_analyze_rejects_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "base=4\n0 x 1\n",
    "base=4\n1.0\n",
    "base=4\n0 4 1\n",  # digit >= base on the byte path
    "base=4\n0 12 1\n",  # digit >= base on the token path
    "radix=4\n0 1\n",
])
def test_analyze_rejects_malformed_digit_file(tmp_path, capsys, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "cannot read digit file" in capsys.readouterr().err


@pytest.mark.parametrize("base, n, lmax, digest", [
    # 4^6 blocks: single-digit tokens, ranks sorted as uint16
    (4, 20_000, 6, "61c6fd82f2d5b8533d03a5c74716e1f4c4a84102de58aa6fd70e23abc481f54d"),
    # tokens 10 and 11: parsed token by token
    (12, 3_000, 2, "ba4d4635e5dc956ac26f19c1046c5f085cfe090c2b2eb9d8cbab7480fc444a9e"),
])
def test_analyze_profile_rows_golden(tmp_path, capsys, base, n, lmax, digest):
    # sha256 of every profile row after the header comment, which holds the path
    rng = random.Random(base)
    path = tmp_path / f"golden{base}.txt"
    write_digit_file(path, DigitWord(base, tuple(rng.randrange(base) for _ in range(n))))
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--lmax", str(lmax), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / f"golden{base}_profile_base{base}.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(rows).hexdigest() == digest


def test_analyze_reads_only_lengths_the_windows_can_fill(tmp_path, capsys):
    # H_l at n digits is below 1 by counting alone while n - l + 1 < base^l
    path = tmp_path / "six.txt"
    path.write_text("base=4\n0 1 2 3 0 1\n")
    assert main(["analyze", str(path), "--lmax", "9", "--out", str(tmp_path)]) == 0
    assert "dimension estimate 0.959148 " in capsys.readouterr().out
    path.write_text("base=4\n0 1 2\n")  # too short for even H_1 to reach 1
    assert main(["analyze", str(path), "--lmax", "9", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: too few digits")


def test_analyze_reads_lengths_past_int64_block_keys(tmp_path, capsys):
    # 4^32 > 2^63 blocks of length 32: the window keys never overflow
    word = DigitWord(4, (0, 1, 2, 3) * 100)
    path = tmp_path / "quads.txt"
    write_digit_file(path, word)
    assert main(["analyze", str(path), "--lmax", "32", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "quads_profile_base4.csv").read_text().splitlines()
    assert f"400,32,{naive_entropy(word, 32):.12g}" in rows


def test_analyze_failing_base_writes_no_profile(tmp_path, capsys):
    # base 16 needs 16 windows for H_1; base 4, read first, must not be written either
    path = tmp_path / "ten.txt"
    path.write_text("base=4\n0 1 2 3 0 1 2 3 0 1\n")
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--base", "4", "--base", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: too few digits")
    assert not list(tmp_path.rglob("*_profile_base4.csv"))


def test_analyze_rejects_checkpoint_past_end(zeros_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", zeros_file, "--checkpoints", "9999999", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint 9999999 beyond")
    assert not out.exists()


def test_analyze_out_naming_a_file_exits_two(zeros_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["analyze", zeros_file, "--lmax", "1", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_construct_config_line_records_every_setting(plan_file, tmp_path):
    configs = {}
    for gamma in ("0.8", "0.9"):
        out = tmp_path / gamma
        assert main([
            "construct", "--plan", plan_file, "--stages", "1", "--samples", "2",
            "--weyl-gamma", gamma, "--margin", "0.05", "--out", str(out),
        ]) == 0
        config = (out / "trace.csv").read_text().splitlines()[0]
        assert config == "# " + json.loads((out / "monitors.json").read_text())["config"]
        assert f"weyl_gamma={gamma}" in config.split()
        assert "transition_margin=0.05" in config.split()
        configs[gamma] = config
    assert configs["0.8"] != configs["0.9"]


def test_construct_rejects_inconsistent_plan(tmp_path, capsys):
    covered = "constants exist for bases 2, 3, 4, 5, 6"
    cases = [
        ("q 2 1/2\nq 4 1/3\n", ["invalid plan"]),  # 2 ~ 4 but targets disagree
        # stage 1 works in base 2^3: no filter constants
        ("q 2 1/3\n", ["base 8", covered]),
        # stage 1 alone is fine, but its close-out looks ahead to base 3^2
        ("q 2 1/2\nq 3 1/2\n", ["base 9", covered]),
        # base 2^5: the filter takes it, but construct cannot be given a C_32
        ("q 2 1/5\n", ["base 32", covered]),
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


TARGETS = ["1", "1/2", "1/3", "2/3", "1/4", "3/4"]


@pytest.mark.parametrize("a, b", [(a, b) for a in TARGETS for b in TARGETS],
                         ids=lambda q: q.replace("/", "_"))
def test_two_class_plans_run_or_exit_two_up_front(a, b, tmp_path, capsys):
    # every plan the parser accepts either completes its stage with every
    # non-vacuous requirement passed, or is refused before the first step
    plan = tmp_path / "plan.txt"
    plan.write_text(f"q 2 {a}\nq 3 {b}\n")
    out = tmp_path / "run"
    code = main(["construct", "--plan", str(plan), "--stages", "1", "--samples", "4",
                 "--tolerance", "0.1", "--weyl-gamma", "0.8", "--min-digits", "300",
                 "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: "), err
        assert not (out / "trace.csv").exists()
        return
    assert code == 0, err
    summary = json.loads((out / "monitors.json").read_text())
    verdicts = summary["requirements"]["1"]
    assert any(not v["vacuous"] for v in verdicts)
    assert all(v["passed"] or v["vacuous"] for v in verdicts), verdicts


def test_construct_defaults_are_the_run_defaults():
    # every run setting but the filter constants is a flag whose dest is the
    # field and whose default is the field's default (seed 0 is an int, not "0")
    args = _build_parser().parse_args(["construct", "--plan", "plan.txt", "--stages", "1"])
    for f in dataclasses.fields(ConstructionParams):
        if f.name != "disc":
            assert getattr(args, f.name) == f.default, f.name


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


def test_construct_second_substage_out_of_budget_exports_no_digits(plan_file, tmp_path, capsys):
    # the first substage closes; the second fails its Weyl check until the budget runs out
    out = tmp_path / "short"
    code = main([
        "construct", "--plan", plan_file, "--stages", "1",
        "--samples", "4", "--budget", "16", "--min-digits", "120",
        "--transition-l", "0.5", "--tolerance", "0.15",
        "--weyl-gamma", "0.01", "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "stage 1 incomplete; digits not exported" in err
    assert "budget exhausted" in err
    summary = json.loads((out / "monitors.json").read_text())
    assert summary["stages"][0]["second_check"]["done"] is False
    assert "requirements" not in summary
    assert not (out / "digits_stage1_base4.txt").exists()


def test_construct_out_naming_a_file_exits_two_before_the_run(
        plan_file, tmp_path, capsys, monkeypatch):
    import fsdim.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("run_construction reached with an unusable --out")

    monkeypatch.setattr(fsdim.cli, "run_construction", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["construct", "--plan", plan_file, "--stages", "1",
                 "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == ""


def test_construct_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "--stages", "1"])  # --plan is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["construct", "--plan", "plan.txt", "--stages", "1", "--mode", "exhaustive"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["analyze", "{quads}", "--checkpoints", "0,5"],
    ["analyze", "{quads}", "--lmax", "0"],
    ["construct", "--plan", "{plan}", "--stages", "-1"],
    ["calibrate", "--base", "2", "--samples", "5"],
    ["calibrate", "--base", "2", "--target", "1.5"],
    ["construct", "--plan", "{plan}", "--stages", "1", "--samples", "0"],
    # a non-finite constant makes a close-out gate always or never pass
    ["construct", "--plan", "{plan}", "--stages", "1", "--budget", "1",
     "--transition-l", "nan"],
    ["construct", "--plan", "{plan}", "--stages", "1", "--budget", "1",
     "--transition-l", "inf"],
    ["construct", "--plan", "{plan}", "--stages", "1", "--budget", "1", "--margin", "inf"],
    ["construct", "--plan", "{plan}", "--stages", "1", "--budget", "1",
     "--tolerance", "inf"],
])
def test_rejected_values_exit_two(argv, plan_file, tmp_path, capsys):
    # values the parser accepts but a library routine rejects are usage errors
    quads = tmp_path / "quads.txt"
    write_digit_file(quads, DigitWord(4, (0, 1, 2, 3) * 100))
    argv = [a.format(quads=quads, plan=plan_file) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "trace.csv").exists()


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


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def _two_has_full_order(p):
    # the powers 2^1 .. 2^(p-2) mod p never return to 1
    r = 1
    for _ in range(p - 2):
        r = r * 2 % p
        if r == 1:
            return False
    return True


def test_verify_certificate_prime_is_first_with_primitive_root_two(capsys):
    from fsdim.cli import _CERTIFICATE_PRIME
    from fsdim.expsum import certificate_gamma

    assert _CERTIFICATE_PRIME == 32771
    assert _is_prime_by_trial_division(32771)
    assert _two_has_full_order(32771)
    start = int(1 / certificate_gamma(0.5)) + 2
    assert start < 32771
    assert not any(_is_prime_by_trial_division(d) and _two_has_full_order(d)
                   for d in range(start, 32771))
    assert main(["verify", "weyl-certificate"]) == 0
    assert "D=32771 " in capsys.readouterr().out


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


def test_calibrate_base_17_writes_a_readable_config(tmp_path, capsys):
    # the filter counts blocks in dicts, so bases past 16 calibrate too
    out = tmp_path / "disc.ini"
    assert main(["calibrate", "--base", "17", "--samples", "20",
                 "--length", "400", "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.split("C_17 = ")[1].split()[0])
    assert DiscrepancyParams.read_config(out).c_for(17) == pytest.approx(printed, abs=1e-6)


def test_calibrate_out_naming_a_directory_exits_two(tmp_path, capsys):
    assert main(["calibrate", "--base", "2", "--samples", "30",
                 "--length", "600", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


@pytest.mark.parametrize("name", ["", "missing/disc.ini"])
def test_calibrate_checks_out_before_the_run(name, tmp_path, capsys, monkeypatch):
    import fsdim.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("calibrate reached with an unusable --out")

    monkeypatch.setattr(fsdim.cli, "calibrate", unreachable)
    out = str(tmp_path / name)  # an existing directory, or a file in a missing one
    assert main(["calibrate", "--base", "2", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out} ")
    assert ".tmp" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_rejects_bad_base(tmp_path, capsys):
    out = tmp_path / "disc.ini"
    for base in (1, 0, -3):  # 0 and -3 would reach randrange first
        assert main(["calibrate", "--base", str(base), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: base must be at least 2, got {base}\n"
    assert list(tmp_path.iterdir()) == []
