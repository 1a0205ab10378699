"""Tests for the command-line interface: formats, exit codes, determinism."""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from krawtchouk import algebra, cli, matrices
from krawtchouk.cli import main
from krawtchouk.report import Failure, render_side

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_csv_phi3(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "3", "--r", "1", "--format", "csv")
    assert code == 0
    assert out == (
        "# krawtchouk N=3 r=1/1\n"
        "1,1,1,1\n"
        "3,1,-1,-3\n"
        "3,-1,-1,3\n"
        "1,-1,1,-1\n"
    )


def test_matrix_csv_n2_r2(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "2", "--r", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["1,1,1", "2,-1,-4", "1,-2,4"]


def test_matrix_trivial(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "0", "--r", "5/3")
    assert code == 0 and out.strip() == "1"


def test_matrix_json_renders_rationals(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "2", "--r", "1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["r"] == "1/2"
    assert doc["entries"][1] == ["2", "1/2", "-1"]


def test_matrix_bad_rational_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--n", "2", "--r", "abc"])
    assert exc.value.code == 2


def test_matrix_negative_n_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--n", "-1"])
    assert exc.value.code == 2


def test_matrix_negative_rational_in_both_forms(capsys):
    code, spaced, _ = run(capsys, "matrix", "--n", "2", "--r", "-5/9", "--format", "csv")
    assert code == 0
    assert spaced == "# krawtchouk N=2 r=-5/9\n1,1,1\n2,14/9,10/9\n1,5/9,25/81\n"
    # exponent forms too: '--r -1e1' once reached argparse as an option
    for r, shown in (("-5/9", "-5/9"), ("-1e1", "-10/1"), ("-2.5E-1", "-1/4")):
        code, spaced, _ = run(capsys, "matrix", "--n", "1", "--r", r, "--format", "csv")
        assert code == 0 and spaced.startswith(f"# krawtchouk N=1 r={shown}\n"), r
        code, joined, _ = run(capsys, "matrix", "--n", "1", f"--r={r}", "--format", "csv")
        assert code == 0 and joined == spaced, r


def test_verify_negative_rational_in_both_forms(capsys):
    args = ("verify", "--suite", "pascal", "--max-n", "3", "--format", "json")
    code, spaced, _ = run(capsys, *args, "--r", "-5/9", "--r", "2")
    assert code == 0
    assert json.loads(spaced)["invocation"]["r"] == ["-5/9", "2/1"]
    code, joined, _ = run(capsys, *args, "--r=-5/9", "--r", "2")
    assert code == 0 and joined == spaced


def test_verify_pascal_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pascal", "--max-n", "6",
                       "--r", "3/7")
    assert code == 0
    assert "total:" in out and "0 failures" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "involution", "--max-n", "4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["total_failures"] == 0
    assert doc["exit_code"] == 0
    assert all(s["failure_count"] == 0 for s in doc["suites"])
    assert "tool_version" in doc


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["--max-n", "-1"], "--max-n must be nonnegative"),
    (["--jobs", "2"], "unrecognized arguments: --jobs 2"),  # verify runs in one process
], ids=["max-n", "jobs"])
def test_verify_a_size_below_its_range_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "pascal", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_verify_injected_fault_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "involution", "--max-n", "2",
                       "--inject-fault")
    assert code == 1
    assert "injected-fault" in out and "FAIL" in out


def test_verify_injected_fault_follows_every_suite_and_changes_none(capsys):
    base = ("verify", "--suite", "pascal", "--suite", "zeon", "--max-n", "2", "--format", "json")
    _, clean, _ = run(capsys, *base)
    code, faulty, _ = run(capsys, *base, "--inject-fault")
    clean, faulty = json.loads(clean), json.loads(faulty)
    assert code == 1 and faulty["exit_code"] == 1
    assert faulty["suites"][:-1] == clean["suites"]
    assert faulty["suites"][-1]["suite"] == "injected-fault"
    assert faulty["suites"][-1]["failure_count"] > 0


def test_verify_json_invocation_records_one_job(capsys):
    # schema 1 keeps the key: every suite runs in the calling process
    code, out, _ = run(capsys, "verify", "--suite", "symmetries", "--max-n", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["invocation"]["jobs"] == 1


def test_verify_all_is_every_suite_in_table_order(capsys):
    base = ("verify", "--max-n", "3", "--r", "1", "--r", "-2/3", "--format", "json")
    code, out, _ = run(capsys, *base, "--suite", "all")
    assert code == 0
    one_by_one = []
    for suite in cli.SUITES:
        _, part, _ = run(capsys, *base, "--suite", suite)
        one_by_one += json.loads(part)["suites"]
    assert json.loads(out)["suites"] == one_by_one


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suite", "sums", "--max-n", "5", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_suites_run_in_table_order_whatever_the_argv_order(capsys):
    _, out, _ = run(capsys, "verify", "--suite", "zeon", "--suite", "pascal", "--max-n", "1",
                    "--r", "2")
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == ["pascal N=0 r=2", "pascal N=1 r=2", "zeon n=1", "total"]
    assert list(cli.SUITES) == cli.SUITE_NAMES[:-1] and cli.SUITE_NAMES[-1] == "all"


def test_importing_the_cli_loads_no_process_pool():
    # verify runs every suite in this process: neither the import nor a run starts a pool
    probe = "\n".join([
        "import contextlib, io, sys, krawtchouk.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = krawtchouk.cli.main(['verify', '--suite', 'all', '--max-n', '3'])",
        "print(code, sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # the value classes derive from report.Record, not dataclasses, whose imports would
    # add to every command's start-up; -S keeps site's .pth hooks from importing typing
    probe = ("import sys, krawtchouk.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'ast'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_zeon_u_diagonal(capsys):
    code, out, _ = run(capsys, "zeon", "--n", "2", "--op", "U")
    assert code == 0
    assert "# diagonal 2 0 0 -2" in out


def test_zeon_t_n1_single_entry(capsys):
    code, out, _ = run(capsys, "zeon", "--n", "1", "--op", "T")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["1 0 1"]


def test_zeon_t_n4_entry_count(capsys):
    code, out, _ = run(capsys, "zeon", "--n", "4", "--op", "T", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 32


def test_zeon_raise_lower_tokens(capsys):
    code, out, _ = run(capsys, "zeon", "--n", "3", "--op", "raise:2", "--format", "json")
    assert code == 0 and len(json.loads(out)["entries"]) == 4
    code, out, _ = run(capsys, "zeon", "--n", "3", "--op", "lower:2", "--format", "json")
    assert code == 0 and len(json.loads(out)["entries"]) == 4


def test_zeon_non_integer_index_exits_2_with_message(capsys):
    for token in ("raise:x", "lower:x"):
        code, out, err = run(capsys, "zeon", "--n", "3", "--op", token)
        assert code == 2 and out == ""
        assert err == f"error: operator index in {token!r} is not an integer\n"


@pytest.mark.parametrize("r_list,per_column", [
    ([Fraction(0), Fraction(1), Fraction(2)], 3),  # the r = 1 sweep is reused
    ([Fraction(0), Fraction(2)], 3),  # no r = 1 in the list: one more sweep
], ids=["with-1", "without-1"])
def test_sums_sweeps_the_general_theorem_once_per_r_and_column(monkeypatch, r_list, per_column):
    calls = []
    sweep = cli.sweep_sum_squares_general

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(cli, "sweep_sum_squares_general", counting)
    assert cli._t_sums(4, tuple(r_list)).ok
    assert len(calls) == per_column * 5  # columns j = 0..4


def test_zeon_bad_token_exits_2(capsys):
    code, out, err = run(capsys, "zeon", "--n", "2", "--op", "bogus")
    assert code == 2 and out == ""
    assert err == "error: unknown operator token 'bogus'\n"


def test_zeon_n_out_of_range_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["zeon", "--n", "13", "--op", "T"])
    assert exc.value.code == 2


def test_algebra_u_n4(capsys):
    code, out, _ = run(capsys, "algebra", "--n", "4", "--family", "U", "--check")
    assert code == 0
    assert "16" in out and "70" in out


def test_algebra_t_n3_json(capsys):
    code, out, _ = run(capsys, "algebra", "--n", "3", "--family", "T",
                       "--check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["computed"] == {"d": 8, "delta": 20, "zeta": 5, "z": 2}
    assert all(doc["matches"].values())


def test_algebra_tt_n2_note_does_not_fail_check(capsys):
    code, out, _ = run(capsys, "algebra", "--n", "2", "--family", "TT", "--check")
    assert code == 0
    assert "NOTE: stated z differs" in out


def test_algebra_check_exits_1_when_a_statistic_disagrees(capsys, monkeypatch):
    real = algebra.predicted_stats

    def wrong_zeta(family, n):
        stats, comps = real(family, n)
        return type(stats)(**{**vars(stats), "zeta": stats.zeta + 1}), comps

    monkeypatch.setattr(algebra, "predicted_stats", wrong_zeta)
    code, out, _ = run(capsys, "algebra", "--n", "3", "--family", "U", "--check")
    assert code == 1
    assert "zeta         20         21  NO\n" in out
    code, _, _ = run(capsys, "algebra", "--n", "3", "--family", "U")
    assert code == 0  # a disagreement fails only with --check


def test_algebra_budget_exceeded_exits_2(capsys):
    code, out, err = run(capsys, "algebra", "--n", "33", "--family", "U")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "--allow-large" in err and "allow_large" not in err


def test_algebra_large_budget_message_has_no_dangling_separator(capsys):
    code, out, err = run(capsys, "algebra", "--n", "49", "--family", "T", "--allow-large")
    assert code == 2 and out == ""
    assert err == "error: --n 49 exceeds the budget (48)\n"


@pytest.mark.parametrize("n", [0, -1])
def test_algebra_n_below_1_exits_2_before_computing(capsys, monkeypatch, n):
    def refuse(*args):
        raise AssertionError(f"orbit_stats ran at n={n}")

    monkeypatch.setattr(algebra, "orbit_stats", refuse)
    for family in algebra.Family:
        code, out, err = run(capsys, "algebra", "--n", str(n), "--family", family.value)
        assert (code, out, err) == (2, "", f"error: n must be >= 1, got {n}\n")


def test_main_reuses_its_parser_and_reads_the_env_var_per_call(capsys, monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    code, out, _ = run(capsys, "matrix", "--n", "1", "--r", "1")
    assert (code, out) == (0, " 1  1\n 1 -1\n")
    monkeypatch.setenv("KRAWTCHOUK_FORMAT", "json")
    code, out, _ = run(capsys, "matrix", "--n", "1", "--r", "1")
    assert code == 0 and json.loads(out)["N"] == 1
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_env_var_default_format(capsys, monkeypatch):
    monkeypatch.setenv("KRAWTCHOUK_FORMAT", "json")
    code, out, _ = run(capsys, "matrix", "--n", "1", "--r", "1")
    assert code == 0
    assert json.loads(out)["N"] == 1


ACCEPTED = {"matrix": "pretty, csv, json", "verify": "text, json",
            "zeon": "coord, json", "algebra": "text, json"}
FORMAT_ARGV = {
    "matrix": ["matrix", "--n", "1"],
    "verify": ["verify", "--suite", "pascal", "--max-n", "1"],
    "zeon": ["zeon", "--n", "1", "--op", "T"],
    "algebra": ["algebra", "--n", "1", "--family", "U"],
}


@pytest.mark.parametrize("command,value", [
    *((command, "xml") for command in FORMAT_ARGV), ("verify", "csv"),
])
def test_env_var_format_outside_the_choices_exits_2(capsys, monkeypatch, command, value):
    monkeypatch.setenv("KRAWTCHOUK_FORMAT", value)
    with pytest.raises(SystemExit) as exc:
        main(FORMAT_ARGV[command])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"KRAWTCHOUK_FORMAT='{value}' is not a format of {command}" in captured.err
    assert f"accepted: {ACCEPTED[command]}\n" in captured.err


@pytest.mark.parametrize("command", FORMAT_ARGV)
def test_explicit_format_wins_over_a_bad_env_var(capsys, monkeypatch, command):
    monkeypatch.setenv("KRAWTCHOUK_FORMAT", "xml")
    code, out, _ = run(capsys, *FORMAT_ARGV[command], "--format", "json")
    assert code == 0
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize("argv", [
    ["matrix", "--n", str(cli.MAX_MATRIX_N + 1)],
    ["verify", "--suite", "pascal", "--max-n", str(cli.MAX_VERIFY_N + 1)],
], ids=["matrix", "verify"])
def test_sizes_above_the_budget_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds the budget" in err


def test_benchmark_sizes_are_inside_the_budget():
    assert cli.MAX_MATRIX_N >= 80 and cli.MAX_VERIFY_N >= 12


# ---------------------------------------------------------------------------
# failure rendering: an int and an equal Fraction print alike
# ---------------------------------------------------------------------------

def test_tuple_sides_of_a_failure_render_alike_for_int_and_fraction():
    failure = Failure(("symm-vs-general", 0, 0), (3, 3), (Fraction(3), Fraction(3)))
    doc = failure.to_json()
    assert doc["left"] == doc["right"] == "(3, 3)"
    assert render_side(failure.left) == render_side(failure.right) == "(3, 3)"
    assert render_side((Fraction(-5, 9), 2)) == "(-5/9, 2)"


@pytest.fixture
def shifted_general_sweep(monkeypatch):
    """Shift both sides of the general sweep at r = 1 by one: thm-sqsum still
    holds, symm-vs-general fails with an int tuple against a mixed one."""
    sweep = cli.sweep_sum_squares_general

    def shifted(N, r, j, M=None, M1=None):
        out = sweep(N, r, j, M, M1)
        return [(lhs + 1, rhs + 1, scale) for lhs, rhs, scale in out] if r == 1 else out

    monkeypatch.setattr(cli, "sweep_sum_squares_general", shifted)


def test_symm_vs_general_failure_prints_plain_values(capsys, shifted_general_sweep):
    argv = ["verify", "--suite", "sums", "--max-n", "1", "--r", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "  mismatch (symm-vs-general, 0, 0): (1, 1) != (2, 2)\n" in out
    assert "Fraction" not in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    suite = json.loads(out)["suites"][0]
    assert suite["failures"][0] == {"params": ["symm-vs-general", "0", "0"],
                                    "left": "(1, 1)", "right": "(2, 2)"}
    assert "Fraction" not in out


def test_mismatch_params_render_r_as_the_json_does(capsys, monkeypatch):
    sweep = cli.sweep_sum_squares_general

    def wrong(N, r, j, M=None, M1=None):
        out = sweep(N, r, j, M, M1)
        # the theorem's lhs, lhs / scale, raised by one
        return out if r == 1 else [(lhs + scale, rhs, scale) for lhs, rhs, scale in out]

    monkeypatch.setattr(cli, "sweep_sum_squares_general", wrong)
    argv = ["verify", "--suite", "sums", "--max-n", "1", "--r", "3/7"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "  mismatch (thm-sqsum, 3/7, 0, 0): 2 != 1\n" in out
    assert "Fraction" not in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    failure = json.loads(out)["suites"][0]["failures"][0]
    assert failure["params"] == ["thm-sqsum", "3/7", "0", "0"]


# ---------------------------------------------------------------------------
# the size of r: numerator and denominator of at most MAX_R_DIGITS digits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [
    "1000000", "-1/1000000", "1e-6",  # one digit over the budget
    "1000000000000", "-1/1000000000000", "1e1000", "1e-12", "1e99999999", "1e1_0000000",
])
def test_an_r_above_the_digit_budget_exits_2_at_once(capsys, r):
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--n", "40", f"--r={r}"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and time.monotonic() - t0 < 5
    assert "error:" in err and "exceeds the budget (6 digits" in err


@pytest.mark.parametrize("r,expected", [
    ("999999/999998", Fraction(999999, 999998)),
    ("-1e5", Fraction(-10 ** 5)),
    ("1e-5", Fraction(1, 10 ** 5)),
    ("0.5e00001", Fraction(5)),
])
def test_an_r_inside_the_digit_budget_is_accepted(r, expected):
    assert cli.MAX_R_DIGITS == 6
    assert cli.parse_rational(r) == expected


# ---------------------------------------------------------------------------
# the number of r values: at most MAX_R_VALUES
# ---------------------------------------------------------------------------

def test_the_memo_holds_the_largest_verify_sweep(capsys, monkeypatch):
    # the suites but catalan scan levels 0..N+1 for each r and for r = 1;
    # catalan's higher r = 1 levels are scanned by that suite alone
    assert matrices.MEMO_SIZE == (cli.MAX_VERIFY_N + 2) * (cli.MAX_R_VALUES + 1)
    sizes = []

    def clear():
        sizes.append(matrices._expand.cache_info().currsize)
        matrices.clear_memo()

    matrices.clear_memo()
    monkeypatch.setattr(cli, "clear_memo", clear)
    suites = [arg for suite in cli.SUITES if suite != "catalan" for arg in ("--suite", suite)]
    code, _, _ = run(capsys, "verify", *suites, "--max-n", "14", "--r", "3/7", "--r=-5/9")
    assert code == 0 and sizes == [(14 + 2) * (2 + 1)]


@pytest.mark.parametrize("count", [cli.MAX_R_VALUES, cli.MAX_R_VALUES + 1])
def test_the_r_count_budget_is_checked_before_any_matrix(capsys, monkeypatch, count):
    assert 7 <= cli.MAX_R_VALUES == 20  # room for the default r list
    built = []
    real = matrices.build_matrix
    monkeypatch.setattr(matrices, "build_matrix", lambda N, r: built.append(N) or real(N, r))
    code, out, err = run(capsys, "verify", "--suite", "pascal", "--max-n", "1",
                         *(f"--r={k}" for k in range(count)))
    if count <= cli.MAX_R_VALUES:
        assert code == 0 and out.endswith(f"total: {10 * count} cases, 0 failures\n")
        assert built
    else:
        assert code == 2 and out == "" and not built
        assert err == f"error: --r given {count} times exceeds the budget (20 values)\n"


# ---------------------------------------------------------------------------
# argv fuzz: any argv built from the real subcommands and flags exits 0, 1 or
# 2 in bounded time, without a traceback
# ---------------------------------------------------------------------------

CALL_SECONDS = 30
RATIONALS = ["1", "0", "-1", "2", "3/7", "-5/9", "1/2", "-2/3", "1.5", "-999/1000"]
# bad tokens, bad rationals (zero and negative denominators) and sizes above
# some budget: 161 for matrix, 25 for verify, 13 for zeon, 33 for the default
# algebra budget, 49 for algebra with --allow-large
BAD_TOKENS = ["", "x", "--bogus", "-", "1.5.2", "0x10", "--n", "1/0", "0/0", "1/-2",
              "-1/-2", "abc", "1//2", "/3", "-1", "0", "13", "25", "33", "49", "161", "100000",
              "--jobs"]


def flag(name, values):
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def flat(parts):
    return [token for part in parts for token in part]


# argv inside every budget: matrix --n <= 12, verify --max-n <= 5, zeon and
# algebra --n <= 4
MATRIX_ARGV = st.tuples(
    st.just(["matrix", "--n"]), st.integers(0, 12).map(lambda n: [str(n)]),
    flag("--r", st.sampled_from(RATIONALS)),
    flag("--format", st.sampled_from(["pretty", "csv", "json"])),
).map(flat)
VERIFY_ARGV = st.tuples(
    st.just(["verify"]),
    st.lists(st.sampled_from(cli.SUITE_NAMES), min_size=1, max_size=3).map(
        lambda suites: flat(["--suite", s] for s in suites)),
    flag("--max-n", st.integers(0, 5)),
    st.lists(st.sampled_from(RATIONALS), max_size=3).map(lambda rs: flat(["--r", r] for r in rs)),
    flag("--format", st.sampled_from(["text", "json"])),
    st.sampled_from([[], ["--inject-fault"]]),
).map(flat)
ZEON_ARGV = st.tuples(
    st.just(["zeon", "--n"]), st.integers(1, 4).map(lambda n: [str(n)]),
    st.sampled_from(["T", "Tstar", "U", "raise:1", "lower:2", "raise:9", "raise:x", "foo"]).map(
        lambda op: ["--op", op]),
    flag("--format", st.sampled_from(["coord", "json"])),
).map(flat)
ALGEBRA_ARGV = st.tuples(
    st.just(["algebra", "--family"]), st.sampled_from([["U"], ["T"], ["TT"]]),
    st.integers(1, 4).map(lambda n: ["--n", str(n)]),
    st.sampled_from([[], ["--check"]]), st.sampled_from([[], ["--allow-large"]]),
    flag("--format", st.sampled_from(["text", "json"])),
).map(flat)


@st.composite
def fuzzed_argv(draw):
    """A valid argv, or one with a token replaced, inserted or deleted."""
    argv = draw(st.one_of(MATRIX_ARGV, VERIFY_ARGV, ZEON_ARGV, ALGEBRA_ARGV))
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit == "none":
        return argv
    i = draw(st.integers(0, len(argv) - (edit != "insert")))
    if edit == "delete":
        return argv[:i] + argv[i + 1:]
    token = [draw(st.sampled_from(BAD_TOKENS))]
    return argv[:i] + token + argv[i + (edit == "replace"):]


def _timed_out(signum, frame):
    raise TimeoutError(f"a CLI call ran longer than {CALL_SECONDS} s")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(capsys, argv):
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(CALL_SECONDS)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
