"""Tests for the command-line interface: formats, exit codes, determinism."""
import json

import pytest

from krawtchouk import cli
from krawtchouk.cli import main, pool_size


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
    code, joined, _ = run(capsys, "matrix", "--n", "2", "--r=-5/9", "--format", "csv")
    assert code == 0 and joined == spaced


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


def test_verify_injected_fault_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "involution", "--max-n", "2",
                       "--inject-fault")
    assert code == 1
    assert "injected-fault" in out and "FAIL" in out


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suite", "sums", "--max-n", "5", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_jobs_matches_sequential(capsys):
    base = ("verify", "--suite", "symmetries", "--max-n", "6", "--format", "json")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--jobs", "2")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["suites"] == doc2["suites"]


def test_verify_all_jobs_pickles_every_task_and_keeps_stdout(capsys):
    base = ("verify", "--suite", "all", "--max-n", "3", "--r", "1", "--r", "-2/3")
    _, sequential, _ = run(capsys, *base)
    code, pooled, _ = run(capsys, *base, "--jobs", "2")
    assert code == 0 and pooled == sequential


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
        assert err.startswith("error: ") and token in err


def test_pool_size_is_clamped_to_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert pool_size(1, 50) == 1
    assert pool_size(3, 50) == 3
    assert pool_size(10**6, 50) == 4
    assert pool_size(10**6, 2) == 2
    assert pool_size(2, 0) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert pool_size(8, 50) == 1


def test_verify_reports_the_requested_jobs(capsys, monkeypatch):
    # one CPU: the pool is clamped away and the tasks run in this process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    base = ("verify", "--suite", "symmetries", "--max-n", "4", "--format", "json")
    _, sequential, _ = run(capsys, *base)
    code, clamped, _ = run(capsys, *base, "--jobs", "64")
    assert code == 0
    assert json.loads(clamped)["invocation"]["jobs"] == 64
    assert json.loads(clamped)["suites"] == json.loads(sequential)["suites"]


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


def test_algebra_budget_exceeded_exits_2(capsys):
    code, out, err = run(capsys, "algebra", "--n", "6", "--family", "U")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "--allow-large" in err and "allow_large" not in err


def test_algebra_large_budget_message_has_no_dangling_separator(capsys):
    code, out, err = run(capsys, "algebra", "--n", "7", "--family", "T", "--allow-large")
    assert code == 2 and out == ""
    assert err == "error: --n 7 exceeds the budget (6)\n"


def test_env_var_default_format(capsys, monkeypatch):
    monkeypatch.setenv("KRAWTCHOUK_FORMAT", "json")
    code, out, _ = run(capsys, "matrix", "--n", "1", "--r", "1")
    assert code == 0
    assert json.loads(out)["N"] == 1


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
