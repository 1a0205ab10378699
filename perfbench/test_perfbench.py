"""Tests of the benchmark's own oracles, input generation and span arithmetic."""
import json
import time
from fractions import Fraction

import run
import spans
import speed
import workloads


def _matrix_doc(M):
    return {"N": len(M) - 1, "entries": [[str(v) for v in row] for row in M]}


def test_matrix_oracle_known_values():
    assert workloads.krawtchouk_matrix(2, Fraction(1)) == [[1, 1, 1], [2, 0, -2], [1, -1, 1]]
    # level 1: column 0 holds the coefficients of 1 + z, column 1 those of 1 - r z
    assert workloads.krawtchouk_matrix(1, Fraction(-5, 9)) == [[1, 1], [1, Fraction(5, 9)]]


def test_matrix_oracle_flags_one_corrupted_entry():
    r = Fraction(-5, 9)
    M = workloads.krawtchouk_matrix(7, r)
    doc = _matrix_doc(M)
    assert workloads.check_matrix(doc, 7, M) is None
    doc["entries"][3][5] = str(M[3][5] + Fraction(1, 81))
    assert "[3][5]" in workloads.check_matrix(doc, 7, M)


def test_check_call_routes_matrix_output_to_the_oracle():
    r = Fraction(7, 2)
    argv = ["matrix", "--n", "4", workloads.r_option(r), "--format", "json"]
    matrices = {(4, r): workloads.krawtchouk_matrix(4, r)}
    good = json.dumps(_matrix_doc(matrices[4, r]))
    assert workloads.check_call(argv, 0, good, matrices) is None
    assert workloads.check_call(argv, 2, good, matrices) == "exit code 2"
    assert workloads.check_call(argv, 0, "1 2\n", matrices) is not None


def test_algebra_table_matches_known_statistics():
    assert workloads.algebra_stats("U", 4) == {"d": 16, "delta": 5, "zeta": 70, "z": 5}
    assert workloads.algebra_stats("T", 5) == {"d": 32, "delta": 56, "zeta": 42, "z": 3}
    assert workloads.algebra_stats("TT", 4) == {"d": 16, "delta": 9, "zeta": 36, "z": 9}
    assert workloads.algebra_stats("TT", 5) == {"d": 32, "delta": 12, "zeta": 120, "z": 12}


def test_algebra_oracle_flags_one_wrong_statistic():
    doc = {"family": "T", "n": 4, "computed": workloads.algebra_stats("T", 4)}
    argv = workloads.algebra_argv("T", 4)
    assert workloads.check_call(argv, 0, json.dumps(doc), {}) is None
    doc["computed"]["zeta"] += 1
    assert "zeta" in workloads.check_call(argv, 0, json.dumps(doc), {})


def test_verify_oracle_flags_missing_cases_and_failures():
    argv = workloads.verify_argv(0)
    ok = {"total_cases": workloads.VERIFY_CASES, "total_failures": 0, "exit_code": 0}
    assert workloads.check_call(argv, 0, json.dumps(ok), {}) is None
    fewer = dict(ok, total_cases=workloads.VERIFY_CASES - 1)
    assert "cases" in workloads.check_call(argv, 0, json.dumps(fewer), {})
    failing = dict(ok, total_failures=1, exit_code=1)
    assert "failures" in workloads.check_call(argv, 0, json.dumps(failing), {})


def test_same_seed_gives_identical_argv():
    for workload in workloads.WORKLOADS:
        assert workloads.workload_calls(workload, 7) == workloads.workload_calls(workload, 7)
    assert workloads.workload_calls("verify-sweep", 1) != workloads.workload_calls("verify-sweep", 2)
    assert workloads.probe_calls(3) == workloads.probe_calls(3)


def test_seeded_rationals_keep_their_range_and_include_negatives():
    drawn = [r for seed in range(20)
             for r in workloads.matrix_rs(seed) + [Fraction(a.partition("=")[2])
                       for a in workloads.verify_argv(seed) if a.startswith("--r=")][2:]]
    assert all(r not in (-1, 0, 1) and abs(r.numerator) <= 9 and r.denominator <= 9
               for r in drawn)
    assert any(r < 0 for r in drawn)
    assert all(len(set(workloads.matrix_rs(seed))) == workloads.MATRIX_CALLS for seed in range(20))


def test_self_times_subtract_the_union_of_children():
    # name, start, end, parent, key
    tree = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a: the union 1..6 is covered once
        ["a.1", 2.0, 3.0, 1, None],
        ["c", 8.0, 12.0, 0, None],  # runs past the root's end: only 8..10 counts
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_busy_counts_nested_spans_of_the_group_once():
    tree = [
        ["zeon.op_T", 0.0, 5.0, None, None],
        ["zeon.raise_op", 1.0, 2.0, 0, None],
        ["zeon.raise_op", 6.0, 7.0, None, None],
    ]
    assert spans.busy(tree, ["zeon.op_T", "zeon.raise_op"]) == 6.0


def test_tracer_links_spans_to_their_callers():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda x: x + 1, key=lambda x: f"x={x}")
    outer = tracer.span("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", None, None), ("inner", 0, "x=1"), ("inner", 0, "x=2")]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_declared_per_layer_metrics_are_the_measured_ones():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    measured = set(spans.layer_metrics([], {}))
    measured |= {f"verify.{suite}.wall_s" for suite in workloads.SUITES}
    measured |= {f"matrices.build_N{N}_s" for N in run.BUILD_SIZES} | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == measured
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_slowness_is_the_mean_cpu_time_and_spent_sums_both_times():
    ref = speed.REFERENCE_S
    samples = [[ref, ref], [9 * ref, 2 * ref]]  # [wall, cpu]: the CPU stopped in the second
    assert speed.slowness(samples) == 1.5
    assert speed.spent(samples) == (10 * ref, 3 * ref)


def test_sampler_interleaves_snippets_with_the_work_on_a_timer():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(wall > 0 for wall, _ in sampler.samples)


def test_a_metric_without_samples_gives_an_incorrect_result_not_a_crash(monkeypatch, tmp_path):
    declared = {"setup_s": "s", "wall_s": "s"}
    empty = {name: [] for name in [*declared, *run.INFORMATIONAL]}
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run.Run, "end_to_end", lambda self: empty)
    result = run.benchmark("algebra-small", 0, 1.0, False, declared)
    assert result["correct"] is False and result["metrics"] == {}
