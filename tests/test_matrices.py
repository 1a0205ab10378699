"""Tests for Krawtchouk matrix construction and structural identities."""
import functools
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from krawtchouk import matrices
from krawtchouk.cli import main
from krawtchouk.combinatorics import binomial
from krawtchouk.identities import (
    sweep_column_sum_relation,
    sweep_partial_sum_plain,
    sweep_sum_squares_general,
    sweep_sum_squares_symmetric,
)
from krawtchouk.matrices import (
    build_matrix,
    binomial_diagonal,
    closed_form_row1_col01,
    verify_binomial_conjugation,
    verify_involution,
    verify_pascal,
    verify_recurrence_j,
    verify_sign_symmetries,
)
from krawtchouk.report import IdentityReport

R_SAMPLES = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
             Fraction(3, 7), Fraction(-2), Fraction(5)]

PHI3 = [
    [1, 1, 1, 1],
    [3, 1, -1, -3],
    [3, -1, -1, 3],
    [1, -1, 1, -1],
]

PHI4 = [
    [1, 1, 1, 1, 1],
    [4, 2, 0, -2, -4],
    [6, 0, -2, 0, 6],
    [4, -2, 0, 2, -4],
    [1, -1, 1, -1, 1],
]


def as_ints(M):
    return [[int(v) for v in row] for row in M.entries]


def test_displayed_matrices():
    assert as_ints(build_matrix(3, 1)) == PHI3
    assert as_ints(build_matrix(4, 1)) == PHI4


def test_size_zero_is_single_one():
    for r in R_SAMPLES:
        M = build_matrix(0, r)
        assert M.entries == ((Fraction(1),),)


def test_n2_r2_hand_expansion():
    # columns are (1+z)^2, (1+z)(1-2z), (1-2z)^2
    assert as_ints(build_matrix(2, 2)) == [[1, 1, 1], [2, -1, -4], [1, -2, 4]]


def test_entry_access_and_boundary():
    M4 = build_matrix(4, 1)
    M3 = build_matrix(3, 1)
    assert M4.entry(2, 2) == -2
    assert M3.entry(1, 3) == -3
    for r in R_SAMPLES:
        M = build_matrix(5, r)
        for j in range(6):
            assert M.entry(-1, j) == 0


def test_entry_out_of_range_is_error():
    M = build_matrix(3, 1)
    with pytest.raises(IndexError):
        M.entry(-2, 0)
    with pytest.raises(IndexError):
        M.entry(4, 0)
    with pytest.raises(IndexError):
        M.entry(0, -1)
    with pytest.raises(IndexError):
        M.entry(0, 4)


def test_column_zero_is_binomials():
    for N in range(13):
        for r in R_SAMPLES:
            M = build_matrix(N, r)
            assert [row[0] for row in M.entries] == [binomial(N, n) for n in range(N + 1)]


def test_symmetric_case_is_integral():
    for N in range(13):
        assert all(v.denominator == 1 for row in build_matrix(N, 1).entries for v in row)


def test_entries_are_polynomials_in_r_of_degree_j():
    # exact Lagrange interpolation from j+1 samples must reproduce a fresh sample
    N = 6
    fresh = Fraction(17, 5)
    M_fresh = build_matrix(N, fresh)
    for j in range(N + 1):
        xs = [Fraction(t) for t in range(j + 1)]
        mats = [build_matrix(N, x) for x in xs]
        for n in range(N + 1):
            ys = [m.entry(n, j) for m in mats]
            value = Fraction(0)
            for a in range(j + 1):
                term = ys[a]
                for b in range(j + 1):
                    if b != a:
                        term *= (fresh - xs[b]) / (xs[a] - xs[b])
                value += term
            assert value == M_fresh.entry(n, j)


@pytest.mark.parametrize("r", R_SAMPLES)
def test_pascal_relations_hold(r):
    for N in range(13):
        rep = verify_pascal(N, r)
        assert rep.ok, rep.failures[:3]


def test_pascal_trivial_case_count():
    rep = verify_pascal(0, Fraction(5))
    assert rep.ok and rep.cases == 2


@pytest.mark.parametrize("r", R_SAMPLES)
def test_recurrence_holds(r):
    for N in range(1, 13):
        rep = verify_recurrence_j(N, r)
        assert rep.ok, rep.failures[:3]


def test_involution():
    for N in range(13):
        assert verify_involution(N).ok


def test_involution_failure_names_the_first_offending_entry(monkeypatch):
    M = build_matrix(3, 1)
    entries = [list(row) for row in M.entries]
    entries[1][2] += 1
    corrupted = matrices.KrawtchoukMatrix(N=3, r=M.r, entries=tuple(map(tuple, entries)))
    monkeypatch.setattr(matrices, "build_matrix", lambda N, r: corrupted)
    rep = verify_involution(3)
    assert rep.cases == 1 and rep.failure_count == 1
    (failure,) = rep.failures
    # entry (0, 2) of the square picks up M[0][1] * M[1][2], the first to move
    assert failure.params == (0, 2)
    assert failure.left == sum(entries[0][k] * entries[k][2] for k in range(4)) == 1
    assert failure.right == 0


def test_sign_symmetries():
    for N in range(13):
        assert verify_sign_symmetries(N).ok


def test_sign_symmetry_spot_values():
    M4 = build_matrix(4, 1)
    assert M4.entry(1, 3) == -2 == -M4.entry(1, 1)
    M3 = build_matrix(3, 1)
    assert M3.entry(3 - 1, 0) == 3 == M3.entry(1, 0)


def test_row1_col01_closed_forms():
    for N in range(13):
        assert closed_form_row1_col01(N).ok


def test_second_column_of_phi4():
    assert [row[1] for row in build_matrix(4, 1).entries] == [1, 2, 0, -2, -1]


def test_binomial_conjugation():
    for N in range(13):
        assert verify_binomial_conjugation(N).ok


def test_binomial_conjugation_spot_values():
    M3 = build_matrix(3, 1)
    assert M3.entry(2, 1) == Fraction(binomial(3, 2), binomial(3, 1)) * M3.entry(1, 2)
    M4 = build_matrix(4, 1)
    assert M4.entry(2, 0) == binomial(4, 2) * M4.entry(0, 2)


def test_binomial_diagonal():
    assert binomial_diagonal(4) == (1, 4, 6, 4, 1)
    assert all(v > 0 for v in binomial_diagonal(9))


# ---------------------------------------------------------------------------
# the (N, r) memo
# ---------------------------------------------------------------------------

def binomial_sum_oracle(N, r):
    """K[n][j] = sum_k C(N-j, n-k) C(j, k) (-r)^k, independent of the builder."""
    return tuple(
        tuple(
            sum((comb(N - j, n - k) * comb(j, k) * (-r) ** k for k in range(min(n, j) + 1)),
                Fraction(0))
            for j in range(N + 1)
        )
        for n in range(N + 1)
    )


def convolution_oracle(N, r):
    """Column j is (1+z)^(N-j) (1-rz)^j, expanded by generic polynomial convolution."""
    def convolve(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                out[i + k] += x * y
        return out

    columns = []
    for j in range(N + 1):
        poly = [Fraction(1)]
        for factor in [[1, 1]] * (N - j) + [[1, -r]] * j:
            poly = convolve(poly, factor)
        columns.append(poly)
    return tuple(tuple(column[n] for column in columns) for n in range(N + 1))


EXACT_R = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(-999, 1000), Fraction(-1001, 1000),
                     Fraction(-1, 1) + Fraction(1, 10**9)]),
)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(min_value=0, max_value=20), r=EXACT_R)
@example(N=20, r=Fraction(1))
def test_build_matches_binomial_sum_oracle(N, r):
    M = build_matrix(N, r)
    assert M.N == N and M.r == r
    assert M.entries == binomial_sum_oracle(N, r)
    assert M.entries == convolution_oracle(N, r)


# ---------------------------------------------------------------------------
# entry types: ints at r = 1, Fractions for every other r
# ---------------------------------------------------------------------------

def entry_types(M):
    return {type(v) for row in M.entries for v in row}


def test_symmetric_entries_are_ints_equal_to_the_oracle():
    for N in range(41):
        M = build_matrix(N, 1)
        assert entry_types(M) == {int}
        assert M.entries == binomial_sum_oracle(N, 1)


@pytest.mark.parametrize("r", [Fraction(0), Fraction(2), Fraction(-1), Fraction(3, 7)])
def test_other_entries_are_fractions(r):
    for N in range(13):
        assert entry_types(build_matrix(N, r)) == {Fraction}
        assert type(build_matrix(N, r).entry(-1, 0)) is Fraction


def test_symmetric_boundary_entry_is_the_int_zero():
    M = build_matrix(6, 1)
    for j in range(7):
        assert type(M.entry(-1, j)) is int and M.entry(-1, j) == 0


def test_symmetric_sweeps_return_only_ints():
    for N in range(1, 11):
        values = []
        for j in range(N + 1):
            values += [v for row in sweep_sum_squares_symmetric(N, j) for v in row]
            if j >= 2:
                values += [v for row in sweep_partial_sum_plain(N, j) for v in row]
            if j < N:
                values += [v for row in sweep_column_sum_relation(N, j) for v in row]
            for r in (1, Fraction(1)):
                values += [v for row in sweep_sum_squares_general(N, r, j) for v in row]
        assert {type(v) for v in values} == {int}


@pytest.mark.parametrize("r", [1, Fraction(1)], ids=["int", "fraction"])
def test_symmetric_pascal_and_recurrence_record_only_ints(monkeypatch, r):
    values = []
    record = IdentityReport.record

    def recording(rep, params, left, right):
        values.extend([left, right])
        record(rep, params, left, right)

    monkeypatch.setattr(IdentityReport, "record", recording)
    for N in range(1, 9):
        assert verify_pascal(N, r).suite == f"pascal N={N} r=1"
        assert verify_recurrence_j(N, r).suite == f"recurrence N={N} r=1"
    assert values and {type(v) for v in values} == {int}
    assert type(build_matrix(3, r).r) is int


def test_repeat_call_returns_the_memoized_matrix():
    M = build_matrix(7, 1)
    assert build_matrix(7, Fraction(1)) is M
    assert build_matrix(7, 2) is not M


def test_memo_is_empty_after_a_command(capsys):
    build_matrix(3, 1)
    assert main(["verify", "--suite", "pascal", "--max-n", "3"]) == 0
    assert matrices._expand.cache_info().currsize == 0


def test_command_clears_the_memo_when_build_matrix_is_wrapped(capsys, monkeypatch):
    # tracers replace build_matrix in every module by a wrapper without cache_clear
    original = matrices.build_matrix
    calls = []

    @functools.wraps(original)
    def traced(N, r):
        calls.append((N, r))
        return original(N, r)

    for name, module in list(sys.modules.items()):
        if name == "krawtchouk" or name.startswith("krawtchouk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, traced)
    assert not hasattr(traced, "cache_clear")
    assert main(["verify", "--suite", "sums", "--max-n", "4"]) == 0
    assert len(calls) > len(set(calls))  # the suite asks for levels again
    assert matrices._expand.cache_info().currsize == 0
