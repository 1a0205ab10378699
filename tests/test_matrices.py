"""Tests for Krawtchouk matrix construction and structural identities."""
import functools
import json
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from krawtchouk import cli, matrices
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
# proofs for every r: each entry is a polynomial in r over the integers, and
# each identity a polynomial identity, so one check in Z[r] covers every r
# ---------------------------------------------------------------------------

def zr(*terms):
    """The sum of c * r^s * p over the (c, s, p) triples, where p is a polynomial
    in r given by its int coefficients, low to high; trailing zeros trimmed."""
    out = [0] * max(s + len(p) for _, s, p in terms)
    for c, s, p in terms:
        for k, v in enumerate(p):
            out[s + k] += c * v
    while out and out[-1] == 0:
        out.pop()
    return out


def zr_mul(a, b):
    """The product of two polynomials in r, as zr gives them; [] is 0."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


@functools.lru_cache(maxsize=None)
def zr_level(N):
    """Level N in Z[r], rows [n][j]. Column 0 is the binomials C(N, n); column
    j + 1 is column j times (1 - rz), divided by (1 + z) with remainder 0."""
    column = [zr((comb(N, n), 0, [1])) for n in range(N + 1)]
    columns = [column]
    for _ in range(N):
        times = [zr((1, 0, a), (-1, 1, b)) for a, b in zip(column + [[]], [[]] + column)]
        column = []
        for t in times[:-1]:
            column.append(zr((1, 0, t), (-1, 0, column[-1] if column else [])))
        assert zr((1, 0, times[-1]), (-1, 0, column[-1])) == [], (N, len(columns))
        columns.append(column)
    return [[col[n] for col in columns] for n in range(N + 1)]


def test_pascal_and_recurrence_hold_in_z_r_up_to_level_40():
    for N in range(41):
        K, K1 = zr_level(N), zr_level(N + 1)
        rows = [[[]] * (N + 1)] + K + [[[]] * (N + 1)]  # rows n - 1 and n, zero outside
        for n in range(N + 2):
            prev, row = rows[n], rows[n + 1]
            for j in range(N + 1):
                assert zr((1, 0, row[j]), (1, 0, prev[j])) == K1[n][j], ("i", N, n, j)
                assert zr((1, 0, row[j]), (-1, 1, prev[j])) == K1[n][j + 1], ("ii", N, n, j)
        for n, row in enumerate(K):
            for j in range(N + 1):
                # (N - n(1+r) + (r-1) j) K[n][j] = (N-j) K[n][j+1] + r j K[n][j-1]
                lhs = zr((N - n - j, 0, row[j]), (j - n, 1, row[j]))
                rhs = zr((N - j, 0, row[j + 1] if j < N else []),
                         (j, 1, row[j - 1] if j else []))
                assert lhs == rhs, ("recurrence", N, n, j)


def test_general_sum_of_squares_holds_in_z_r_up_to_level_30():
    # (1+r) sum_{n<=m} (N-2n) K[n][j]^2 = (1+r) [(N-j) K'[m][j]^2 + r j K'[m][j-1]^2]
    #     + (1-r) j sum_{n<=m} (r K[n][j-1]^2 + K[n][j]^2), K' level N-1 and 0 in row N
    for N in range(1, 31):
        sq = [[zr_mul(v, v) for v in row] for row in zr_level(N)]
        sq1 = [[zr_mul(v, v) for v in row] for row in zr_level(N - 1)] + [[[]] * N]
        for j in range(N + 1):
            lhs = tail = []
            for m in range(N + 1):
                lhs = zr((1, 0, lhs), (N - 2 * m, 0, sq[m][j]))
                right = zr((j, 1, sq1[m][j - 1])) if j else []
                if j < N:
                    right = zr((1, 0, right), (N - j, 0, sq1[m][j]))
                if j:
                    tail = zr((1, 0, tail), (1, 1, sq[m][j - 1]), (1, 0, sq[m][j]))
                assert zr((1, 0, lhs), (1, 1, lhs)) == zr(
                    (1, 0, right), (1, 1, right), (j, 0, tail), (-j, 1, tail)), (N, j, m)


def test_z_r_levels_evaluate_to_the_built_matrices():
    for N in range(13):
        for r in R_SAMPLES:
            values = tuple(tuple(sum(c * r**k for k, c in enumerate(entry)) for entry in row)
                           for row in zr_level(N))
            assert build_matrix(N, r).entries == values, (N, r)


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


# ---------------------------------------------------------------------------
# the column-scaled integer view: column j times q^j, r = p/q
# ---------------------------------------------------------------------------

SCALED_R = st.one_of(EXACT_R, st.integers(min_value=-9, max_value=9).map(Fraction))


@settings(max_examples=60, deadline=None)
@given(N=st.integers(min_value=0, max_value=20), r=SCALED_R)
@example(N=20, r=Fraction(1))
@example(N=12, r=Fraction(0))
def test_scaled_entries_are_ints_equal_to_q_power_times_the_oracle(N, r):
    expected = binomial_sum_oracle(N, r)
    scaled = build_matrix(N, r).scaled
    assert {type(v) for row in scaled for v in row} == {int}
    assert scaled == tuple(tuple(r.denominator ** j * v for j, v in enumerate(row))
                           for row in expected)


def with_scaled(M, n, j, delta):
    """A copy of M whose scaled entry [n][j] is shifted by delta (the memo keeps M)."""
    copy = matrices.KrawtchoukMatrix(N=M.N, r=M.r, entries=M.entries)
    rows = [list(row) for row in M.scaled]
    rows[n][j] += delta
    copy.__dict__["scaled"] = tuple(map(tuple, rows))
    return copy


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.integers(min_value=0, max_value=12), r=SCALED_R,
       delta=st.integers(min_value=-5, max_value=5).filter(bool))
def test_a_corrupted_scaled_entry_is_reported(data, N, r, delta):
    n = data.draw(st.integers(min_value=0, max_value=N), label="n")
    j = data.draw(st.integers(min_value=0, max_value=N), label="j")
    original = matrices.build_matrix
    corrupted = with_scaled(original(N, r), n, j, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "build_matrix",
                   lambda N_, r_: corrupted if (N_, r_) == (N, r) else original(N_, r_))
        pascal = verify_pascal(N, r)
        recurrence = verify_recurrence_j(N, r) if N >= 1 else None
    # entry [n][j] enters Pascal (i) at (n, j) and (n+1, j) with coefficient 1, and
    # Pascal (ii) at (n, j) with coefficient q and at (n+1, j) with coefficient -p
    expected = {("i", n, j), ("ii", n, j)}
    if n < N:
        expected |= {("i", n + 1, j)} | ({("ii", n + 1, j)} if r != 0 else set())
    assert {f.params for f in pascal.failures} == expected
    if recurrence is not None:
        # it enters the recurrence at (n, j-1), (n, j) and (n, j+1); every one of
        # those coefficients is 0 only for entry [N][0] at r = 0
        assert {f.params for f in recurrence.failures} <= {(n, j - 1), (n, j), (n, j + 1)}
        assert recurrence.ok == (r == 0 and (n, j) == (N, 0))


# ---------------------------------------------------------------------------
# failure reports stay in the matrix's own units
# ---------------------------------------------------------------------------

R37 = Fraction(3, 7)


def corrupt(monkeypatch, level, r, cells):
    """Make build_matrix, in matrices and in the CLI, return the matrix at (level, r)
    with each entry [n][j] in cells raised by one."""
    original = matrices.build_matrix
    M = original(level, r)
    entries = [list(row) for row in M.entries]
    for n, j in cells:
        entries[n][j] += 1
    corrupted = matrices.KrawtchoukMatrix(N=level, r=M.r, entries=tuple(map(tuple, entries)))

    def build(N, s):
        return corrupted if (N, s) == (level, r) else original(N, s)

    monkeypatch.setattr(matrices, "build_matrix", build)
    monkeypatch.setattr(cli, "build_matrix", build)
    return M


@pytest.fixture
def corrupted_level_3(monkeypatch):
    """Level 3 at r = 3/7 with entry [1][2] raised from 1/7 to 8/7."""
    assert corrupt(monkeypatch, 3, R37, [(1, 2)]).entries[1][2] == Fraction(1, 7)


@pytest.fixture
def corrupted_symmetric_level_4(monkeypatch):
    """Level 4 at r = 1 with entries [1][1] and [1][2] raised from 2 to 3 and 0 to 1."""
    M = corrupt(monkeypatch, 4, 1, [(1, 1), (1, 2)])
    assert (M.entries[1][1], M.entries[1][2]) == (2, 0)


# Worked by hand from the columns (1+z)^(3-j) (1-3z/7)^j at level 3 and
# (1+z)^(4-j) (1-3z/7)^j at level 4, with K[1][2] = 8/7 in place of 1/7.
PASCAL_3_FAILURES = [
    # (i) K[n][j] + K[n-1][j] = K'[n][j]
    (("i", 1, 2), Fraction(8, 7) + 1, Fraction(8, 7)),
    # (ii) K[n][j] - r K[n-1][j] = K'[n][j+1]
    (("ii", 1, 2), Fraction(8, 7) - R37 * 1, Fraction(-2, 7)),
    (("i", 2, 2), Fraction(-33, 49) + Fraction(8, 7), Fraction(-26, 49)),
    (("ii", 2, 2), Fraction(-33, 49) - R37 * Fraction(8, 7), Fraction(-36, 49)),
]
# (3 - n(1+r) + (r-1) j) K[n][j] = (3-j) K[n][j+1] + r j K[n][j-1] at n = 1
RECURRENCE_3_FAILURES = [
    ((1, 1), Fraction(1) * Fraction(11, 7), 2 * Fraction(8, 7) + R37 * 1 * 3),
    ((1, 2), Fraction(3, 7) * Fraction(8, 7), Fraction(-9, 7) + R37 * 2 * Fraction(11, 7)),
    ((1, 3), Fraction(-1, 7) * Fraction(-9, 7), R37 * 3 * Fraction(8, 7)),
]


# The general sum of squares at N = 3, column j and prefix m:
#   sum_{n<=m} (3-2n) K[n][j]^2
#     = (3-j) K2[m][j]^2 + r j K2[m][j-1]^2 + (1-r)/(1+r) j sum_{n<=m} (r K[n][j-1]^2 + K[n][j]^2)
# with (1-r)/(1+r) = 2/5, level 3 columns 1..3 (1, 11/7, 1/7, -3/7), (1, 8/7, -33/49, 9/49)
# and (1, -9/7, 27/49, -27/343), level 2 columns 1, 2 (1, 4/7, -3/7), (1, -6/7, 9/49) and
# row 3 of level 2 zero. Only columns j = 2 and 3 read K[1][2], from m = 1 on.
THM_SQSUM_3_FAILURES = [
    (("thm-sqsum", R37, 2, 1), 3 + Fraction(8, 7) ** 2,
     Fraction(-6, 7) ** 2 + R37 * 2 * Fraction(4, 7) ** 2
     + Fraction(2, 5) * 2 * (R37 + 1 + R37 * Fraction(11, 7) ** 2 + Fraction(8, 7) ** 2)),
    (("thm-sqsum", R37, 2, 2), Fraction(9250, 2401), Fraction(43163, 12005)),
    (("thm-sqsum", R37, 2, 3), Fraction(9007, 2401), Fraction(41948, 12005)),
    (("thm-sqsum", R37, 3, 1), 3 + Fraction(-9, 7) ** 2,
     R37 * 3 * Fraction(-6, 7) ** 2
     + Fraction(2, 5) * 3 * (R37 + 1 + R37 * Fraction(8, 7) ** 2 + Fraction(-9, 7) ** 2)),
    (("thm-sqsum", R37, 3, 2), Fraction(10443, 2401), Fraction(60153, 12005)),
    (("thm-sqsum", R37, 3, 3), Fraction(509520, 117649), Fraction(2936562, 588245)),
]
# Level 4 at r = 1 has rows 1 and 2 (4, 2, 0, -2, -4) and (6, 0, -2, 0, 6); with [1][1] = 3
# and [1][2] = 1, and B = (1, 4, 6, 4, 1). closed_form_row1_col01(3) reads column 1 of
# level 4: K4[n][1] = C(3, n) - C(3, n-1) = C(3, n) (4-2n) / (4-n), 2 at n = 1.
ROWS_COLS_3_FAILURES = [
    (("col1-diff", 1), 3, 3 - 1),
    (("col1-quotient", 1), 3, Fraction(3 * 2, 3)),
]
# Phi B symmetric, and Phi[j][i] = B[j] / B[i] Phi[i][j]
CONJUGATION_4_FAILURES = [
    (("PhiB-symm", 1, 2), 1 * 6, 0 * 4),
    (("entrywise", 1, 2), 0, Fraction(6, 4) * 1),
    (("PhiB-symm", 2, 1), 0 * 4, 1 * 6),
    (("entrywise", 2, 1), 1, Fraction(4, 6) * 0),
]


def failure_triples(rep):
    return [(f.params, f.left, f.right) for f in rep.failures]


def test_corrupted_entry_failures_read_as_rationals(corrupted_level_3,
                                                   corrupted_symmetric_level_4):
    pascal = verify_pascal(3, R37)
    assert pascal.failure_count == 4 and failure_triples(pascal) == PASCAL_3_FAILURES
    assert [f.left for f in pascal.failures] == [
        Fraction(15, 7), Fraction(5, 7), Fraction(23, 49), Fraction(-57, 49)]
    recurrence = verify_recurrence_j(3, R37)
    assert recurrence.failure_count == 3
    assert failure_triples(recurrence) == RECURRENCE_3_FAILURES
    assert [(f.left, f.right) for f in recurrence.failures] == [
        (Fraction(11, 7), Fraction(25, 7)), (Fraction(24, 49), Fraction(3, 49)),
        (Fraction(9, 49), Fraction(72, 49))]
    assert all(type(v) is Fraction for f in pascal.failures + recurrence.failures
               for v in (f.left, f.right))
    sums = cli._t_sums(3, (R37,))
    assert sums.failure_count == 6 and failure_triples(sums) == THM_SQSUM_3_FAILURES
    assert [(f.left, f.right) for f in sums.failures[::3]] == [
        (Fraction(211, 49), Fraction(992, 245)), (Fraction(228, 49), Fraction(186, 35))]
    assert all(type(v) is Fraction for f in sums.failures for v in (f.left, f.right))
    rows_cols = closed_form_row1_col01(3)
    assert rows_cols.failure_count == 2 and failure_triples(rows_cols) == ROWS_COLS_3_FAILURES
    conjugation = verify_binomial_conjugation(4)
    assert conjugation.failure_count == 4
    assert failure_triples(conjugation) == CONJUGATION_4_FAILURES
    assert conjugation.failures[1].right == Fraction(3, 2)


def test_corrupted_entry_failures_print_as_rationals(corrupted_level_3,
                                                    corrupted_symmetric_level_4, capsys):
    argv = ["verify", "--suite", "pascal", "--suite", "recurrence", "--max-n", "3",
            "--r", "3/7"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert ("pascal N=3 r=3/7: 32 cases, FAIL (4)\n"
            "  mismatch (i, 1, 2): 15/7 != 8/7\n"
            "  mismatch (ii, 1, 2): 5/7 != -2/7\n"
            "  mismatch (i, 2, 2): 23/49 != -26/49\n"
            "  mismatch (ii, 2, 2): -57/49 != -36/49\n") in out
    # at level 2 the corrupted entry is on the right: K2[1][2] + K2[0][2] = 1/7
    assert ("pascal N=2 r=3/7: 18 cases, FAIL (2)\n"
            "  mismatch (ii, 1, 1): 1/7 != 8/7\n"
            "  mismatch (i, 1, 2): 1/7 != 8/7\n") in out
    assert ("recurrence N=3 r=3/7: 16 cases, FAIL (3)\n"
            "  mismatch (1, 1): 11/7 != 25/7\n"
            "  mismatch (1, 2): 24/49 != 3/49\n"
            "  mismatch (1, 3): 9/49 != 72/49\n") in out
    assert main(argv + ["--format", "json"]) == 1
    suites = {s["suite"]: s["failures"] for s in json.loads(capsys.readouterr().out)["suites"]}
    assert suites["pascal N=3 r=3/7"][1] == {"params": ["ii", "1", "2"],
                                             "left": "5/7", "right": "-2/7"}
    assert suites["recurrence N=3 r=3/7"][2] == {"params": ["1", "3"],
                                                 "left": "9/49", "right": "72/49"}
    argv = ["verify", "--suite", "sums", "--suite", "rows-cols", "--suite", "conjugation",
            "--max-n", "4", "--r", "3/7"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert ("sums N=3: 85 cases, FAIL (6)\n"
            "  mismatch (thm-sqsum, 3/7, 2, 1): 211/49 != 992/245\n"
            "  mismatch (thm-sqsum, 3/7, 2, 2): 9250/2401 != 43163/12005\n"
            "  mismatch (thm-sqsum, 3/7, 2, 3): 9007/2401 != 41948/12005\n"
            "  mismatch (thm-sqsum, 3/7, 3, 1): 228/49 != 186/35\n"
            "  mismatch (thm-sqsum, 3/7, 3, 2): 10443/2401 != 60153/12005\n") in out
    assert ("rows-cols N=3: 17 cases, FAIL (2)\n"
            "  mismatch (col1-diff, 1): 3 != 2\n"
            "  mismatch (col1-quotient, 1): 3 != 2\n") in out
    assert ("conjugation N=4: 50 cases, FAIL (4)\n"
            "  mismatch (PhiB-symm, 1, 2): 6 != 0\n"
            "  mismatch (entrywise, 1, 2): 0 != 3/2\n"
            "  mismatch (PhiB-symm, 2, 1): 0 != 6\n"
            "  mismatch (entrywise, 2, 1): 1 != 0\n") in out
    assert main(argv + ["--format", "json"]) == 1
    suites = {s["suite"]: s["failures"] for s in json.loads(capsys.readouterr().out)["suites"]}
    assert suites["sums N=3"][5] == {"params": ["thm-sqsum", "3/7", "3", "3"],
                                     "left": "509520/117649", "right": "2936562/588245"}
    assert suites["rows-cols N=3"][1] == {"params": ["col1-quotient", "1"],
                                          "left": "3", "right": "2"}
    assert suites["conjugation N=4"][1] == {"params": ["entrywise", "1", "2"],
                                            "left": "0", "right": "3/2"}
