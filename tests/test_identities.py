"""Tests for the summation theorems and special-value closed forms."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from krawtchouk.combinatorics import binomial, catalan
from krawtchouk.identities import (
    catalan_connection_report,
    central_row_value,
    column_square_central_link,
    column_sum_of_squares,
    column_sum_relation,
    partial_sum_plain,
    row_sum_of_squares,
    sum_squares_general,
    sum_squares_symmetric,
    super_catalan_link,
    sweep_column_sum_relation,
    sweep_partial_sum_plain,
    sweep_sum_squares_general,
    sweep_sum_squares_symmetric,
)
from krawtchouk.matrices import build_matrix

R_SAMPLES = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
             Fraction(3, 7), Fraction(-2)]


# ---------------------------------------------------------------------------
# definition-level oracles: every prefix m re-summed from n = 0, O(m) each
# ---------------------------------------------------------------------------

def _coeff(M, n, j):
    """Entry [n][j], zero-extended above degree N (coefficient of z^n)."""
    return Fraction(0) if n > M.N else M.entry(n, j)


def oracle_general(N, r, j, m):
    M, M1 = build_matrix(N, r), build_matrix(N - 1, r)
    lhs = sum(((N - 2 * n) * M.entry(n, j) ** 2 for n in range(m + 1)), Fraction(0))
    rhs = Fraction(0)
    if N - j != 0:
        rhs += (N - j) * _coeff(M1, m, j) ** 2
    if j != 0:
        rhs += r * j * _coeff(M1, m, j - 1) ** 2
        tail = sum((r * M.entry(n, j - 1) ** 2 + M.entry(n, j) ** 2 for n in range(m + 1)),
                   Fraction(0))
        rhs += Fraction(1 - r, 1 + r) * j * tail
    return lhs, rhs


def oracle_symmetric(N, j, m):
    M, M1 = build_matrix(N, 1), build_matrix(N - 1, 1)
    lhs = sum(((N - 2 * n) * M.entry(n, j) ** 2 for n in range(m + 1)), Fraction(0))
    rhs = Fraction(0)
    if N - j != 0:
        rhs += (N - j) * _coeff(M1, m, j) ** 2
    if j != 0:
        rhs += j * _coeff(M1, m, j - 1) ** 2
    return lhs, rhs


def oracle_plain(N, j, m):
    M, M1 = build_matrix(N, 1), build_matrix(N - 1, 1)
    lhs = sum(((N - 2 * n) * M.entry(n, j) for n in range(m + 1)), Fraction(0))
    rhs1 = j * _coeff(M1, m, j - 2)
    if N - j != 0:
        rhs1 += (N - j) * _coeff(M1, m, j)
    rhs2 = (N - 1 - 2 * m) * _coeff(M1, m, j - 1) + _coeff(M1, m, j - 2)
    return lhs, rhs1, rhs2


def oracle_column_sum(N, j, m):
    M, M1 = build_matrix(N, 1), build_matrix(N - 1, 1)
    return M1.entry(m, j), sum((M.entry(n, j + 1) for n in range(m + 1)), Fraction(0))


def _near_minus_one(k):
    return st.sampled_from([-1, 1]).map(lambda s: Fraction(-1) + Fraction(s, k))


exact_r = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(-1, 2)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=60).filter(lambda r: r != -1),
    st.integers(2, 10**6).flatmap(_near_minus_one),
)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 16), r=exact_r)
def test_general_sweep_equals_the_definition_level_sums(N, r):
    for j in range(N + 1):
        sweep = sweep_sum_squares_general(N, r, j)
        assert sweep == [oracle_general(N, r, j, m) for m in range(N + 1)], (N, r, j)
        assert all(lhs == rhs for lhs, rhs in sweep)


def test_symmetric_sweeps_equal_the_definition_level_sums():
    for N in range(1, 17):
        for j in range(N + 1):
            assert sweep_sum_squares_symmetric(N, j) == [
                oracle_symmetric(N, j, m) for m in range(N + 1)], (N, j)
        for j in range(2, N + 1):
            assert sweep_partial_sum_plain(N, j) == [
                oracle_plain(N, j, m) for m in range(N + 1)], (N, j)
        for j in range(N):
            assert sweep_column_sum_relation(N, j) == [
                oracle_column_sum(N, j, m) for m in range(N)], (N, j)


def test_prefix_functions_read_the_sweep():
    N, r = 6, Fraction(-5, 9)
    for j in range(N + 1):
        general = sweep_sum_squares_general(N, r, j)
        symmetric = sweep_sum_squares_symmetric(N, j)
        for m in range(N + 1):
            assert sum_squares_general(N, r, j, m) == general[m]
            assert sum_squares_symmetric(N, j, m) == symmetric[m]


@pytest.mark.parametrize("call", [
    lambda: sum_squares_general(3, 2, 1, -1),
    lambda: sum_squares_general(3, 2, 1, 4),
    lambda: sum_squares_symmetric(3, 4, 0),
    lambda: partial_sum_plain(4, 2, -1),
    lambda: column_sum_relation(3, 0, 3),
    lambda: column_sum_relation(3, 3, 0),
], ids=["general-negative-m", "general-m-above-N", "symmetric-j", "plain-m",
        "column-sum-m", "column-sum-j"])
def test_prefix_outside_the_sweep_is_a_parameter_error(call):
    with pytest.raises(ValueError):
        call()


def test_sum_squares_general_hand_cases():
    lhs, rhs = sum_squares_general(2, 2, 1, 0)
    assert lhs == rhs == 2
    lhs, rhs = sum_squares_general(1, Fraction(3, 7), 0, 0)
    assert lhs == rhs == 1
    lhs, rhs = sum_squares_general(4, 1, 1, 1)
    assert lhs == rhs == 12


def test_sum_squares_general_rejects_r_minus_one():
    with pytest.raises(ZeroDivisionError):
        sum_squares_general(3, -1, 1, 1)
    with pytest.raises(ZeroDivisionError):
        sweep_sum_squares_general(3, Fraction(-1), 0)


@pytest.mark.parametrize("r", R_SAMPLES)
def test_sum_squares_general_grid(r):
    for N in range(1, 11):
        M = build_matrix(N, r)
        M1 = build_matrix(N - 1, r)
        for j in range(N + 1):
            for m in range(N + 1):
                lhs, rhs = sum_squares_general(N, r, j, m, M, M1)
                assert lhs == rhs, (N, r, j, m)


def test_sum_squares_symmetric_hand_cases():
    lhs, rhs = sum_squares_symmetric(4, 1, 1)
    assert lhs == rhs == 12
    lhs, rhs = sum_squares_symmetric(3, 2, 2)
    assert lhs == rhs
    for N in range(1, 8):
        for m in range(N):
            lhs, rhs = sum_squares_symmetric(N, 0, m)
            assert rhs == N * binomial(N - 1, m) ** 2
            assert lhs == rhs


def test_sum_squares_symmetric_grid_and_specialization():
    for N in range(1, 13):
        M = build_matrix(N, Fraction(1))
        M1 = build_matrix(N - 1, Fraction(1))
        for j in range(N + 1):
            for m in range(N + 1):
                lhs, rhs = sum_squares_symmetric(N, j, m, M, M1)
                assert lhs == rhs, (N, j, m)
                g_lhs, g_rhs = sum_squares_general(N, Fraction(1), j, m, M, M1)
                assert (lhs, rhs) == (g_lhs, g_rhs)


def test_full_column_weighted_square_sum_vanishes():
    for N in range(1, 13):
        M = build_matrix(N, Fraction(1))
        M1 = build_matrix(N - 1, Fraction(1))
        for j in range(N + 1):
            lhs, rhs = sum_squares_symmetric(N, j, N, M, M1)
            assert lhs == 0 and rhs == 0


def test_partial_sum_plain_hand_cases():
    assert partial_sum_plain(4, 2, 1) == (4, 4, 4)
    lhs, rhs1, rhs2 = partial_sum_plain(2, 2, 0)
    assert lhs == rhs1 == rhs2 == 2
    lhs, rhs1, rhs2 = partial_sum_plain(6, 3, 2)
    assert lhs == rhs1 == rhs2


def test_partial_sum_plain_rejects_small_j():
    with pytest.raises(ValueError):
        partial_sum_plain(4, 1, 0)


def test_partial_sum_plain_grid():
    for N in range(2, 13):
        M = build_matrix(N, Fraction(1))
        M1 = build_matrix(N - 1, Fraction(1))
        for j in range(2, N + 1):
            for m in range(N + 1):
                lhs, rhs1, rhs2 = partial_sum_plain(N, j, m, M, M1)
                assert lhs == rhs1 == rhs2, (N, j, m)


def test_column_sum_relation():
    lhs, rhs = column_sum_relation(4, 1, 2)
    assert lhs == rhs == -1
    for N in range(1, 10):
        for j in range(N):
            lhs, rhs = column_sum_relation(N, j, 0)
            assert lhs == rhs == 1
    lhs, rhs = column_sum_relation(5, 2, 3)
    assert lhs == rhs
    for N in range(1, 11):
        for j in range(N):
            for m in range(N):
                lhs, rhs = column_sum_relation(N, j, m)
                assert lhs == rhs, (N, j, m)


def test_column_sum_of_squares():
    brute, closed = column_sum_of_squares(3, 1)
    assert brute == closed == 4
    brute, closed = column_sum_of_squares(4, 2)
    assert brute == closed == 6
    for N in range(13):
        M = build_matrix(N, Fraction(1))
        for j in range(N + 1):
            brute, closed = column_sum_of_squares(N, j, M)
            assert brute == closed, (N, j)
        brute, closed = column_sum_of_squares(N, 0, M)
        assert closed == binomial(2 * N, N)


def test_column_closed_form_is_integral():
    # pure arithmetic, no matrix construction
    for N in range(21):
        for j in range(N + 1):
            closed = Fraction(
                binomial(2 * N - 2 * j, N - j) * binomial(2 * j, j), binomial(N, j)
            )
            assert closed.denominator == 1, (N, j)


def test_row_sum_of_squares():
    brute, closed = row_sum_of_squares(4, 1)
    assert brute == closed == 40
    brute, closed = row_sum_of_squares(3, 2)
    assert brute == closed == 20
    for N in range(13):
        M = build_matrix(N, Fraction(1))
        for i in range(N + 1):
            brute, closed = row_sum_of_squares(N, i, M)
            assert brute == closed, (N, i)
        assert row_sum_of_squares(N, 0, M)[1] == N + 1


def test_central_row_value_examples():
    assert central_row_value(6, 2) == -4
    assert central_row_value(4, 2) == -2
    for m in range(1, 6):
        for j in range(1, 2 * m + 1, 2):
            assert central_row_value(2 * m, j) == 0


def test_central_row_value_matches_matrix():
    for N in range(15):
        M = build_matrix(N, Fraction(1))
        m = N // 2
        for j in range(N + 1):
            assert central_row_value(N, j) == M.entry(m, j), (N, j)


def test_column_square_central_link():
    lhs, rhs = column_square_central_link(3, 2)
    assert lhs == rhs == 4
    for m in range(11):
        lhs, rhs = column_square_central_link(m, 0)
        assert lhs == rhs == binomial(2 * m, m)
    lhs, rhs = column_square_central_link(4, 4)
    assert lhs == rhs
    for m in range(11):
        for j in range(0, 2 * m + 1, 2):
            lhs, rhs = column_square_central_link(m, j)
            assert lhs == rhs, (m, j)


def test_column_square_central_link_rejects_odd_j():
    with pytest.raises(ValueError):
        column_square_central_link(3, 1)


def test_super_catalan_link():
    lhs, rhs = super_catalan_link(3, 1)
    assert lhs == rhs == 4
    for n in range(16):
        lhs, rhs = super_catalan_link(n, 0)
        assert lhs == rhs == binomial(2 * n, n)
        for k in range(n + 1):
            lhs, rhs = super_catalan_link(n, k)
            assert lhs == rhs, (n, k)


def test_catalan_connection_spot_values():
    M4 = build_matrix(4, Fraction(1))
    assert M4.entry(1, 1) == 2 == catalan(2)
    assert M4.entry(3, 1) == -2
    assert M4.entry(2, 2) == -2 == -2 * catalan(1)
    M5 = build_matrix(5, Fraction(1))
    assert M5.entry(2, 1) == 2 == catalan(2)


def test_catalan_connection_report():
    for m in range(1, 11):
        rep = catalan_connection_report(m)
        assert rep.ok, (m, rep.failures[:3])
        assert rep.cases == 14  # seven evaluations plus mirrors


def test_catalan_connection_rejects_m_zero():
    with pytest.raises(ValueError):
        catalan_connection_report(0)
