"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line when its criterion holds (run pytest
with -s or check captured output). Time limits are wall-clock budgets for
the whole criterion.
"""
import time
from fractions import Fraction

from krawtchouk.algebra import (
    AlgebraStats,
    Family,
    analyze_family,
    component_consistency,
    degree_via_krawtchouk,
    delta_via_row_squares,
    predicted_stats,
    zeta_via_theorem,
)
from krawtchouk.combinatorics import binomial, catalan
from krawtchouk.identities import (
    catalan_connection_report,
    central_row_value,
    column_square_central_link,
    column_sum_of_squares,
    partial_sum_plain,
    row_sum_of_squares,
    sum_squares_general,
    sum_squares_symmetric,
    super_catalan_link,
)
from krawtchouk.matrices import (
    build_matrix,
    verify_involution,
    verify_pascal,
    verify_recurrence_j,
)
from krawtchouk.zeon import layer, lower_op, op_U, raise_op

R_GRID = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
          Fraction(3, 7), Fraction(-2), Fraction(5)]

ONE = Fraction(1)


def _finish(num: int, started: float, limit_s: float):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s)")


def test_criterion_01_displayed_matrices():
    t0 = time.monotonic()
    phi3 = [[1, 1, 1, 1], [3, 1, -1, -3], [3, -1, -1, 3], [1, -1, 1, -1]]
    phi4 = [
        [1, 1, 1, 1, 1],
        [4, 2, 0, -2, -4],
        [6, 0, -2, 0, 6],
        [4, -2, 0, 2, -4],
        [1, -1, 1, -1, 1],
    ]
    assert [[int(v) for v in row] for row in build_matrix(3, 1).entries] == phi3
    assert [[int(v) for v in row] for row in build_matrix(4, 1).entries] == phi4
    _finish(1, t0, 5)


def test_criterion_02_pascal_relations():
    t0 = time.monotonic()
    for N in range(11):
        for r in R_GRID:
            rep = verify_pascal(N, r)
            assert rep.ok, (N, r, rep.failures[:3])
    _finish(2, t0, 5)


def test_criterion_03_recurrence():
    t0 = time.monotonic()
    for N in range(1, 11):
        for r in R_GRID:
            rep = verify_recurrence_j(N, r)
            assert rep.ok, (N, r, rep.failures[:3])
    _finish(3, t0, 5)


def test_criterion_04_general_sum_of_squares():
    t0 = time.monotonic()
    for N in range(1, 11):
        for r in R_GRID:
            if r == -1:
                continue
            M = build_matrix(N, r)
            M1 = build_matrix(N - 1, r)
            for j in range(N + 1):
                for m in range(N + 1):
                    lhs, rhs = sum_squares_general(N, r, j, m, M, M1)
                    assert lhs == rhs, (N, r, j, m)
    _finish(4, t0, 30)


def test_criterion_05_partial_sums_and_symmetric_squares():
    t0 = time.monotonic()
    for N in range(1, 13):
        M = build_matrix(N, ONE)
        M1 = build_matrix(N - 1, ONE)
        for j in range(N + 1):
            for m in range(N + 1):
                lhs, rhs = sum_squares_symmetric(N, j, m, M, M1)
                assert lhs == rhs, (N, j, m)
                assert (lhs, rhs) == sum_squares_general(N, ONE, j, m, M, M1)
        for j in range(2, N + 1):
            for m in range(N + 1):
                lhs, rhs1, rhs2 = partial_sum_plain(N, j, m, M, M1)
                assert lhs == rhs1 == rhs2, (N, j, m)
    _finish(5, t0, 30)


def test_criterion_06_row_and_column_sums_of_squares():
    t0 = time.monotonic()
    for N in range(13):
        M = build_matrix(N, ONE)
        for j in range(N + 1):
            brute, closed = column_sum_of_squares(N, j, M)
            assert brute == closed, (N, j)
        for i in range(N + 1):
            brute, closed = row_sum_of_squares(N, i, M)
            assert brute == closed, (N, i)
    for N in range(21):
        for j in range(N + 1):
            closed = Fraction(
                binomial(2 * N - 2 * j, N - j) * binomial(2 * j, j), binomial(N, j)
            )
            assert closed.denominator == 1, (N, j)
    _finish(6, t0, 10)


def test_criterion_07_special_values():
    t0 = time.monotonic()
    for N in range(15):
        M = build_matrix(N, ONE)
        m = N // 2
        for j in range(N + 1):
            assert central_row_value(N, j) == M.entry(m, j), (N, j)
    for m in range(1, 11):
        rep = catalan_connection_report(m)
        assert rep.ok, (m, rep.failures[:3])
    for n in range(16):
        for k in range(n + 1):
            lhs, rhs = super_catalan_link(n, k)
            assert lhs == rhs, (n, k)
    for m in range(11):
        for j in range(0, 2 * m + 1, 2):
            lhs, rhs = column_square_central_link(m, j)
            assert lhs == rhs, (m, j)
    _finish(7, t0, 10)


def test_criterion_08_involution():
    t0 = time.monotonic()
    for N in range(13):
        assert verify_involution(N).ok, N
    _finish(8, t0, 5)


def test_criterion_09_zeon_operators():
    t0 = time.monotonic()
    for n in range(1, 9):
        raises = [raise_op(n, i) for i in range(1, n + 1)]
        lowers = [lower_op(n, i) for i in range(1, n + 1)]
        for i in range(n):
            assert lowers[i] == raises[i].transpose()
            assert (raises[i] @ raises[i]).is_zero()
            assert (lowers[i] @ lowers[i]).is_zero()
            for k in range(i + 1, n):
                assert raises[i] @ raises[k] == raises[k] @ raises[i]
                assert lowers[i] @ lowers[k] == lowers[k] @ lowers[i]
        U = op_U(n)
        assert U.is_diagonal()
        diag = U.diagonal()
        assert diag == [n - 2 * layer(I) for I in range(1 << n)]
        for l in range(n + 1):
            assert diag.count(n - 2 * l) == binomial(n, l)
    _finish(9, t0, 10)


def test_criterion_10_algebra_statistics():
    t0 = time.monotonic()
    for n in range(1, 6):
        u = analyze_family(Family.U, n)
        assert u.computed == AlgebraStats(
            d=2 ** n, delta=n + 1, zeta=binomial(2 * n, n), z=n + 1
        ), (n, u.computed)

        t = analyze_family(Family.T_TSTAR, n)
        assert t.computed == AlgebraStats(
            d=2 ** n, delta=binomial(n + 3, 3), zeta=catalan(n), z=1 + n // 2
        ), (n, t.computed)

        tt = analyze_family(Family.TTSTAR_TSTART, n)
        assert tt.computed.d == 2 ** n
        assert tt.computed.delta == tt.predicted.delta, (n, tt.computed)
        assert tt.computed.zeta == tt.predicted.zeta, (n, tt.computed)
        # commutative family: computed center equals the whole algebra,
        # and the divergence from the stated closed form is reported
        assert tt.computed.z == tt.computed.delta, (n, tt.computed)
        if tt.computed.z != tt.predicted.z:
            assert any("stated z differs" in note for note in tt.notes), n
    _finish(10, t0, 190)


def test_criterion_11_derivation_cross_checks():
    t0 = time.monotonic()
    for n in range(1, 11):
        lhs, rhs = degree_via_krawtchouk(n)
        assert lhs == rhs, ("degree", n)
        lhs, rhs = delta_via_row_squares(n)
        assert lhs == rhs, ("delta", n)
        lhs, rhs = zeta_via_theorem(n)
        assert lhs == rhs, ("zeta", n)
    _finish(11, t0, 5)


def test_criterion_12_component_consistency():
    t0 = time.monotonic()
    for n in range(1, 11):
        for fam in (Family.U, Family.T_TSTAR):
            stats, comps = predicted_stats(fam, n)
            assert comps.degree_sum == 2 ** n, (fam, n)
            assert comps.dimension == stats.delta, (fam, n)
            assert comps.centralizer_dim == stats.zeta, (fam, n)
            assert component_consistency(comps, stats).ok, (fam, n)
    _finish(12, t0, 1)
