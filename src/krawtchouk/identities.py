"""Summation theorems and special-value closed forms for Krawtchouk matrices.

All checks compare exact rationals; there are no tolerances. Where a term
carries an explicitly zero coefficient (factor j = 0 or N-j = 0), the term
is dropped before its matrix index is resolved. A degree index above the
matrix size reads as 0: it asks for a coefficient beyond the polynomial's
degree.
"""
from __future__ import annotations

from fractions import Fraction

from .combinatorics import binomial, catalan, super_catalan
from .matrices import KrawtchoukMatrix, build_matrix
from .report import IdentityReport

ONE = Fraction(1)


def _coeff(M: KrawtchoukMatrix, n: int, j: int) -> Fraction:
    """Entry [n][j], zero-extended above degree N (coefficient of z^n)."""
    if n > M.N:
        return Fraction(0)
    return M.entry(n, j)


def sum_squares_general(N: int, r, j: int, m: int,
                        M: KrawtchoukMatrix | None = None,
                        M1: KrawtchoukMatrix | None = None) -> tuple[Fraction, Fraction]:
    """Weighted partial sum of squares along column j, general parameter r.

    Returns (lhs, rhs) of the identity

        sum_{n=0}^m (N-2n) phi[n][j]^2
            = (N-j) phi'[m][j]^2 + r j phi'[m][j-1]^2
              + (1-r)/(1+r) * j * sum_{n=0}^m (r phi[n][j-1]^2 + phi[n][j]^2)

    where phi is the level-N matrix and phi' the level-(N-1) matrix.
    Prebuilt matrices may be passed to amortize sweeps.
    """
    r = Fraction(r)
    if r == -1:
        raise ZeroDivisionError("the factor (1-r)/(1+r) is undefined at r = -1")
    if N < 1 or not 0 <= j <= N or not 0 <= m <= N:
        raise ValueError(f"bad parameters N={N} j={j} m={m}")
    if M is None:
        M = build_matrix(N, r)
    if M1 is None:
        M1 = build_matrix(N - 1, r)
    lhs = sum(((N - 2 * n) * M.entry(n, j) ** 2 for n in range(m + 1)), Fraction(0))
    rhs = Fraction(0)
    if N - j != 0:
        rhs += (N - j) * _coeff(M1, m, j) ** 2
    if j != 0:
        rhs += r * j * _coeff(M1, m, j - 1) ** 2
        tail = sum(
            (r * M.entry(n, j - 1) ** 2 + M.entry(n, j) ** 2 for n in range(m + 1)),
            Fraction(0),
        )
        rhs += Fraction(1 - r, 1 + r) * j * tail
    return lhs, rhs


def sum_squares_symmetric(N: int, j: int, m: int,
                          M: KrawtchoukMatrix | None = None,
                          M1: KrawtchoukMatrix | None = None) -> tuple[Fraction, Fraction]:
    """Symmetric-case (r = 1) weighted partial sum of squares along column j."""
    if N < 1 or not 0 <= j <= N or not 0 <= m <= N:
        raise ValueError(f"bad parameters N={N} j={j} m={m}")
    if M is None:
        M = build_matrix(N, ONE)
    if M1 is None:
        M1 = build_matrix(N - 1, ONE)
    lhs = sum(((N - 2 * n) * M.entry(n, j) ** 2 for n in range(m + 1)), Fraction(0))
    rhs = Fraction(0)
    if N - j != 0:
        rhs += (N - j) * _coeff(M1, m, j) ** 2
    if j != 0:
        rhs += j * _coeff(M1, m, j - 1) ** 2
    return lhs, rhs


def partial_sum_plain(N: int, j: int, m: int,
                      M: KrawtchoukMatrix | None = None,
                      M1: KrawtchoukMatrix | None = None
                      ) -> tuple[Fraction, Fraction, Fraction]:
    """Weighted partial sum along column j without squares, r = 1, j >= 2.

    Returns (lhs, rhs1, rhs2); all three are equal.
    """
    if j < 2:
        raise ValueError(f"partial sums require j >= 2, got j={j}")
    if N < 1 or j > N or not 0 <= m <= N:
        raise ValueError(f"bad parameters N={N} j={j} m={m}")
    if M is None:
        M = build_matrix(N, ONE)
    if M1 is None:
        M1 = build_matrix(N - 1, ONE)
    lhs = sum(((N - 2 * n) * M.entry(n, j) for n in range(m + 1)), Fraction(0))
    rhs1 = j * _coeff(M1, m, j - 2)
    if N - j != 0:
        rhs1 += (N - j) * _coeff(M1, m, j)
    rhs2 = (N - 1 - 2 * m) * _coeff(M1, m, j - 1) + _coeff(M1, m, j - 2)
    return lhs, rhs1, rhs2


def column_sum_relation(N: int, j: int, m: int,
                        M: KrawtchoukMatrix | None = None,
                        M1: KrawtchoukMatrix | None = None) -> tuple[Fraction, Fraction]:
    """Phi^(N-1)[m][j] as the partial column sum of column j+1 at level N."""
    if N < 1 or not 0 <= j <= N - 1 or not 0 <= m <= N - 1:
        raise ValueError(f"bad parameters N={N} j={j} m={m}")
    if M is None:
        M = build_matrix(N, ONE)
    if M1 is None:
        M1 = build_matrix(N - 1, ONE)
    lhs = M1.entry(m, j)
    rhs = sum((M.entry(n, j + 1) for n in range(m + 1)), Fraction(0))
    return lhs, rhs


def column_sum_of_squares(N: int, j: int,
                          M: KrawtchoukMatrix | None = None) -> tuple[Fraction, Fraction]:
    """Full sum of squares down column j versus its binomial closed form."""
    if not 0 <= j <= N:
        raise ValueError(f"bad parameters N={N} j={j}")
    if M is None:
        M = build_matrix(N, ONE)
    brute = sum((M.entry(i, j) ** 2 for i in range(N + 1)), Fraction(0))
    closed = Fraction(binomial(2 * N - 2 * j, N - j) * binomial(2 * j, j), binomial(N, j))
    return brute, closed


def row_sum_of_squares(N: int, i: int,
                       M: KrawtchoukMatrix | None = None) -> tuple[Fraction, Fraction]:
    """Full sum of squares along row i versus its binomial-sum closed form."""
    if not 0 <= i <= N:
        raise ValueError(f"bad parameters N={N} i={i}")
    if M is None:
        M = build_matrix(N, ONE)
    brute = sum((M.entry(i, j) ** 2 for j in range(N + 1)), Fraction(0))
    # terms with 2k > N carry the zero factor C(N+1, 2k+1) and are dropped
    closed = Fraction(
        sum(
            binomial(N + 1, 2 * k + 1) * binomial(2 * k, k) * binomial(N - 2 * k, i - k)
            for k in range(min(i, N // 2) + 1)
        )
    )
    return brute, closed


def central_row_value(N: int, j: int) -> Fraction:
    """Closed form for the middle-row entry Phi^N[m][j], m = floor(N/2)."""
    if N < 0 or not 0 <= j <= N:
        raise ValueError(f"bad parameters N={N} j={j}")
    m = N // 2
    if N % 2 == 0:
        if j % 2 == 1:
            return Fraction(0)
        k = j // 2
        return Fraction(
            binomial(m, k) * (-1) ** k * binomial(2 * m, m), binomial(2 * m, j)
        )
    k = j // 2
    return Fraction(
        binomial(m, k) * (-1) ** k * binomial(2 * m + 1, m), binomial(2 * m + 1, j)
    )


def column_square_central_link(m: int, j: int) -> tuple[Fraction, Fraction]:
    """Sum of squares of column j/2 at level m versus the central entry at level 2m."""
    if j % 2 != 0:
        raise ValueError(f"the link requires even j, got j={j}")
    if m < 0 or not 0 <= j // 2 <= m:
        raise ValueError(f"bad parameters m={m} j={j}")
    M = build_matrix(m, ONE)
    lhs = sum((M.entry(i, j // 2) ** 2 for i in range(m + 1)), Fraction(0))
    rhs = (-1) ** (j // 2) * build_matrix(2 * m, ONE).entry(m, j)
    return lhs, rhs


def super_catalan_link(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Binomial-quotient form of the Super Catalan number versus the factorial form."""
    if not 0 <= k <= n:
        raise ValueError(f"bad parameters n={n} k={k}")
    lhs = Fraction(binomial(n, k) * binomial(2 * n, n), binomial(2 * n, 2 * k))
    rhs = Fraction(super_catalan(n, k))
    return lhs, rhs


def catalan_connection_report(m: int) -> IdentityReport:
    """Catalan-number evaluations of specific matrix entries, with mirrors.

    Checks the seven evaluations at levels 2m and 2m+1, plus the
    right-to-left mirror of each entry obtained from the column sign
    symmetry Phi[i][N-j] = (-1)^i Phi[i][j].
    """
    if m < 1:
        raise ValueError(f"catalan connection requires m >= 1, got m={m}")
    rep = IdentityReport(suite=f"catalan-connection m={m}")
    Cm = Fraction(catalan(m))
    even = build_matrix(2 * m, ONE)
    odd = build_matrix(2 * m + 1, ONE)
    cases = [
        (even, m - 1, 1, Cm),
        (even, m + 1, 1, -Cm),
        (even, m, 2, Fraction(-2 * catalan(m - 1))),
        (odd, m, 1, Cm),
        (odd, m, 2, -Cm),
        (odd, m + 1, 1, -Cm),
        (odd, m + 1, 2, -Cm),
    ]
    for M, i, j, value in cases:
        rep.record((M.N, i, j), M.entry(i, j), value)
        rep.record((M.N, i, M.N - j, "mirror"), M.entry(i, M.N - j), (-1) ** i * value)
    return rep
