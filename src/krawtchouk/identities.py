"""Summation theorems and special-value closed forms for Krawtchouk matrices.

All checks are exact; there are no tolerances. The sweeps run in ints, on
the column-scaled matrices (``KrawtchoukMatrix.scaled``, the entries at r = 1).
The general-r sweep returns each prefix's two sides times a common int scale;
a caller divides by it (``IdentityReport.record_scaled``) only on a mismatch.
Where a term carries an explicitly zero coefficient (factor j = 0 or N-j = 0),
the term is dropped before its matrix index is resolved. A degree index above
the matrix size reads as 0: it asks for a coefficient beyond the polynomial's
degree.
"""
from __future__ import annotations

from fractions import Fraction

from .combinatorics import binomial, catalan, super_catalan
from .matrices import KrawtchoukMatrix, build_matrix
from .report import IdentityReport


def _prefix(sweep: list, N: int, j: int, m: int):
    """Entry m of a column sweep; m outside the sweep is a parameter error."""
    if not 0 <= m < len(sweep):
        raise ValueError(f"bad parameters N={N} j={j} m={m}")
    return sweep[m]


def _levels(N: int, r, M: KrawtchoukMatrix | None, M1: KrawtchoukMatrix | None):
    """The level-N matrix, its scaled rows, and the scaled rows of the level-(N-1)
    matrix zero-extended by one row (its degree-N coefficients are 0)."""
    if M is None:
        M = build_matrix(N, r)
    if M1 is None:
        M1 = build_matrix(N - 1, r)
    return M, M.scaled, M1.scaled + ((0,) * N,)


def sweep_sum_squares_general(N: int, r, j: int,
                              M: KrawtchoukMatrix | None = None,
                              M1: KrawtchoukMatrix | None = None
                              ) -> list[tuple[int, int, int]]:
    """(lhs, rhs, scale) of the general-r sum-of-squares theorem for every prefix
    m = 0..N: the theorem's two sides are lhs / scale and rhs / scale.

    Column j of the identity

        sum_{n=0}^m (N-2n) phi[n][j]^2
            = (N-j) phi'[m][j]^2 + r j phi'[m][j-1]^2
              + (1-r)/(1+r) * j * sum_{n=0}^m (r phi[n][j-1]^2 + phi[n][j]^2)

    where phi is the level-N matrix and phi' the level-(N-1) matrix. One pass
    down the scaled columns carries both partial sums in ints times q^(2j),
    r = p/q; clearing the tail factor (q-p)/(q+p) makes the scale (q+p) q^(2j),
    and 1 at r = 1. Prebuilt matrices may be passed to amortize sweeps.
    """
    if r == -1:
        raise ZeroDivisionError("the factor (1-r)/(1+r) is undefined at r = -1")
    if N < 1 or not 0 <= j <= N:
        raise ValueError(f"bad parameters N={N} j={j}")
    M, rows, prev = _levels(N, r, M, M1)
    p, q = M.r.numerator, M.r.denominator
    pq = p * q
    # at r = 1 (the int 1) the tail's factor q - p is 0 and nothing is scaled
    s, t, scale = ((1, 0, 1) if type(M.r) is int
                   else (q + p, (q - p) * j, (q + p) * q ** (2 * j)))
    lhs = tail = 0
    out = []
    for n in range(N + 1):
        x = rows[n][j]
        sq = x * x
        lhs += (N - 2 * n) * sq
        rhs = 0
        if N - j != 0:
            y = prev[n][j]
            rhs += (N - j) * (y * y)
        if j != 0:
            w, y = rows[n][j - 1], prev[n][j - 1]
            tail += pq * (w * w) + sq
            rhs += pq * j * (y * y)
        out.append((s * lhs, s * rhs + t * tail, scale))
    return out


def sweep_sum_squares_symmetric(N: int, j: int,
                                M: KrawtchoukMatrix | None = None,
                                M1: KrawtchoukMatrix | None = None
                                ) -> list[tuple[int, int]]:
    """(lhs, rhs) of the symmetric-case (r = 1) sum of squares for every prefix m = 0..N.

    sum_{n=0}^m (N-2n) phi[n][j]^2 = (N-j) phi'[m][j]^2 + j phi'[m][j-1]^2.
    """
    if N < 1 or not 0 <= j <= N:
        raise ValueError(f"bad parameters N={N} j={j}")
    _, rows, prev = _levels(N, 1, M, M1)
    lhs = 0
    out = []
    for n in range(N + 1):
        x = rows[n][j]
        lhs += (N - 2 * n) * (x * x)
        rhs = 0
        if N - j != 0:
            y = prev[n][j]
            rhs += (N - j) * (y * y)
        if j != 0:
            y = prev[n][j - 1]
            rhs += j * (y * y)
        out.append((lhs, rhs))
    return out


def sweep_partial_sum_plain(N: int, j: int,
                            M: KrawtchoukMatrix | None = None,
                            M1: KrawtchoukMatrix | None = None
                            ) -> list[tuple[int, int, int]]:
    """(lhs, rhs1, rhs2) of the weighted partial sum without squares, r = 1, j >= 2,
    for every prefix m = 0..N; all three are equal.

    sum_{n=0}^m (N-2n) phi[n][j] = j phi'[m][j-2] + (N-j) phi'[m][j]
                                 = (N-1-2m) phi'[m][j-1] + phi'[m][j-2].
    """
    if j < 2:
        raise ValueError(f"partial sums require j >= 2, got j={j}")
    if N < 1 or j > N:
        raise ValueError(f"bad parameters N={N} j={j}")
    _, rows, prev = _levels(N, 1, M, M1)
    lhs = 0
    out = []
    for n in range(N + 1):
        lhs += (N - 2 * n) * rows[n][j]
        p = prev[n]
        rhs1 = j * p[j - 2]
        if N - j != 0:
            rhs1 += (N - j) * p[j]
        out.append((lhs, rhs1, (N - 1 - 2 * n) * p[j - 1] + p[j - 2]))
    return out


def sweep_column_sum_relation(N: int, j: int,
                              M: KrawtchoukMatrix | None = None,
                              M1: KrawtchoukMatrix | None = None
                              ) -> list[tuple[int, int]]:
    """(phi'[m][j], sum_{n=0}^m phi[n][j+1]) for every prefix m = 0..N-1, r = 1."""
    if N < 1 or not 0 <= j <= N - 1:
        raise ValueError(f"bad parameters N={N} j={j}")
    _, rows, prev = _levels(N, 1, M, M1)
    rhs = 0
    out = []
    for n in range(N):
        rhs += rows[n][j + 1]
        out.append((prev[n][j], rhs))
    return out


def sum_squares_general(N: int, r, j: int, m: int,
                        M: KrawtchoukMatrix | None = None,
                        M1: KrawtchoukMatrix | None = None) -> tuple[Fraction, Fraction]:
    """Prefix m of ``sweep_sum_squares_general``: the general-r theorem's (lhs, rhs),
    divided back by the scale (ints at r = 1)."""
    lhs, rhs, scale = _prefix(sweep_sum_squares_general(N, r, j, M, M1), N, j, m)
    return (lhs, rhs) if r == 1 else (Fraction(lhs, scale), Fraction(rhs, scale))


def sum_squares_symmetric(N: int, j: int, m: int,
                          M: KrawtchoukMatrix | None = None,
                          M1: KrawtchoukMatrix | None = None) -> tuple[int, int]:
    """Prefix m of ``sweep_sum_squares_symmetric``: the r = 1 theorem's (lhs, rhs)."""
    return _prefix(sweep_sum_squares_symmetric(N, j, M, M1), N, j, m)


def partial_sum_plain(N: int, j: int, m: int,
                      M: KrawtchoukMatrix | None = None,
                      M1: KrawtchoukMatrix | None = None
                      ) -> tuple[int, int, int]:
    """Prefix m of ``sweep_partial_sum_plain``: (lhs, rhs1, rhs2), all equal."""
    return _prefix(sweep_partial_sum_plain(N, j, M, M1), N, j, m)


def column_sum_relation(N: int, j: int, m: int,
                        M: KrawtchoukMatrix | None = None,
                        M1: KrawtchoukMatrix | None = None) -> tuple[int, int]:
    """Prefix m of ``sweep_column_sum_relation``: Phi^(N-1)[m][j] and the partial
    column sum of column j+1 at level N."""
    return _prefix(sweep_column_sum_relation(N, j, M, M1), N, j, m)


def column_squares_closed_form(N: int, j: int) -> Fraction:
    """C(2N-2j, N-j) C(2j, j) / C(N, j), the sum of squares down column j at r = 1."""
    return Fraction(binomial(2 * N - 2 * j, N - j) * binomial(2 * j, j), binomial(N, j))


def column_sum_of_squares(N: int, j: int,
                          M: KrawtchoukMatrix | None = None) -> tuple[int, Fraction]:
    """Full sum of squares down column j versus its binomial closed form."""
    if not 0 <= j <= N:
        raise ValueError(f"bad parameters N={N} j={j}")
    if M is None:
        M = build_matrix(N, 1)
    return sum(M.entry(i, j) ** 2 for i in range(N + 1)), column_squares_closed_form(N, j)


def row_sum_of_squares(N: int, i: int,
                       M: KrawtchoukMatrix | None = None) -> tuple[int, int]:
    """Full sum of squares along row i versus its binomial-sum closed form."""
    if not 0 <= i <= N:
        raise ValueError(f"bad parameters N={N} i={i}")
    if M is None:
        M = build_matrix(N, 1)
    brute = sum(M.entry(i, j) ** 2 for j in range(N + 1))
    # terms with 2k > N carry the zero factor C(N+1, 2k+1) and are dropped
    closed = sum(
        binomial(N + 1, 2 * k + 1) * binomial(2 * k, k) * binomial(N - 2 * k, i - k)
        for k in range(min(i, N // 2) + 1)
    )
    return brute, closed


def central_row_value(N: int, j: int) -> Fraction:
    """Closed form for the middle-row entry Phi^N[m][j], m = floor(N/2)."""
    if N < 0 or not 0 <= j <= N:
        raise ValueError(f"bad parameters N={N} j={j}")
    m, k = N // 2, j // 2
    if N % 2 == 0 and j % 2 == 1:
        return Fraction(0)
    return Fraction(binomial(m, k) * (-1) ** k * binomial(N, m), binomial(N, j))


def column_square_central_link(m: int, j: int) -> tuple[int, int]:
    """Sum of squares of column j/2 at level m versus the central entry at level 2m."""
    if j % 2 != 0:
        raise ValueError(f"the link requires even j, got j={j}")
    if m < 0 or not 0 <= j // 2 <= m:
        raise ValueError(f"bad parameters m={m} j={j}")
    M = build_matrix(m, 1)
    lhs = sum(M.entry(i, j // 2) ** 2 for i in range(m + 1))
    rhs = (-1) ** (j // 2) * build_matrix(2 * m, 1).entry(m, j)
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
    Cm = catalan(m)
    even = build_matrix(2 * m, 1)
    odd = build_matrix(2 * m + 1, 1)
    cases = [
        (even, m - 1, 1, Cm),
        (even, m + 1, 1, -Cm),
        (even, m, 2, -2 * catalan(m - 1)),
        (odd, m, 1, Cm),
        (odd, m, 2, -Cm),
        (odd, m + 1, 1, -Cm),
        (odd, m + 1, 2, -Cm),
    ]
    for M, i, j, value in cases:
        rep.record((M.N, i, j), M.entry(i, j), value)
        rep.record((M.N, i, M.N - j, "mirror"), M.entry(i, M.N - j), (-1) ** i * value)
    return rep
