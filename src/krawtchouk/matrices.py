"""Krawtchouk matrices over exact rationals, built from the generating function.

Column j of the (N+1) x (N+1) matrix holds the coefficient sequence of
(1+z)^(N-j) (1-rz)^j, expanded one linear factor at a time: N-j steps of
"times (1+z)" and j steps of "times (1-rz)". Rows are indexed by degree n,
columns by evaluation point j.

The symmetric case r = 1 is expanded in Python ints: its matrix stores r as
the int 1 and every entry as an ``int``. For every other r, integral ones
included, r and every entry are ``Fraction``s. Every check compares ints:
at r != 1 on ``KrawtchoukMatrix.scaled`` (column j times q^j, r = p/q) with
each identity multiplied by a power of q, and at r = 1 with each quotient
multiplied through by its denominator. Only a failure is divided back
(``IdentityReport.record_scaled``), so it reads as rationals.

Built matrices are memoized on (N, r): the identities relate neighbouring
levels, so a verification sweep asks for the same level many times. The CLI
clears the memo when a command returns.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .combinatorics import binomial
from .report import FrozenRecord, IdentityReport


class KrawtchoukMatrix(FrozenRecord):
    """Level N for parameter r (the int 1 at r = 1); entries[n][j], degree x evaluation."""

    FIELDS = ("N", "r", "entries")

    def entry(self, n: int, j: int) -> int | Fraction:
        """Entry [n][j]; n = -1 returns the boundary value 0, in the entries' type."""
        if not 0 <= j <= self.N:
            raise IndexError(f"column index j={j} outside [0, {self.N}]")
        if n == -1:
            return type(self.entries[0][0])()
        if not 0 <= n <= self.N:
            raise IndexError(f"row index n={n} outside [-1, {self.N}]")
        return self.entries[n][j]

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], ...]:
        """Column j times q^j, r = p/q in lowest terms: all ints, as the denominator
        of entry [n][j] divides q^min(n, j). At q = 1 these are the entries."""
        powers = [self.r.denominator ** j for j in range(self.N + 1)]
        return tuple(tuple(v.numerator * (s // v.denominator) for v, s in zip(row, powers))
                     for row in self.entries)


# Bound on the memo: the working set of the largest sweep the verify budgets
# allow. The suites of verify --max-n N scan levels 0..N+1 for each of its r
# and for r = 1, so cli.MAX_VERIFY_N = 24 and cli.MAX_R_VALUES = 20 make
# (24 + 2) * (20 + 1) levels; the catalan suite's r = 1 levels N+2..2N+1 are
# scanned by that suite alone. The suites scan their levels cyclically, so an
# LRU smaller than the working set misses almost every time (at --max-n 12
# with seven r, 110 levels: 64 entries gave 287 misses instead of 110).
MEMO_SIZE = (24 + 2) * (20 + 1)


def build_matrix(N: int, r) -> KrawtchoukMatrix:
    """The level-N matrix for parameter r, shared by every call with the same (N, r)."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    return _expand(N, Fraction(r))


@lru_cache(maxsize=MEMO_SIZE)
def _expand(N: int, r: Fraction) -> KrawtchoukMatrix:
    """Expand (1+z)^(N-j) (1-rz)^j for each column j, one linear factor at a time.

    Multiplying coefficients p by (1 + step z) gives p[n] + step p[n-1]. At
    r = 1 the coefficients are ints, so the expansion runs in integer
    arithmetic; every other r expands in Fractions. The padding 0 is an int,
    so it keeps either type. After N steps a column has N + 1 coefficients.
    """
    one, step = (1, -1) if r == 1 else (Fraction(1), -r)
    columns = []
    for j in range(N + 1):
        poly = [one]
        for _ in range(N - j):
            poly = [a + b for a, b in zip(poly + [0], [0] + poly)]
        for _ in range(j):
            poly = [a + step * b for a, b in zip(poly + [0], [0] + poly)]
        columns.append(poly)
    return KrawtchoukMatrix(N=N, r=1 if r == 1 else r, entries=tuple(zip(*columns)))


# Drops every memoized matrix. Clear through the inner function: wrappers that
# replace build_matrix (tracers, profilers) do not carry cache_clear.
clear_memo = _expand.cache_clear


def binomial_diagonal(N: int) -> tuple[int, ...]:
    """Diagonal of the conjugating matrix B, B_ii = C(N, i)."""
    return tuple(binomial(N, i) for i in range(N + 1))


def verify_pascal(N: int, r) -> IdentityReport:
    """Check both Pascal-type relations linking level N to level N+1, on the scaled
    matrices: A[n][j] + A[n-1][j] = A'[n][j], q A[n][j] - p A[n-1][j] = A'[n][j+1]."""
    M = build_matrix(N, r)
    A1 = build_matrix(N + 1, r).scaled
    p, q = M.r.numerator, M.r.denominator
    powers = [q ** j for j in range(N + 2)]
    rep = IdentityReport(suite=f"pascal N={N} r={M.r}")
    prev = (0,) * (N + 1)
    for n, row in enumerate(M.scaled):
        for j in range(N + 1):
            rep.record_scaled(("i", n, j), row[j] + prev[j], A1[n][j], powers[j])
            rep.record_scaled(("ii", n, j), q * row[j] - p * prev[j], A1[n][j + 1], powers[j + 1])
        prev = row
    return rep


def verify_recurrence_j(N: int, r) -> IdentityReport:
    """Check the three-term recurrence in the evaluation index j on the scaled matrix:
    (qN - n(q+p) + (p-q) j) A[n][j] = (N-j) A[n][j+1] + pq j A[n][j-1].

    Terms carrying a zero coefficient (N-j = 0 or j = 0) are dropped before
    the neighbouring index is resolved, so j+1 = N+1 and j-1 = -1 never occur.
    """
    if N < 1:
        raise ValueError(f"recurrence check requires N >= 1, got {N}")
    M = build_matrix(N, r)
    p, q = M.r.numerator, M.r.denominator
    powers = [q ** j for j in range(N + 2)]
    rep = IdentityReport(suite=f"recurrence N={N} r={M.r}")
    for n, row in enumerate(M.scaled):
        base = q * N - n * (q + p)
        for j in range(N + 1):
            lhs = (base + (p - q) * j) * row[j]
            rhs = 0
            if N - j != 0:
                rhs += (N - j) * row[j + 1]
            if j != 0:
                rhs += p * q * j * row[j - 1]
            rep.record_scaled((n, j), lhs, rhs, powers[j + 1])
    return rep


def verify_involution(N: int) -> IdentityReport:
    """One case: the symmetric matrix squares to 2^N times the identity.

    A failure names the first offending entry (i, j), the product entry and
    2^N delta_ij.
    """
    rep = IdentityReport(suite=f"involution N={N}")
    M = build_matrix(N, 1)
    two_N = 2 ** N
    for i in range(N + 1):
        for j in range(N + 1):
            prod = sum(M.entries[i][k] * M.entries[k][j] for k in range(N + 1))
            expected = two_N if i == j else 0
            if prod != expected:
                rep.record((i, j), prod, expected)
                return rep
    rep.record_bool((N,), True)
    return rep


def verify_sign_symmetries(N: int) -> IdentityReport:
    """Row/column sign symmetries of the symmetric (r = 1) matrix."""
    rep = IdentityReport(suite=f"sign-symmetries N={N}")
    M = build_matrix(N, 1)
    for i in range(N + 1):
        for j in range(N + 1):
            rep.record(("col", i, j), M.entries[i][N - j], (-1) ** i * M.entries[i][j])
            rep.record(("row", i, j), M.entries[N - i][j], (-1) ** j * M.entries[i][j])
        rep.record(("diag", i), M.entries[N - i][N - i], (-1) ** N * M.entries[i][i])
    return rep


def closed_form_row1_col01(N: int) -> IdentityReport:
    """Closed forms for row 1, column 0, and the second column at level N+1."""
    rep = IdentityReport(suite=f"rows-cols N={N}")
    M = build_matrix(N, 1)
    if N >= 1:
        for j in range(N + 1):
            rep.record(("row1", j), M.entries[1][j], N - 2 * j)
    for n in range(N + 1):
        rep.record(("col0", n), M.entries[n][0], binomial(N, n))
    M1 = build_matrix(N + 1, 1)
    for n in range(N + 2):
        diff = binomial(N, n) - binomial(N, n - 1)
        rep.record(("col1-diff", n), M1.entries[n][1], diff)
        if N + 1 - n != 0:  # K'[n][1] = C(N, n) (N+1-2n) / (N+1-n), times N+1-n
            rep.record_scaled(("col1-quotient", n), (N + 1 - n) * M1.entries[n][1],
                              binomial(N, n) * (N + 1 - 2 * n), N + 1 - n)
    return rep


def verify_binomial_conjugation(N: int) -> IdentityReport:
    """Conjugation by the binomial diagonal B: Phi B symmetric, entrywise form."""
    rep = IdentityReport(suite=f"conjugation N={N}")
    M = build_matrix(N, 1)
    B = binomial_diagonal(N)
    for i in range(N + 1):
        for j in range(N + 1):
            ij, ji = M.entries[i][j] * B[j], M.entries[j][i] * B[i]
            rep.record(("PhiB-symm", i, j), ij, ji)
            # Phi[j][i] = B[j] / B[i] Phi[i][j], times B[i]
            rep.record_scaled(("entrywise", i, j), ji, ij, B[i])
    return rep
