"""Krawtchouk matrices over exact rationals, built from the generating function.

Column j of the (N+1) x (N+1) matrix holds the coefficient sequence of
(1+z)^(N-j) (1-rz)^j, expanded by exact polynomial convolution. Rows are
indexed by degree n, columns by evaluation point j. The symmetric case is
r = 1, where every entry is an integer.

Built matrices are memoized on (N, r): the identities relate neighbouring
levels, so a verification sweep asks for the same level many times. The CLI
clears the memo when a command returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import binomial
from .report import IdentityReport

def _convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class KrawtchoukMatrix:
    N: int
    r: Fraction
    entries: tuple[tuple[Fraction, ...], ...]  # [n][j], degree x evaluation

    def entry(self, n: int, j: int) -> Fraction:
        """Entry [n][j]; n = -1 returns the boundary value 0."""
        if not 0 <= j <= self.N:
            raise IndexError(f"column index j={j} outside [0, {self.N}]")
        if n == -1:
            return Fraction(0)
        if not 0 <= n <= self.N:
            raise IndexError(f"row index n={n} outside [-1, {self.N}]")
        return self.entries[n][j]

    def row(self, n: int) -> tuple[Fraction, ...]:
        return self.entries[n]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.entries for v in row)


# Bound on the memo. It holds one sweep's working set: verify --suite all
# --max-n 12 with seven r builds 110 distinct (N, r). The suites scan their
# levels cyclically, so an LRU smaller than the working set misses almost
# every time (64 entries: 287 misses instead of 110).
MEMO_SIZE = 256


def build_matrix(N: int, r) -> KrawtchoukMatrix:
    """The level-N matrix for parameter r, shared by every call with the same (N, r)."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    return _expand(N, Fraction(r))


@lru_cache(maxsize=MEMO_SIZE)
def _expand(N: int, r: Fraction) -> KrawtchoukMatrix:
    """Expand (1+z)^(N-j) (1-rz)^j for each column j, by exact convolution."""
    columns = []
    for j in range(N + 1):
        poly = [Fraction(1)]
        for _ in range(N - j):
            poly = _convolve(poly, [Fraction(1), Fraction(1)])
        for _ in range(j):
            poly = _convolve(poly, [Fraction(1), -r])
        poly += [Fraction(0)] * (N + 1 - len(poly))
        columns.append(poly)
    entries = tuple(tuple(columns[j][n] for j in range(N + 1)) for n in range(N + 1))
    return KrawtchoukMatrix(N=N, r=r, entries=entries)


# Drops every memoized matrix. Clear through the inner function: wrappers that
# replace build_matrix (tracers, profilers) do not carry cache_clear.
clear_memo = _expand.cache_clear


def binomial_diagonal(N: int) -> tuple[int, ...]:
    """Diagonal of the conjugating matrix B, B_ii = C(N, i)."""
    return tuple(binomial(N, i) for i in range(N + 1))


def verify_pascal(N: int, r) -> IdentityReport:
    """Check both Pascal-type relations linking level N to level N+1."""
    r = Fraction(r)
    rep = IdentityReport(suite=f"pascal N={N} r={r}")
    M = build_matrix(N, r)
    M1 = build_matrix(N + 1, r)
    for n in range(N + 1):
        for j in range(N + 1):
            prev = M.entry(n - 1, j)
            rep.record(("i", n, j), M.entry(n, j) + prev, M1.entry(n, j))
            rep.record(("ii", n, j), M.entry(n, j) - r * prev, M1.entry(n, j + 1))
    return rep


def verify_recurrence_j(N: int, r) -> IdentityReport:
    """Check the three-term recurrence in the evaluation index j.

    Terms carrying a zero coefficient (N-j = 0 or j = 0) are dropped before
    the neighbouring index is resolved, so j+1 = N+1 and j-1 = -1 never occur.
    """
    if N < 1:
        raise ValueError(f"recurrence check requires N >= 1, got {N}")
    r = Fraction(r)
    rep = IdentityReport(suite=f"recurrence N={N} r={r}")
    M = build_matrix(N, r)
    r_minus_1, r_plus_1 = r - 1, 1 + r
    for n in range(N + 1):
        row = M.entries[n]
        base = N - n * r_plus_1
        for j in range(N + 1):
            lhs = (base + r_minus_1 * j) * row[j]
            rhs = Fraction(0)
            if N - j != 0:
                rhs += (N - j) * row[j + 1]
            if j != 0:
                rhs += r * j * row[j - 1]
            rep.record((n, j), lhs, rhs)
    return rep


def verify_involution(N: int) -> IdentityReport:
    """One case: the symmetric matrix squares to 2^N times the identity.

    A failure names the first offending entry (i, j), the product entry and
    2^N delta_ij.
    """
    rep = IdentityReport(suite=f"involution N={N}")
    M = build_matrix(N, Fraction(1))
    two_N = Fraction(2) ** N
    for i in range(N + 1):
        for j in range(N + 1):
            prod = sum(M.entries[i][k] * M.entries[k][j] for k in range(N + 1))
            expected = two_N if i == j else Fraction(0)
            if prod != expected:
                rep.record((i, j), prod, expected)
                return rep
    rep.record_bool((N,), True)
    return rep


def verify_sign_symmetries(N: int) -> IdentityReport:
    """Row/column sign symmetries of the symmetric (r = 1) matrix."""
    rep = IdentityReport(suite=f"sign-symmetries N={N}")
    M = build_matrix(N, Fraction(1))
    for i in range(N + 1):
        for j in range(N + 1):
            rep.record(("col", i, j), M.entries[i][N - j], (-1) ** i * M.entries[i][j])
            rep.record(("row", i, j), M.entries[N - i][j], (-1) ** j * M.entries[i][j])
        rep.record(("diag", i), M.entries[N - i][N - i], (-1) ** N * M.entries[i][i])
    return rep


def closed_form_row1_col01(N: int) -> IdentityReport:
    """Closed forms for row 1, column 0, and the second column at level N+1."""
    rep = IdentityReport(suite=f"rows-cols N={N}")
    M = build_matrix(N, Fraction(1))
    if N >= 1:
        for j in range(N + 1):
            rep.record(("row1", j), M.entries[1][j], Fraction(N - 2 * j))
    for n in range(N + 1):
        rep.record(("col0", n), M.entries[n][0], Fraction(binomial(N, n)))
    M1 = build_matrix(N + 1, Fraction(1))
    for n in range(N + 2):
        diff = binomial(N, n) - binomial(N, n - 1)
        rep.record(("col1-diff", n), M1.entries[n][1], Fraction(diff))
        if N + 1 - n != 0:
            quotient = Fraction(binomial(N, n) * (N + 1 - 2 * n), N + 1 - n)
            rep.record(("col1-quotient", n), M1.entries[n][1], quotient)
    return rep


def verify_binomial_conjugation(N: int) -> IdentityReport:
    """Conjugation by the binomial diagonal B: Phi B symmetric, entrywise form."""
    rep = IdentityReport(suite=f"conjugation N={N}")
    M = build_matrix(N, Fraction(1))
    B = binomial_diagonal(N)
    for i in range(N + 1):
        for j in range(N + 1):
            rep.record(("PhiB-symm", i, j), M.entries[i][j] * B[j], M.entries[j][i] * B[i])
            rep.record(
                ("entrywise", i, j),
                M.entries[j][i],
                Fraction(B[j], B[i]) * M.entries[i][j],
            )
    return rep
