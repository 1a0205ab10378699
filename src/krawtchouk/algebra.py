"""Structure statistics of matrix algebras by exact linear algebra.

For a set of integer (or rational) generator matrices this module computes
the degree d, the dimension delta of the generated unital algebra A, the
dimension zeta of its centralizer, and the dimension z of its center, all
exactly over the rationals (fraction-free, on integers).

One method, _stats, runs in either of two rings: MatrixRing(d), the d x d
matrices as rows of the sparse kernel, and orbits.OrbitBasis(n), the
S_n-invariant 2^n x 2^n matrices as vectors over the C(n+3, 3) orbit
matrices. The span closure gives A; z = delta if the generators commute,
else the center is the combinations of A's basis that commute with every
generator. For a generator set closed under transpose, one central element
c gives the Wedderburn blocks: its minimal polynomial from I, c, ..., c^z,
its integer roots, the multiplicities from the traces of its powers, and
the block degrees d_i^2 = dim P_i(c) A.

algebra_stats runs it on the matrices it is given and, when a certificate
fails, takes zeta from the center's routine over the d^2 unit matrices.
analyze_family runs it on the three operator families over the Boolean
lattice in the orbit basis, with the 2^n matrices as the fallback for
n <= 6, and compares the result with the closed-form predictions.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .combinatorics import binomial, catalan
from .matrices import build_matrix
from .orbits import OrbitBasis
from .report import FrozenRecord, IdentityReport, Record
from .zeon import ZeonMatrix, combine, mat_mul, op_T, op_Tstar, op_U, transpose

DEFAULT_MAX_N = 12
LARGE_MAX_N = 18
MATRIX_PATH_MAX_N = 6  # the families' 2^n fallback; n = 6 takes about 0.5 s


class BudgetError(ValueError):
    """Requested n exceeds the configured exact-computation budget."""


class Family(Enum):
    U = "U"
    T_TSTAR = "T"
    TTSTAR_TSTART = "TT"


class AlgebraStats(FrozenRecord):
    FIELDS = ("d", "delta", "zeta", "z")


class ComponentSpec(FrozenRecord):
    """Multiset of (multiplicity, degree) pairs of a matrix-algebra decomposition."""

    FIELDS = ("components",)

    @property
    def degree_sum(self) -> int:
        return sum(m * deg for m, deg in self.components)

    @property
    def dimension(self) -> int:
        return sum(deg * deg for _, deg in self.components)

    @property
    def centralizer_dim(self) -> int:
        return sum(m * m for m, _ in self.components)

    @property
    def count(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# sparse exact linear algebra on rows represented as {column: value} dicts
# ---------------------------------------------------------------------------

def _as_rows(mat) -> tuple[int, dict[int, dict[int, int]]]:
    """Normalize a generator (ZeonMatrix or nested sequence) to (size, integer rows).

    A ZeonMatrix's rows are used as they are: nothing here mutates a matrix.
    A rational generator is scaled by the lcm of its denominators: a nonzero
    multiple of a generator generates the same algebra, centralizer and center.
    """
    if isinstance(mat, ZeonMatrix):
        return mat.size, mat.rows
    d = len(mat)
    rows: dict[int, dict[int, Fraction]] = {}
    for i, row in enumerate(mat):
        if len(row) != d:
            raise ValueError("generator matrices must be square")
        vals = {j: Fraction(v) for j, v in enumerate(row) if v != 0}
        if vals:
            rows[i] = vals
    denom = math.lcm(*(v.denominator for r in rows.values() for v in r.values()))
    return d, {i: {j: int(v * denom) for j, v in r.items()} for i, r in rows.items()}


class MatrixRing:
    """d x d integer matrices as rows of the sparse kernel, with the operations
    _stats needs; an element's vector is its row-major vectorization."""

    mul = staticmethod(mat_mul)
    combine = staticmethod(combine)
    transpose = staticmethod(transpose)

    def __init__(self, d: int):
        self.d = d
        self.size = d * d  # the width of the vectors

    def identity(self) -> dict:
        return {i: {i: 1} for i in range(self.d)}

    def vec(self, rows: dict) -> dict[int, int]:
        return {i * self.d + j: v for i, row in rows.items() for j, v in row.items()}

    def trace(self, rows: dict) -> int:
        return sum(rows.get(i, {}).get(i, 0) for i in range(self.d))

    def row_sum_bound(self, rows: dict) -> int:
        """The largest absolute row sum, a bound on |eigenvalue|."""
        return max((sum(map(abs, row.values())) for row in rows.values()), default=0)


class ExactEchelon:
    """Incremental integer row-echelon basis for exact rank computation.

    Each stored pivot is primitive (content 1) with a positive lead entry.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def insert(self, vec: dict[int, int]) -> bool:
        """Reduce vec against the pivots; True iff it enlarges the span."""
        vec = {c: v for c, v in vec.items() if v != 0}
        while vec:
            g = math.gcd(*vec.values())
            if g > 1:
                vec = {c: v // g for c, v in vec.items()}
            lead = min(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = vec if vec[lead] > 0 else {c: -v for c, v in vec.items()}
                return True
            a, b = piv[lead], vec[lead]
            g = math.gcd(a, b)
            ca, cb = a // g, b // g
            new = dict(vec) if ca == 1 else {c: ca * v for c, v in vec.items()}
            for c, v in piv.items():
                w = new.get(c, 0) - cb * v
                if w == 0:
                    new.pop(c, None)
                else:
                    new[c] = w
            vec = new
        return False


def _relations(vectors, width: int) -> list[dict[int, int]]:
    """Basis of the integer relations sum_k x[k] * vectors[k] = 0, as {k: x[k]}.

    Each vector gets a tag column width + k before it enters one echelon; the
    pivots whose lead is a tag column have no part left below ``width``, and
    they form an echelon basis of the relations (each has its own leading k).
    """
    ech = ExactEchelon()
    for k, vec in enumerate(vectors):
        ech.insert({**vec, width + k: 1})
    return [{c - width: v for c, v in piv.items() if c >= width}
            for lead, piv in sorted(ech.pivots.items()) if lead >= width]


# ---------------------------------------------------------------------------
# the four structure statistics
# ---------------------------------------------------------------------------

def _prepare(generators) -> tuple[int, list[dict]]:
    if not generators:
        raise ValueError("generator list must be nonempty")
    sizes_rows = [_as_rows(g) for g in generators]
    d = sizes_rows[0][0]
    for size, _ in sizes_rows:
        if size != d:
            raise ValueError(f"size mismatch among generators: {size} != {d}")
    return d, [rows for _, rows in sizes_rows]


def _span_closure(ring, gens: list, seed: list) -> list:
    """Basis of the span of seed * words in gens, multiplied in ring."""
    ech = ExactEchelon()
    basis: list = []
    frontier: list = []
    for m in seed:
        if ech.insert(ring.vec(m)):
            basis.append(m)
            frontier.append(m)
    while frontier:
        fresh: list = []
        for m in frontier:
            for g in gens:
                prod = ring.mul(m, g)
                if ech.insert(ring.vec(prod)):
                    basis.append(prod)
                    fresh.append(prod)
        frontier = fresh
    return basis


def span_closure_dimension(generators) -> int:
    """Dimension of the unital algebra generated by the given matrices: the span
    of the identity and the generators, each times every word in the generators."""
    d, gens = _prepare(generators)
    ring = MatrixRing(d)
    return len(_span_closure(ring, gens, [ring.identity()] + gens))


def centralizer_dimension(generators) -> int:
    """Dimension of the space of matrices commuting with every generator."""
    d, gens = _prepare(generators)
    units = ({k: {l: 1}} for k in range(d) for l in range(d))
    return len(_commuting(MatrixRing(d), gens, units))


def center_dimension(generators) -> int:
    """Dimension of the center: algebra elements commuting with all generators."""
    d, gens = _prepare(generators)
    ring = MatrixRing(d)
    return len(_commuting(ring, gens, _span_closure(ring, gens, [ring.identity()] + gens)))


def _commuting(ring, gens: list, elements) -> list[dict[int, int]]:
    """The combinations of ``elements`` that commute with every generator, as
    coefficient vectors {k: x_k}: over the unit matrices they span the
    centralizer, over an algebra basis the center.

    One tagged echelon pass over the commutators [b_k, g] of every element
    with every generator; the relations among them are the answer.
    """
    width = ring.size

    def commutators(b):
        out: dict[int, int] = {}
        for idx, g in enumerate(gens):
            for sign, prod in ((1, ring.mul(b, g)), (-1, ring.mul(g, b))):
                for c, v in ring.vec(prod).items():
                    out[idx * width + c] = out.get(idx * width + c, 0) + sign * v
        return out

    return _relations(map(commutators, elements), len(gens) * width)


# ---------------------------------------------------------------------------
# Wedderburn blocks of a central element
# ---------------------------------------------------------------------------
#
# A generator set closed under transpose generates a *-algebra A, which is
# semisimple: A = sum_i M_{d_i}, the i-th block acting on V = Q^d with
# multiplicity m_i. Every central element c acts as a scalar lambda_i on the
# mu_i = m_i d_i dimensions of block i, so tr c^k = sum_i mu_i lambda_i^k. If
# c's minimal polynomial has degree z and z integer roots, c separates the z
# blocks: P_i(c) (from _lagrange) is a nonzero multiple of block i's central
# idempotent e_i, and the span of P_i(c) times the words in the generators
# is e_i A, of dimension d_i^2. Then zeta = sum m_i^2.

def _roots_above(poly: list[int], a: int) -> int:
    """The sign variations of poly(x + a), coefficients low to high: by
    Descartes' rule, the number of roots above a plus an even number."""
    q = list(poly)
    for i in range(len(q) - 1):  # Taylor shift by a, in place
        for k in range(len(q) - 2, i - 1, -1):
            q[k] += a * q[k + 1]
    signs = [v > 0 for v in q if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integer_roots(poly: list[int], bound: int) -> list[int] | None:
    """Integer roots in [-bound, bound] of a squarefree polynomial, ascending,
    or None if a real root there is not an integer.

    Bisects integer intervals (lo, hi] on V(a) = _roots_above(poly, a). By
    Budan's theorem V(lo) - V(hi) is the number of roots in (lo, hi] plus an
    even number: 0 means no root, and on a unit interval 1 means one root,
    an integer iff it is hi, which evaluation checks; a larger count there is
    refused. A pair of complex roots need not show, so the list holds every
    root only if its length is the degree.
    """
    roots: list[int] = []
    stack = [(-bound - 1, bound, _roots_above(poly, -bound - 1), _roots_above(poly, bound))]
    while stack:
        lo, hi, above_lo, above_hi = stack.pop()
        if above_lo == above_hi:
            continue
        if hi - lo == 1:
            if above_lo - above_hi > 1 or sum(c * hi**k for k, c in enumerate(poly)) != 0:
                return None
            roots.append(hi)
            continue
        mid = (lo + hi) // 2
        above_mid = _roots_above(poly, mid)
        stack += [(mid, hi, above_mid, above_hi), (lo, mid, above_lo, above_mid)]
    return roots


def _lagrange(roots: list[int], lam: int) -> list[int]:
    """P = prod (x - mu) over the roots mu other than lam, coefficients low to
    high: P(c) is P(lam) times the central idempotent of c's lam-eigenspace."""
    poly = [1]
    for mu in roots:
        if mu != lam:
            poly = [a - mu * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def _multiplicities(roots: list[int], traces: list[int]) -> list[int] | None:
    """The mu_i with sum_i mu_i roots[i]^k = traces[k] for k < len(roots), by
    Lagrange over the integers: mu_i = tr P_i(c) / P_i(roots[i]), with P_i from
    _lagrange; None unless all are positive integers."""
    mus = []
    for lam in roots:
        m, rem = divmod(sum(p * t for p, t in zip(_lagrange(roots, lam), traces)),
                        math.prod(lam - mu for mu in roots if mu != lam))
        if rem or m < 1:
            return None
        mus.append(m)
    return mus


def _stats(ring, gens: list, d: int) -> tuple[int, int, ComponentSpec | None]:
    """(delta, z, components) of the unital algebra that gens generate in ring,
    whose elements are d x d matrices; the components are None when a
    certificate of the Wedderburn blocks fails. d is not read from ring.trace,
    so sum m_i d_i = d checks the traces."""
    one = ring.identity()
    basis = _span_closure(ring, gens, [one] + gens)
    delta = len(basis)
    if all(ring.mul(g, h) == ring.mul(h, g) for i, g in enumerate(gens) for h in gens[i + 1:]):
        z = delta  # A is commutative: its center is all of A
        # c = sum_k t^k g_k with t = 2B + 1, |eigenvalue of g_k| <= B: blocks with
        # integer joint eigenvalues are the base-t numbers with digits in [-B, B],
        # so two blocks with different ones take different eigenvalues of c
        t = 2 * max(map(ring.row_sum_bound, gens)) + 1
        c = ring.combine((t ** k, g) for k, g in enumerate(gens))
    else:
        center = _commuting(ring, gens, basis)
        z = len(center)
        s = ring.combine((w * v, basis[k])
                         for w, element in enumerate(center, start=1) for k, v in element.items())
        c = ring.combine([(1, s), (1, ring.transpose(s))])
    if any(ring.transpose(g) not in gens for g in gens):
        return delta, z, None  # not a *-algebra: semisimplicity is not guaranteed
    powers = [one]
    while len(powers) <= z:
        powers.append(ring.mul(powers[-1], c))
    # deg minpoly(c) <= z, since c lies in the z-dimensional center; one
    # relation among I, c, ..., c^z means degree z: c separates the blocks
    minpolys = _relations(map(ring.vec, powers), ring.size)
    if len(minpolys) != 1:
        return delta, z, None
    roots = _integer_roots([minpolys[0].get(k, 0) for k in range(z + 1)], ring.row_sum_bound(c))
    if roots is None or len(roots) != z:
        return delta, z, None  # the center does not split over Q
    mus = _multiplicities(roots, [ring.trace(p) for p in powers[:z]])
    if mus is None:
        return delta, z, None
    if z == delta:
        comps = [(mu, 1) for mu in mus]  # A is commutative: every block is 1 x 1
    else:
        comps = []
        for lam, mu in zip(roots, mus):
            ideal = ring.combine(zip(_lagrange(roots, lam), powers))
            block_dim = len(_span_closure(ring, gens, [ideal]))
            block = math.isqrt(block_dim)
            if block * block != block_dim or mu % block:
                return delta, z, None
            comps.append((mu // block, block))
    spec = ComponentSpec(tuple(comps))
    return delta, z, spec if spec.degree_sum == d and spec.dimension == delta else None


def algebra_stats(generators) -> tuple[AlgebraStats, ComponentSpec | None]:
    """(d, delta, zeta, z) of the generated unital algebra, and its computed
    components, or None for them when zeta came from the unit-matrix fallback."""
    d, gens = _prepare(generators)
    delta, z, comps = _stats(MatrixRing(d), gens, d)
    zeta = comps.centralizer_dim if comps else centralizer_dimension(generators)
    return AlgebraStats(d=d, delta=delta, zeta=zeta, z=z), comps


# ---------------------------------------------------------------------------
# closed-form predictions and Krawtchouk-based derivation cross-checks
# ---------------------------------------------------------------------------

def predicted_stats(family: Family, n: int) -> tuple[AlgebraStats, ComponentSpec]:
    """Closed-form (d, delta, zeta, z) and component multiset for each family.

    For TTSTAR_TSTART the recorded z is the stated value 1 + floor(n/2),
    which disagrees with the component count implied by the same source's
    own component description; analyze_family reports both.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = 1 << n
    if family is Family.U:
        stats = AlgebraStats(d=d, delta=n + 1, zeta=binomial(2 * n, n), z=n + 1)
        comps = tuple((binomial(n, i), 1) for i in range(n + 1))
        return stats, ComponentSpec(comps)
    if family is Family.T_TSTAR:
        comps = tuple((binomial(n, a) - binomial(n, a - 1), n + 1 - 2 * a)
                      for a in range(n // 2 + 1))
        stats = AlgebraStats(d=d, delta=binomial(n + 3, 3), zeta=catalan(n), z=1 + n // 2)
        return stats, ComponentSpec(comps)
    if family is Family.TTSTAR_TSTART:
        if n % 2 == 0:
            delta = (n + 2) ** 2 // 4
            zeta = binomial(n, n // 2) ** 2
        else:
            delta = (n + 1) * (n + 3) // 4
            zeta = 2 * binomial(n, n // 2) * binomial(n - 1, n // 2)
        comps = []
        for a in range(n // 2 + 1):
            m_a = binomial(n, a) - binomial(n, a - 1)
            comps.extend([(m_a, 1)] * (n + 1 - 2 * a))
        stats = AlgebraStats(d=d, delta=delta, zeta=zeta, z=1 + n // 2)
        return stats, ComponentSpec(tuple(comps))
    raise ValueError(f"unknown family {family!r}")


def component_consistency(comps: ComponentSpec, stats: AlgebraStats) -> IdentityReport:
    """Check the four aggregation identities tying components to statistics."""
    rep = IdentityReport(suite="component-consistency")
    rep.record(("degree",), comps.degree_sum, stats.d)
    rep.record(("dimension",), comps.dimension, stats.delta)
    rep.record(("centralizer",), comps.centralizer_dim, stats.zeta)
    rep.record(("count-vs-z",), comps.count, stats.z)
    return rep


def degree_via_krawtchouk(n: int) -> tuple[int, int]:
    """Degree of the T/T* family via a Krawtchouk half-range product sum."""
    d = predicted_stats(Family.T_TSTAR, n)[0].d
    M = build_matrix(n + 1, 1)
    return sum(M.entry(1, a) * M.entry(a, 1) for a in range(n // 2 + 1)), d


def delta_via_row_squares(n: int) -> tuple[int, int]:
    """Algebra dimension of the T/T* family as a sum of squared odd degrees."""
    delta = predicted_stats(Family.T_TSTAR, n)[0].delta
    return sum((n + 1 - 2 * a) ** 2 for a in range(n // 2 + 1)), delta


def zeta_via_theorem(n: int) -> tuple[int, int]:
    """Centralizer dimension of the TT*/T*T family via the sum-of-squares identity."""
    zeta = predicted_stats(Family.TTSTAR_TSTART, n)[0].zeta
    N = n + 1
    M = build_matrix(N, 1)
    return sum((N - 2 * a) * M.entry(a, 1) ** 2 for a in range(N // 2 + 1)), zeta


# ---------------------------------------------------------------------------
# family analysis
# ---------------------------------------------------------------------------

def family_generators(family: Family, n: int):
    if family is Family.U:
        return [op_U(n)]
    T, Tstar = op_T(n), op_Tstar(n)
    if family is Family.T_TSTAR:
        return [T, Tstar]
    if family is Family.TTSTAR_TSTART:
        return [T @ Tstar, Tstar @ T]
    raise ValueError(f"unknown family {family!r}")


def _orbit_generators(orbits: OrbitBasis, family: Family) -> list[dict[int, int]]:
    """family_generators(family, n) as orbit-basis vectors."""
    n = orbits.n
    if family is Family.U:
        return [orbits.element(((i, i, i), n - 2 * i) for i in range(n + 1))]
    T = orbits.element(((i + 1, i, i), 1) for i in range(n))
    Tstar = orbits.transpose(T)
    if family is Family.T_TSTAR:
        return [T, Tstar]
    return [orbits.mul(T, Tstar), orbits.mul(Tstar, T)]


def orbit_stats(family: Family, n: int) -> tuple[AlgebraStats, ComponentSpec] | None:
    """algebra_stats(family_generators(family, n)), computed in the S_n orbit
    basis; None when a certificate fails."""
    orbits = OrbitBasis(n)
    delta, z, comps = _stats(orbits, _orbit_generators(orbits, family), 1 << n)
    if comps is None:
        return None
    return AlgebraStats(d=1 << n, delta=delta, zeta=comps.centralizer_dim, z=z), comps


class AlgebraComparison(Record):
    FIELDS = ("family", "n", "computed", "predicted", "components", "matches", "notes",
              "computed_components")
    # computed_components: (m_i, d_i) per Wedderburn block, ascending by the
    # eigenvalue that separated it; None when zeta came from the commuting
    # combinations of the d^2 unit matrices, the routine that also gives the
    # center. Library only: to_json and the CLI text leave it out.
    DEFAULTS = {"matches": dict, "notes": list, "computed_components": lambda: None}

    @property
    def ok(self) -> bool:
        """True iff every tracked statistic matches.

        For the TTSTAR_TSTART family the documented z discrepancy is
        excluded; there the commutativity cross-check (z = delta) is
        tracked instead.
        """
        return all(self.matches.values())

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "family": self.family.value,
            "n": self.n,
            "computed": vars(self.computed).copy(),
            "predicted": vars(self.predicted).copy(),
            "components": [list(c) for c in self.components.components],
            "component_count": self.components.count,
            "matches": dict(self.matches),
            "notes": list(self.notes),
        }


def analyze_family(family: Family, n: int, allow_large: bool = False) -> AlgebraComparison:
    """Compute the four statistics for one operator family and compare.

    The statistics come from orbit_stats, or, when a certificate of the orbit
    path fails and n <= MATRIX_PATH_MAX_N, from algebra_stats on the 2^n x 2^n
    generators; above that such a failure raises BudgetError. The default
    budget is n <= DEFAULT_MAX_N (12); up to LARGE_MAX_N (18) requires
    allow_large.
    """
    limit = LARGE_MAX_N if allow_large else DEFAULT_MAX_N
    if n > limit:
        hint = "" if allow_large else f"; pass allow_large to permit n={LARGE_MAX_N}"
        raise BudgetError(f"n={n} exceeds the exact-computation budget ({limit}){hint}")
    result = orbit_stats(family, n)
    if result is None:
        if n > MATRIX_PATH_MAX_N:
            raise BudgetError(f"a certificate of the orbit path failed at n={n}, and the "
                              f"2^n matrix path is budgeted to n <= {MATRIX_PATH_MAX_N}")
        result = algebra_stats(family_generators(family, n))
    computed, computed_components = result
    predicted, comps = predicted_stats(family, n)

    comparison = AlgebraComparison(
        family=family, n=n, computed=computed, predicted=predicted, components=comps,
        computed_components=computed_components,
    )
    m = comparison.matches
    m["d"] = computed.d == predicted.d
    m["delta"] = computed.delta == predicted.delta
    m["zeta"] = computed.zeta == predicted.zeta
    if family is Family.TTSTAR_TSTART:
        # commutative family: the center must be the whole algebra
        m["z_equals_delta"] = computed.z == computed.delta
        if computed.z != predicted.z:
            comparison.notes.append(
                f"NOTE: stated z differs: computed z={computed.z}, "
                f"stated z={predicted.z}, component count={comps.count}"
            )
    else:
        m["z"] = computed.z == predicted.z
    if n > DEFAULT_MAX_N:
        comparison.notes.append(f"n={n} run above the default budget; expect long runtime")
    return comparison
