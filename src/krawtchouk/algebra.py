"""Structure statistics of matrix algebras by exact linear algebra.

For a set of integer (or rational) generator matrices this module computes
the degree d, the dimension delta of the generated unital algebra A, the
dimension zeta of its centralizer, and the dimension z of its center, all
exactly over the rationals (fraction-free, on integers).

One method, _stats, runs in either of two rings: MatrixRing(d), the d x d
matrices as rows of the sparse kernel, and orbits.OrbitBasis(n), the
S_n-invariant 2^n x 2^n matrices as vectors over the C(n+3, 3) orbit
matrices. The span closure gives A and delta. For a generator set closed
under transpose the Wedderburn step follows, block by block: a ring maps
its elements into blocks, each a module for A with a weight. MatrixRing is
one block, itself; the orbit basis has Schrijver's block diagonalisation
(A. Schrijver, IEEE Trans. Inf. Theory 51, 2005), n//2 + 1 blocks of size
at most n + 1. For commuting generators the eigenvalues of one element
c = sum t^k g_k come from each block's image of c (minimal polynomial,
integer roots, multiplicities from traces) and merge across blocks. Else
each block's image of A is closed: a block of all m x m matrices is one
component, and any other takes the generic step, its center, a central
element s, its eigenvalues, and the component degrees d_i^2 = dim P_i(s) A.
Certificates tie the blocks to the ring: the traces, the generators'
products, the dimensions, and sum m_i d_i = d.

algebra_stats runs it on the matrices it is given and, when a certificate
fails, takes zeta from the center's routine over the d^2 unit matrices.
analyze_family runs it on the three operator families over the Boolean
lattice in the orbit basis, the only path (algebra_stats on the 2^n matrices
is the tests' oracle), and compares the result with the closed forms.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .combinatorics import binomial, catalan
from .matrices import build_matrix
from .orbits import OrbitBasis
from .report import FrozenRecord, IdentityReport, Record
from .zeon import RowsRing, ZeonMatrix, op_T, op_Tstar, op_U

DEFAULT_MAX_N = 18
LARGE_MAX_N = 32


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


class MatrixRing(RowsRing):
    """The d x d matrices the generators are given as, a ring of one block for
    _stats: itself, with weight 1."""

    def blocks(self) -> list[tuple[int, RowsRing]]:
        return [(1, self)]

    def block_images(self, rows: dict) -> list[dict]:
        return [rows]

    def block_traces(self, rows: dict) -> list[int]:
        return [self.trace(rows)]


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
# Wedderburn components from central elements, block by block
# ---------------------------------------------------------------------------
#
# A generator set closed under transpose generates a *-algebra A, which is
# semisimple: A = sum_i M_{d_i}, the i-th component acting on V = Q^d with
# multiplicity m_i. Every central element c acts as a scalar lambda_i on the
# mu_i = m_i d_i dimensions of component i, so tr c^k = sum_i mu_i lambda_i^k.
# If c's minimal polynomial has degree z and z integer roots, c separates the
# z components: P_i(c) (from _lagrange) is a nonzero multiple of component
# i's central idempotent e_i, and the span of P_i(c) times the words in the
# generators is e_i A, of dimension d_i^2. Then zeta = sum m_i^2.
#
# _stats takes these steps in the blocks of its ring (see the module
# docstring). For commuting generators an eigenvalue of c found in several
# blocks is one component, its multiplicity summed over them by weight;
# otherwise the blocks' dimensions must add up to delta, so that no component
# occurs in two blocks.

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


def _eigenvalues(ring, c, bound: int) -> tuple[list[int], list[int], list] | None:
    """(roots, mus, powers): c's eigenvalues ascending, the dimensions of their
    eigenspaces, and I, c, ..., c^(m-1) for the degree m of c's minimal
    polynomial; None unless its m roots are integers in [-bound, bound] (then c
    is diagonalizable) and the mus positive integers. The minimal polynomial is
    the first relation among the powers of c, from one tagged echelon as in
    _relations."""
    width, ech, powers = ring.size, ExactEchelon(), [ring.identity()]
    while True:
        ech.insert({**ring.vec(powers[-1]), width + len(powers) - 1: 1})
        minpoly = next((piv for lead, piv in ech.pivots.items() if lead >= width), None)
        if minpoly:
            break
        powers.append(ring.mul(powers[-1], c))
    powers.pop()  # c^m
    roots = _integer_roots([minpoly.get(width + k, 0) for k in range(len(powers) + 1)], bound)
    if roots is None or len(roots) != len(powers):
        return None
    mus = _multiplicities(roots, [ring.trace(p) for p in powers])
    return None if mus is None else (roots, mus, powers)


def _stats(ring, gens: list, d: int) -> tuple[int, int | None, ComponentSpec | None]:
    """(delta, z, components) of the unital algebra A that gens generate in ring,
    whose elements are d x d matrices; the components are None when a
    certificate fails, and z too when that happens before the center is known,
    which needs more than one block. d is not read from ring.trace, so
    sum m_i d_i = d checks the traces; the blocks' weighted traces must equal
    ring.trace on A's basis, and the block map must take the product of every
    ordered pair of generators to the product of their images."""
    one = ring.identity()
    basis = _span_closure(ring, gens, [one] + gens)
    delta = len(basis)
    commutative = all(ring.mul(g, h) == ring.mul(h, g)
                      for i, g in enumerate(gens) for h in gens[i + 1:])
    if any(ring.transpose(g) not in gens for g in gens):
        # not a *-algebra: semisimplicity is not guaranteed
        return delta, delta if commutative else len(_commuting(ring, gens, basis)), None
    blocks = ring.blocks()
    z = delta if commutative else None  # a commutative A is its own center
    if blocks is None or any(
            ring.trace(b) != sum(w * tr for (w, _), tr in zip(blocks, ring.block_traces(b)))
            for b in basis):
        return delta, z, None
    images = [ring.block_images(g) for g in gens]
    if any(ring.block_images(ring.mul(g, h))
           != [block.mul(x, y) for (_, block), x, y in zip(blocks, gx, hx)]
           for g, gx in zip(gens, images) for h, hx in zip(gens, images)):
        return delta, z, None
    if commutative:
        comps = _commutative_components(ring, gens, blocks)
    else:
        z, comps = _block_components(ring, blocks, basis, images)
    if comps is None:
        return delta, z, None
    spec = ComponentSpec(tuple(comps))
    return delta, z, spec if spec.degree_sum == d and spec.dimension == delta else None


def _commutative_components(ring, gens: list, blocks: list) -> list | None:
    """(mu, 1) per eigenvalue of c = sum_k t^k g_k, ascending: every block's
    eigenvalues of c, with mu the weighted sum of their multiplicities."""
    # t = 2B + 1, |eigenvalue of g_k| <= B: joint eigenvalues of the generators
    # are the base-t numbers with digits in [-B, B], so two components with
    # different ones take different eigenvalues of c
    t = 2 * max(map(ring.row_sum_bound, gens)) + 1
    c = ring.combine((t ** k, g) for k, g in enumerate(gens))
    bound, mus = ring.row_sum_bound(c), {}
    for (weight, block), image in zip(blocks, ring.block_images(c)):
        eigen = _eigenvalues(block, image, bound)
        if eigen is None:
            return None
        for lam, mu in zip(eigen[0], eigen[1]):
            mus[lam] = mus.get(lam, 0) + weight * mu
    return [(mus[lam], 1) for lam in sorted(mus)]


def _block_components(ring, blocks: list, basis: list,
                      gen_images: list) -> tuple[int | None, list | None]:
    """(z, components) of a non-commutative A from its image in every block,
    given each generator's block images; z is None if those images do not
    add up to A."""
    images = [list(bgens) for bgens in zip(*gen_images)]
    closures = [basis if block is ring else _span_closure(block, bgens, [block.identity()])
                for (_, block), bgens in zip(blocks, images)]
    if sum(map(len, closures)) != len(basis):
        return None, None
    # a block of m x m matrices (m = block.d) whose image is all of them is one
    # component; any other needs its center
    centers = [None if len(closure) == block.d ** 2 else _commuting(block, bgens, closure)
               for (_, block), bgens, closure in zip(blocks, images, closures)]
    z = sum(1 if center is None else len(center) for center in centers)
    comps = []
    for (weight, block), bgens, closure, center in zip(blocks, images, closures, centers):
        if center is None:
            comps.append((weight, block.d))
            continue
        s = block.combine((w * v, closure[k])
                          for w, element in enumerate(center, start=1) for k, v in element.items())
        eigen = _eigenvalues(block, s, block.row_sum_bound(s))
        if eigen is None or len(eigen[0]) != len(center):
            return z, None  # s does not separate the center's components over Q
        roots, mus, powers = eigen
        for lam, mu in zip(roots, mus):
            ideal = block.combine(zip(_lagrange(roots, lam), powers))
            dim = len(_span_closure(block, bgens, [ideal]))
            degree = math.isqrt(dim)
            if degree * degree != dim or mu % degree:
                return z, None
            comps.append((weight * mu // degree, degree))
    return z, comps


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
    basis: the span closure there, the Wedderburn step in Schrijver's blocks
    (OrbitBasis.blocks). None when a certificate fails: a division of the
    block map that leaves a remainder, the weighted block traces against
    OrbitBasis.trace, the generators' products against their block images'
    products, the block dimensions against delta, integer
    eigenvalues and multiplicities, or sum m_i d_i = 2^n."""
    orbits = OrbitBasis(n)
    delta, z, comps = _stats(orbits, _orbit_generators(orbits, family), 1 << n)
    if comps is None:
        return None
    return AlgebraStats(d=1 << n, delta=delta, zeta=comps.centralizer_dim, z=z), comps


class AlgebraComparison(Record):
    FIELDS = ("family", "n", "computed", "predicted", "components", "matches", "notes",
              "computed_components")
    # computed_components: (m_i, d_i) per Wedderburn component. For U and TT
    # they ascend by the eigenvalue of c that separated them; for T they are
    # Schrijver's blocks in order, k = 0..n//2, degree n + 1 - 2k. Library
    # only: to_json and the CLI text leave it out.
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

    The statistics come from orbit_stats alone: a failed certificate raises
    ValueError. The budget, n <= DEFAULT_MAX_N (18) or n <= LARGE_MAX_N (32)
    with allow_large, and n >= 1 (predicted_stats) are checked first.
    """
    limit = LARGE_MAX_N if allow_large else DEFAULT_MAX_N
    if n > limit:
        hint = "" if allow_large else f"; pass --allow-large to permit --n {LARGE_MAX_N}"
        raise BudgetError(f"--n {n} exceeds the budget ({limit}){hint}")
    predicted, comps = predicted_stats(family, n)
    result = orbit_stats(family, n)
    if result is None:
        raise ValueError(f"a certificate of the orbit path failed at n={n}")
    computed, computed_components = result

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
