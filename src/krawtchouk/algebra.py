"""Structure statistics of matrix algebras by exact linear algebra.

For a set of integer (or rational) generator matrices this module computes
the degree d, the dimension delta of the generated unital algebra A, the
dimension zeta of its centralizer, and the dimension z of its center, all
exactly over the rationals (fraction-free, on integers).

algebra_stats computes them by the definitions on the d x d matrices: delta
is the size of A's span closure, and z and zeta are read off ranks, z as delta
minus the rank of the commutators of that basis with every generator, zeta as
d^2 minus that of the d^2 unit matrices. It is the tests' elimination oracle.

analyze_family computes them for the three operator families over the
Boolean lattice in orbits.OrbitBasis(n), the S_n-invariant 2^n x 2^n
matrices as vectors over the C(n+3, 3) orbit matrices, and compares them
with the closed forms. _stats takes the span closure there (delta), seeded
with the layer projections M[i, i, i], which are polynomials in U and lie in
A, so every vector of the closure lies in one row layer; and it reads the
Wedderburn components off Schrijver's block diagonalisation (A.
Schrijver, IEEE Trans. Inf. Theory 51, 2005), n//2 + 1 blocks of size at
most n + 1, by the shape of the generators' block images: for T, T's image
in every block is nonzero exactly on the subdiagonal and T*'s exactly on the
superdiagonal, so A's image is all m x m matrices, one component; for U and
TT every generator's block image is diagonal, and each distinct tuple of
joint eigenvalues is a component of degree 1. OrbitBasis.blocks() certifies
what depends on n alone: the map keeps the trace, and the blocks by weight
fill Q^(2^n). _stats keeps the family's certificates, which tie the blocks
to the generators. A check that fails raises CertificateFailed by its name:
transpose, layers, division, trace, fill, block-products, shape, dimension.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .combinatorics import binomial, catalan
from .matrices import build_matrix
from .orbits import CertificateFailed, OrbitBasis
from .report import FrozenRecord, IdentityReport, Record
from .zeon import RowsRing, ZeonMatrix, mat_mul, op_T, op_Tstar, op_U

DEFAULT_MAX_N = 32
LARGE_MAX_N = 48


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


class ExactEchelon:
    """Incremental integer row-echelon basis for exact rank computation.

    Each stored pivot is primitive (content 1) with a positive lead entry;
    pivots maps lead columns to pivots in the order they were found.
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


def _span_closure(ring, gens: list, seeds: list) -> list:
    """A basis of the span of the seeds times every word in gens: the seeds and
    the products that an echelon accepted. Seeded with the identity, it is the
    unital algebra that gens generate.

    Each round multiplies the pivots that the round before added to the
    echelon (ring.from_vec turns one back into an element) by every
    generator. A pivot is an integer combination of accepted elements divided
    by its content, so the pivots lie in the span and span what the accepted
    elements span, and every pivot is multiplied by every generator.
    Reduced pivots multiply faster than raw products."""
    ech = ExactEchelon()
    basis = [seed for seed in seeds if ech.insert(ring.vec(seed))]
    done = 0
    while done < len(ech.pivots):
        frontier = list(ech.pivots.values())[done:]
        done = len(ech.pivots)
        for pivot in frontier:
            x = ring.from_vec(pivot)
            for g in gens:
                prod = ring.mul(x, g)
                if ech.insert(ring.vec(prod)):
                    basis.append(prod)
    return basis


def span_closure_dimension(generators) -> int:
    """Dimension of the unital algebra generated by the given matrices: the span
    of the identity times every word in the generators."""
    d, gens = _prepare(generators)
    ring = RowsRing(d)
    return len(_span_closure(ring, gens, [ring.identity()]))


def _commutator_rank(ring, gens: list, elements) -> int:
    """The rank of the commutators [b, g] of the elements b with every
    generator g: each b's commutators, side by side in one vector of width
    len(gens) * ring.size, go into one echelon. For independent elements,
    their number minus this rank is the dimension of their combinations
    that commute with every generator."""
    width = ring.size

    def commutators(b):
        out: dict[int, int] = {}
        for idx, g in enumerate(gens):
            for sign, prod in ((1, ring.mul(b, g)), (-1, ring.mul(g, b))):
                for c, v in ring.vec(prod).items():
                    out[idx * width + c] = out.get(idx * width + c, 0) + sign * v
        return out

    ech = ExactEchelon()
    return sum(map(ech.insert, map(commutators, elements)))


def _units(d: int):
    """The d^2 unit matrices E_kl, a basis of all d x d matrices."""
    return ({k: {l: 1}} for k in range(d) for l in range(d))


def centralizer_dimension(generators) -> int:
    """Dimension of the space of matrices commuting with every generator: d^2
    minus the rank of the commutators of the unit matrices."""
    d, gens = _prepare(generators)
    return d * d - _commutator_rank(RowsRing(d), gens, _units(d))


def center_dimension(generators) -> int:
    """Dimension of the center: algebra elements commuting with all generators,
    the closure's length minus the rank of the commutators of its basis."""
    d, gens = _prepare(generators)
    ring = RowsRing(d)
    basis = _span_closure(ring, gens, [ring.identity()])
    return len(basis) - _commutator_rank(ring, gens, basis)


def algebra_stats(generators) -> AlgebraStats:
    """(d, delta, zeta, z) of the generated unital algebra by the definitions on
    the d x d matrices, as span_closure_dimension, centralizer_dimension and
    center_dimension compute them, on one span closure."""
    d, gens = _prepare(generators)
    ring = RowsRing(d)
    basis = _span_closure(ring, gens, [ring.identity()])
    return AlgebraStats(d=d, delta=len(basis),
                        zeta=d * d - _commutator_rank(ring, gens, _units(d)),
                        z=len(basis) - _commutator_rank(ring, gens, basis))


# ---------------------------------------------------------------------------
# Wedderburn components read off the blocks
# ---------------------------------------------------------------------------
#
# A generator set closed under transpose generates a *-algebra A, which is
# semisimple: A = sum_i M_{d_i}, the i-th component acting on V = Q^d with
# multiplicity m_i, and z = the number of components, zeta = sum m_i^2. A ring
# with blocks splits V into modules for A, each a (weight, size) pair: how
# often it occurs and its dimension. In Schrijver's blocks the families take
# one of two shapes, and _stats reads the components off either; any other
# shape fails a certificate.

def _full_blocks(blocks: list, images: list) -> list:
    """(weight, m) per block of m x m matrices, if the block's images of the
    generators generate all m^2 of them by their shape; else the shape
    certificate fails, at n = block 0's size - 1. A 1 x 1 block is full by the
    identity alone. A larger block needs one image that is nonzero exactly on
    the subdiagonal, L, and one exactly on the superdiagonal, R: then
    R^(m-1) L^(m-1) is a nonzero multiple of E_00, and L^a E_00 R^b one of E_ab."""
    for (_, m), bgens in zip(blocks, images):
        lower = {(a + 1, a) for a in range(m - 1)}
        upper = {(a, b) for b, a in lower}
        shapes = [{(i, j) for i, row in x.items() for j in row} for x in bgens]
        if m > 1 and not (lower in shapes and upper in shapes):
            raise CertificateFailed("shape", blocks[0][1] - 1)
    return blocks


def _diagonal_blocks(blocks: list, images: list) -> list:
    """(m, 1) per distinct tuple of the generators' joint eigenvalues,
    ascending, if every generator's image in every block is diagonal: m counts
    the positions of the tuple on the diagonals, each by its block's weight;
    else shape fails, as in _full_blocks."""
    multiplicity: dict[tuple, int] = {}
    for (weight, m), bgens in zip(blocks, images):
        if any(i != j for x in bgens for i, row in x.items() for j in row):
            raise CertificateFailed("shape", blocks[0][1] - 1)
        for a in range(m):
            joint = tuple(x.get(a, {}).get(a, 0) for x in bgens)
            multiplicity[joint] = multiplicity.get(joint, 0) + weight
    return [(multiplicity[joint], 1) for joint in sorted(multiplicity)]


def _stats(ring, gens: list, layer_terms: list) -> tuple[AlgebraStats, ComponentSpec]:
    """The statistics and the components of the unital algebra A that gens
    generate in ring, read off the ring's blocks: by _full_blocks for
    generators that do not commute, else by _diagonal_blocks. The span closure
    starts from ring.layer_projections(c), polynomials in c that sum to the
    identity, where c = sum coef * gens[k] or coef * gens[k] gens[l] over the
    (coef, k or (k, l)) pairs of layer_terms. The first check that fails, in
    this order, raises CertificateFailed: transpose, gens closed under
    transpose; layers, c has layer projections; division, fill and trace, in
    ring.blocks() (it certifies sum m_i d_i = d, so d is read off the
    components); block-products, the block images of every product of two
    generators are the products of their images; shape, the block reader's;
    dimension, sum d_i^2 = delta: the blocks' images add up to A."""
    if any(ring.transpose(g) not in gens for g in gens):  # semisimplicity needs a *-algebra
        raise CertificateFailed("transpose", ring.n)
    products = {(i, j): ring.mul(g, h) for i, g in enumerate(gens) for j, h in enumerate(gens)}
    seeds = ring.layer_projections(ring.combine(
        (coef, products[k] if isinstance(k, tuple) else gens[k]) for coef, k in layer_terms))
    blocks = ring.blocks()
    images = [ring.block_images(g) for g in gens]
    if any(ring.block_images(prod) != list(map(mat_mul, images[i], images[j]))
           for (i, j), prod in products.items()):
        raise CertificateFailed("block-products", ring.n)
    commutative = all(prod == products[j, i] for (i, j), prod in products.items())
    comps = (_diagonal_blocks if commutative else _full_blocks)(blocks, list(zip(*images)))
    spec = ComponentSpec(tuple(comps))
    delta = len(_span_closure(ring, gens, seeds))
    if spec.dimension != delta:
        raise CertificateFailed("dimension", ring.n)
    return AlgebraStats(d=spec.degree_sum, delta=delta, zeta=spec.centralizer_dim,
                        z=spec.count), spec


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


# U = T*T - TT* in each family, as the layer_terms of _stats
_LAYER_TERMS = {Family.U: [(1, 0)], Family.T_TSTAR: [(1, (1, 0)), (-1, (0, 1))],
                Family.TTSTAR_TSTART: [(1, 1), (-1, 0)]}


def orbit_stats(family: Family, n: int) -> tuple[AlgebraStats, ComponentSpec]:
    """algebra_stats(family_generators(family, n)) and the components, computed
    by _stats in the S_n orbit basis and Schrijver's blocks (OrbitBasis.blocks),
    with the span closure seeded by the layer projections, polynomials in U.
    A failed certificate raises CertificateFailed, as _stats lists them."""
    orbits = OrbitBasis(n)
    return _stats(orbits, _orbit_generators(orbits, family), _LAYER_TERMS[family])


class AlgebraComparison(Record):
    FIELDS = ("family", "n", "computed", "predicted", "components", "matches", "notes",
              "computed_components")
    # computed_components: (m_i, d_i) per Wedderburn component. For U and TT
    # they ascend by the tuple of the generators' joint eigenvalues; for T they
    # are Schrijver's blocks in order, k = 0..n//2, degree n + 1 - 2k. Library
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
    CertificateFailed, a ValueError that names it (see _stats). The budget,
    n <= DEFAULT_MAX_N (32) or n <= LARGE_MAX_N (48) with allow_large, and
    n >= 1 (predicted_stats) are checked first.
    """
    limit = LARGE_MAX_N if allow_large else DEFAULT_MAX_N
    if n > limit:
        hint = "" if allow_large else f"; pass --allow-large to permit --n {LARGE_MAX_N}"
        raise BudgetError(f"--n {n} exceeds the budget ({limit}){hint}")
    predicted, comps = predicted_stats(family, n)
    computed, computed_components = orbit_stats(family, n)

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
