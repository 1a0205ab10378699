"""Tests for the exact algebra-structure statistics."""
import copy
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from krawtchouk import algebra, cli
from krawtchouk.algebra import (
    AlgebraStats,
    BudgetError,
    CertificateFailed,
    ComponentSpec,
    Family,
    algebra_stats,
    analyze_family,
    center_dimension,
    centralizer_dimension,
    component_consistency,
    degree_via_krawtchouk,
    delta_via_row_squares,
    family_generators,
    predicted_stats,
    span_closure_dimension,
    zeta_via_theorem,
)
from krawtchouk.combinatorics import binomial, catalan
from krawtchouk.matrices import build_matrix
from krawtchouk.orbits import OrbitBasis
from krawtchouk.zeon import RowsRing, ZeonMatrix, layer, mat_mul, op_T, op_Tstar, op_U


def identity_matrix(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def test_span_closure_examples():
    assert span_closure_dimension([op_U(2)]) == 3
    assert span_closure_dimension([[[0, 1], [0, 0]]]) == 2  # nilpotent: identity and itself
    assert span_closure_dimension([identity_matrix(4)]) == 1
    T, Ts = op_T(2), op_Tstar(2)
    assert span_closure_dimension([T @ Ts, Ts @ T]) == 4


def test_span_closure_rational_entries():
    gen = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert span_closure_dimension([gen]) == 2


def test_span_closure_size_mismatch():
    with pytest.raises(ValueError):
        span_closure_dimension([op_U(2), op_U(3)])
    with pytest.raises(ValueError):
        span_closure_dimension([])


def test_span_closure_bounded_by_d_squared():
    assert span_closure_dimension([op_T(3), op_Tstar(3)]) <= 8 * 8


def test_centralizer_examples():
    assert centralizer_dimension([op_U(2)]) == 6 == binomial(4, 2)
    assert centralizer_dimension([op_T(2), op_Tstar(2)]) == 2 == catalan(2)
    assert centralizer_dimension([identity_matrix(3)]) == 9


def test_center_examples():
    assert center_dimension([op_U(2)]) == 3
    assert center_dimension([op_T(4), op_Tstar(4)]) == 3
    assert center_dimension([identity_matrix(5)]) == 1


def test_predicted_stats_examples():
    stats, comps = predicted_stats(Family.T_TSTAR, 4)
    assert stats == AlgebraStats(d=16, delta=35, zeta=14, z=3)
    assert comps.components == ((1, 5), (3, 3), (2, 1))
    stats, comps = predicted_stats(Family.TTSTAR_TSTART, 4)
    assert stats.delta == 9 and stats.zeta == 36
    stats, comps = predicted_stats(Family.U, 1)
    assert stats == AlgebraStats(d=2, delta=2, zeta=2, z=2)
    assert comps.components == ((1, 1), (1, 1))


def test_predicted_stats_rejects_n_zero():
    with pytest.raises(ValueError):
        predicted_stats(Family.U, 0)


def test_component_consistency_passing_families():
    for n in range(1, 11):
        for fam in (Family.U, Family.T_TSTAR):
            stats, comps = predicted_stats(fam, n)
            rep = component_consistency(comps, stats)
            assert rep.ok, (fam, n, rep.failures)


def test_component_consistency_flags_tt_count_mismatch():
    stats, comps = predicted_stats(Family.TTSTAR_TSTART, 2)
    rep = component_consistency(comps, stats)
    assert not rep.ok
    failing = {f.params[0] for f in rep.failures}
    assert failing == {"count-vs-z"}  # count 4 vs stated z = 2
    assert comps.count == 4 and stats.z == 2


def test_degree_via_krawtchouk():
    for n in range(1, 11):
        lhs, rhs = degree_via_krawtchouk(n)
        assert lhs == rhs == 2 ** n


def test_delta_via_row_squares():
    for n in range(1, 11):
        lhs, rhs = delta_via_row_squares(n)
        assert lhs == rhs == binomial(n + 3, 3)


def test_zeta_via_theorem():
    assert zeta_via_theorem(4) == (36, 36)
    assert zeta_via_theorem(3) == (12, 12)
    assert zeta_via_theorem(1) == (2, 2)
    for n in range(1, 11):
        lhs, rhs = zeta_via_theorem(n)
        assert lhs == rhs, n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_analyze_family_small(n):
    for fam in Family:
        comparison = analyze_family(fam, n)
        assert comparison.matches["d"]
        assert comparison.matches["delta"]
        assert comparison.matches["zeta"]
        if fam is Family.TTSTAR_TSTART:
            assert comparison.matches["z_equals_delta"]
            assert comparison.computed.z == comparison.computed.delta
            if comparison.computed.z != comparison.predicted.z:
                assert any("stated z differs" in note for note in comparison.notes)
        else:
            assert comparison.matches["z"]
        assert comparison.ok


def test_commutative_families_have_center_equal_to_algebra():
    for n in range(1, 5):
        for fam in (Family.U, Family.TTSTAR_TSTART):
            gens = family_generators(fam, n)
            assert center_dimension(gens) == span_closure_dimension(gens)


def test_budget_enforced():
    message = r"^--n 33 exceeds the budget \(32\); pass --allow-large to permit --n 48$"
    with pytest.raises(BudgetError, match=message):
        analyze_family(Family.U, 33)
    with pytest.raises(BudgetError, match=r"budget \(48\)$"):
        analyze_family(Family.U, 49, allow_large=True)


def test_analyze_u_n4_matches_closed_forms():
    comparison = analyze_family(Family.U, 4)
    assert comparison.computed == AlgebraStats(d=16, delta=5, zeta=70, z=5)


def test_analyze_t_n3_matches_closed_forms():
    comparison = analyze_family(Family.T_TSTAR, 3)
    c = comparison.computed
    assert (c.delta, c.zeta, c.z) == (20, 5, 2)


def test_analyze_tt_n2_three_way():
    comparison = analyze_family(Family.TTSTAR_TSTART, 2)
    assert vars(comparison.computed) == {"d": 4, "delta": 4, "zeta": 4, "z": 4}
    assert comparison.predicted.z == 2
    assert comparison.components.count == 4
    assert any("stated z differs" in note for note in comparison.notes)


# ---------------------------------------------------------------------------
# algebra_stats and the public dimensions against dense definitions
# ---------------------------------------------------------------------------

NILPOTENT = [[0, 1], [0, 0]]
ROTATION = [[0, -1], [1, 0]]  # its algebra is Q(i): the center does not split over Q


def _matmul(A, B):
    """A B, row by row: each row of A combines the rows of B, skipping its zeros."""
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for a, brow in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def _as_dense(g):
    """g as a dense integer matrix, times the lcm of its denominators: a nonzero
    multiple of a generator generates the same algebra, centralizer and center."""
    if isinstance(g, ZeonMatrix):
        return [[g.rows.get(i, {}).get(j, 0) for j in range(g.size)] for i in range(g.size)]
    g = [[Fraction(v) for v in row] for row in g]
    scale = math.lcm(*(v.denominator for row in g for v in row))
    return [[int(v * scale) for v in row] for row in g]


class DenseEchelon:
    """Fraction-free row echelon form of dense integer rows, one row at a time:
    each pivot is a primitive int row with a positive lead entry."""

    def __init__(self):
        self.pivots = {}  # lead column -> pivot row

    def insert(self, row) -> bool:
        """Reduce row by the pivots in ascending lead order and keep what is
        left, if anything: True iff the row raises the rank."""
        for lead in sorted(self.pivots):
            if row[lead]:
                pivot = self.pivots[lead]
                a, b = pivot[lead], row[lead]
                row = [a * x - b * y for x, y in zip(row, pivot)]
        lead = next((k for k, x in enumerate(row) if x), None)
        if lead is None:
            return False
        g = math.gcd(*row)
        self.pivots[lead] = [x // (g if row[lead] > 0 else -g) for x in row]
        return True


def _rank(rows):
    echelon = DenseEchelon()
    return sum(map(echelon.insert, rows))


def closure_by_definition(gens):
    """A basis of the unital algebra of gens, as dense matrices: starting from
    the identity and the generators, keep every product B G (G a generator)
    that raises the rank of the basis, until no product does or the basis
    spans all d x d matrices."""
    dense_gens = [_as_dense(g) for g in gens]
    d = len(dense_gens[0])
    basis, echelon = [], DenseEchelon()

    def keep(B):
        if len(basis) == d * d or not echelon.insert([x for row in B for x in row]):
            return False
        basis.append(B)
        return True

    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    frontier = [B for B in [identity] + dense_gens if keep(B)]
    while frontier:
        frontier = [P for B in frontier for G in dense_gens if keep(P := _matmul(B, G))]
    return basis


def center_by_definition(gens, basis=None):
    """delta minus the rank of b -> ([b, g] for every generator g), densely,
    over the basis of closure_by_definition unless one is given."""
    basis = basis or closure_by_definition(gens)
    dense_gens = [_as_dense(g) for g in gens]
    rows = []
    for B in basis:
        row = []
        for G in dense_gens:
            BG, GB = _matmul(B, G), _matmul(G, B)
            row += [x - y for r1, r2 in zip(BG, GB) for x, y in zip(r1, r2)]
        rows.append(row)
    return len(basis) - _rank(rows)


def centralizer_by_definition(gens):
    """d^2 minus the rank of the dense commutant system: for every generator G
    and entry (i, j), the row of (X G - G X)[i][j] in the d^2 unknowns X[k][l]."""
    dense_gens = [_as_dense(g) for g in gens]
    d = len(dense_gens[0])
    rows = []
    for G in dense_gens:
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[i * d + k] += G[k][j]  # X[i][k] G[k][j]
                    row[k * d + j] -= G[i][k]  # G[i][k] X[k][j]
                rows.append(row)
    return d * d - _rank(rows)


@pytest.mark.parametrize("family", list(Family))
def test_computed_components_equal_the_predicted_ones(family):
    for n in range(1, 7):
        comparison = analyze_family(family, n, allow_large=True)
        _, predicted = predicted_stats(family, n)
        computed = comparison.computed_components
        assert computed is not None, (family, n)
        assert sorted(computed.components) == sorted(predicted.components), (family, n)
        assert "computed_components" not in comparison.to_json()


SMALL_MATRIX = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                       min_size=d, max_size=d))


def assert_closed(ring, gens, basis, seeds):
    """basis is independent and holds the seeds, and every b g reduces to zero
    against it."""
    echelon = algebra.ExactEchelon()
    assert all(echelon.insert(ring.vec(b)) for b in basis)
    assert all(seed in basis for seed in seeds)
    assert not any(echelon.insert(ring.vec(ring.mul(b, g))) for b in basis for g in gens)


@settings(max_examples=40, deadline=None)
@given(M=SMALL_MATRIX, symmetric=st.booleans())
@example(M=NILPOTENT, symmetric=False)
@example(M=ROTATION, symmetric=False)
def test_algebra_stats_meets_the_definitions(M, symmetric):
    Mt = [list(col) for col in zip(*M)]
    if symmetric:
        gens = [[[a + b for a, b in zip(r, rt)] for r, rt in zip(M, Mt)]]
    else:
        gens = [M, Mt]
    stats = algebra_stats(gens)
    basis = closure_by_definition(gens)
    d, rows = algebra._prepare(gens)
    ring = RowsRing(d)
    assert_closed(ring, rows, algebra._span_closure(ring, rows, [ring.identity()]),
                  [ring.identity()])
    assert stats == AlgebraStats(d=len(M), delta=len(basis), zeta=centralizer_by_definition(gens),
                                 z=center_by_definition(gens, basis))


def test_algebra_stats_normalizes_its_generators_once_and_takes_one_closure(monkeypatch):
    # delta and z are read off the same span closure
    calls = Counter()
    for name in ("_prepare", "_span_closure"):
        real = getattr(algebra, name)
        monkeypatch.setattr(algebra, name,
                            lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    stats = algebra_stats(family_generators(Family.T_TSTAR, 2))
    assert stats == predicted_stats(Family.T_TSTAR, 2)[0]
    assert calls == {"_prepare": 1, "_span_closure": 1}


def layer_projections(orbits):
    return [orbits.element([((i, i, i), 1)]) for i in range(orbits.n + 1)]


@pytest.mark.parametrize("family", list(Family))
def test_the_closure_in_the_orbit_basis_is_the_algebra_by_definition(family):
    # seeded with the identity, and with the layer projections as orbit_stats
    # seeds it: both span the algebra
    for n in range(1, 7):
        orbits = OrbitBasis(n)
        gens = algebra._orbit_generators(orbits, family)
        delta = len(closure_by_definition(family_generators(family, n)))
        for seeds in ([orbits.identity()], layer_projections(orbits)):
            basis = algebra._span_closure(orbits, gens, seeds)
            assert_closed(orbits, gens, basis, seeds)
            assert len(basis) == delta, (n, len(seeds))


def test_the_echelon_keeps_its_pivots_in_insertion_order_and_answers_a_bool():
    # the closure's rounds read the pivots in insertion order, and
    # perfbench/spans.py adds insert's answer to a counter
    echelon = algebra.ExactEchelon()
    assert echelon.insert({3: 2, 5: 4}) is True
    assert echelon.insert({0: -1, 3: 1}) is True
    assert echelon.insert({3: -1, 5: -2}) is False
    assert echelon.insert({}) is False
    assert list(echelon.pivots.items()) == [(3, {3: 1, 5: 2}), (0, {0: 1, 3: -1})]


@settings(max_examples=40, deadline=None)
@given(M=SMALL_MATRIX, with_transpose=st.booleans())
def test_centralizer_matches_the_dense_definition(M, with_transpose):
    gens = [M, [list(col) for col in zip(*M)]] if with_transpose else [M]
    assert centralizer_dimension(gens) == centralizer_by_definition(gens)


@pytest.mark.parametrize("family", list(Family))
def test_family_centralizers_match_the_dense_definition(family):
    for n in (1, 2, 3):
        gens = family_generators(family, n)
        assert centralizer_dimension(gens) == centralizer_by_definition(gens), n


def test_nested_list_and_rational_generators_reach_the_elimination():
    # integral Fractions from nested lists once reached math.gcd and raised TypeError
    assert centralizer_dimension([NILPOTENT]) == 2
    assert centralizer_dimension([ROTATION]) == 2
    assert centralizer_dimension([[[Fraction(1, 2), 1], [0, Fraction(1, 3)]]]) == 2
    rational = [[[Fraction(1, 2), 0, 1], [0, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 3]]]
    assert center_dimension(rational) == center_by_definition(rational)


@pytest.mark.parametrize("gens", [
    *(family_generators(family, n) for family in Family for n in (1, 2, 3)),
    [op_T(3)],  # not closed under transpose
], ids=[*(f"{family.value}-{n}" for family in Family for n in (1, 2, 3)), "T-alone"])
def test_algebra_stats_leaves_zeon_generators_unchanged(gens):
    before = [copy.deepcopy(g.rows) for g in gens]
    algebra_stats(gens)
    assert [g.rows for g in gens] == before


def test_a_non_square_generator_is_refused():
    with pytest.raises(ValueError, match="square"):
        algebra_stats([[[1, 2]]])
    with pytest.raises(ValueError, match="square"):
        algebra_stats([[[1, 0], [0]]])


def refused(name, n):
    """What a refusal by the certificate name says, at n."""
    return pytest.raises(CertificateFailed,
                         match=f"^the {name} certificate of the orbit path failed at n={n}$")


def test_the_orbit_path_refuses_a_block_image_off_its_shape(monkeypatch, capsys):
    # T's image in block 0 loses its subdiagonal entry (1, 0): L is no longer
    # nonzero on the whole subdiagonal, and the shape reader refuses the block
    real = algebra._full_blocks

    def zeroed(blocks, images):
        (T, *rest), *others = images
        T = {i: row for i, row in T.items() if i != 1}
        return real(blocks, [(T, *rest), *others])

    assert algebra.orbit_stats(Family.T_TSTAR, 3)
    monkeypatch.setattr(algebra, "_full_blocks", zeroed)
    with refused("shape", 3):
        algebra.orbit_stats(Family.T_TSTAR, 3)
    message = "the shape certificate of the orbit path failed at n=3"
    with refused("shape", 3):
        analyze_family(Family.T_TSTAR, 3)
    assert cli.main(["algebra", "--family", "T", "--n", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def diagonal(*entries):
    return {i: {i: v} for i, v in enumerate(entries) if v}


def dense(x, m):
    """The m x m matrix of the kernel rows x."""
    return [[x.get(i, {}).get(j, 0) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("diagonals", [
    [(0, 0, 1), (3, 0, 0), (0, 1, 0)],
    [(0, 0, 1, 1), (3, 0, 0, 0), (0, 1, 0, 0)],
], ids=["three-positions", "a-repeated-joint-eigenvalue"])
def test_the_diagonal_reader_counts_joint_eigenvalues(diagonals):
    # one block of weight 2 and one of weight 1 that repeats the first position
    blocks = [(2, len(diagonals[0])), (1, 1)]
    images = [[diagonal(*diag) for diag in diagonals], [diagonal(*diag[:1]) for diag in diagonals]]
    multiplicity = Counter({joint: 2 * m for joint, m in Counter(zip(*diagonals)).items()})
    multiplicity[tuple(diag[0] for diag in diagonals)] += 1
    assert algebra._diagonal_blocks(blocks, images) == [
        (multiplicity[joint], 1) for joint in sorted(multiplicity)]


def test_the_diagonal_reader_refuses_an_off_diagonal_entry():
    blocks = [(1, 1), (1, 2)]
    assert algebra._diagonal_blocks(blocks, [[{0: {0: 1}}], [diagonal(1, 2)]]) == [(2, 1), (1, 1)]
    # N = [[0, 1], [0, 0]] commutes with itself and with I, but is not diagonal;
    # a reader takes n from block 0, of size n + 1
    with refused("shape", 0):
        algebra._diagonal_blocks(blocks, [[{0: {0: 1}}], [{0: {1: 1}}]])
    with refused("shape", 0):
        algebra._diagonal_blocks(blocks, [[{}, {}], [diagonal(1, 1), {0: {1: 1}}]])


def test_the_full_block_reader_needs_a_subdiagonal_and_a_superdiagonal_image():
    blocks = [(3, 2), (1, 1)]
    E, F = {0: {1: 1}}, {1: {0: 1}}  # they generate all 2 x 2 matrices
    assert algebra._full_blocks(blocks, [[E, F], [{}, {}]]) == [(3, 2), (1, 1)]
    # no subdiagonal image, no superdiagonal image, and neither
    for images in ([E, E], [F, F], [diagonal(1, 2), diagonal(2, 1)]):
        with refused("shape", 1):
            algebra._full_blocks(blocks, [images, [{}, {}]])
    L, R = {1: {0: 2}, 2: {1: -1}}, {0: {1: 3}, 1: {2: 1}}
    assert algebra._full_blocks([(1, 3)], [[R, L]]) == [(1, 3)]
    # a missing subdiagonal entry, and an entry off the subdiagonal: I + L and R
    # still generate all 3 x 3 matrices, but only the shape L is read
    with refused("shape", 2):
        algebra._full_blocks([(1, 3)], [[R, {2: {1: -1}}]])
    IL = {0: {0: 1}, 1: {0: 2, 1: 1}, 2: {1: -1, 2: 1}}
    with refused("shape", 2):
        algebra._full_blocks([(1, 3)], [[R, IL]])
    assert span_closure_dimension([dense(R, 3), dense(IL, 3)]) == 9


def block_images(max_m):
    """(m, images) for an m <= max_m: an image on the subdiagonal, one on the
    superdiagonal, each at times with one cell dropped or added, and at most one
    on random cells, in random order, every value a nonzero integer in [-3, 3]."""
    def images(m):
        cells = [(i, j) for i in range(m) for j in range(m)]
        lower = {(a + 1, a) for a in range(m - 1)}
        upper = {(b, a) for a, b in lower}

        def near(shape):
            return st.one_of(st.just(shape), st.sampled_from(cells).map(lambda c: shape ^ {c}))

        def image(shapes):
            return shapes.flatmap(lambda shape: st.fixed_dictionaries(
                {cell: st.integers(-3, 3).filter(bool) for cell in shape}))

        return st.tuples(image(near(lower)), image(near(upper)),
                         st.lists(image(st.sets(st.sampled_from(cells))), max_size=1)).flatmap(
            lambda t: st.permutations([t[0], t[1], *t[2]])).map(lambda xs: (m, [
                {i: {j: v for (r, j), v in x.items() if r == i} for i, _ in x} for x in xs]))
    return st.integers(1, max_m).flatmap(images)


@settings(max_examples=60, deadline=None)
@given(case=block_images(5))
@example(case=(3, [{1: {0: 2}, 2: {1: -1}}, {0: {1: 3}, 1: {2: 1}}]))
def test_a_block_full_by_its_shape_closes_to_all_m_by_m_matrices(case):
    # the generic closure is the shape reader's oracle
    m, images = case
    try:
        algebra._full_blocks([(1, m)], [images])
    except CertificateFailed as refusal:
        assert refusal.name == "shape"
    else:
        assert span_closure_dimension([dense(x, m) for x in images]) == m * m


# ---------------------------------------------------------------------------
# the orbit path against explicit 2^n matrices and against algebra_stats
# ---------------------------------------------------------------------------

def orbit_matrix_by_definition(n, i, j, t):
    """M[i, j, t]: 1 at (x, y) iff |x| = i, |y| = j and |x & y| = t, over bitmasks."""
    return [[int(layer(x) == i and layer(y) == j and layer(x & y) == t)
             for y in range(1 << n)] for x in range(1 << n)]


def expand(orbits, vec):
    """The 2^n x 2^n matrix of an orbit-basis vector, from the definition."""
    size = 1 << orbits.n
    out = [[0] * size for _ in range(size)]
    for k, c in vec.items():
        M = orbit_matrix_by_definition(orbits.n, *orbits.keys[k])
        out = [[a + c * b for a, b in zip(r, m)] for r, m in zip(out, M)]
    return out


def kernel_rows(X):
    """A dense matrix as rows of the sparse kernel: no zero entry, no empty row."""
    rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(X)}
    return {i: row for i, row in rows.items() if row}


def test_orbit_keys_are_the_nonzero_orbit_matrices():
    for n in range(1, 5):
        orbits = OrbitBasis(n)
        nonzero = [(i, j, t) for i in range(n + 1) for j in range(n + 1) for t in range(n + 1)
                   if any(map(any, orbit_matrix_by_definition(n, i, j, t)))]
        assert sorted(orbits.keys) == nonzero and len(nonzero) == binomial(n + 3, 3)


def orbit_vectors(max_n, max_size):
    """(n, x, y) for an n <= max_n and two orbit-basis vectors of at most max_size terms."""
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.just(n),
        *[st.dictionaries(st.integers(0, binomial(n + 3, 3) - 1), st.integers(-3, 3).filter(bool),
                          max_size=max_size)] * 2))


ORBIT_VECTORS = orbit_vectors(4, 6)


@settings(max_examples=60, deadline=None)
@given(case=ORBIT_VECTORS)
def test_orbit_arithmetic_agrees_with_explicit_matrices(case):
    # the orbit vectors, and RowsRing on the kernel rows of their 2^n x 2^n
    # expansions
    n, x, y = case
    orbits = OrbitBasis(n)
    X, Y = expand(orbits, x), expand(orbits, y)
    XY = _matmul(X, Y)
    assert expand(orbits, orbits.mul(x, y)) == XY
    assert expand(orbits, orbits.transpose(x)) == [list(col) for col in zip(*X)]
    ring, xr, yr = RowsRing(1 << n), kernel_rows(X), kernel_rows(Y)
    assert ring.mul(xr, yr) == kernel_rows(XY)
    assert ring.vec(xr) == {k: v for k, v in enumerate(sum(X, [])) if v}


@pytest.mark.parametrize("family", list(Family))
def test_orbit_generators_are_the_family_generators(family):
    for n in range(1, 5):
        orbits = OrbitBasis(n)
        expected = [_as_dense(g) for g in family_generators(family, n)]
        assert [expand(orbits, g) for g in algebra._orbit_generators(orbits, family)] == expected


@pytest.mark.parametrize("family", list(Family))
def test_orbit_path_equals_the_matrix_path(family):
    # the elimination takes about 10 s for T and 45 s for TT at n = 6
    for n in range(1, 6):
        stats, _ = algebra.orbit_stats(family, n)
        assert stats == algebra_stats(family_generators(family, n)), (family, n)


@pytest.mark.parametrize("family,n", [(family, n) for family in Family for n in range(6, 27)])
def test_orbit_path_meets_the_closed_forms_beyond_the_matrix_path(family, n):
    # n > 5, where the tests no longer run the 2^n oracle
    comparison = analyze_family(family, n, allow_large=True)
    predicted, comps = predicted_stats(family, n)
    assert (comparison.computed.delta, comparison.computed.zeta) == (predicted.delta, predicted.zeta)
    assert sorted(comparison.computed_components.components) == sorted(comps.components)
    assert comparison.ok
    if family is Family.TTSTAR_TSTART:
        assert comparison.computed.z == comparison.computed.delta != predicted.z
        assert any("stated z differs" in note for note in comparison.notes)
    else:
        assert comparison.computed.z == predicted.z


def beta_with_j_for_i(self, i, j, t, k):
    """_beta with C(n - k - u, i - u) read as C(n - k - u, j - u): every division
    stays exact and no diagonal key's image changes, so only a product refutes it."""
    n, C = self.n, self._binomial
    return sum((-1) ** (u - t) * C[u][t] * C[n - 2 * k][u - k] * C[n - k - u][j - u] ** 2
               for u in range(max(t, k), min(i, j) + 1))


BETA, TRANSPOSE = OrbitBasis._beta, OrbitBasis.transpose


def beta_plus_one_below_the_diagonal(self, i, j, t, k):
    """_beta plus C(n - 2k, j - k) on the keys (i, i, t) with t < i: every division
    stays exact and each block image of such a key gains 1 on its diagonal, so
    the map loses the trace; U's generators and closure never read those keys."""
    extra = self._binomial[self.n - 2 * k][j - k] if i == j and t < i else 0
    return BETA(self, i, j, t, k) + extra


SPAN_CLOSURE = algebra._span_closure

# mutant: (the certificate that must refuse it, and the object, attribute and
# value that the mutant patches)
BROKEN = {
    "trace": ("trace", OrbitBasis, "_beta", beta_plus_one_below_the_diagonal),
    # T* = 2 T^T, and the generators are not closed under the doubled transpose
    "transpose": ("transpose", OrbitBasis, "transpose",
                  lambda self, x: {k: 2 * v for k, v in TRANSPOSE(self, x).items()}),
    # a division of the block map leaves a remainder
    "block-map": ("division", OrbitBasis, "_beta", lambda self, *key: BETA(self, *key) + 1),
    # the images of the generators' products are not the products of their images
    "block-product": ("block-products", OrbitBasis, "_beta", beta_with_j_for_i),
    # the closure of _stats loses its last element, so delta is one too small
    "closure": ("dimension", algebra, "_span_closure", lambda *args: SPAN_CLOSURE(*args)[:-1]),
}
# U's and TT's generators have only keys (i, i, t), which the swap keeps
UNTOUCHED = {(Family.U, "block-product"), (Family.TTSTAR_TSTART, "block-product")}


@pytest.mark.parametrize("family,broken", [
    (family, broken) for family in Family for broken in BROKEN
    if (family, broken) not in UNTOUCHED
], ids=str)
def test_a_failing_orbit_certificate_is_reported(monkeypatch, capsys, family, broken):
    # at every n, by the certificate that refuses the mutant: no other path
    # answers in its place, and it is no budget error
    name, target, attribute, value = BROKEN[broken]
    monkeypatch.setattr(target, attribute, value)
    for n in (4, 7):
        message = f"the {name} certificate of the orbit path failed at n={n}"
        with refused(name, n) as exc:
            algebra.orbit_stats(family, n)
        assert (exc.value.name, exc.value.n) == (name, n)
        with refused(name, n) as exc:
            analyze_family(family, n)
        assert not isinstance(exc.value, BudgetError)
        assert cli.main(["algebra", "--n", str(n), "--family", family.value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_analyze_family_never_reaches_the_matrix_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("analyze_family reached the 2^n matrix path")

    for name in ("algebra_stats", "family_generators", "centralizer_dimension"):
        monkeypatch.setattr(algebra, name, refuse)
    for family in Family:
        for n in range(1, 7):
            assert analyze_family(family, n).ok, (family, n)


# ---------------------------------------------------------------------------
# Schrijver's block map of the orbit basis, and the components read off it
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(case=orbit_vectors(6, 8))
def test_the_block_map_is_multiplicative_and_keeps_the_trace_and_the_adjoint(case):
    # against the orbit basis's own product and transpose, and the trace of x's
    # 2^n x 2^n matrix
    n, x, y = case
    orbits = OrbitBasis(n)
    blocks = orbits.blocks()
    X, Y = orbits.block_images(x), orbits.block_images(y)
    assert orbits.block_images(orbits.identity()) == [
        {a: {a: 1} for a in range(size)} for _, size in blocks]
    assert orbits.block_images(orbits.mul(x, y)) == list(map(mat_mul, X, Y))
    traces = [sum(a.get(i, {}).get(i, 0) for i in a) for a in X]
    dense = expand(orbits, x)
    assert sum(dense[k][k] for k in range(1 << n)) == sum(
        weight * tr for (weight, _), tr in zip(blocks, traces))
    for k, (a, at) in enumerate(zip(X, orbits.block_images(orbits.transpose(x)))):
        # X(x^T)[b][a] C(n - 2k, a) = X(x)[a][b] C(n - 2k, b)
        C = [binomial(n - 2 * k, r) for r in range(n - 2 * k + 1)]
        assert {(r, c): v * C[c] for r, row in a.items() for c, v in row.items()} \
            == {(r, c): v * C[r] for c, row in at.items() for r, v in row.items()}


@pytest.mark.parametrize("n", [*range(1, 19), algebra.LARGE_MAX_N])
def test_the_blocks_have_the_algebra_s_dimension_and_act_on_2_to_the_n(n):
    blocks = OrbitBasis(n).blocks()  # it raises if a division left a remainder
    assert [size for _, size in blocks] == list(range(n + 1, 0, -2))
    assert sum(size ** 2 for _, size in blocks) == binomial(n + 3, 3)
    assert sum(weight * size for weight, size in blocks) == 1 << n
    assert all(weight > 0 for weight, _ in blocks)


def test_the_blocks_refuse_a_map_that_loses_the_trace(monkeypatch):
    # M[i, i, i]'s image in block 0 is E_ii; doubled, every division is still
    # exact and only the trace check can refuse the map
    build = OrbitBasis._block_map.func

    def doubled(self):
        table = build(self)
        for i in range(self.n + 1):
            p = self.index[i, i, i]
            table[p] = [(k, a, b, 2 * v if k == 0 else v) for k, a, b, v in table[p]]
        return table

    monkeypatch.setattr(OrbitBasis, "_block_map", property(doubled))
    for n in range(1, 8):
        with refused("trace", n):
            OrbitBasis(n).blocks()


def test_the_orbit_path_runs_no_center_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("a center pass ran on the orbit path")

    monkeypatch.setattr(algebra, "_commutator_rank", refuse)
    for family in Family:
        for n in range(1, 9):
            assert algebra.orbit_stats(family, n), (family, n)


def test_the_block_reading_refuses_a_failed_certificate():
    # T and T* + U generate T's algebra, and every other certificate holds for
    # them: only the transpose closure refuses the pair
    for n in range(1, 7):
        orbits = OrbitBasis(n)
        T, Tstar = algebra._orbit_generators(orbits, Family.T_TSTAR)
        U, = algebra._orbit_generators(orbits, Family.U)
        # (T* + U) T - T (T* + U) = U - 2 T, so c is U again
        gens = [T, orbits.combine([(1, Tstar), (1, U)])]
        terms = [(1, (1, 0)), (-1, (0, 1)), (2, 0)]
        with refused("transpose", n):
            algebra._stats(orbits, gens, terms)
        assert algebra._stats(orbits, [T, Tstar], algebra._LAYER_TERMS[Family.T_TSTAR]), n


@pytest.mark.parametrize("family", list(Family))
def test_every_family_forms_U_to_split_its_closure_by_layers(monkeypatch, family):
    # the c that _stats hands to layer_projections, as a 2^n x 2^n matrix
    seen = []
    real = OrbitBasis.layer_projections
    monkeypatch.setattr(OrbitBasis, "layer_projections",
                        lambda self, c: seen.append((self, c)) or real(self, c))
    for n in range(1, 5):
        assert algebra.orbit_stats(family, n), n
        (orbits, c), = seen
        assert expand(orbits, c) == _as_dense(op_U(n)), n
        seen.clear()


def test_the_layer_projections_need_distinct_eigenvalues_on_the_layer_keys():
    orbits = OrbitBasis(3)
    E = layer_projections(orbits)
    U = orbits.element(((i, i, i), 3 - 2 * i) for i in range(4))
    assert orbits.layer_projections(U) == E
    # lambda_0 = 0 has no key, and is still distinct from the others
    assert orbits.layer_projections(orbits.element([((1, 1, 1), 5), ((2, 2, 2), 7),
                                                    ((3, 3, 3), -1)])) == E
    for c in (E[0],  # lambda_1 = lambda_2 = lambda_3 = 0
              orbits.combine([(1, U), (2, E[1])]),  # 3, 3, -1, -3
              orbits.combine([(1, U), (1, orbits.element([((1, 1, 0), 1)]))]),  # (i, i, t), t < i
              orbits.combine([(1, U), (1, orbits.element([((1, 0, 0), 1)]))])):  # off the diagonal
        with refused("layers", 3):
            orbits.layer_projections(c)


@pytest.mark.parametrize("family,terms", [
    # T*T + TT*: keys (i, i, i - 1), and n on every key (i, i, i)
    (Family.T_TSTAR, [(1, (1, 0)), (1, (0, 1))]),
    (Family.T_TSTAR, [(1, (1, 0)), (-1, (0, 1)), (1, 0)]),  # U + T: keys (i + 1, i, i)
    (Family.U, [(1, (0, 0))]),  # U^2: (n - 2i)^2 = (n - 2(n - i))^2
], ids=["T*T+TT*", "an-off-diagonal-key", "a-repeated-eigenvalue"])
def test_the_layer_certificate_is_reported(monkeypatch, capsys, family, terms):
    monkeypatch.setitem(algebra._LAYER_TERMS, family, terms)
    for n in (4, 7):
        orbits = OrbitBasis(n)
        with refused("layers", n):
            algebra._stats(orbits, algebra._orbit_generators(orbits, family), terms)
        message = f"the layers certificate of the orbit path failed at n={n}"
        with refused("layers", n):
            analyze_family(family, n)
        assert cli.main(["algebra", "--n", str(n), "--family", family.value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_blocks_of_T_are_its_components_in_order():
    # each block k is the component (C(n, k) - C(n, k - 1), n - 2k + 1)
    for n in range(1, 9):
        _, comps = algebra.orbit_stats(Family.T_TSTAR, n)
        blocks = OrbitBasis(n).blocks()
        assert list(comps.components) == blocks


# ---------------------------------------------------------------------------
# the symmetric Krawtchouk matrix as the eigenmatrix of the Hamming scheme
# ---------------------------------------------------------------------------

def hamming_scheme(n):
    """The orbit basis, the distance matrices A_k = sum of M[i, j, t] over
    i + j - 2t = k, and F_j = sum_k K[j][k] A_k with K = build_matrix(n, 1).entries
    as stored: F_j is 2^n times the j-th primitive idempotent of the Bose-Mesner
    algebra (Delsarte 1973; MacWilliams and Sloane, ch. 21)."""
    orbits = OrbitBasis(n)
    A = [orbits.element((key, 1) for key in orbits.keys if key[0] + key[1] - 2 * key[2] == k)
         for k in range(n + 1)]
    K = build_matrix(n, 1).entries
    F = [orbits.combine((K[j][k], A[k]) for k in range(n + 1)) for j in range(n + 1)]
    return orbits, A, F


@pytest.mark.parametrize("n", range(1, 9))
def test_the_symmetric_matrix_is_the_eigenmatrix_of_the_hamming_scheme(n):
    # builder at r = 1 against the orbit basis's structure constants; neither
    # side's code is the other's
    orbits, A, F = hamming_scheme(n)
    assert all(F)
    for i in range(n + 1):
        for j in range(n + 1):
            expected = orbits.combine([(1 << n, F[j])]) if i == j else {}
            assert orbits.mul(F[i], F[j]) == expected, (i, j)
    assert orbits.combine((1, f) for f in F) == orbits.combine([(1 << n, orbits.identity())])
    for j in range(n + 1):
        assert orbits.mul(A[1], F[j]) == orbits.combine([(n - 2 * j, F[j])]), j
    for k in range(n + 1):  # A_(-1) = A_(n+1) = 0
        terms = [(k + 1, A[k + 1])] if k < n else []
        terms += [(n - k + 1, A[k - 1])] if k > 0 else []
        assert orbits.mul(A[1], A[k]) == orbits.combine(terms), k
