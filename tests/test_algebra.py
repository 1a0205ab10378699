"""Tests for the exact algebra-structure statistics."""
import copy
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from krawtchouk import algebra
from krawtchouk.algebra import (
    AlgebraStats,
    BudgetError,
    ComponentSpec,
    Family,
    MatrixRing,
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
from krawtchouk.zeon import ZeonMatrix, layer, op_T, op_Tstar, op_U


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
    with pytest.raises(BudgetError):
        analyze_family(Family.U, 13)
    with pytest.raises(BudgetError, match=r"budget \(18\)$"):
        analyze_family(Family.U, 19, allow_large=True)


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
# Wedderburn path against the elimination
# ---------------------------------------------------------------------------

NILPOTENT = [[0, 1], [0, 0]]
ROTATION = [[0, -1], [1, 0]]  # its algebra is Q(i): the center does not split over Q


def _dense(rows, d):
    return [[Fraction(rows.get(i, {}).get(j, 0)) for j in range(d)] for i in range(d)]


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _as_dense(g):
    if isinstance(g, ZeonMatrix):
        return _dense(g.rows, g.size)
    return [[Fraction(v) for v in row] for row in g]


def _echelon(rows):
    """The nonzero rows of a row echelon form of rows, by Fraction elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def _rank(rows):
    return len(_echelon(rows))


def closure_by_definition(gens):
    """A basis of the unital algebra of gens, as dense matrices: starting from
    the identity and the generators, keep every product B G (G a generator)
    that raises the rank of the basis, until no product does or the basis
    spans all d x d matrices."""
    dense_gens = [_as_dense(g) for g in gens]
    d = len(dense_gens[0])
    basis, echelon = [], []

    def keep(B):
        nonlocal echelon
        if len(basis) == d * d:
            return False
        wider = _echelon(echelon + [[x for row in B for x in row]])
        grows = len(wider) > len(echelon)
        if grows:
            basis.append(B)
            echelon = wider
        return grows

    identity = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
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
                row = [Fraction(0)] * (d * d)
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
        assert computed is not None, (family, n)  # the Wedderburn path ran, no fallback
        assert sorted(computed.components) == sorted(predicted.components), (family, n)
        assert "computed_components" not in comparison.to_json()


SMALL_MATRIX = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                       min_size=d, max_size=d))


@settings(max_examples=40, deadline=None)
@given(M=SMALL_MATRIX, symmetric=st.booleans())
def test_wedderburn_path_agrees_with_elimination(M, symmetric):
    Mt = [list(col) for col in zip(*M)]
    if symmetric:
        gens = [[[a + b for a, b in zip(r, rt)] for r, rt in zip(M, Mt)]]
    else:
        gens = [M, Mt]
    stats, comps = algebra_stats(gens)
    basis = closure_by_definition(gens)
    assert stats.delta == span_closure_dimension(gens) == len(basis)
    assert stats.zeta == centralizer_dimension(gens)
    assert stats.z == center_dimension(gens) == center_by_definition(gens, basis)
    if comps is not None:
        assert comps.count == stats.z and comps.degree_sum == stats.d
        assert comps.dimension == stats.delta and comps.centralizer_dim == stats.zeta


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


@pytest.mark.parametrize("gens", [
    [NILPOTENT],  # not closed under transpose
    [ROTATION, [list(col) for col in zip(*ROTATION)]],  # closed, but the center is Q(i)
], ids=["nilpotent", "rotation"])
def test_fallback_returns_the_elimination_values(gens):
    stats, comps = algebra_stats(gens)
    assert comps is None
    assert stats == AlgebraStats(d=2, delta=2, zeta=centralizer_dimension(gens),
                                 z=center_by_definition(gens))
    assert stats.zeta == 2 and stats.z == 2


def test_nested_list_and_rational_generators_reach_the_elimination():
    # integral Fractions from nested lists once reached math.gcd and raised TypeError
    assert centralizer_dimension([NILPOTENT]) == 2
    assert centralizer_dimension([ROTATION]) == 2
    assert centralizer_dimension([[[Fraction(1, 2), 1], [0, Fraction(1, 3)]]]) == 2
    rational = [[[Fraction(1, 2), 0, 1], [0, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 3]]]
    assert center_dimension(rational) == center_by_definition(rational)


@pytest.mark.parametrize("gens", [
    *(family_generators(family, n) for family in Family for n in (1, 2, 3)),
    [op_T(3)],  # not closed under transpose: the unit-matrix fallback runs
], ids=[*(f"{family.value}-{n}" for family in Family for n in (1, 2, 3)), "T-alone"])
def test_algebra_stats_leaves_zeon_generators_unchanged(gens):
    before = [copy.deepcopy(g.rows) for g in gens]
    algebra_stats(gens)
    assert [g.rows for g in gens] == before


# ---------------------------------------------------------------------------
# the shortcuts of algebra_stats: commuting generators and the
# multiplicities from traces
# ---------------------------------------------------------------------------

def assert_commuting_path(gens):
    """algebra_stats on commuting generators runs no center pass outside the
    unit-matrix fallback and gives the values of the definitions; returns the
    components."""
    calls = []
    real = algebra._commuting
    with mock.patch.object(algebra, "_commuting", lambda *args: calls.append(1) or real(*args)):
        stats, comps = algebra_stats(gens)
    assert len(calls) == (comps is None)  # only the unit-matrix fallback may run it
    basis = closure_by_definition(gens)
    assert stats.delta == len(basis) == stats.z == center_by_definition(gens, basis)
    assert stats.zeta == centralizer_by_definition(gens)
    if comps is not None:
        assert comps.count == stats.z and comps.centralizer_dim == stats.zeta
        assert comps.degree_sum == stats.d and all(block == 1 for _, block in comps.components)
    return comps


@settings(max_examples=40, deadline=None)
@given(M=SMALL_MATRIX, diagonal=st.booleans())
def test_commuting_generators_skip_the_center_pass(M, diagonal):
    d = len(M)
    S = [[M[i][j] + M[j][i] if i == j or not diagonal else 0 for j in range(d)] for i in range(d)]
    square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*S)] for row in S]
    gens = [S, [[x - 2 * y for x, y in zip(r2, r)] for r2, r in zip(square, S)]]  # S, S^2 - 2S
    comps = assert_commuting_path(gens)
    if comps is not None and diagonal:  # the blocks are the eigenspaces of S
        assert sorted(m for m, _ in comps.components) == sorted(
            Counter(S[i][i] for i in range(d)).values())


@pytest.mark.parametrize("diagonals", [
    [(0, 0, 1), (3, 0, 0), (0, 1, 0)],
    [(0, 0, 1, 1), (3, 0, 0, 0), (0, 1, 0, 0)],
], ids=["three-blocks", "a-repeated-joint-eigenvalue"])
def test_commuting_generators_separate_every_joint_eigenvalue(diagonals):
    # c = g1 + t g2 + t^2 g3 needs t above twice the largest bound over all the
    # generators: with g1's bound alone t = 3 and c = diag(9, 9, 1, ...)
    d = len(diagonals[0])
    gens = [[[v if i == j else 0 for j in range(d)] for i, v in enumerate(diag)]
            for diag in diagonals]
    comps = assert_commuting_path(gens)
    assert comps is not None
    assert sorted(m for m, _ in comps.components) == sorted(Counter(zip(*diagonals)).values())


def test_multiplicities_solve_the_trace_system_or_refuse():
    roots = [-1, 2, 5]

    def traces(mus):
        return [sum(m * lam**k for m, lam in zip(mus, roots)) for k in range(3)]

    assert algebra._multiplicities(roots, traces([3, 1, 2])) == [3, 1, 2]
    assert algebra._multiplicities(roots, traces([3, 0, 2])) is None  # not positive
    shifted = traces([3, 1, 2])
    shifted[0] += 1
    assert algebra._multiplicities(roots, shifted) is None  # not integral


def test_a_non_square_generator_is_refused():
    with pytest.raises(ValueError, match="square"):
        algebra_stats([[[1, 2]]])
    with pytest.raises(ValueError, match="square"):
        algebra_stats([[[1, 0], [0]]])


def test_a_block_dimension_that_is_not_a_square_falls_back(monkeypatch):
    # one extra element in each block's closure makes d_i^2 + 1, never a square;
    # a block's closure starts from one element, the algebra's from I and the generators
    real = algebra._span_closure

    def padded(ring, gens, seed):
        basis = real(ring, gens, seed)
        return basis + [{}] if len(seed) == 1 else basis

    gens = family_generators(Family.T_TSTAR, 3)
    expected, comps = algebra_stats(gens)
    assert comps is not None and algebra.orbit_stats(Family.T_TSTAR, 3) is not None
    monkeypatch.setattr(algebra, "_span_closure", padded)
    padded_paths = (algebra_stats(gens), algebra.orbit_stats(Family.T_TSTAR, 3))
    assert padded_paths == ((expected, None), None)  # the 2^n and the orbit path
    comparison = analyze_family(Family.T_TSTAR, 3)  # the 2^n fallback, padded too
    assert (comparison.computed, comparison.computed_components) == (expected, None)
    assert expected.zeta == catalan(3)


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


ORBIT_VECTORS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    *[st.dictionaries(st.integers(0, binomial(n + 3, 3) - 1), st.integers(-3, 3).filter(bool),
                      max_size=6)] * 2))


@settings(max_examples=60, deadline=None)
@given(case=ORBIT_VECTORS)
def test_orbit_arithmetic_agrees_with_explicit_matrices(case):
    # both rings of the Wedderburn method: the orbit vectors, and MatrixRing
    # on the kernel rows of their 2^n x 2^n expansions
    n, x, y = case
    orbits = OrbitBasis(n)
    X, Y = expand(orbits, x), expand(orbits, y)
    XY, Xt = _matmul(X, Y), [list(col) for col in zip(*X)]
    trace = sum(X[k][k] for k in range(1 << n))
    bound = max(sum(map(abs, row)) for row in X)
    assert expand(orbits, orbits.mul(x, y)) == XY
    assert expand(orbits, orbits.transpose(x)) == Xt
    assert (orbits.trace(x), orbits.row_sum_bound(x)) == (trace, bound)
    ring, xr, yr = MatrixRing(1 << n), kernel_rows(X), kernel_rows(Y)
    assert ring.mul(xr, yr) == kernel_rows(XY)
    assert ring.transpose(xr) == kernel_rows(Xt)
    assert (ring.trace(xr), ring.row_sum_bound(xr)) == (trace, bound)
    assert ring.vec(xr) == {k: v for k, v in enumerate(sum(X, [])) if v}


@pytest.mark.parametrize("family", list(Family))
def test_orbit_generators_are_the_family_generators(family):
    for n in range(1, 5):
        orbits = OrbitBasis(n)
        expected = [_as_dense(g) for g in family_generators(family, n)]
        assert [expand(orbits, g) for g in algebra._orbit_generators(orbits, family)] == expected


@pytest.mark.parametrize("family", list(Family))
def test_orbit_path_equals_the_matrix_path(family):
    for n in range(1, 7):
        stats, comps = algebra_stats(family_generators(family, n))
        orbit_stats, orbit_comps = algebra.orbit_stats(family, n)
        assert orbit_stats == stats, (family, n)
        assert sorted(orbit_comps.components) == sorted(comps.components), (family, n)


@pytest.mark.parametrize("family,n", [
    (Family.T_TSTAR, 7), (Family.T_TSTAR, 8), (Family.T_TSTAR, 10),
    (Family.TTSTAR_TSTART, 8), (Family.TTSTAR_TSTART, 10), (Family.U, 16),
])
def test_orbit_path_meets_the_closed_forms_beyond_the_matrix_path(family, n):
    # n > MATRIX_PATH_MAX_N: a failed certificate raises BudgetError, with no fallback
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


TRACE = OrbitBasis.trace


@pytest.mark.parametrize("name,broken", [
    ("trace", lambda self, x: TRACE(self, x) + 1),  # the multiplicities fail
    ("row_sum_bound", lambda self, x: 0),  # the integer roots fail
], ids=["trace", "eigenvalue-bound"])
@pytest.mark.parametrize("family", list(Family))
def test_a_failing_orbit_certificate_falls_back_to_the_matrix_path(monkeypatch, name, broken,
                                                                   family):
    n = 4
    expected = algebra_stats(family_generators(family, n))
    monkeypatch.setattr(OrbitBasis, name, broken)
    assert algebra.orbit_stats(family, n) is None
    comparison = analyze_family(family, n)
    assert (comparison.computed, comparison.computed_components) == expected
    # above the matrix path's budget the failure is reported, not run for hours
    with pytest.raises(BudgetError, match="certificate of the orbit path failed at n=7"):
        analyze_family(family, algebra.MATRIX_PATH_MAX_N + 1)


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
