"""Tests for the exact algebra-structure statistics."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from krawtchouk.algebra import (
    AlgebraStats,
    BudgetError,
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
    span_closure_basis,
    span_closure_dimension,
    zeta_via_theorem,
)
from krawtchouk.combinatorics import binomial, catalan
from krawtchouk.zeon import ZeonMatrix, op_T, op_Tstar, op_U


def identity_matrix(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def test_span_closure_examples():
    assert span_closure_dimension([op_U(2)]) == 3
    assert span_closure_dimension([identity_matrix(4)]) == 1
    T, Ts = op_T(2), op_Tstar(2)
    assert span_closure_dimension([T @ Ts, Ts @ T]) == 4


def test_span_closure_non_unital_of_nilpotent():
    # single nilpotent generator: non-unital span is 1-dimensional
    nilp = [[0, 1], [0, 0]]
    assert span_closure_dimension([nilp], unital=False) == 1
    assert span_closure_dimension([nilp], unital=True) == 2


def test_span_closure_rational_entries():
    gen = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert span_closure_dimension([gen]) == 2


def test_span_closure_size_mismatch():
    with pytest.raises(ValueError):
        span_closure_dimension([op_U(2), op_U(3)])
    with pytest.raises(ValueError):
        span_closure_dimension([])


def test_span_closure_bounded_by_d_squared():
    d, basis = span_closure_basis([op_T(3), op_Tstar(3)])
    assert d == 8 and len(basis) <= d * d


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
        analyze_family(Family.U, 6)
    with pytest.raises(BudgetError, match=r"budget \(6\)$"):
        analyze_family(Family.U, 7, allow_large=True)


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


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def center_by_definition(gens):
    """delta minus the rank of b -> ([b, g] for every generator g), densely."""
    d, basis = span_closure_basis(gens)
    dense_gens = [[[Fraction(v) for v in row] for row in g] for g in gens]
    rows = []
    for b in basis:
        B = _dense(b, d)
        row = []
        for G in dense_gens:
            BG, GB = _matmul(B, G), _matmul(G, B)
            row += [x - y for r1, r2 in zip(BG, GB) for x, y in zip(r1, r2)]
        rows.append(row)
    return len(basis) - _rank(rows)


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
    assert stats.delta == span_closure_dimension(gens)
    assert stats.zeta == centralizer_dimension(gens)
    assert stats.z == center_dimension(gens) == center_by_definition(gens)
    if comps is not None:
        assert comps.count == stats.z and comps.degree_sum == stats.d
        assert comps.dimension == stats.delta and comps.centralizer_dim == stats.zeta


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
