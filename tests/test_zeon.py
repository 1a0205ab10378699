"""Tests for the Boolean-lattice zeon operators."""

import pytest
from hypothesis import given, settings, strategies as st

from krawtchouk.combinatorics import binomial
from krawtchouk.zeon import (
    ZeonMatrix,
    combine,
    layer,
    lower_op,
    mat_mul,
    op_T,
    op_Tstar,
    op_U,
    raise_op,
    transpose,
)


def test_layer():
    assert [layer(I) for I in range(8)] == [0, 1, 1, 2, 1, 2, 2, 3]


def test_raise_n2_i1_explicit():
    R = raise_op(2, 1)
    # empty -> {1}, {2} -> {1,2}; columns {1} and {1,2} annihilate
    assert sorted(R.items()) == [(0b01, 0b00, 1), (0b11, 0b10, 1)]


def test_lower_n2_i1_explicit():
    L = lower_op(2, 1)
    assert sorted(L.items()) == [(0b00, 0b01, 1), (0b10, 0b11, 1)]


def test_raise_n1():
    R = raise_op(1, 1)
    assert R.size == 2 and list(R.items()) == [(1, 0, 1)]
    L = lower_op(1, 1)
    assert list(L.items()) == [(0, 1, 1)]


def test_raise_nonzero_count():
    assert raise_op(3, 2).nnz() == 4  # subsets of {1,2,3} not containing 2


def test_operator_index_range():
    with pytest.raises(ValueError):
        raise_op(3, 0)
    with pytest.raises(ValueError):
        lower_op(3, 4)


def test_op_T_action_n2():
    T = op_T(2)
    assert T.get(0b01, 0) == 1 and T.get(0b10, 0) == 1  # empty -> e1 + e2
    assert T.get(0b11, 0b01) == 1  # e1 -> e12


def test_op_T_n1_is_single_raise():
    assert op_T(1) == raise_op(1, 1)


def test_op_T_nonzero_count():
    for n in range(1, 9):
        T = op_T(n)
        assert T.nnz() == n * 2 ** (n - 1)
        assert T.nnz() == sum((n - l) * binomial(n, l) for l in range(n + 1))


def test_tstar_is_transpose_of_t():
    for n in range(1, 9):
        assert op_Tstar(n) == op_T(n).transpose()


def test_square_zero_and_commutation():
    for n in range(1, 9):
        raises = [raise_op(n, i) for i in range(1, n + 1)]
        lowers = [lower_op(n, i) for i in range(1, n + 1)]
        for i in range(n):
            assert (raises[i] @ raises[i]).is_zero()
            assert (lowers[i] @ lowers[i]).is_zero()
            assert raises[i].transpose() == lowers[i]
            for k in range(i + 1, n):
                assert raises[i] @ raises[k] == raises[k] @ raises[i]
                assert lowers[i] @ lowers[k] == lowers[k] @ lowers[i]


def test_op_U_diagonal_spectrum():
    assert op_U(2).diagonal() == [2, 0, 0, -2]
    assert op_U(1).diagonal() == [1, -1]
    for n in range(1, 9):
        U = op_U(n)
        assert U.is_diagonal()
        diag = U.diagonal()
        assert diag == [n - 2 * layer(I) for I in range(1 << n)]
        for l in range(n + 1):
            assert diag.count(n - 2 * l) >= binomial(n, l)


def test_sum_of_per_generator_commutators_is_U():
    for n in range(1, 9):
        total = ZeonMatrix(n)
        for i in range(1, n + 1):
            R, L = raise_op(n, i), lower_op(n, i)
            total = total + (L @ R - R @ L)
        assert total == op_U(n)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        op_T(2) @ op_T(3)
    with pytest.raises(ValueError):
        op_T(2) + op_T(3)


def test_index_bounds():
    M = ZeonMatrix(2)
    with pytest.raises(IndexError):
        M._set(4, 0, 1)


def test_coordinate_export():
    text = op_U(2).to_coordinate_text("U")
    lines = text.strip().split("\n")
    assert lines[0] == "# zeon n=2 op=U"
    assert lines[1:] == ["0 0 2", "3 3 -2"]


def test_json_export():
    doc = op_U(2).to_json_dict("U")
    assert doc["schema"] == 1
    assert doc["n"] == 2 and doc["size"] == 4
    assert doc["entries"] == [[0, 0, 2], [3, 3, -2]]
    assert doc["diagonal"] == [2, 0, 0, -2]
    doc_t = op_T(1).to_json_dict("T")
    assert doc_t["entries"] == [[1, 0, 1]]
    assert "diagonal" not in doc_t


# ---------------------------------------------------------------------------
# laws of the sparse kernel, on random sparse integer matrices at n <= 3
# ---------------------------------------------------------------------------

@st.composite
def zeon_matrices(draw, count):
    """``count`` random sparse integer ZeonMatrix values sharing one n <= 3."""
    n = draw(st.integers(0, 3))
    index = st.integers(0, (1 << n) - 1)
    entries = st.dictionaries(st.tuples(index, index), st.integers(-4, 4), max_size=12)
    return [ZeonMatrix(n, draw(entries)) for _ in range(count)]


@st.composite
def partial_permutations(draw, n):
    """A ZeonMatrix with at most one term in each row and column: some rows of a
    permutation matrix, each times a coefficient in -3..3 (0 drops the row) or a
    large one."""
    coefficient = st.one_of(st.integers(-3, 3), st.sampled_from([10**30 + 7, -(2**70)]))
    columns = draw(st.permutations(range(1 << n)))
    return ZeonMatrix(n, {(i, k): draw(coefficient) for i, k in enumerate(columns)
                          if draw(st.booleans())})


def keeps_invariant(rows: dict) -> bool:
    """No zero entry and no empty row."""
    return all(row and all(row.values()) for row in rows.values())


def dense(rows: dict, size: int) -> list[list[int]]:
    return [[rows.get(i, {}).get(j, 0) for j in range(size)] for i in range(size)]


def dense_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@settings(max_examples=60, deadline=None)
@given(zeon_matrices(3))
def test_kernel_laws(mats):
    A, B, C = mats
    results = {
        "assoc-left": (A @ B) @ C,
        "assoc-right": A @ (B @ C),
        "transpose-of-product": (A @ B).transpose(),
        "product-of-transposes": B.transpose() @ A.transpose(),
        "left-distributed": A @ (B + C),
        "right-distributed": A @ B + A @ C,
        "self-difference": A - A,
        "negation": -A,
    }
    assert all(keeps_invariant(M.rows) for M in results.values())
    assert results["assoc-left"] == results["assoc-right"]
    assert results["transpose-of-product"] == results["product-of-transposes"]
    assert results["left-distributed"] == results["right-distributed"]
    assert results["self-difference"].is_zero()
    assert results["self-difference"] == ZeonMatrix(A.n)
    assert A + results["negation"] == ZeonMatrix(A.n)


@settings(max_examples=60, deadline=None)
@given(zeon_matrices(2), st.integers(-3, 3), st.integers(-3, 3), st.data())
def test_kernel_matches_dense_arithmetic(mats, a, b, data):
    A, B = mats
    P = data.draw(partial_permutations(A.n))  # every row has one term or none
    dA, dB, dP = (dense(M.rows, A.size) for M in (A, B, P))
    results = [
        (mat_mul(A.rows, B.rows), dense_mul(dA, dB)),
        (mat_mul(P.rows, A.rows), dense_mul(dP, dA)),
        (mat_mul(A.rows, P.rows), dense_mul(dA, dP)),
        (mat_mul(P.rows, P.rows), dense_mul(dP, dP)),
        (combine([(a, A.rows), (b, B.rows)]),
         [[a * x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(dA, dB)]),
        (transpose(A.rows), [list(col) for col in zip(*dA)]),
    ]
    for rows, expected in results:
        assert keeps_invariant(rows)
        assert dense(rows, A.size) == expected


def test_kernel_leaves_its_arguments_unchanged():
    A, B = op_T(3), op_Tstar(3)
    before = (repr(A.rows), repr(B.rows))
    mat_mul(A.rows, B.rows), combine([(2, A.rows), (-1, B.rows)]), transpose(A.rows)
    A @ B, A + B, A - B, -A, A.transpose()
    assert (repr(A.rows), repr(B.rows)) == before
