"""The S_n orbit basis of the Terwilliger algebra of the hypercube.

A matrix on Q^(2^n), rows and columns indexed by the subsets of {1, ..., n},
commutes with every permutation of the n coordinates iff it is a combination
of the orbit matrices M[i, j, t]: the 0/1 matrix with a 1 at (x, y) iff
|x| = i, |y| = j and |x & y| = t. There are C(n + 3, 3) of them, and they
span the Terwilliger algebra of the hypercube (J. T. Go, Europ. J. Combin. 23,
2002; A. Schrijver, IEEE Trans. Inf. Theory 51, 2005). An element is a vector
{k: coefficient} over the keys (i, j, t) of one OrbitBasis, with no zero
coefficient; no method mutates an argument, and only vec returns one.
"""
from __future__ import annotations

from math import comb


class OrbitBasis:
    """The orbit matrices for one n, with the products of pairs cached."""

    def __init__(self, n: int):
        self.n = n
        self.keys = [(i, j, t) for i in range(n + 1) for j in range(n + 1)
                     for t in range(max(0, i + j - n), min(i, j) + 1)]
        self.index = {key: k for k, key in enumerate(self.keys)}
        self._binomial = [[comb(m, y) for y in range(m + 1)] for m in range(n + 1)]
        self._products: dict[tuple[int, int], dict[int, int]] = {}

    @property
    def size(self) -> int:
        return len(self.keys)

    def element(self, terms) -> dict[int, int]:
        """The vector of the sum of c * M[i, j, t] over the ((i, j, t), c) pairs."""
        return self.combine((c, {self.index[key]: 1}) for key, c in terms)

    def identity(self) -> dict[int, int]:
        return self.element(((i, i, i), 1) for i in range(self.n + 1))

    def combine(self, terms) -> dict[int, int]:
        """The sum of c * x over the (c, x) pairs in terms."""
        out: dict[int, int] = {}
        for c, x in terms:
            for k, v in x.items():
                out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def _product(self, p: int, q: int) -> dict[int, int]:
        """M[i, j, t] M[j, k, s]: its (x, z) entry with |x & z| = u counts the y in
        layer j with |x & y| = t and |y & z| = s; a of them lie in x & z, t - a
        in x - z, s - a in z - x and j - t - s + a outside x | z."""
        (i, j, t), (_, k, s) = self.keys[p], self.keys[q]
        C = self._binomial
        out = {}
        for u in range(max(0, i + k - self.n), min(i, k) + 1):
            rest = self.n - i - k + u
            v = sum(C[u][a] * C[i - u][t - a] * C[k - u][s - a] * C[rest][j - t - s + a]
                    for a in range(max(0, t - i + u, s - k + u, t + s - j),
                                   min(u, t, s, rest + t + s - j) + 1))
            if v:
                out[self.index[i, k, u]] = v
        return out

    def mul(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """The product x y: M[i, j, t] M[j', k, s] is 0 unless j = j'."""
        keys, products = self.keys, self._products
        by_row: dict[int, list] = {}
        for q, b in y.items():
            by_row.setdefault(keys[q][0], []).append((q, b))
        out: dict[int, int] = {}
        for p, a in x.items():
            for q, b in by_row.get(keys[p][1], ()):
                prod = products.get((p, q))
                if prod is None:
                    prod = products[p, q] = self._product(p, q)
                ab = a * b
                for r, v in prod.items():
                    out[r] = out.get(r, 0) + ab * v
        return {r: v for r, v in out.items() if v}

    def vec(self, x: dict[int, int]) -> dict[int, int]:
        """The coordinate vector of x: x itself, not a copy."""
        return x

    def transpose(self, x: dict[int, int]) -> dict[int, int]:
        """M[i, j, t] transposed is M[j, i, t]."""
        keys, index = self.keys, self.index
        return {index[keys[k][1], keys[k][0], keys[k][2]]: v for k, v in x.items()}

    def trace(self, x: dict[int, int]) -> int:
        """The trace on Q^(2^n): M[i, i, i] is the identity on the C(n, i) sets of layer i."""
        return sum(self._binomial[self.n][i] * x.get(self.index[i, i, i], 0)
                   for i in range(self.n + 1))

    def row_sum_bound(self, x: dict[int, int]) -> int:
        """The largest absolute row sum on Q^(2^n), a bound on |eigenvalue|: a row
        x of layer i meets C(i, t) C(n - i, j - t) columns of M[i, j, t]."""
        C, sums = self._binomial, [0] * (self.n + 1)
        for k, v in x.items():
            i, j, t = self.keys[k]
            sums[i] += abs(v) * C[i][t] * C[self.n - i][j - t]
        return max(sums)
