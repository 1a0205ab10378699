"""The S_n orbit basis of the Terwilliger algebra of the hypercube.

A matrix on Q^(2^n), rows and columns indexed by the subsets of {1, ..., n},
commutes with every permutation of the n coordinates iff it is a combination
of the orbit matrices M[i, j, t]: the 0/1 matrix with a 1 at (x, y) iff
|x| = i, |y| = j and |x & y| = t. There are C(n + 3, 3) of them, and they
span the Terwilliger algebra of the hypercube (J. T. Go, Europ. J. Combin. 23,
2002; A. Schrijver, IEEE Trans. Inf. Theory 51, 2005). An element is a vector
{k: coefficient} over the keys (i, j, t) of one OrbitBasis, with no zero
coefficient; no method mutates an argument, and only vec returns one.

Schrijver's block diagonalisation (2005, above) maps the algebra into small
blocks: for k = 0..n//2, block k holds (n - 2k + 1) x (n - 2k + 1) matrices
and acts on Q^(2^n) with multiplicity C(n, k) - C(n, k - 1). M[i, j, t] goes
to entry (i - k, j - k) of block k with value beta(i, j, t, k) / C(n - 2k,
j - k) (see _beta): Schrijver's symmetric blocks conjugated by a diagonal
matrix, so that every entry is an integer. The map is multiplicative and
unital, the trace on Q^(2^n) is the weighted sum of the blocks' traces, and
the adjoint is the transpose weighted by the binomials, X(x^T)[b][a] =
X(x)[a][b] C(n - 2k, b) / C(n - 2k, a). blocks() certifies what depends on n
alone, and a map that fails refutes itself: CertificateFailed names the
division, fill or trace certificate (see blocks).
"""
from __future__ import annotations

from functools import cached_property
from math import comb

from .zeon import Rows


class CertificateFailed(ValueError):
    """A certificate of the orbit path refused at n; algebra._stats lists the names."""

    def __init__(self, name: str, n: int):
        super().__init__(f"the {name} certificate of the orbit path failed at n={n}")
        self.name, self.n = name, n


class OrbitBasis:
    """The orbit matrices for one n, with the products of pairs cached, and
    Schrijver's block map, built on first use: blocks and block_images are the
    blocks off which algebra._stats reads the Wedderburn components.
    layer_projections gives the M[i, i, i] that seed its span closure: a
    product x M[j, k, s] keeps x's row layers."""

    def __init__(self, n: int):
        self.n = n
        self.keys = [(i, j, t) for i in range(n + 1) for j in range(n + 1)
                     for t in range(max(0, i + j - n), min(i, j) + 1)]
        self.index = {key: k for k, key in enumerate(self.keys)}
        self._layers = {self.index[i, i, i]: i for i in range(n + 1)}  # M[i, i, i] -> i
        self._binomial = [[comb(m, y) for y in range(m + 1)] for m in range(n + 1)]
        self._products: dict[tuple[int, int], dict[int, int]] = {}

    def element(self, terms) -> dict[int, int]:
        """The vector of the sum of c * M[i, j, t] over the ((i, j, t), c) pairs."""
        return self.combine((c, {self.index[key]: 1}) for key, c in terms)

    def identity(self) -> dict[int, int]:
        return dict.fromkeys(self._layers, 1)

    def layer_projections(self, c: dict[int, int]) -> list[dict[int, int]]:
        """The layer projections M[i, i, i], i = 0..n, if c = sum_i lambda_i
        M[i, i, i] with distinct lambda_i, so each is a polynomial in c; else layers fails."""
        eigenvalues = [c.get(p, 0) for p in self._layers]
        if len(c) != sum(map(bool, eigenvalues)) or len(set(eigenvalues)) != len(eigenvalues):
            raise CertificateFailed("layers", self.n)
        return [{p: 1} for p in self._layers]

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

    def from_vec(self, vec: dict[int, int]) -> dict[int, int]:
        """The element with coordinate vector vec: vec itself, not a copy."""
        return vec

    def transpose(self, x: dict[int, int]) -> dict[int, int]:
        """M[i, j, t] transposed is M[j, i, t]."""
        keys, index = self.keys, self.index
        return {index[keys[k][1], keys[k][0], keys[k][2]]: v for k, v in x.items()}

    def _beta(self, i: int, j: int, t: int, k: int) -> int:
        """beta(i, j, t, k) = sum_u (-1)^(u - t) C(u, t) C(n - 2k, u - k)
        C(n - k - u, i - u) C(n - k - u, j - u), for k <= i, j <= n - k."""
        n, C = self.n, self._binomial
        beta = 0
        for u in range(max(t, k), min(i, j) + 1):
            term = C[u][t] * C[n - 2 * k][u - k] * C[n - k - u][i - u] * C[n - k - u][j - u]
            beta += -term if (u - t) & 1 else term
        return beta

    @cached_property
    def _block_map(self) -> list[list[tuple[int, int, int, int]]]:
        """Per key (i, j, t), the entries (k, i - k, j - k, value) of its block
        images that are not 0. The division certificate fails if a division by
        C(n - 2k, j - k) leaves a remainder, which refutes the map."""
        n, C = self.n, self._binomial
        table = []
        for i, j, t in self.keys:
            entries = []
            for k in range(min(i, j, n - i, n - j) + 1):
                value, rem = divmod(self._beta(i, j, t, k), C[n - 2 * k][j - k])
                if rem:
                    raise CertificateFailed("division", n)
                if value:
                    entries.append((k, i - k, j - k, value))
            table.append(entries)
        return table

    def blocks(self) -> list[tuple[int, int]]:
        """The (weight, size) of each block k = 0..n//2: C(n, k) - C(n, k - 1) and
        n - 2k + 1, its images being (n - 2k + 1) x (n - 2k + 1) matrices as rows
        of the sparse kernel. It refutes the map by the division certificate if a
        division leaves a remainder; by fill if sum weight * size != 2^n; by trace
        if the weighted traces of some M[i, i, t]'s block images miss its trace on
        Q^(2^n), C(n, i) at t = i and 0 otherwise. Both traces read the keys
        (i, i, t) alone, so the map keeps every trace; and both block readers of
        algebra._stats give sum m_i d_i = 2^n."""
        table = self._block_map
        n, C = self.n, self._binomial[self.n]
        blocks = [(C[k] - (C[k - 1] if k else 0), n - 2 * k + 1) for k in range(n // 2 + 1)]
        if sum(weight * size for weight, size in blocks) != 1 << n:
            raise CertificateFailed("fill", n)
        if any(sum(blocks[k][0] * value for k, _, _, value in entries) != (C[i] if t == i else 0)
               for (i, j, t), entries in zip(self.keys, table) if i == j):
            raise CertificateFailed("trace", n)
        return blocks

    def block_images(self, x: dict[int, int]) -> list[Rows]:
        """The image of x in every block, as rows of the sparse kernel."""
        images: list[Rows] = [{} for _ in range(self.n // 2 + 1)]
        for p, v in x.items():
            for k, a, b, value in self._block_map[p]:
                row = images[k].setdefault(a, {})
                row[b] = row.get(b, 0) + v * value
        return [{a: row for a, row in ((a, {b: w for b, w in row.items() if w})
                                       for a, row in image.items()) if row}
                for image in images]
