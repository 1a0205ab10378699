"""Boolean-lattice operators built from zeons (commuting square-zero generators).

Basis elements e_I are indexed by subsets of {1, ..., n}, encoded as
bitmasks: bit i-1 set means i is in I. The basis is ordered by bitmask
value. Operators act on column vectors, so composition A @ B applies B
first.
"""
from __future__ import annotations


def layer(mask: int) -> int:
    """Cardinality of the subset encoded by the bitmask."""
    return bin(mask).count("1")


Rows = dict[int, dict[int, int]]

# ---------------------------------------------------------------------------
# the sparse integer matrix kernel, shared with the algebra statistics
# ---------------------------------------------------------------------------
#
# A matrix is a dict of rows {i: {j: value}} with no zero entry and no empty
# row. Every function below takes and returns matrices of that form, and
# returns a new matrix without mutating its arguments.

def mat_mul(A: Rows, B: Rows) -> Rows:
    """The product A B."""
    out: Rows = {}
    for i, arow in A.items():
        if len(arow) == 1:  # row k of B times a; nonzero ints have nonzero products
            (k, a), = arow.items()
            brow = B.get(k)
            if brow:
                out[i] = dict(brow) if a == 1 else {j: a * v for j, v in brow.items()}
            continue
        acc: dict[int, int] = {}
        for k, av in arow.items():
            brow = B.get(k)
            if brow:
                for j, bv in brow.items():
                    acc[j] = acc.get(j, 0) + av * bv
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def combine(terms) -> Rows:
    """The sum of c * A over the (c, A) pairs in terms."""
    out: Rows = {}
    for c, A in terms:
        if not c:
            continue
        for i, row in A.items():
            acc = out.get(i)
            if acc is None:  # no entry of A is zero, so neither is c * v
                out[i] = dict(row) if c == 1 else {j: c * v for j, v in row.items()}
                continue
            for j, v in row.items():
                w = acc.get(j, 0) + c * v
                if w:
                    acc[j] = w
                else:
                    del acc[j]
            if not acc:
                del out[i]
    return out


def transpose(A: Rows) -> Rows:
    out: Rows = {}
    for i, row in A.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


class RowsRing:
    """The d x d integer matrices as rows of the kernel, with the operations that
    algebra_stats, the statistics by the definitions, needs; an element's vector
    is its row-major vectorization."""

    mul = staticmethod(mat_mul)

    def __init__(self, d: int):
        self.d = d
        self.size = d * d  # the width of the vectors

    def identity(self) -> Rows:
        return {i: {i: 1} for i in range(self.d)}

    def vec(self, rows: Rows) -> dict[int, int]:
        return {i * self.d + j: v for i, row in rows.items() for j, v in row.items()}

    def from_vec(self, vec: dict[int, int]) -> Rows:
        """The matrix whose row-major vectorization is vec (no zero entry)."""
        rows: Rows = {}
        for c, v in vec.items():
            i, j = divmod(c, self.d)
            rows.setdefault(i, {})[j] = v
        return rows


class ZeonMatrix:
    """Sparse exact-integer matrix of size 2^n x 2^n over the subset basis.

    Entries are stored as rows[i][j] under the kernel's invariant: no zero
    entry and no empty row. Instances are treated as immutable after
    construction.
    """

    def __init__(self, n: int, entries: dict[tuple[int, int], int] | None = None):
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        self.n = n
        self.size = 1 << n
        self.rows: Rows = {}
        if entries:
            for (i, j), v in entries.items():
                self._set(i, j, v)

    def _set(self, i: int, j: int, v: int) -> None:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"index ({i}, {j}) outside {self.size}x{self.size}")
        if v == 0:
            return
        self.rows.setdefault(i, {})[j] = v

    def _new(self, rows: Rows) -> "ZeonMatrix":
        out = ZeonMatrix(self.n)
        out.rows = rows
        return out

    def _rows_of(self, other: "ZeonMatrix") -> Rows:
        if self.n != other.n:
            raise ValueError(f"size mismatch: n={self.n} vs n={other.n}")
        return other.rows

    def get(self, i: int, j: int) -> int:
        return self.rows.get(i, {}).get(j, 0)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def items(self):
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                yield i, j, row[j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZeonMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __add__(self, other: "ZeonMatrix") -> "ZeonMatrix":
        return self._new(combine([(1, self.rows), (1, self._rows_of(other))]))

    def __sub__(self, other: "ZeonMatrix") -> "ZeonMatrix":
        return self._new(combine([(1, self.rows), (-1, self._rows_of(other))]))

    def __neg__(self) -> "ZeonMatrix":
        return self._new(combine([(-1, self.rows)]))

    def __matmul__(self, other: "ZeonMatrix") -> "ZeonMatrix":
        return self._new(mat_mul(self.rows, self._rows_of(other)))

    def transpose(self) -> "ZeonMatrix":
        return self._new(transpose(self.rows))

    def is_zero(self) -> bool:
        return not self.rows

    def is_diagonal(self) -> bool:
        return all(i == j for i, j, _ in self.items())

    def diagonal(self) -> list[int]:
        return [self.get(i, i) for i in range(self.size)]

    def to_coordinate_text(self, name: str = "") -> str:
        """Coordinate form: header with n, then 'row col value' per nonzero."""
        header = f"# zeon n={self.n}" + (f" op={name}" if name else "")
        lines = [header]
        lines.extend(f"{i} {j} {v}" for i, j, v in self.items())
        return "\n".join(lines) + "\n"

    def to_json_dict(self, name: str = "") -> dict:
        d = {
            "schema": 1,
            "n": self.n,
            "size": self.size,
            "entries": [[i, j, v] for i, j, v in self.items()],
        }
        if name:
            d["op"] = name
        if self.is_diagonal():
            d["diagonal"] = self.diagonal()
        return d


def raise_op(n: int, i: int) -> ZeonMatrix:
    """Multiplication by e_i: e_I -> e_({i} u I) when i is not in I, else 0."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index i={i} outside [1, {n}]")
    bit = 1 << (i - 1)
    M = ZeonMatrix(n)
    for I in range(1 << n):
        if not I & bit:
            M._set(I | bit, I, 1)
    return M


def lower_op(n: int, i: int) -> ZeonMatrix:
    """The adjoint of raise_op: e_I -> e_(I \\ {i}) when i is in I, else 0."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index i={i} outside [1, {n}]")
    bit = 1 << (i - 1)
    M = ZeonMatrix(n)
    for I in range(1 << n):
        if I & bit:
            M._set(I & ~bit, I, 1)
    return M


def zeon_sum(n: int, terms) -> ZeonMatrix:
    """The sum of c * A over the (c, A) pairs in terms, in one combine."""
    return ZeonMatrix(n)._new(combine((c, A.rows) for c, A in terms))


def op_T(n: int) -> ZeonMatrix:
    """T = sum of the raising operators over i = 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return zeon_sum(n, ((1, raise_op(n, i)) for i in range(1, n + 1)))


def op_Tstar(n: int) -> ZeonMatrix:
    """T* = sum of the lowering operators; equals the transpose of T."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return zeon_sum(n, ((1, lower_op(n, i)) for i in range(1, n + 1)))


def op_U(n: int) -> ZeonMatrix:
    """The commutator U = T* T - T T*; diagonal with entries n - 2*layer(I)."""
    T = op_T(n)
    Tstar = op_Tstar(n)
    return Tstar @ T - T @ Tstar
