"""Exact linear algebra over the rationals.

Everything downstream (orbit dimensions, conormal spaces, rank tests,
transversality certificates) reduces to ranks and kernels of small
matrices with rational entries, so this module keeps all arithmetic in
``fractions.Fraction`` and never touches floating point.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

QQ = Fraction


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class QMatrix:
    """Immutable matrix with Fraction entries, stored row-major."""

    nrows: int
    ncols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "QMatrix":
        rows = [tuple(_q(x) for x in row) for row in rows]
        if rows:
            ncols = len(rows[0])
            assert all(len(r) == ncols for r in rows), "ragged rows"
        else:
            ncols = 0
        flat = tuple(x for row in rows for x in row)
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_cols(cls, ncols_ambient: int, cols: Iterable[Sequence]) -> "QMatrix":
        cols = list(cols)
        rows = [[_q(col[i]) for col in cols] for i in range(ncols_ambient)]
        return cls.from_rows(rows) if cols else cls(ncols_ambient, 0, ())

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls(nrows, ncols, (QQ(0),) * (nrows * ncols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_rows(
            [[QQ(1) if i == j else QQ(0) for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

    def rows(self) -> list:
        return [list(self.row(i)) for i in range(self.nrows)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows(
            [[self[i, j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def mul(self, other: "QMatrix") -> "QMatrix":
        assert self.ncols == other.nrows, "shape mismatch in product"
        out = []
        for i in range(self.nrows):
            ri = self.row(i)
            out.append(
                [
                    sum(ri[a] * other.entries[a * other.ncols + j] for a in range(self.ncols))
                    for j in range(other.ncols)
                ]
            )
        return QMatrix.from_rows(out)

    def add(self, other: "QMatrix") -> "QMatrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return QMatrix(
            self.nrows,
            self.ncols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, c) -> "QMatrix":
        c = _q(c)
        return QMatrix(self.nrows, self.ncols, tuple(c * x for x in self.entries))

    def hstack(self, other: "QMatrix") -> "QMatrix":
        assert self.nrows == other.nrows
        return QMatrix.from_rows(
            [list(self.row(i)) + list(other.row(i)) for i in range(self.nrows)]
        )

    def vstack(self, other: "QMatrix") -> "QMatrix":
        assert self.ncols == other.ncols
        return QMatrix(
            self.nrows + other.nrows, self.ncols, self.entries + other.entries
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QMatrix":
        return QMatrix.from_rows(
            [[self[i, j] for j in col_idx] for i in row_idx]
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def int_rows(self) -> list:
        """Rows rescaled to coprime integers; ranks are unchanged."""
        out = []
        for i in range(self.nrows):
            row = self.row(i)
            denom = 1
            for x in row:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            ints = [int(x * denom) for x in row]
            g = 0
            for v in ints:
                g = gcd(g, abs(v))
            if g > 1:
                ints = [v // g for v in ints]
            out.append(ints)
        return out

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.nrows)
        )
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"


def rank(m: QMatrix) -> int:
    """Exact rank, by fraction-free (Bareiss) elimination on integer rows."""
    rows = [r for r in m.int_rows() if any(r)]
    if not rows:
        return 0
    ncols = m.ncols
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        # every remaining row is updated, even at xi == 0: the exactness
        # of the division rests on all rows carrying the same minor scale
        for i in range(r + 1, len(rows)):
            xi = rows[i][c]
            rows[i] = [
                (rows[i][j] * pv - xi * rows[r][j]) // prev for j in range(ncols)
            ]
        prev = pv
        r += 1
        if r == len(rows):
            break
    return r


def rref(m: QMatrix):
    """Reduced row echelon form; returns (pivot column list, row list)."""
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = []
    r = 0
    for c in range(m.ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows


def kernel(m: QMatrix) -> "Subspace":
    """Right null space {x : m x = 0} as a subspace of Q^ncols."""
    pivots, rows = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    cols = []
    for f in free:
        v = [QQ(0)] * m.ncols
        v[f] = QQ(1)
        for r_i, c in enumerate(pivots):
            v[c] = -rows[r_i][f]
        cols.append(v)
    return Subspace.span(m.ncols, cols)


def solve_homogeneous(constraints: Iterable[Sequence], dim: int) -> "Subspace":
    """Common kernel of a list of linear functionals on Q^dim."""
    rows = [list(c) for c in constraints]
    if not rows:
        return Subspace.full(dim)
    for row in rows:
        assert len(row) == dim, "functional on the wrong coordinate space"
    return kernel(QMatrix.from_rows(rows))


def solve(m: QMatrix, v: Sequence):
    """One solution x of m x = v, or None if inconsistent."""
    aug = m.hstack(QMatrix.from_rows([[x] for x in v]))
    pivots, rows = rref(aug)
    if m.ncols in pivots:
        return None
    x = [QQ(0)] * m.ncols
    for r_i, c in enumerate(pivots):
        x[c] = rows[r_i][m.ncols]
    return x

def inverse(m: QMatrix) -> QMatrix:
    assert m.nrows == m.ncols
    n = m.nrows
    pivots, rows = rref(m.hstack(QMatrix.identity(n)))
    assert pivots == list(range(n)), "matrix is singular"
    return QMatrix.from_rows([row[n:] for row in rows])


@dataclass(frozen=True)
class Subspace:
    """Column span with a canonical (column-reduced) basis.

    Canonical form makes equality of subspaces plain dataclass equality.
    """

    ambient_dim: int
    basis: QMatrix  # ambient_dim x dim, full column rank, canonical

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            assert len(v) == ambient_dim, "vector outside the ambient space"
        if not vecs:
            return cls(ambient_dim, QMatrix(ambient_dim, 0, ()))
        _, rows = rref(QMatrix.from_rows(vecs))
        rows = [r for r in rows if any(x != 0 for x in r)]
        return cls(ambient_dim, QMatrix.from_rows(rows).transpose() if rows
                   else QMatrix(ambient_dim, 0, ()))

    @classmethod
    def from_matrix(cls, m: QMatrix) -> "Subspace":
        return cls.span(m.nrows, [m.col(j) for j in range(m.ncols)])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QMatrix.identity(ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QMatrix(ambient_dim, 0, ()))

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def contains_vector(self, v: Sequence) -> bool:
        if self.dim == 0:
            return all(_q(x) == 0 for x in v)
        return solve(self.basis, [_q(x) for x in v]) is not None

    def contains(self, other: "Subspace") -> bool:
        assert self.ambient_dim == other.ambient_dim
        stacked = self.basis.hstack(other.basis)
        return rank(stacked) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim
        return Subspace.from_matrix(self.basis.hstack(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # x = B1 a = B2 b; solve [B1 | -B2] (a,b) = 0 and map a through B1.
        paired = self.basis.hstack(other.basis.scale(-1))
        ker = kernel(paired)
        vecs = []
        for j in range(ker.dim):
            a = ker.basis.col(j)[: self.dim]
            vecs.append(
                [
                    sum(self.basis[i, c] * a[c] for c in range(self.dim))
                    for i in range(self.ambient_dim)
                ]
            )
        return Subspace.span(self.ambient_dim, vecs)


_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SeedStream:
    """Small deterministic generator (splitmix64).

    The standard library's Random would do, but an explicit generator pins
    the byte-identical-output guarantee to this file rather than to the
    interpreter version.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        return _mix64(self.state)

    def randint(self, lo: int, hi: int) -> int:
        assert lo <= hi
        return lo + self.next_u64() % (hi - lo + 1)

    def derive(self, *tags) -> "SeedStream":
        x = self.state
        for tag in tags:
            if isinstance(tag, str):
                tag = zlib.crc32(tag.encode("utf-8"))
            x = _mix64(x ^ (tag & _MASK64) ^ 0xD1B54A32D192ED03)
        return SeedStream(x)


def random_matrix(nrows: int, ncols: int, seed: int, height_bound: int = 100) -> QMatrix:
    """Deterministic integer matrix with entries in [-height_bound, height_bound]."""
    assert height_bound >= 0
    rng = SeedStream(seed)
    return random_matrix_from(rng, nrows, ncols, height_bound)


def random_matrix_from(rng: SeedStream, nrows: int, ncols: int, height_bound: int = 100) -> QMatrix:
    return QMatrix.from_rows(
        [
            [rng.randint(-height_bound, height_bound) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )
