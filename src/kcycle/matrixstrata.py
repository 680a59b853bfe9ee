"""Rank strata in spaces of symmetric and skew-symmetric matrices.

The general linear group acts by congruence x -> AxA^T; orbits are the
rank strata (rank is even in the skew case).  The conormal direction
test, tangent spaces, and the known characteristic cycle table for
these strata live here.  Everything is written in upper-triangle
coordinates so that dimension counts are exact integers.  The trace
pairing with a coordinate basis matrix, and the product by one, touch
one or two entries, so pairing_row and product_rows read them off
instead of forming the dense basis matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .exactla import QMatrix, SeedStream, Subspace, rank, random_matrix_from, solve_homogeneous


class Flavor(str, Enum):
    SYMMETRIC = "symmetric"
    SKEW = "skew"


def flavor_dim(flavor: Flavor, m: int) -> int:
    return m * (m + 1) // 2 if flavor == Flavor.SYMMETRIC else m * (m - 1) // 2


def flavor_sign(flavor: Flavor) -> int:
    """x^T = sign * x for matrices of the flavor."""
    return 1 if flavor == Flavor.SYMMETRIC else -1


def coordinate_pairs(flavor: Flavor, m: int) -> list:
    """Positions (a, b), a <= b, of the upper-triangle coordinates, in order."""
    start = 0 if flavor == Flavor.SYMMETRIC else 1
    return [(a, b) for a in range(m) for b in range(a + start, m)]


@lru_cache(maxsize=None)
def coordinate_basis(flavor: Flavor, m: int) -> tuple:
    """Basis matrices matching the upper-triangle coordinate order.

    The matrix of (a, b) has 1 at (a, b) and sign at (b, a).
    """
    out = []
    for a, b in coordinate_pairs(flavor, m):
        rows = [[0] * m for _ in range(m)]
        rows[b][a] = flavor_sign(flavor)
        rows[a][b] = 1
        out.append(QMatrix.from_rows(rows))
    return tuple(out)


def is_flavored(x: QMatrix, flavor: Flavor) -> bool:
    if x.nrows != x.ncols:
        return False
    sign = flavor_sign(flavor)
    return all(
        x[a, b] == sign * x[b, a] for a in range(x.nrows) for b in range(a, x.ncols)
    )


def flavor_coords(x: QMatrix, flavor: Flavor) -> tuple:
    assert is_flavored(x, flavor), "matrix does not have the stated symmetry"
    return tuple(x[a, b] for a, b in coordinate_pairs(flavor, x.nrows))


def flavor_from_coords(coords, flavor: Flavor, m: int) -> QMatrix:
    basis = coordinate_basis(flavor, m)
    assert len(coords) == len(basis)
    acc = QMatrix.zeros(m, m)
    for c, b in zip(coords, basis):
        if c:
            acc = acc.add(b.scale(c))
    return acc


def trace_pairing(c: QMatrix, d: QMatrix):
    """tr(c d), the pairing identifying the flavor space with its dual.

    Dense; pairing_row is the same pairing against the coordinate basis.
    """
    return sum(c[a, b] * d[b, a] for a in range(c.nrows) for b in range(c.ncols))


def pairing_row(d: QMatrix, flavor: Flavor) -> list:
    """trace_pairing(bc, d) for each matrix bc of coordinate_basis.

    The pairing with the (a, b) basis matrix is d[b, a] + sign * d[a, b],
    or d[a, a] on the diagonal, so it is read off two entries of d.
    """
    sign = flavor_sign(flavor)
    return [d[a, a] if a == b else d[b, a] + sign * d[a, b]
            for a, b in coordinate_pairs(flavor, d.nrows)]


def product_rows(x: QMatrix, flavor: Flavor) -> list:
    """Entry (r, c) of x C as a functional of C's flavor coordinates.

    Row r * m + c holds (x bc)[r, c] for each matrix bc of
    coordinate_basis.  Column b of x bc is column a of x and, off the
    diagonal, column a of x bc is sign times column b of x.
    """
    m = x.nrows
    sign = flavor_sign(flavor)
    pairs = coordinate_pairs(flavor, m)
    out = []
    for r in range(m):
        xr = x.row(r)
        for c in range(m):
            out.append([(xr[a] if c == b else 0) + (sign * xr[b] if c == a != b else 0)
                        for a, b in pairs])
    return out


@dataclass(frozen=True, order=True)
class StratumId:
    flavor: Flavor
    size: int
    rank: int

    def __post_init__(self):
        if not (0 <= self.rank <= self.size):
            raise ValueError(f"rank {self.rank} out of range for size {self.size}")
        if self.flavor == Flavor.SKEW and self.rank % 2:
            raise ValueError("skew matrices have even rank")

    def label(self) -> str:
        idx = self.rank if self.flavor == Flavor.SYMMETRIC else self.rank // 2
        return f"O{idx}"


@dataclass(frozen=True)
class MatrixCC:
    """Characteristic cycle of a rank stratum: stratum -> multiplicity."""

    terms: tuple  # ((StratumId, mult), ...) ordered by decreasing rank

    def multiplicity(self, sid: StratumId) -> int:
        for s, mult in self.terms:
            if s == sid:
                return mult
        return 0

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def irreducible(self) -> bool:
        return len(self.terms) == 1


def cc_table(flavor: Flavor, m: int, r: int) -> MatrixCC:
    """The known cycle for the rank-r stratum; transcribed, not derived.

    Skew strata always have irreducible cycles.  Symmetric strata gain
    the next smaller stratum with multiplicity one exactly when m - r is
    odd and r >= 1.
    """
    own = StratumId(flavor, m, r)
    terms = [(own, 1)]
    if flavor == Flavor.SYMMETRIC and r >= 1 and (m - r) % 2 == 1:
        terms.append((StratumId(flavor, m, r - 1), 1))
    return MatrixCC(tuple(terms))


def conormal_condition(x: QMatrix, c: QMatrix) -> bool:
    """Is c conormal to the congruence orbit through x?  Equivalent to xc = 0."""
    if x.nrows != c.nrows or x.ncols != c.ncols or x.nrows != x.ncols:
        raise ValueError("need square matrices of equal size")
    same_flavor = any(
        is_flavored(x, f) and is_flavored(c, f) for f in (Flavor.SYMMETRIC, Flavor.SKEW)
    )
    if not same_flavor:
        raise ValueError("x and c must share a symmetry type")
    return x.mul(c).is_zero()


def tangent_space_at(x: QMatrix, flavor: Flavor) -> Subspace:
    """Span of {Yx + xY^T} over all Y, in flavor coordinates."""
    assert is_flavored(x, flavor)
    m = x.nrows
    vecs = []
    for a in range(m):
        for b in range(m):
            rows = [[0] * m for _ in range(m)]
            rows[a][b] = 1
            y = QMatrix.from_rows(rows)
            vecs.append(flavor_coords(y.mul(x).add(x.mul(y.transpose())), flavor))
    return Subspace.span(flavor_dim(flavor, m), vecs)


def conormal_solutions(x: QMatrix, flavor: Flavor) -> Subspace:
    """All flavor matrices c with xc = 0, in flavor coordinates."""
    assert is_flavored(x, flavor)
    return solve_homogeneous(product_rows(x, flavor), flavor_dim(flavor, x.nrows))


def random_flavored_matrix(flavor: Flavor, m: int, r: int, seed: int, height_bound: int = 9) -> QMatrix:
    """Deterministic random matrix of the flavor with exact rank r."""
    StratumId(flavor, m, r)  # validates the pair
    rng = SeedStream(seed).derive("flavored", flavor.value, m, r)
    rows = [[0] * m for _ in range(m)]
    if flavor == Flavor.SYMMETRIC:
        for j in range(r):
            rows[j][j] = 1
    else:
        for j in range(0, r, 2):
            rows[j][j + 1] = 1
            rows[j + 1][j] = -1
    d = QMatrix.from_rows(rows)
    while True:
        a = random_matrix_from(rng, m, m, height_bound)
        if rank(a) == m:
            return a.transpose().mul(d).mul(a)
