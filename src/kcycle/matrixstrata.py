"""Rank strata in spaces of symmetric and skew-symmetric matrices.

The general linear group acts by congruence x -> AxA^T; orbits are the
rank strata (rank is even in the skew case).  Under the trace pairing
tr(CD) the conormal space of the stratum through x is {C : xC = 0}.
The functionals that state that condition and the pairing, and the
known characteristic cycle table for these strata, live here.
Everything is written in upper-triangle coordinates so that dimension
counts are exact integers.  The coordinate at (a, b) stands for the
basis matrix with 1 at (a, b) and sign at (b, a); the trace pairing
with one, and the product by one, touch one or two entries, so
pairing_row and product_rows read them off without forming any basis
matrix.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .exactla import QMatrix


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


def pairing_row(d: QMatrix, flavor: Flavor) -> list:
    """tr(bc d) for each coordinate basis matrix bc, in coordinate order.

    The pairing with the (a, b) basis matrix is d[b, a] + sign * d[a, b],
    or d[a, a] on the diagonal, so it is read off two entries of d.
    """
    sign = flavor_sign(flavor)
    return [d[a, a] if a == b else d[b, a] + sign * d[a, b]
            for a, b in coordinate_pairs(flavor, d.nrows)]


def product_rows(x: QMatrix, flavor: Flavor) -> list:
    """Entry (r, c) of x C as a functional of C's flavor coordinates.

    Row r * m + c holds (x bc)[r, c] for each coordinate basis matrix
    bc, in coordinate order.  Column b of x bc is column a of x and, off the
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


class _StratumFields(NamedTuple):
    flavor: Flavor
    size: int
    rank: int


class StratumId(_StratumFields):
    """The rank-``rank`` stratum of ``size``-square matrices of a flavor.

    A NamedTuple, ordered by (flavor, size, rank), whose checks run in
    __new__; _make and _replace skip them.
    """

    __slots__ = ()

    def __new__(cls, flavor: Flavor, size: int, rank: int) -> "StratumId":
        if not (0 <= rank <= size):
            raise ValueError(f"rank {rank} out of range for size {size}")
        if flavor == Flavor.SKEW and rank % 2:
            raise ValueError("skew matrices have even rank")
        return tuple.__new__(cls, (flavor, size, rank))


class MatrixCC(NamedTuple):
    """Characteristic cycle of a rank stratum: stratum -> multiplicity."""

    terms: tuple  # ((StratumId, mult), ...) ordered by decreasing rank

    def as_dict(self) -> dict:
        return dict(self.terms)


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
