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
pairing_row and product_system (on given coordinates, nonzero rows
only) read them off a matrix's entries, forming no basis matrix.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .exactla import QMatrix


class Flavor(str, Enum):
    SYMMETRIC = "symmetric"
    SKEW = "skew"


def flavor_dim(flavor: Flavor, m: int) -> int:
    return m * (m + 1) // 2 if flavor == Flavor.SYMMETRIC else m * (m - 1) // 2


def flavor_sign(flavor: Flavor) -> int:
    """x^T = sign * x for matrices of the flavor."""
    return 1 if flavor == Flavor.SYMMETRIC else -1


@lru_cache(maxsize=64)
def coordinate_pairs(flavor: Flavor, m: int) -> tuple:
    """Positions (a, b), a <= b, of the upper-triangle coordinates, in order."""
    start = 0 if flavor == Flavor.SYMMETRIC else 1
    return tuple([(a, b) for a in range(m) for b in range(a + start, m)])


def pairing_row(d: QMatrix, flavor: Flavor) -> list:
    """tr(bc d) for each coordinate basis matrix bc, in coordinate order.

    The pairing with the (a, b) basis matrix is d[b, a] + sign * d[a, b],
    or d[a, a] on the diagonal, so it is read off two entries of d.
    """
    sign, e, m = flavor_sign(flavor), d.entries, d.ncols
    return [e[a * m + a] if a == b else e[b * m + a] + sign * e[a * m + b]
            for a, b in coordinate_pairs(flavor, d.nrows)]


def product_system(x, m: int, flavor: Flavor, coords) -> QMatrix:
    """Entry (r, c) of x C on C's coordinates at the positions coords, zero rows left out.

    x is an m x m matrix's row-major entries.  Column b of x bc is column
    a of x and, off the diagonal, column a of x bc is sign times column b
    of x, so entry (r, c) reads only coordinates (a, c) and (c, b).  The
    rows come sparsest first, so that Bareiss pivots on the sparse ones.
    """
    sign, pairs = flavor_sign(flavor), coordinate_pairs(flavor, m)
    reads = [[] for _ in range(m)]  # per c: (place in coords, column of x, coefficient)
    for place, j in enumerate(coords):
        a, b = pairs[j]
        reads[b].append((place, a, 1))
        if a != b:
            reads[a].append((place, b, sign))
    rows = []
    for r in range(0, m * m, m):
        for terms in filter(None, reads):
            row = [0] * len(coords)
            for place, t, coef in terms:
                row[place] += coef * x[r + t]
            if any(row):
                rows.append(row)
    rows.sort(key=lambda row: row.count(0), reverse=True)
    return QMatrix.from_flat(len(rows), len(coords), [v for row in rows for v in row])


def cc_table(flavor: Flavor, m: int, r: int) -> tuple:
    """The known cycle for the rank-r stratum of m x m matrices; transcribed, not derived.

    The cycle is its terms, ((rank, multiplicity), ...), highest rank
    first.  A rank outside 0..m, or an odd rank of skew matrices, names
    no stratum and raises ValueError.

    Skew strata always have irreducible cycles.  Symmetric strata gain
    the next smaller stratum with multiplicity one exactly when m - r is
    odd and r >= 1.
    """
    if not (0 <= r <= m):
        raise ValueError(f"rank {r} out of range for size {m}")
    if flavor == Flavor.SKEW and r % 2:
        raise ValueError("skew matrices have even rank")
    if flavor == Flavor.SYMMETRIC and r >= 1 and (m - r) % 2 == 1:
        return ((r, 1), (r - 1, 1))
    return ((r, 1),)
