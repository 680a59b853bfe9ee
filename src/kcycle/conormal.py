"""Generic conormal covectors at GLpq base points, in adapted coordinates.

Cotangent vectors at U are k x (n-k) matrices over the adapted basis:
row j and column c give the u_j-coefficient of the image of the c-th
complement vector under a map C^n/U -> U.  Tangent vectors use the same
shape for Hom(U, C^n/U), and the two pair by the entrywise trace form.

For a GLpq orbit the conormal space is a pair of literal blocks, the
maps h sending C^q/U into U cap C^p and l sending C^p/U into U cap C^q;
it is the kernel of the sparse action image of Lie(K) (see orbits).

A sampled covector is its two blocks: the sampler draws h and l, in
one batch per attempt, each straight into its own matrix, and ranks
them to certify the draw generic; a block with no rows or no columns
has rank 0 and is never ranked.  The covector keeps both blocks and
both ranks, which the membership tests read; no k x (n-k) matrix is
formed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from .exactla import QMatrix, SeedStream, rank
from .orbits import BasePoint, Kind


def _block_rank(block: QMatrix) -> int:
    """Rank of a block; one with no rows or no columns is 0 without elimination."""
    return rank(block) if block.nrows and block.ncols else 0


class NoGenericCovector(RuntimeError):
    """The sampler found no generic covector within its resample budget: a bug."""


@dataclass(frozen=True)
class ConormalVector:
    """A GLpq covector at a base point, held as its two blocks and their ranks."""

    base: BasePoint
    h_block: QMatrix  # rows U cap C^p, columns C^q/U: the map h of the codifferential
    l_block: QMatrix  # rows U cap C^q, columns C^p/U: the map l of the codifferential
    h_rank: int
    l_rank: int
    retries: int = field(default=0, compare=False)  # resamples the draw needed


def block_shapes(base: BasePoint) -> tuple:
    """((rows, cols) of h, (rows, cols) of l) at a GLpq base point."""
    return ((base.row_groups[0], base.col_groups[2]),
            (base.row_groups[1], base.col_groups[0]))


def generic_block_ranks(base: BasePoint) -> tuple:
    """The ranks of h and l on a generic covector: each block's full rank."""
    (hr, hc), (lr, lc) = block_shapes(base)
    return min(hr, hc), min(lr, lc)


RETRY_BUDGET = 8

# the sampler's derive tag, hashed once as derive would hash the string
_SAMPLE_TAG = zlib.crc32(b"conormal-sample")


def sample_conormal(base: BasePoint, seed: int, height_bound: int = 100) -> ConormalVector:
    """Deterministic generic covector in the conormal space of a GLpq orbit.

    The two blocks are drawn and resampled (at most RETRY_BUDGET times)
    until both reach their generic_block_ranks, the largest ranks on
    the conormal space; the returned vector keeps its resample count.
    """
    if base.setup.kind != Kind.GLPQ:
        raise ValueError("conormal sampling is for GLpq setups")
    rng = SeedStream(seed).derive(_SAMPLE_TAG)
    (hr, hc), (lr, lc) = block_shapes(base)
    # the two blocks span the conormal space: codim s(q-k+s) + t(p-k+t)
    if hr * hc + lr * lc == 0:
        raise ValueError("open orbit has no conormal directions to sample")
    h_full, l_full = generic_block_ranks(base)
    nh = hr * hc
    for attempt in range(RETRY_BUDGET + 1):
        # one batch per attempt, h row-major then l row-major: entries
        # are ints, already canonical
        draw = rng.randints(nh + lr * lc, -height_bound, height_bound)
        h = QMatrix(hr, hc, tuple(draw[:nh]))
        l = QMatrix(lr, lc, tuple(draw[nh:]))
        h_rank = _block_rank(h)
        if h_rank < h_full:
            continue
        l_rank = _block_rank(l)
        if l_rank == l_full:
            return ConormalVector(base, h, l, h_rank, l_rank, attempt)
    raise NoGenericCovector(
        f"no generic covector within {RETRY_BUDGET} resamples; "
        "this indicates a bug, not bad luck"
    )
