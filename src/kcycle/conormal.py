"""Generic conormal covectors at GLpq base points, in adapted coordinates.

Cotangent vectors at U are k x (n-k) matrices over the adapted basis:
row j and column c give the u_j-coefficient of the image of the c-th
complement vector under a map C^n/U -> U.  Tangent vectors use the same
shape for Hom(U, C^n/U), and the two pair by the entrywise trace form.

For a GLpq orbit the conormal space is a pair of literal blocks, the
maps h sending C^q/U into U cap C^p and l sending C^p/U into U cap C^q;
it is the kernel of the sparse action image of Lie(K) (see orbits).

A sampled covector is its two blocks.  Once per stratum,
covector_sampler checks the kind, the height bound and that the orbit
is not open, and works out the block shapes and their full ranks.  Per
sample, draw_covector draws h and l, in one batch per attempt, each
straight into its own matrix, and ranks them to certify the draw
generic; a block with no rows or no columns has rank 0 and is never
ranked.  The covector keeps both blocks and both ranks, which the
membership tests read; no k x (n-k) matrix is formed.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

from .exactla import QMatrix, SeedStream, check_count, rank
from .orbits import BasePoint, Kind


def _block_rank(block: QMatrix) -> int:
    """Rank of a block; one with no rows or no columns is 0 without elimination."""
    return rank(block) if block.nrows and block.ncols else 0


class NoGenericCovector(RuntimeError):
    """The sampler found no generic covector within its resample budget: a bug."""


class ConormalVector(NamedTuple):
    """A GLpq covector at a base point, held as its two blocks and their ranks.

    A NamedTuple, like CovectorSampler: one is built per draw, and a
    NamedTuple is built in about a third of a frozen dataclass's time.
    So ``retries`` takes part in equality; nothing compares covectors.
    """

    base: BasePoint
    h_block: QMatrix  # rows U cap C^p, columns C^q/U: the map h of the codifferential
    l_block: QMatrix  # rows U cap C^q, columns C^p/U: the map l of the codifferential
    h_rank: int
    l_rank: int
    retries: int = 0  # resamples the draw needed


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


class CovectorSampler(NamedTuple):
    """What every covector drawn at one GLpq base point shares, checked once.

    Built by covector_sampler: the block shapes of h and l, their
    generic_block_ranks and the entry height bound.  A NamedTuple rather
    than a frozen dataclass, which takes about ten times as long to define
    at import.
    """

    base: BasePoint
    h_shape: tuple
    l_shape: tuple
    h_full: int
    l_full: int
    height_bound: int


def covector_sampler(base: BasePoint, height_bound: int = 100) -> CovectorSampler:
    """The sampler of covectors at a GLpq base point, set up once per stratum.

    Raises ValueError for another kind, for the open orbit, which has no
    conormal directions, or for a height bound below 1.
    """
    if base.setup.kind != Kind.GLPQ:
        raise ValueError("conormal sampling is for GLpq setups")
    check_count("height_bound", height_bound)
    (hr, hc), (lr, lc) = h_shape, l_shape = block_shapes(base)
    # the two blocks span the conormal space: codim s(q-k+s) + t(p-k+t)
    if hr * hc + lr * lc == 0:
        raise ValueError("open orbit has no conormal directions to sample")
    h_full, l_full = generic_block_ranks(base)
    return CovectorSampler(base, h_shape, l_shape, h_full, l_full, height_bound)


def draw_covector(sampler: CovectorSampler, seed: int) -> ConormalVector:
    """Deterministic generic covector in the conormal space of the sampler's stratum.

    The two blocks are drawn and resampled (at most RETRY_BUDGET times)
    until both reach their generic_block_ranks, the largest ranks on
    the conormal space; the returned vector keeps its resample count.
    """
    rng = SeedStream(seed).derive(_SAMPLE_TAG)
    (hr, hc), (lr, lc) = sampler.h_shape, sampler.l_shape
    nh, bound = hr * hc, sampler.height_bound
    for attempt in range(RETRY_BUDGET + 1):
        # one batch per attempt, h row-major then l row-major: entries
        # are ints, already canonical
        draw = rng.randints(nh + lr * lc, -bound, bound)
        h = QMatrix(hr, hc, tuple(draw[:nh]))
        l = QMatrix(lr, lc, tuple(draw[nh:]))
        h_rank = _block_rank(h)
        if h_rank < sampler.h_full:
            continue
        l_rank = _block_rank(l)
        if l_rank == sampler.l_full:
            return ConormalVector(sampler.base, h, l, h_rank, l_rank, attempt)
    raise NoGenericCovector(
        f"no generic covector within {RETRY_BUDGET} resamples; "
        "this indicates a bug, not bad luck"
    )
