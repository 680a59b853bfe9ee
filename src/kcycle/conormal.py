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
is not open, and works out the block shapes and their full ranks.
draw_covectors then draws every trial of the stratum in one batch: it
derives the streams of all trial seeds at once and draws each trial's
first attempt, h and l row-major, in one draw_streams call.  Per trial
it only slices h and l straight into their matrices and ranks them to
certify the draw generic; a block with no rows or no columns has rank 0
and is never ranked.  A trial that falls short redraws from its own
stream.  The covector keeps both blocks and both ranks, which the
membership tests read; no k x (n-k) matrix is formed.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactla import QMatrix, check_count, derive_states, draw_streams, rank
from .orbits import BasePoint, family


class NoGenericCovector(RuntimeError):
    """The sampler found no generic covector within its resample budget: a bug."""


class ConormalVector(NamedTuple):
    """A GLpq covector at a base point, held as its two blocks and their ranks.

    ``retries`` takes part in equality, as every field does; nothing
    compares covectors.
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


class CovectorSampler(NamedTuple):
    """What every covector drawn at one GLpq base point shares, checked once.

    Built by covector_sampler: the block shapes of h and l, their
    generic_block_ranks and the entry height bound.
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
    if "microlocal" not in family(base.setup).suites:
        raise ValueError("conormal sampling is for GLpq setups")
    check_count("height_bound", height_bound)
    (hr, hc), (lr, lc) = h_shape, l_shape = block_shapes(base)
    # the two blocks span the conormal space: codim s(q-k+s) + t(p-k+t)
    if hr * hc + lr * lc == 0:
        raise ValueError("open orbit has no conormal directions to sample")
    h_full, l_full = generic_block_ranks(base)
    return CovectorSampler(base, h_shape, l_shape, h_full, l_full, height_bound)


def draw_covectors(sampler: CovectorSampler, seeds) -> tuple:
    """One deterministic generic covector per seed, in the sampler's conormal space.

    A seed's draws come from SeedStream(seed).derive("conormal-sample"),
    derived for every seed at once, and attempt 0 of every seed is drawn
    in one batch; a seed outside 0..SEED_MAX raises ValueError.  A trial
    whose blocks fall short of their generic_block_ranks, the largest
    ranks on the conormal space, redraws from its own stream, at most
    RETRY_BUDGET times; each covector keeps its resample count.  h is
    ranked first, and l only once h is at full rank.
    """
    (hr, hc), (lr, lc) = sampler.h_shape, sampler.l_shape
    nh, size, bound = hr * hc, hr * hc + lr * lc, sampler.height_bound
    base, h_full, l_full = sampler.base, sampler.h_full, sampler.l_full
    # a block with no rows or no columns has rank 0 and is never ranked
    rank_h, rank_l = hr and hc, lr and lc
    draws, states = draw_streams(derive_states(seeds, "conormal-sample"), size, -bound, bound)
    out = []
    for draw, state in zip(draws, states):
        for attempt in range(RETRY_BUDGET + 1):
            if attempt:
                (draw,), (state,) = draw_streams((state,), size, -bound, bound)
            # h row-major then l row-major: entries are ints, already canonical
            h = QMatrix(hr, hc, tuple(draw[:nh]))
            h_rank = rank(h) if rank_h else 0
            if h_rank < h_full:
                continue
            l = QMatrix(lr, lc, tuple(draw[nh:]))
            l_rank = rank(l) if rank_l else 0
            if l_rank == l_full:
                out.append(ConormalVector(base, h, l, h_rank, l_rank, attempt))
                break
        else:
            raise NoGenericCovector(
                f"no generic covector within {RETRY_BUDGET} resamples; "
                "this indicates a bug, not bad luck"
            )
    return tuple(out)
