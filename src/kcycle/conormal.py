"""Generic conormal covectors at GLpq base points, in adapted coordinates.

Cotangent vectors at U are k x (n-k) matrices over the adapted basis:
row j and column c give the u_j-coefficient of the image of the c-th
complement vector under a map C^n/U -> U.  Tangent vectors use the same
shape for Hom(U, C^n/U), and the two pair by the entrywise trace form.

For a GLpq orbit the conormal space is a pair of literal blocks, the
maps h sending C^q/U into U cap C^p and l sending C^p/U into U cap C^q;
it is the kernel of the sparse action image of Lie(K) (see orbits).

A sampled covector is its two blocks and their ranks, which the
membership tests read; no k x (n-k) matrix is formed.  draw_covectors
checks a stratum's base point and draws all its trials in one batch,
with entries in [-HEIGHT_BOUND, HEIGHT_BOUND].  Each block is
certified full across the trials at once, by exactla.certify_full_lanes
on its leading k x k minor, k = min(rows, cols), whatever its shape;
only a trial left unproven is ranked, and redrawn while short.  The
proof is exact, so every covector is the one the ranks alone would
give.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .exactla import QMatrix, certify_full_lanes, derive_states, draw_streams, rank
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
HEIGHT_BOUND = 100  # drawn entries lie in [-HEIGHT_BOUND, HEIGHT_BOUND]


def _certified_lanes(draws: list, at: int, r: int, c: int) -> list:
    """Per draw, whether the r x c block at entry `at` is proven of rank min(r, c).

    A lane is one draw.  The block's leading k x k minor, k = min(r, c),
    goes to exactla.certify_full_lanes: fraction-free Bareiss without
    pivoting across all lanes, which proves a lane of rank k when every
    pivot is nonzero and leaves a lane with a zero pivot unproven,
    whatever its rank.
    """
    k = min(r, c)
    # each minor entry's values across the lanes, as lists: zip(*draws) would
    # make tuples as long as the batch, which CPython keeps on a free list
    return certify_full_lanes(
        [[list(map(itemgetter(at + i * c + j), draws)) for j in range(k)] for i in range(k)])


# what a NamedTuple's constructor calls on its field values: mapped over
# zipped fields, it builds one record per lane without a Python frame each
_record = tuple.__new__


def _blocks(draws: list, at: int, r: int, c: int):
    """Per draw, its r x c block from entry `at` on, row-major."""
    # entries are ints, already canonical
    entries = map(tuple, map(itemgetter(slice(at, at + r * c)), draws))
    return map(_record, repeat(QMatrix), zip(repeat(r), repeat(c), entries))


def _scalar_draw(base: BasePoint, draw: list, state: int) -> ConormalVector:
    """The covector of one unproven trial: its blocks ranked, redrawn while short."""
    (hr, hc), (lr, lc) = block_shapes(base)
    h_full, l_full = generic_block_ranks(base)
    nh = hr * hc
    for attempt in range(RETRY_BUDGET + 1):
        if attempt:
            (draw,), (state,) = draw_streams((state,), len(draw), -HEIGHT_BOUND, HEIGHT_BOUND)
        h = QMatrix(hr, hc, tuple(draw[:nh]))
        # a block with no rows or no columns has rank 0 and is never ranked
        h_rank = rank(h) if hr and hc else 0
        if h_rank < h_full:
            continue
        l = QMatrix(lr, lc, tuple(draw[nh:]))
        l_rank = rank(l) if lr and lc else 0
        if l_rank == l_full:
            return ConormalVector(base, h, l, h_rank, l_rank, attempt)
    raise NoGenericCovector(
        f"no generic covector within {RETRY_BUDGET} resamples; "
        "this indicates a bug, not bad luck"
    )


def draw_covectors(base: BasePoint, seeds) -> tuple:
    """One deterministic generic covector per seed, conormal at a GLpq base point.

    Raises ValueError for another kind, or for the open orbit, which has
    no conormal directions.  A seed's draws come from
    SeedStream(seed).derive("conormal-sample"), derived for every seed
    at once, and attempt 0 of every seed is drawn in one batch, h
    row-major then l row-major; a seed outside 0..SEED_MAX raises
    ValueError.  A trial's blocks must reach their generic_block_ranks,
    the largest ranks on the conormal space.
    Attempt 0 of every trial is certified at once, block by block
    (_certified_lanes); a block with no rows or no columns has rank 0
    and needs no proof.  A trial left unproven goes the scalar way: h is
    ranked first, and l only once h is at full rank, and a trial that
    falls short redraws from its own stream, at most RETRY_BUDGET times.
    Each covector keeps its resample count.
    """
    if "microlocal" not in family(base.setup).suites:
        raise ValueError("conormal sampling is for GLpq setups")
    (hr, hc), (lr, lc) = block_shapes(base)
    nh = hr * hc
    # the two blocks span the conormal space: codim s(q-k+s) + t(p-k+t)
    if nh + lr * lc == 0:
        raise ValueError("open orbit has no conormal directions to sample")
    h_full, l_full = generic_block_ranks(base)
    draws, states = draw_streams(derive_states(seeds, "conormal-sample"),
                                 nh + lr * lc, -HEIGHT_BOUND, HEIGHT_BOUND)
    proofs = [_certified_lanes(draws, at, r, c)
              for at, r, c in ((0, hr, hc), (nh, lr, lc)) if r and c]
    out = list(map(_record, repeat(ConormalVector), zip(
        repeat(base), _blocks(draws, 0, hr, hc), _blocks(draws, nh, lr, lc),
        repeat(h_full), repeat(l_full), repeat(0))))
    for i, proven in enumerate(map(all, zip(*proofs))):
        if not proven:
            out[i] = _scalar_draw(base, draws[i], states[i])
    return tuple(out)
