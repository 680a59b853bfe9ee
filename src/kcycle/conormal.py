"""Conormal spaces to orbits at base points, in adapted coordinates.

Cotangent vectors at U are k x (n-k) matrices over the adapted basis:
row j and column c give the u_j-coefficient of the image of the c-th
complement vector under a map C^n/U -> U.  Tangent vectors use the same
shape for Hom(U, C^n/U), and the two pair by the entrywise trace form.

For GLpq orbits the conormal space is a pair of literal blocks: the
maps sending C^q/U into U cap C^p and C^p/U into U cap C^q.  For Sp/SO
it is the kernel of the sparse action image of Lie(K), the same matrix
whose rank gives the orbit dimension.  Both routes are available for
GLpq and must agree.

Sampling is for GLpq.  A sampled covector is its two blocks: the
sampler draws h and l, in one batch per attempt, each straight into
its own matrix, and ranks them to certify the draw generic; a block
with no rows or no columns has rank 0 and is never ranked.  The
covector keeps both blocks and both ranks, which the membership tests
read.  Its k x (n-k) matrix is placed from the blocks only when read.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property

from .exactla import QMatrix, SeedStream, Subspace, kernel, rank
from .orbits import BasePoint, Kind, Setup, action_image


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

    @cached_property
    def matrix(self) -> QMatrix:
        """The k x (n-k) matrix with h and l at their ranges, zero elsewhere."""
        setup = self.base.setup
        nk = setup.n - setup.k
        flat = [0] * (setup.k * nk)
        rows, cols = self.base.row_blocks, self.base.col_blocks
        for blk, rr, cc in ((self.h_block, rows[0], cols[2]), (self.l_block, rows[1], cols[0])):
            for a, j in enumerate(rr):
                flat[j * nk + cc.start:j * nk + cc.stop] = blk.row(a)
        return QMatrix(setup.k, nk, tuple(flat))


def block_shapes(base: BasePoint) -> tuple:
    """((rows, cols) of h, (rows, cols) of l) at a GLpq base point."""
    return ((base.row_groups[0], base.col_groups[2]),
            (base.row_groups[1], base.col_groups[0]))


def generic_block_ranks(base: BasePoint) -> tuple:
    """The ranks of h and l on a generic covector: each block's full rank."""
    (hr, hc), (lr, lc) = block_shapes(base)
    return min(hr, hc), min(lr, lc)


def _unit(k: int, nk: int, j: int, c: int) -> list:
    v = [0] * (k * nk)
    v[j * nk + c] = 1
    return v


def conormal_space(base: BasePoint) -> Subspace:
    """Conormal directions at the base point, flattened row-major."""
    setup = base.setup
    k, nk = setup.k, setup.n - setup.k
    if setup.kind == Kind.GLPQ:
        rows, cols = base.row_blocks, base.col_blocks
        vecs = [_unit(k, nk, j, c) for j in rows[0] for c in cols[2]]
        vecs += [_unit(k, nk, j, c) for j in rows[1] for c in cols[0]]
        return Subspace.span(k * nk, vecs)
    return conormal_space_from_action(base)


def conormal_space_from_action(base: BasePoint) -> Subspace:
    """Annihilator of the action image; the route that needs no block pattern."""
    return kernel(action_image(base.setup, base.orbit))


def max_conormal_rank(setup: Setup, orbit) -> int:
    """Largest matrix rank attained on the orbit's conormal space (GLpq)."""
    if setup.kind != Kind.GLPQ:
        raise ValueError("rank formula applies to GLpq only")
    s, t = orbit.s, orbit.t
    n, k, p, q = setup.n, setup.k, setup.p, setup.q
    return min(s, n - k - p + s) + min(t, n - k - q + t)


RETRY_BUDGET = 8

# the sampler's derive tag, hashed once as derive would hash the string
_SAMPLE_TAG = zlib.crc32(b"conormal-sample")


def sample_conormal(base: BasePoint, seed: int, height_bound: int = 100) -> ConormalVector:
    """Deterministic generic covector in the conormal space of a GLpq orbit.

    The two blocks are drawn and resampled (at most RETRY_BUDGET times)
    until both reach full rank, so the matrix rank equals
    max_conormal_rank; the returned vector keeps its resample count.
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
