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

Block ranges are the base point's own.  A GLpq sample draws only its
two blocks, in one batch per attempt, each straight into its own
matrix, and ranks them to certify it generic; a block with no rows or
no columns has rank 0 and is never ranked.  Only a kept draw has its
blocks placed into a k x (n-k) matrix; the covector also keeps both
blocks and both ranks, which the membership tests read.
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
    base: BasePoint
    matrix: QMatrix  # k rows, n-k columns
    retries: int = field(default=0, compare=False)  # resamples the draw needed

    def block(self, rg: int, cg: int) -> QMatrix:
        return self.matrix.submatrix(self.base.row_blocks[rg], self.base.col_blocks[cg])

    @cached_property
    def h_block(self) -> QMatrix:
        """Rows U cap C^p, columns C^q/U: the map h of the codifferential."""
        return self.block(0, 2)

    @cached_property
    def l_block(self) -> QMatrix:
        """Rows U cap C^q, columns C^p/U: the map l of the codifferential."""
        return self.block(1, 0)

    @cached_property
    def h_rank(self) -> int:
        return _block_rank(self.h_block)

    @cached_property
    def l_rank(self) -> int:
        return _block_rank(self.l_block)


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


def _place_blocks(base: BasePoint, h: QMatrix, l: QMatrix) -> QMatrix:
    """The k x (n-k) matrix with h and l at their ranges, zero elsewhere."""
    nk = base.setup.n - base.setup.k
    flat = [0] * (base.setup.k * nk)
    rows, cols = base.row_blocks, base.col_blocks
    for blk, rr, cc in ((h, rows[0], cols[2]), (l, rows[1], cols[0])):
        for a, j in enumerate(rr):
            flat[j * nk + cc.start:j * nk + cc.stop] = blk.row(a)
    return QMatrix(base.setup.k, nk, tuple(flat))


def _matrix_from_flat(flat, k: int, nk: int) -> QMatrix:
    return QMatrix.from_rows([list(flat[r * nk:(r + 1) * nk]) for r in range(k)])


RETRY_BUDGET = 8

# the sampler's derive tag, hashed once as derive would hash the string
_SAMPLE_TAG = zlib.crc32(b"conormal-sample")


def sample_conormal(base: BasePoint, seed: int, height_bound: int = 100) -> ConormalVector:
    """Deterministic covector in the conormal space, generic for GLpq.

    A GLpq sample is drawn as its two blocks and resampled (at most
    RETRY_BUDGET times) until both reach full rank, so the matrix rank
    equals max_conormal_rank; the returned vector keeps its resample
    count, both blocks and their ranks.
    """
    setup = base.setup
    k, nk = setup.k, setup.n - setup.k
    rng = SeedStream(seed).derive(_SAMPLE_TAG)
    if setup.kind != Kind.GLPQ:
        space = conormal_space(base)
        if space.dim == 0:
            raise ValueError("open orbit has no conormal directions to sample")
        coeffs = rng.randints(space.dim, -height_bound, height_bound)
        flat = [
            sum(c * space.basis[i, j] for j, c in enumerate(coeffs))
            for i in range(k * nk)
        ]
        return ConormalVector(base, _matrix_from_flat(flat, k, nk))
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
            xi = ConormalVector(base, _place_blocks(base, h, l), attempt)
            # the blocks and ranks just certified, as the cached properties hold them
            xi.__dict__.update(h_block=h, l_block=l, h_rank=h_rank, l_rank=l_rank)
            return xi
    raise NoGenericCovector(
        f"no generic covector within {RETRY_BUDGET} resamples; "
        "this indicates a bug, not bad luck"
    )
