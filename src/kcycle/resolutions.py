"""Resolutions of orbit closures and microlocal-fiber emptiness tests.

The closures of GLpq orbits carry two resolutions: one parametrized by
pairs of subspaces (V, W) inside U cap C^p and U cap C^q, applicable
when n-k >= p, and a second one whose V-component is a large subspace
containing U + C^p, applicable when n-k <= p.  A covector xi conormal
to a smaller orbit lies in the image of the codifferential exactly when
the ranks of its two blocks h and l stay below thresholds that depend
on the resolution; the tests read the ranks the sampler certified.  A
generic xi has both blocks at full rank, so the block shapes alone
decide membership; every trial must agree, and every witness is checked.

A member's witness is a fiber point (V, W), held as two frames in the
blocks' own coordinates, not in C^n.  For Z, V and W are spanned inside
h's rows (U cap C^p) and l's rows (U cap C^q).  For Ztilde, V is U + C^p
plus s0 - s vectors of C^q/U, h's columns (s0 = h's rows); U + C^p has
no C^q/U coordinate, so h vanishes on V iff h v = 0.  Frames come from
a block's reduced column-space or kernel basis and are checked by ranks.

Everything here works in normalized labels; ccengine, which runs the
checks, normalizes a setup's labels once per check.  Covectors are
drawn once per stratum (``draw_conormals``, which draws every trial
seed in one batch, then every covector in one batch over those seeds,
from the stratum's base point) and judged per target
(``judge_microlocal``, which reads the setup and stratum off the
covectors' base point and picks the resolution).  Emptiness of the microlocal fiber over a
generic covector is what kills the characteristic cycle's extra terms.

Radical strata (Sp/SO) have an analogous resolution remembering a
subspace of the radical; it is generally not small, and only its fibers
are used.  Every fiber over a stratum is a product of Grassmannians
Gr(d, a), of dimension the sum of d(a - d).  RESOLUTIONS holds each
family's resolutions, keyed by the orbits family: which kinds it has,
which apply to a normalized setup, whether smallness is asserted or
only recorded, and each fiber's Grassmannian factors.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional, Tuple

from .exactla import SEED_MAX, QMatrix, SeedStream, check_count, kernel, rank, rref
from .conormal import ConormalVector, draw_covectors, generic_block_ranks
from .orbits import (
    INTERSECTION,
    RADICAL,
    ClosurePoset,
    Setup,
    family,
    format_orbit,
    valid_orbit,
)


class ResolutionKind(str, Enum):
    Z = "z"
    ZTILDE = "ztilde"
    ZI = "zi"


class Witness(NamedTuple):
    """A fiber point (V, W) certifying kernel membership, as frames in block coordinates.

    ``w`` spans W in l's row coordinates (U cap C^q).  For Z, ``v`` spans
    V in h's row coordinates (U cap C^p).  For Ztilde, V is U + C^p plus
    the span of ``v``, s0 - s vectors in h's column coordinates (C^q/U);
    U + C^p has no C^q/U coordinate, so h vanishes on V iff h v = 0.
    """

    v: QMatrix
    w: QMatrix


class MicrolocalVerdict(NamedTuple):
    """Membership of sampled covectors, set against the block-shape verdict.

    ``disagreements`` counts the trials whose membership test
    contradicted what the block shapes predict for a generic covector.
    ``hits`` pairs each member covector with its witness, and
    ``bad_witnesses`` counts the witnesses that fail their resolution's
    check.
    """

    kind: ResolutionKind
    disagreements: int
    hits: tuple  # (ConormalVector, Witness) pairs
    bad_witnesses: int


def _check_thresholds(xi: ConormalVector, s: int, t: int) -> None:
    """s and t must fit the rows of h and of l: V and W lie inside them."""
    s0, t0 = xi.h_block.nrows, xi.l_block.nrows
    if not (0 <= s <= s0 and 0 <= t <= t0):
        raise ValueError(f"thresholds ({s}, {t}) lie outside the blocks' rows ({s0}, {t0})")


def _image_frame(block: QMatrix, dim: int) -> QMatrix:
    """dim independent columns in the block's row coordinates whose span holds its image.

    The reduced basis of the column space (rref of the transpose) comes
    first, padded with unit vectors off its pivots; needs rank <= dim <= rows.
    """
    pivots, rows = rref(block.transpose())
    pad = [c for c in range(block.nrows) if c not in pivots][:dim - len(pivots)]
    units = [[int(i == c) for i in range(block.nrows)] for c in pad]
    return QMatrix.from_cols(block.nrows, rows[:len(pivots)] + units)


def _kernel_frame(h: QMatrix, dim: int) -> QMatrix:
    """dim independent kernel vectors of h, in its column coordinates; needs dim <= nullity."""
    basis = kernel(h)
    return basis.submatrix(range(basis.nrows), range(dim))


def _frame_holds_image(frame: QMatrix, block: QMatrix, dim: int) -> bool:
    """frame spans a dim-space of the block's row coordinates that holds its image."""
    return (frame.nrows == block.nrows and rank(frame) == dim
            and rank(frame.hstack(block)) == dim)


def kernel_membership_Z(xi: ConormalVector, s: int, t: int) -> Tuple[bool, Optional[Witness]]:
    """Does xi lie in the codifferential image of the (V, W) resolution?

    True iff the map h (rows U cap C^p, columns C^q/U) has rank <= s and
    the map l (rows U cap C^q, columns C^p/U) has rank <= t; then V, W
    are the column spaces padded to dimensions s and t.  Thresholds
    outside the blocks' rows raise ValueError.
    """
    _check_thresholds(xi, s, t)
    if xi.h_rank > s or xi.l_rank > t:
        return False, None
    return True, Witness(_image_frame(xi.h_block, s), _image_frame(xi.l_block, t))


def kernel_membership_Ztilde(xi: ConormalVector, s: int, t: int) -> Tuple[bool, Optional[Witness]]:
    """Membership for the resolution with V containing U + C^p.

    V adds s0 - s vectors of C^q/U to U + C^p, and h must kill them, so
    h needs nullity >= s0 - s: rank at most n-k-p+s.  Thresholds outside
    the blocks' rows raise ValueError.
    """
    _check_thresholds(xi, s, t)
    h, extra = xi.h_block, xi.h_block.nrows - s
    if xi.h_rank > h.ncols - extra or xi.l_rank > t:
        return False, None
    return True, Witness(_kernel_frame(h, extra), _image_frame(xi.l_block, t))


def witness_satisfies_Z(xi: ConormalVector, s: int, t: int, wit: Witness) -> bool:
    return (_frame_holds_image(wit.v, xi.h_block, s)
            and _frame_holds_image(wit.w, xi.l_block, t))


def witness_satisfies_Ztilde(xi: ConormalVector, s: int, t: int, wit: Witness) -> bool:
    h, v = xi.h_block, wit.v
    return (v.nrows == h.ncols and rank(v) == h.nrows - s and h.mul(v).is_zero()
            and _frame_holds_image(wit.w, xi.l_block, t))


def _glpq_resolutions(work: Setup) -> tuple:
    """The resolutions that apply to a normalized GLpq setup: Z if n-k >= p, Ztilde if n-k <= p."""
    nk, p = work.n - work.k, work.p
    return (ResolutionKind.Z,) * (nk >= p) + (ResolutionKind.ZTILDE,) * (nk <= p)


def _glpq_fiber(work: Setup, kind: ResolutionKind, tgt, strat) -> tuple:
    """The fiber over q(s0, t0) below q(s, t), as the Grassmannians' (d, a).

    Z's is Gr(s, s0) x Gr(t, t0), and Ztilde's Gr(s0 - s, n-k-p+s0) x Gr(t, t0).
    """
    s0 = strat.s  # V's Grassmannian first, then W's
    v = (tgt.s, s0) if kind == ResolutionKind.Z else (s0 - tgt.s, work.n - work.k - work.p + s0)
    return v, (tgt.t, strat.t)


class FamilyResolutions(NamedTuple):
    """The resolutions of one orbits family."""

    kinds: tuple           # in report order
    applicable: Callable   # normalized setup -> the kinds that apply to it
    asserted: bool         # smallness is a check, not only a record
    fiber: Callable        # (normalized setup, kind, target, stratum) -> ((d, a), ...) of Gr(d, a)


RESOLUTIONS = {
    INTERSECTION: FamilyResolutions((ResolutionKind.Z, ResolutionKind.ZTILDE),
                                    _glpq_resolutions, True, _glpq_fiber),
    # ZI's fiber over rad j below rad i is Gr(i, j)
    RADICAL: FamilyResolutions(
        (ResolutionKind.ZI,), lambda work: (ResolutionKind.ZI,), False,
        lambda work, kind, tgt, strat: ((tgt.i, strat.i),)),
}


def draw_conormals(base, trials: int = 20, seed: int = 0) -> tuple:
    """trials generic covectors conormal to the stratum at its base point.

    ``base`` is the normalized stratum's base point.  The stream is
    derived from the seed, the setup and the stratum alone, so every
    target above the stratum can judge the same draws.  trials below 1
    raise ValueError: drawing nothing would leave nothing to judge.
    """
    check_count("trials", trials)
    work, strat = base.setup, base.orbit
    rng = SeedStream(seed).derive("microlocal", work.describe(), format_orbit(work, strat))
    # one batch of trial seeds, the values of trials next_u64 calls, and
    # one batch of draws over them
    return draw_covectors(base, rng.randints(trials, 0, SEED_MAX))


def judge_microlocal(target, covectors) -> MicrolocalVerdict:
    """The verdict of ``target``, a normalized label, over covectors at one base point.

    A generic covector has h and l at full rank, so it lies in the image
    of Z iff h_full <= s and l_full <= t, and in that of Ztilde iff
    h_full <= n-k-p+s and l_full <= t.  Every covector is tested, and
    each test that disagrees with this shape verdict is counted, which
    guards the caps and rank reads of ``kernel_membership_*``.  Every
    witness is checked: that tells a genuine counterexample from a
    fault in the membership test.  A target that is no orbit of the
    base point's setup, or not strictly above its stratum, raises
    ValueError.
    """
    if not covectors:
        raise ValueError("no covectors to judge")
    bp = covectors[0].base
    if any(xi.base is not bp and xi.base != bp for xi in covectors):
        raise ValueError("covectors must be conormal at one base point")
    work, strat = bp.setup, bp.orbit
    if not valid_orbit(work, target):
        raise ValueError(f"{target!r} is not an orbit of {work.describe()}")
    if target == strat or not family(work).leq(work, strat, target):
        raise ValueError("stratum must lie strictly below target")
    s, t = target.s, target.t
    kind = _glpq_resolutions(work)[0]  # Z when both apply
    if kind == ResolutionKind.Z:
        membership, satisfies, h_cap = kernel_membership_Z, witness_satisfies_Z, s
    else:
        membership, satisfies = kernel_membership_Ztilde, witness_satisfies_Ztilde
        h_cap = work.n - work.k - work.p + s
    h_full, l_full = generic_block_ranks(bp)
    generic_member = h_full <= h_cap and l_full <= t
    hits = []
    disagreements = bad = 0
    for xi in covectors:
        hit, wit = membership(xi, s, t)
        if hit:
            hits.append((xi, wit))
            bad += not satisfies(xi, s, t, wit)
        disagreements += hit != generic_member
    return MicrolocalVerdict(
        kind=kind, disagreements=disagreements, hits=tuple(hits), bad_witnesses=bad,
    )


def is_small(pos: ClosurePoset, kind: ResolutionKind, tgt) -> bool:
    """Strict fiber bound 2*dim(fiber) < codim(stratum) below the target.

    Each fiber is the family's product of Gr(d, a), of dimension the sum
    of d(a - d).  Read off the poset of the normalized setup: for Sp/SO,
    U -> U^perp keeps rad(U), so its dimensions and order are the
    setup's own.  A target that is no orbit of the poset's setup, or a
    kind that is no resolution of its family, raises ValueError.
    """
    if not valid_orbit(pos.setup, tgt):
        raise ValueError(f"{tgt!r} is not an orbit of {pos.setup.describe()}")
    sides = RESOLUTIONS[family(pos.setup)]
    if kind not in sides.kinds:
        raise ValueError(f"{kind!r} is not a resolution of {pos.setup.describe()}")
    top = pos.dimension[tgt]
    for stratum in pos.orbits:
        if stratum == tgt or not pos.leq(stratum, tgt):
            continue
        dim = sum(d * (a - d) for d, a in sides.fiber(pos.setup, kind, tgt, stratum))
        if 2 * dim >= top - pos.dimension[stratum]:
            return False
    return True
