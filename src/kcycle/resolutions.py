"""Resolutions of orbit closures and microlocal-fiber emptiness tests.

The closures of GLpq orbits carry two resolutions: one parametrized by
pairs of subspaces (V, W) inside U cap C^p and U cap C^q, applicable
when n-k >= p, and a second one whose V-component is a large subspace
containing U + C^p, applicable when n-k <= p.  A covector xi conormal
to a smaller orbit lies in the image of the codifferential exactly when
two submatrix ranks of xi stay below thresholds; which thresholds
depends on the resolution.  The sampler draws only those two blocks,
ranks each non-empty one once to certify xi generic, and never ranks a
block with no rows or no columns; the tests read the certified ranks
and rank nothing themselves.  Since a generic xi has both blocks at
full rank, the block shapes alone decide membership, and every sampled
trial must agree with that verdict.

Covectors are drawn per stratum and judged per target.  They are
conormal at the stratum's base point, and the target enters only
through the membership thresholds, so the draws are seeded by the
setup and stratum alone (``draw_conormals``) and one set of draws is
judged against every target above the stratum (``judge_microlocal``).
Emptiness of the microlocal fiber over a generic covector is what
kills the extra terms in the characteristic cycle, so the tests here
are the engine behind irreducibility claims.

Radical strata (Sp/SO) have an analogous resolution remembering a
subspace of the radical; it is generally not small, and only its fiber
dimensions are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .exactla import QMatrix, SeedStream, Subspace, kernel, solve
from .conormal import ConormalVector, generic_block_ranks, sample_conormal
from .orbits import (
    BasePoint,
    ClosurePoset,
    Kind,
    RadicalOrbit,
    Setup,
    _closure_leq,
    base_point,
    closure_leq,
    format_orbit,
    normalize,
)


class ResolutionKind(str, Enum):
    Z = "z"
    ZTILDE = "ztilde"
    ZI = "zi"


@dataclass(frozen=True)
class Witness:
    """A fiber point (V, W) certifying kernel membership, in ambient coordinates."""

    v: Subspace
    w: Subspace


@dataclass(frozen=True)
class MicrolocalVerdict:
    """Membership of sampled covectors, set against the block-shape verdict.

    ``generic_empty`` is what the block shapes predict for a generic
    covector; ``disagreements`` counts the trials whose membership test
    contradicted it.  ``hits`` pairs each member covector with its
    witness, and ``thresholds`` are the target's (s, t) in normalized
    coordinates, as the ``witness_satisfies_*`` references take them.
    """

    kind: ResolutionKind
    thresholds: Tuple[int, int]
    generic_empty: bool
    disagreements: int
    hits: tuple  # (ConormalVector, Witness) pairs
    outside_strict_hypothesis: bool

    @property
    def empty_in_all_trials(self) -> bool:
        return not self.hits

    @property
    def witness(self) -> Optional[Witness]:
        return self.hits[0][1] if self.hits else None


def _u_cap_p_vectors(bp: BasePoint) -> list:
    s_prime = bp.row_groups[0]
    return [bp.basis.col(r) for r in range(s_prime)]


def _u_cap_q_vectors(bp: BasePoint) -> list:
    s_prime, t_prime = bp.row_groups[0], bp.row_groups[1]
    return [bp.basis.col(s_prime + b) for b in range(t_prime)]


def _ambient_columns(bp: BasePoint, block: QMatrix, row_vectors: list) -> list:
    """Images of the relevant complement vectors, as ambient vectors."""
    out = []
    for c in range(block.ncols):
        vec = [0] * bp.setup.n
        for r in range(block.nrows):
            coeff = block[r, c]
            if coeff:
                vec = [a + coeff * b for a, b in zip(vec, row_vectors[r])]
        out.append(vec)
    return out


def _extend_inside(span_vectors: list, target_dim: int, pool: list, n: int) -> Subspace:
    """Grow a span to target_dim using vectors from the pool."""
    cur = Subspace.span(n, span_vectors)
    for v in pool:
        if cur.dim >= target_dim:
            break
        grown = Subspace.span(n, span_vectors + [v])
        if grown.dim > cur.dim:
            span_vectors = span_vectors + [v]
            cur = grown
    assert cur.dim == target_dim, "extension pool too small"
    return cur


def kernel_membership_Z(xi: ConormalVector, s: int, t: int) -> Tuple[bool, Optional[Witness]]:
    """Does xi lie in the codifferential image of the (V, W) resolution?

    True iff the map h (rows U cap C^p, columns C^q/U) has rank <= s and
    the map l (rows U cap C^q, columns C^p/U) has rank <= t; then V, W
    are the column spaces grown to dimensions s and t.
    """
    bp = xi.base
    assert bp.setup.kind == Kind.GLPQ
    if xi.h_rank > s or xi.l_rank > t:
        return False, None
    h, l = xi.h_block, xi.l_block
    n = bp.setup.n
    v = _extend_inside(_ambient_columns(bp, h, _u_cap_p_vectors(bp)), s, _u_cap_p_vectors(bp), n)
    w = _extend_inside(_ambient_columns(bp, l, _u_cap_q_vectors(bp)), t, _u_cap_q_vectors(bp), n)
    return True, Witness(v, w)


def kernel_membership_Ztilde(xi: ConormalVector, s: int, t: int) -> Tuple[bool, Optional[Witness]]:
    """Membership for the resolution with V containing U + C^p.

    The V-side budget drops to n-k-p+s: h must vanish on a subspace of
    dimension k+p-s containing U + C^p, which caps its rank there.
    """
    bp = xi.base
    setup = bp.setup
    assert setup.kind == Kind.GLPQ
    n, k, p = setup.n, setup.k, setup.p
    if xi.h_rank > n - k - p + s or xi.l_rank > t:
        return False, None
    h, l = xi.h_block, xi.l_block
    s_prime = bp.row_groups[0]
    # lift kernel vectors of h from pure C^q/U coordinates into C^n
    ker = kernel(h)
    cg_off = k + bp.col_groups[0] + bp.col_groups[1]
    lifted = []
    for j in range(s_prime - s):
        col = ker.basis.col(j)
        vec = [0] * n
        for c, coeff in enumerate(col):
            if coeff:
                basis_col = bp.basis.col(cg_off + c)
                vec = [a + coeff * b for a, b in zip(vec, basis_col)]
        lifted.append(vec)
    u_and_p = [bp.basis.col(j) for j in range(k)] + \
        [[int(i == a) for i in range(n)] for a in range(p)]
    v = Subspace.span(n, u_and_p + lifted)
    assert v.dim == k + p - s
    w = _extend_inside(_ambient_columns(bp, l, _u_cap_q_vectors(bp)), t, _u_cap_q_vectors(bp), n)
    return True, Witness(v, w)


def _pure_q_coords(bp: BasePoint, vec) -> list:
    coords = solve(bp.basis, list(vec))
    off = bp.setup.k + bp.col_groups[0] + bp.col_groups[1]
    return coords[off:off + bp.col_groups[2]]


def witness_satisfies_Z(xi: ConormalVector, s: int, t: int, wit: Witness) -> bool:
    bp = xi.base
    n = bp.setup.n
    u_cap_p = Subspace.span(n, _u_cap_p_vectors(bp))
    u_cap_q = Subspace.span(n, _u_cap_q_vectors(bp))
    if wit.v.dim != s or wit.w.dim != t:
        return False
    if not (u_cap_p.contains(wit.v) and u_cap_q.contains(wit.w)):
        return False
    h_img = Subspace.span(n, _ambient_columns(bp, xi.h_block, _u_cap_p_vectors(bp)))
    l_img = Subspace.span(n, _ambient_columns(bp, xi.l_block, _u_cap_q_vectors(bp)))
    return wit.v.contains(h_img) and wit.w.contains(l_img)


def witness_satisfies_Ztilde(xi: ConormalVector, s: int, t: int, wit: Witness) -> bool:
    bp = xi.base
    setup = bp.setup
    n, k, p = setup.n, setup.k, setup.p
    if wit.v.dim != k + p - s or wit.w.dim != t:
        return False
    u = bp.u
    cp = Subspace.span(n, [[int(i == a) for i in range(n)] for a in range(p)])
    if not (wit.v.contains(u) and wit.v.contains(cp)):
        return False
    # h must vanish identically on V
    h = xi.h_block
    for j in range(wit.v.dim):
        coords = _pure_q_coords(bp, wit.v.basis.col(j))
        for r in range(h.nrows):
            if sum(h[r, c] * coords[c] for c in range(h.ncols)) != 0:
                return False
    u_cap_q = Subspace.span(n, _u_cap_q_vectors(bp))
    l_img = Subspace.span(n, _ambient_columns(bp, xi.l_block, _u_cap_q_vectors(bp)))
    return u_cap_q.contains(wit.w) and wit.w.contains(l_img)


def resolution_for(setup: Setup) -> ResolutionKind:
    """Which resolution the normalized parameters call for."""
    if setup.kind != Kind.GLPQ:
        return ResolutionKind.ZI
    work = normalize(setup).setup
    return ResolutionKind.Z if work.n - work.k >= work.p else ResolutionKind.ZTILDE


def _strict_pair(setup: Setup, target_orbit, stratum_orbit) -> tuple:
    """Normalized setup, target and stratum, the stratum strictly below the target."""
    if setup.kind != Kind.GLPQ:
        raise ValueError("microlocal emptiness testing is for GLpq setups")
    norm = normalize(setup)
    tgt = norm.to_normalized(target_orbit)
    strat = norm.to_normalized(stratum_orbit)
    if tgt == strat or not _closure_leq(norm.setup, strat, tgt):
        raise ValueError("stratum must lie strictly below target")
    return norm.setup, tgt, strat


def draw_conormals(setup: Setup, stratum_orbit, trials: int = 20, seed: int = 0) -> tuple:
    """trials generic covectors conormal to the stratum at its base point.

    The stream is derived from the seed, the normalized setup and the
    stratum alone, so every target above the stratum can judge the same
    draws.
    """
    if setup.kind != Kind.GLPQ:
        raise ValueError("microlocal emptiness testing is for GLpq setups")
    norm = normalize(setup)
    work, strat = norm.setup, norm.to_normalized(stratum_orbit)
    bp = base_point(work, strat)
    rng = SeedStream(seed).derive("microlocal", work.describe(), format_orbit(work, strat))
    return tuple(sample_conormal(bp, rng.next_u64()) for _ in range(trials))


def judge_microlocal(setup: Setup, target_orbit, stratum_orbit, covectors) -> MicrolocalVerdict:
    """The target's verdict over covectors conormal to the stratum.

    A generic covector has h and l at full rank, so with h_full =
    min(|rows|, |cols|) of h (likewise l_full), it lies in the image of
    Z iff h_full <= s and l_full <= t, and in that of Ztilde iff h_full
    <= n-k-p+s and l_full <= t.  This is a second statement of the
    membership caps, read off the block shapes rather than the sampled
    ranks: every covector is tested, and each one whose membership test
    disagrees with it is counted, which guards the caps and rank reads
    inside ``kernel_membership_*``.
    """
    work, tgt, strat = _strict_pair(setup, target_orbit, stratum_orbit)
    kind = resolution_for(work)
    membership = kernel_membership_Z if kind == ResolutionKind.Z else kernel_membership_Ztilde
    bp = base_point(work, strat)
    h_full, l_full = generic_block_ranks(bp)
    h_cap = tgt.s if kind == ResolutionKind.Z else work.n - work.k - work.p + tgt.s
    generic_member = h_full <= h_cap and l_full <= tgt.t
    hits = []
    disagreements = 0
    for xi in covectors:
        if xi.base is not bp and xi.base != bp:
            raise ValueError("covectors must be conormal to the stratum at its base point")
        hit, wit = membership(xi, tgt.s, tgt.t)
        if hit:
            hits.append((xi, wit))
        disagreements += hit != generic_member
    return MicrolocalVerdict(
        kind=kind, thresholds=(tgt.s, tgt.t), generic_empty=not generic_member,
        disagreements=disagreements, hits=tuple(hits),
        outside_strict_hypothesis=(work.n == 2 * work.k),
    )


def verify_microlocal_empty(
    setup: Setup, target_orbit, stratum_orbit, trials: int = 20, seed: int = 0
) -> MicrolocalVerdict:
    """Sample covectors conormal to the stratum; none may lie in the kernel image.

    The verdict being empty in all trials is the evidence that the
    stratum contributes nothing to the target's characteristic cycle.
    The covectors are drawn per stratum (``draw_conormals``): the
    target does not enter their seed, so the draws are the ones every
    other target above the stratum is judged on.  They are judged per
    target (``judge_microlocal``), which also decides the verdict
    exactly from the block shapes and counts the trials that contradict
    it.
    """
    _strict_pair(setup, target_orbit, stratum_orbit)
    covectors = draw_conormals(setup, stratum_orbit, trials=trials, seed=seed)
    return judge_microlocal(setup, target_orbit, stratum_orbit, covectors)


def _radical_index(setup: Setup, orbit) -> int:
    return orbit.i if isinstance(orbit, RadicalOrbit) else setup.k


def _check_kind(setup: Setup, kind: ResolutionKind) -> None:
    if kind == ResolutionKind.ZI:
        if setup.kind == Kind.GLPQ:
            raise ValueError("radical resolution needs an Sp/SO setup")
    elif setup.kind != Kind.GLPQ:
        raise ValueError("subspace-pair resolutions need a GLpq setup")


def _fiber_dimension(work: Setup, kind: ResolutionKind, tgt, strat) -> int:
    """fiber_dimension on valid labels, strat in tgt's closure, normalized for GLpq."""
    if kind == ResolutionKind.ZI:
        i = _radical_index(work, tgt)
        return i * (_radical_index(work, strat) - i)
    s, t = tgt.s, tgt.t
    sp, tp = strat.s, strat.t
    if kind == ResolutionKind.Z:
        return s * (sp - s) + t * (tp - t)
    n, k, p = work.n, work.k, work.p
    return (sp - s) * (n - k - p + s) + t * (tp - t)


def fiber_dimension(setup: Setup, kind: ResolutionKind, target, stratum) -> int:
    """Dimension of the resolution fiber over a point of the stratum."""
    _check_kind(setup, kind)
    work, tgt, strat = setup, target, stratum
    if setup.kind == Kind.GLPQ:
        norm = normalize(setup)
        work, tgt, strat = norm.setup, norm.to_normalized(target), norm.to_normalized(stratum)
    if not closure_leq(work, strat, tgt):
        raise ValueError("stratum must lie in the target's closure")
    return _fiber_dimension(work, kind, tgt, strat)


def is_small(setup: Setup, kind: ResolutionKind, target) -> bool:
    """Strict fiber bound 2*dim(fiber) < codim(stratum) below the target."""
    _check_kind(setup, kind)
    if setup.kind == Kind.GLPQ:
        norm = normalize(setup)
        work, tgt = norm.setup, norm.to_normalized(target)
    else:
        work, tgt = setup, target
    pos = ClosurePoset(work)
    top = pos.dimension[tgt]
    for stratum in pos.orbits:
        if stratum == tgt or not pos.leq(stratum, tgt):
            continue
        fib = _fiber_dimension(work, kind, tgt, stratum)
        if 2 * fib >= top - pos.dimension[stratum]:
            return False
    return True
