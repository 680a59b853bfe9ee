from itertools import islice

import pytest

from kcycle import conormal
from kcycle.conormal import NoGenericCovector, block_shapes, draw_covectors
from kcycle.exactla import SEED_MAX, QMatrix, SeedStream, derive_states, draw_streams, kernel, rank
from kcycle.orbits import (
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    base_point,
    enumerate_orbits,
    lie_algebra_basis,
    orbit_dimension,
)
from reference import (
    action_image,
    block_ranges,
    conormal_matrix,
    conormal_space,
    draw_covector,
    glpq,
    leading_minor_certificate,
    max_conormal_rank,
    next_u64,
    open_orbit,
    sample_conormal,
    setups,
)


SWEEP = [
    glpq(4, 2, 2, 2),
    glpq(5, 2, 3, 2),
    glpq(6, 2, 3, 3),
    glpq(6, 2, 4, 2),
    glpq(6, 3, 4, 2),
    Setup(Kind.SP, 6, 2),
    Setup(Kind.SP, 6, 4),
    Setup(Kind.SO, 5, 3),
    Setup(Kind.SO, 6, 3),
    Setup(Kind.SO, 7, 4),
]


def test_dimension_complements_orbit():
    for setup in SWEEP:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            space = conormal_space(bp)
            assert space.dim + orbit_dimension(setup, orbit) == setup.dim_gr


def test_open_orbit_has_zero_conormal():
    for setup in SWEEP:
        top = open_orbit(ClosurePoset(setup))
        assert conormal_space(base_point(setup, top)).dim == 0


def test_block_count_example():
    # orbit (1,1) of Gr(2,6), p=q=3: two 1x2 blocks
    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1))
    assert conormal_space(bp).dim == 4
    bp = base_point(glpq(4, 2, 2, 2), IntersectionOrbit(2, 0))
    assert conormal_space(bp).dim == 4  # all of T*, dim Gr(2,4)


def test_two_routes_one_answer():
    for setup in SWEEP:
        if setup.kind != Kind.GLPQ:
            continue
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            assert conormal_space(bp).basis == kernel(action_image(bp.setup, bp.orbit))


def test_pairing_annihilates_tangent():
    # every conormal basis vector, and on GLpq a sample's placed matrix,
    # pairs to zero with every tangent vector
    for setup in SWEEP:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            space = conormal_space(bp)
            if space.dim == 0:
                continue
            covectors = [space.basis.col(j) for j in range(space.dim)]
            if setup.kind == Kind.GLPQ:
                covectors.append(conormal_matrix(sample_conormal(bp, seed=5)).entries)
            # one row per Lie algebra basis element: its tangent vector
            tangents = action_image(setup, orbit)
            assert tangents.nrows == len(lie_algebra_basis(setup))
            for xi in covectors:
                for r in range(tangents.nrows):
                    assert sum(a * b for a, b in zip(xi, tangents.row(r))) == 0


def test_action_dim_cross_check_example():
    setup = glpq(6, 2, 3, 3)
    orbit = IntersectionOrbit(1, 1)
    bp = base_point(setup, orbit)
    assert orbit_dimension(setup, orbit) == setup.dim_gr - conormal_space(bp).dim


def test_max_rank_formula_values():
    assert max_conormal_rank(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1)) == 2
    assert max_conormal_rank(glpq(6, 2, 3, 3), IntersectionOrbit(0, 0)) == 0
    assert max_conormal_rank(glpq(6, 2, 4, 2), IntersectionOrbit(2, 0)) == 2
    with pytest.raises(ValueError):
        max_conormal_rank(Setup(Kind.SO, 6, 3), RadicalOrbit(1))


def test_sample_determinism_and_rank():
    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1))
    a = sample_conormal(bp, seed=42)
    b = sample_conormal(bp, seed=42)
    assert conormal_matrix(a).entries == conormal_matrix(b).entries
    assert rank(conormal_matrix(a)) == max_conormal_rank(bp.setup, bp.orbit)


def test_sample_attains_max_rank_over_many_seeds():
    bp = base_point(glpq(6, 2, 4, 2), IntersectionOrbit(2, 0))
    want = max_conormal_rank(bp.setup, bp.orbit)
    for seed in range(50):
        assert rank(conormal_matrix(sample_conormal(bp, seed))) == want


def test_retry_statistics():
    # genericity should essentially never need resampling at height 100
    worst = 0
    rng = SeedStream(314)
    for setup in [glpq(6, 2, 3, 3), glpq(6, 3, 4, 2)]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim == 0:
                continue
            for _ in range(250):
                worst = max(worst, sample_conormal(bp, next_u64(rng)).retries)
    assert worst <= 3


def test_blocks_are_sliced_once():
    # blocks and their ranks are computed once per sample, so the draw
    # and the membership tests share them
    for setup in SWEEP[:5]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim == 0:
                continue
            xi = sample_conormal(bp, seed=3)
            # the draw's genericity check left both full ranks on the covector
            h, l = xi.h_block, xi.l_block
            assert xi.h_rank == rank(h) == min(h.nrows, h.ncols)
            assert xi.l_rank == rank(l) == min(l.nrows, l.ncols)


def block(xi, rg, cg):
    rows, cols = block_ranges(xi.base)
    return conormal_matrix(xi).submatrix(rows[rg], cols[cg])


def test_sampled_blocks_place_into_the_matrix():
    # a GLpq sample is its two blocks and its matrix is placed from them;
    # slicing the matrix gives the same blocks back
    for setup in SWEEP[:5] + [glpq(7, 3, 4, 3)]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim == 0:
                continue
            xi = sample_conormal(bp, seed=4)
            h, l = xi.h_block, xi.l_block
            assert (h.nrows, h.ncols) == (bp.row_groups[0], bp.col_groups[2])
            assert (l.nrows, l.ncols) == (bp.row_groups[1], bp.col_groups[0])
            nk = setup.n - setup.k
            placed = [[0] * nk for _ in range(setup.k)]
            rg, cg = block_ranges(bp)
            for blk, rows, cols in ((h, rg[0], cg[2]), (l, rg[1], cg[0])):
                for a, j in enumerate(rows):
                    for b, c in enumerate(cols):
                        placed[j][c] = blk[a, b]
            assert conormal_matrix(xi) == QMatrix.from_rows(placed)
            assert block(xi, 0, 2) == h and block(xi, 1, 0) == l
    # an empty block keeps its other size when sliced back out
    xi = sample_conormal(base_point(glpq(5, 2, 3, 2), IntersectionOrbit(1, 0)), seed=4)
    assert xi.l_block == block(xi, 1, 0) == QMatrix(0, 1, ())
    xi = sample_conormal(base_point(glpq(6, 3, 4, 2), IntersectionOrbit(1, 1)), seed=4)
    assert xi.h_block == block(xi, 0, 2) == QMatrix(1, 0, ())


def test_sample_on_open_orbit_rejected():
    setup = glpq(6, 2, 3, 3)
    bp = base_point(setup, IntersectionOrbit(0, 0))
    with pytest.raises(ValueError):
        sample_conormal(bp, seed=1)


def test_sampling_is_for_glpq():
    # Sp/SO conormal spaces are the action image's kernel; nothing samples them
    for setup in SWEEP[5:]:
        for orbit in enumerate_orbits(setup):
            with pytest.raises(ValueError, match="GLpq"):
                sample_conormal(base_point(setup, orbit), seed=1)


def test_rank_bounded_by_formula():
    for setup in [glpq(6, 2, 3, 3), glpq(5, 2, 3, 2), glpq(6, 3, 4, 2)]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim == 0:
                continue
            bound = max_conormal_rank(setup, orbit)
            for seed in range(10):
                assert rank(conormal_matrix(sample_conormal(bp, seed))) <= bound


def test_block_pattern_zero_elsewhere():
    bp = base_point(glpq(7, 3, 4, 3), IntersectionOrbit(1, 1))
    xi = sample_conormal(bp, seed=9)
    for rg in range(3):
        for cg in range(3):
            blk = block(xi, rg, cg)
            if (rg, cg) in ((0, 2), (1, 0)):
                continue
            assert blk.is_zero()


def test_batch_draw_matches_the_per_seed_draw(monkeypatch):
    # every non-open stratum of every glpq setup with n <= 7, at height 1,
    # where singular blocks and so retries are common, and at the default
    # height 100: the batch gives each seed the blocks, ranks and retries
    # of a draw on that seed's own stream
    glpq_setups = setups(7, (Kind.GLPQ,))
    rng = SeedStream(18)
    strata = retried = 0
    for setup in glpq_setups:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            (hr, hc), (lr, lc) = block_shapes(bp)
            if hr * hc + lr * lc == 0:
                continue  # the open orbit
            strata += 1
            for height in (1, 100):
                monkeypatch.setattr(conormal, "HEIGHT_BOUND", height)
                seeds = rng.randints(6, 0, SEED_MAX)
                batch = draw_covectors(bp, seeds)
                assert batch == tuple(draw_covector(bp, seed) for seed in seeds)
                retried += sum(xi.retries > 0 for xi in batch)
    # every orbit but the open one of each setup was drawn
    assert strata == sum(len(enumerate_orbits(s)) - 1 for s in glpq_setups)
    assert retried > 100


def test_batch_draw_raises_on_no_generic_covector_and_bad_seeds(monkeypatch):
    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1))
    for seeds in ([-1], [3, SEED_MAX + 1, 4], [SEED_MAX, -5]):
        with pytest.raises(ValueError, match="seed"):
            draw_covectors(bp, seeds)
    assert len(draw_covectors(bp, [0, SEED_MAX])) == 2
    assert draw_covectors(bp, []) == ()
    # the certificate proves no trial, so every one is ranked, and never full
    monkeypatch.setattr(conormal, "_certified_lanes", prove_nothing)
    monkeypatch.setattr(conormal, "rank", lambda m: 0)
    with pytest.raises(NoGenericCovector):
        draw_covectors(bp, [1, 2])


def prove_nothing(draws, at, r, c):
    return [False] * len(draws)


def test_certified_lanes_match_rank():
    # every shape with 1 <= r, c <= 4, and 1 x 7 and 3 x 5, at heights 1 and
    # 2, with the block after three other entries of each draw: the lanes
    # proven are those the reference's determinants prove, and each has
    # rank min(r, c).  A vector is proven by its first entry, its leading
    # 1 x 1 minor, so only a 1 x 1 block's proof is exact: every other
    # shape, vectors included, leaves some full-rank lanes unproven
    shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)] + [(1, 7), (3, 5)]
    states = derive_states(SeedStream(24).randints(200, 0, SEED_MAX), "lanes")
    for r, c in shapes:
        k = min(r, c)
        assert conormal._certified_lanes([], 3, r, c) == []
        for height in (1, 2):
            draws, _ = draw_streams(states, 3 + r * c, -height, height)
            proven = conormal._certified_lanes(draws, 3, r, c)
            blocks = [QMatrix(r, c, tuple(d[3:])) for d in draws]
            assert proven == [leading_minor_certificate(b) for b in blocks]
            full = [rank(b) == k for b in blocks]
            assert any(proven)
            assert all(f for f, ok in zip(full, proven) if ok)
            unproven_full = sum(f and not ok for f, ok in zip(full, proven))
            assert (unproven_full > 0) == (r * c > 1), (r, c, height)


def test_unproven_trials_draw_what_proven_ones_do(monkeypatch):
    # with the certificate proving nothing, every trial goes the scalar way
    # and the batch is unchanged: a proven trial is the scalar path's
    # attempt 0 with both full ranks
    rng = SeedStream(25)
    cases = []
    for setup in (glpq(6, 2, 3, 3), glpq(6, 3, 4, 2), glpq(7, 3, 4, 3)):
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if sum(r * c for r, c in block_shapes(bp)):
                for height in (1, 100):
                    cases.append((bp, height, rng.randints(8, 0, SEED_MAX)))

    def draw_all():
        out = []
        for bp, height, seeds in cases:
            monkeypatch.setattr(conormal, "HEIGHT_BOUND", height)
            out.append(draw_covectors(bp, seeds))
        return out

    proven = draw_all()
    assert any(xi.retries for batch in proven for xi in batch)
    monkeypatch.setattr(conormal, "_certified_lanes", prove_nothing)
    assert draw_all() == proven


def test_an_empty_block_is_one_matrix_per_draw():
    # one empty matrix per draw and no more, so that a batch of records
    # zipped from two empty blocks still ends
    draws = [[1, 2], [3, 4], [5, 6]]
    blocks = list(islice(conormal._blocks(draws, 2, 1, 0), len(draws) + 1))
    assert blocks == [QMatrix(1, 0, ())] * 3


def test_batch_draw_builds_no_seed_stream(monkeypatch):
    # the trials' streams are plain states, derived and drawn in batches,
    # retries included
    built = []
    real_init = SeedStream.__init__

    def counting_init(self, seed):
        built.append(seed)
        real_init(self, seed)

    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1))
    seeds = SeedStream(7).randints(20, 0, SEED_MAX)
    monkeypatch.setattr(conormal, "HEIGHT_BOUND", 1)
    monkeypatch.setattr(SeedStream, "__init__", counting_init)
    drawn = draw_covectors(bp, seeds)
    assert built == [] and any(xi.retries for xi in drawn)
