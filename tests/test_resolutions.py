import pytest

from kcycle import conormal, exactla, resolutions
from kcycle.exactla import QMatrix, SeedStream
from kcycle.conormal import ConormalVector, conormal_space, sample_conormal
from kcycle.orbits import (
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    base_point,
    enumerate_orbits,
    normalize,
)
from kcycle.resolutions import (
    ResolutionKind,
    fiber_dimension,
    is_small,
    kernel_membership_Z,
    kernel_membership_Ztilde,
    resolution_for,
    verify_microlocal_empty,
    witness_satisfies_Z,
    witness_satisfies_Ztilde,
)


def glpq(n, k, p, q):
    return Setup(Kind.GLPQ, n, k, p=p, q=q)


def zero_covector(bp):
    setup = bp.setup
    return ConormalVector(bp, QMatrix.zeros(setup.k, setup.n - setup.k))


def proper_pairs(setup):
    pos = ClosurePoset(setup)
    return [(t, s) for t in pos.orbits for s in pos.orbits if t != s and pos.leq(s, t)]


def test_zero_covector_always_member():
    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1))
    ok, wit = kernel_membership_Z(zero_covector(bp), 1, 0)
    assert ok and witness_satisfies_Z(zero_covector(bp), 1, 0, wit)
    bp = base_point(glpq(5, 2, 4, 1), IntersectionOrbit(2, 0))
    ok, wit = kernel_membership_Ztilde(zero_covector(bp), 1, 0)
    assert ok and witness_satisfies_Ztilde(zero_covector(bp), 1, 0, wit)


def test_membership_at_own_stratum():
    # thresholds are met with equality by every covector of the stratum itself
    setup = glpq(6, 2, 3, 3)
    for orbit in enumerate_orbits(setup):
        if orbit == IntersectionOrbit(0, 0):
            continue
        bp = base_point(setup, orbit)
        for seed in range(5):
            xi = sample_conormal(bp, seed)
            ok, wit = kernel_membership_Z(xi, orbit.s, orbit.t)
            assert ok
            assert witness_satisfies_Z(xi, orbit.s, orbit.t, wit)
    setup = glpq(5, 2, 4, 1)
    for orbit in enumerate_orbits(setup):
        if orbit == IntersectionOrbit(1, 0):
            continue  # open orbit
        bp = base_point(setup, orbit)
        for seed in range(5):
            xi = sample_conormal(bp, seed)
            ok, wit = kernel_membership_Ztilde(xi, orbit.s, orbit.t)
            assert ok
            assert witness_satisfies_Ztilde(xi, orbit.s, orbit.t, wit)


def test_generic_covector_fails_smaller_stratum():
    # Gr(2,6), target (1,0), stratum (1,1): the l-block has generic rank 1 > t=0
    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 1))
    for seed in range(20):
        xi = sample_conormal(bp, seed)
        ok, _ = kernel_membership_Z(xi, 1, 0)
        assert not ok


def test_membership_monotone_in_thresholds():
    rng = SeedStream(77)
    for setup, member in [(glpq(6, 2, 3, 3), kernel_membership_Z),
                          (glpq(5, 2, 4, 1), kernel_membership_Ztilde)]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim == 0:
                continue
            xi = sample_conormal(bp, rng.next_u64())
            grid = [(s, t) for s in range(orbit.s + 1) for t in range(orbit.t + 1)]
            got = {st: member(xi, *st)[0] for st in grid}
            for s1, t1 in grid:
                for s2, t2 in grid:
                    if s2 >= s1 and t2 >= t1 and got[(s1, t1)]:
                        assert got[(s2, t2)]


def test_membership_reads_the_sampled_ranks(monkeypatch):
    # the sampler certified both block ranks; membership must not redo them
    samples = []
    for setup, member in [(glpq(6, 2, 3, 3), kernel_membership_Z),
                          (glpq(5, 2, 4, 1), kernel_membership_Ztilde)]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim:
                samples.append((member, orbit, sample_conormal(bp, seed=11)))

    def no_rank(m):
        raise AssertionError("a sampled block was ranked again")

    monkeypatch.setattr(conormal, "rank", no_rank)
    monkeypatch.setattr(resolutions, "rank", no_rank, raising=False)
    hits = 0
    for member, orbit, xi in samples:
        for s in range(orbit.s + 1):
            for t in range(orbit.t + 1):
                hits += member(xi, s, t)[0]
    assert 0 < hits < sum((o.s + 1) * (o.t + 1) for _, o, _ in samples)


def test_rank_calls_per_drawn_sample(monkeypatch):
    # a draw ranks h, and l only when h came out full: a kept sample costs
    # exactly two rank calls, a rejected draw one or two, membership none
    real_rank, real_sample = exactla.rank, resolutions.sample_conormal
    full, deficient, retries = [], [], []

    def counting_rank(m):
        r = real_rank(m)
        (full if r == min(m.nrows, m.ncols) else deficient).append(m)
        return r

    def low_height_sample(bp, seed):
        # entries in {-1, 0, 1} make singular blocks, and so retries, common
        xi = real_sample(bp, seed, height_bound=1)
        retries.append(xi.retries)
        return xi

    for module in (exactla, conormal, resolutions):
        monkeypatch.setattr(module, "rank", counting_rank, raising=False)
    monkeypatch.setattr(resolutions, "sample_conormal", low_height_sample)
    setup = glpq(6, 2, 3, 3)
    for target, stratum in proper_pairs(setup):
        verdict = verify_microlocal_empty(setup, target, stratum, trials=20, seed=3)
        assert verdict.empty_in_all_trials
    kept, rejected = len(retries), sum(retries)
    assert rejected > 0, "no retry was exercised"
    # every rejected draw stops at exactly one rank-deficient block
    assert len(deficient) == rejected
    assert 2 * kept <= len(full) <= 2 * kept + rejected


def test_verify_empty_all_pairs_small_setups():
    for setup in [glpq(6, 2, 3, 3), glpq(5, 2, 3, 2)]:
        for target, stratum in proper_pairs(setup):
            verdict = verify_microlocal_empty(setup, target, stratum, trials=20, seed=3)
            assert verdict.empty_in_all_trials, (target, stratum)
            assert verdict.witness is None
            assert not verdict.outside_strict_hypothesis


def test_verify_empty_boundary_tagged():
    setup = glpq(4, 2, 2, 2)
    for target, stratum in proper_pairs(setup):
        verdict = verify_microlocal_empty(setup, target, stratum, trials=20, seed=1)
        assert verdict.empty_in_all_trials
        assert verdict.outside_strict_hypothesis


def test_verify_empty_second_resolution_branch():
    setup = glpq(5, 3, 4, 1)
    assert resolution_for(normalize(setup).setup) == ResolutionKind.ZTILDE
    for target, stratum in proper_pairs(setup):
        verdict = verify_microlocal_empty(setup, target, stratum, trials=20, seed=7)
        assert verdict.kind == ResolutionKind.ZTILDE
        assert verdict.empty_in_all_trials, (target, stratum)


def test_verify_empty_rejects_bad_pairs():
    setup = glpq(6, 2, 3, 3)
    with pytest.raises(ValueError):
        verify_microlocal_empty(setup, IntersectionOrbit(1, 0), IntersectionOrbit(1, 0))
    with pytest.raises(ValueError):
        verify_microlocal_empty(setup, IntersectionOrbit(1, 1), IntersectionOrbit(0, 0))
    with pytest.raises(ValueError):
        verify_microlocal_empty(Setup(Kind.SO, 6, 2), RadicalOrbit(1), RadicalOrbit(2))


def test_verdict_deterministic():
    setup = glpq(6, 2, 3, 3)
    a = verify_microlocal_empty(setup, IntersectionOrbit(1, 0), IntersectionOrbit(1, 1), seed=5)
    b = verify_microlocal_empty(setup, IntersectionOrbit(1, 0), IntersectionOrbit(1, 1), seed=5)
    assert a == b


def test_fiber_dimension_values():
    setup = glpq(6, 2, 3, 3)
    assert fiber_dimension(setup, ResolutionKind.Z,
                           IntersectionOrbit(1, 0), IntersectionOrbit(1, 1)) == 0
    assert fiber_dimension(setup, ResolutionKind.Z,
                           IntersectionOrbit(1, 1), IntersectionOrbit(1, 1)) == 0
    assert fiber_dimension(setup, ResolutionKind.Z,
                           IntersectionOrbit(0, 0), IntersectionOrbit(2, 0)) == 0
    so = Setup(Kind.SO, 7, 3)
    assert fiber_dimension(so, ResolutionKind.ZI, RadicalOrbit(1), RadicalOrbit(3)) == 2
    assert fiber_dimension(so, ResolutionKind.ZI, RadicalOrbit(1), RadicalOrbit(1)) == 0
    with pytest.raises(ValueError):
        fiber_dimension(so, ResolutionKind.ZI, RadicalOrbit(3), RadicalOrbit(1))
    with pytest.raises(ValueError):
        fiber_dimension(setup, ResolutionKind.Z,
                        IntersectionOrbit(1, 1), IntersectionOrbit(0, 0))


def test_smallness_claims():
    setup = glpq(6, 2, 3, 3)  # n-k = 4 >= p = 3
    for target in enumerate_orbits(setup):
        assert is_small(setup, ResolutionKind.Z, target)
    for raw in [glpq(5, 3, 4, 1), glpq(5, 2, 4, 1)]:  # n-k <= p after normalizing
        for target in enumerate_orbits(raw):
            assert is_small(raw, ResolutionKind.ZTILDE, target)


def test_smallness_is_a_normalized_notion():
    # raw parameters suggest n-k >= p, but the standard presentation of this
    # setup swaps the summands and lands in the other regime
    setup = glpq(5, 2, 1, 4)
    assert not is_small(setup, ResolutionKind.Z, IntersectionOrbit(0, 1))
    for target in enumerate_orbits(setup):
        assert is_small(setup, ResolutionKind.ZTILDE, target)


def test_smallness_matches_regime_criterion():
    for n in range(2, 7):
        for k in range(1, n):
            for p in range(1, n):
                setup = glpq(n, k, p, n - p)
                norm = normalize(setup).setup
                for target in enumerate_orbits(setup):
                    if norm.n - norm.k >= norm.p:
                        assert is_small(setup, ResolutionKind.Z, target), (setup, target)
                    if norm.n - norm.k <= norm.p:
                        assert is_small(setup, ResolutionKind.ZTILDE, target), (setup, target)


def test_radical_resolution_not_small():
    assert not is_small(Setup(Kind.SO, 6, 3), ResolutionKind.ZI, RadicalOrbit(1))
    assert not is_small(Setup(Kind.SO, 7, 3), ResolutionKind.ZI, RadicalOrbit(1))
    # minimal orbits have nothing below them, so smallness holds vacuously
    assert is_small(Setup(Kind.SO, 6, 3), ResolutionKind.ZI, SplitOrbit(+1))
