import pytest

from kcycle import ccengine, conormal, exactla, orbits, resolutions
from kcycle.ccengine import check_microlocal
from kcycle.cli import check_entries
from kcycle.exactla import QMatrix, SeedStream
from kcycle.conormal import ConormalVector
from kcycle.orbits import (
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    base_point,
    enumerate_orbits,
    family,
    normalize,
)
from kcycle.resolutions import (
    RESOLUTIONS,
    ResolutionKind,
    draw_conormals,
    is_small,
    judge_microlocal,
    kernel_membership_Z,
    kernel_membership_Ztilde,
    witness_satisfies_Z,
    witness_satisfies_Ztilde,
)
from reference import (
    conormal_space,
    fiber_dimension,
    glpq,
    leading_minor_certificate,
    next_u64,
    sample_conormal,
    setups,
    zeros,
)


def zero_covector(bp):
    (hr, hc), (lr, lc) = conormal.block_shapes(bp)
    return ConormalVector(bp, zeros(hr, hc), zeros(lr, lc), 0, 0)


def proper_pairs(setup):
    pos = ClosurePoset(setup)
    return [(t, s) for t in pos.orbits for s in pos.orbits if t != s and pos.leq(s, t)]


def judged(setup, target, stratum, trials=20, seed=0):
    # one pair's verdict by the steps check_microlocal runs: draw at the
    # normalized stratum, then judge for the normalized target
    norm = normalize(setup)
    drawn = draw_conormals(base_point(norm.setup, norm.to_normalized(stratum)),
                           trials=trials, seed=seed)
    return judge_microlocal(norm.to_normalized(target), drawn)


def small(setup, kind, target):
    # is_small on the normalized setup's poset, as check_smallness reads it
    norm = normalize(setup)
    return is_small(ClosurePoset(norm.setup), kind, norm.to_normalized(target))


def fiber(setup, kind, target, stratum):
    # the family's fiber shape on the normalized labels, as is_small reads it
    norm = normalize(setup)
    return RESOLUTIONS[family(setup)].fiber(norm.setup, kind, norm.to_normalized(target),
                                            norm.to_normalized(stratum))


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
            xi = sample_conormal(bp, next_u64(rng))
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
    # a trial reaches rank only when the lane certificate does not prove
    # its first draw full; then it ranks h when h has rows and columns,
    # then l likewise but only when h came out full, and retries as it
    # must; a block with no rows or no columns is never ranked, and
    # membership ranks nothing
    real_rank, real_draw = exactla.rank, resolutions.draw_covectors
    calls, samples = [], []

    def counting_rank(m):
        r = real_rank(m)
        calls.append(((m.nrows, m.ncols), r == min(m.nrows, m.ncols)))
        return r

    def one_seed_draws(base, seeds):
        # one seed per batch keeps each sample's rank calls apart
        out = []
        for seed in seeds:
            first = len(calls)
            (xi,) = real_draw(base, [seed])
            samples.append((xi, seed, calls[first:]))
            out.append(xi)
        return tuple(out)

    for module in (exactla, conormal, resolutions):
        monkeypatch.setattr(module, "rank", counting_rank, raising=False)
    # entries in {-1, 0, 1} make singular blocks, and so retries, common
    monkeypatch.setattr(conormal, "HEIGHT_BOUND", 1)
    monkeypatch.setattr(resolutions, "draw_covectors", one_seed_draws)
    for setup in (glpq(6, 2, 3, 3), glpq(5, 2, 3, 2)):
        for target, stratum in proper_pairs(setup):
            verdict = judged(setup, target, stratum, trials=20, seed=3)
            assert verdict.hits == ()
    assert sum(len(drawn) for _, _, drawn in samples) == len(calls)
    assert all(rows and cols for (rows, cols), _ in calls), "an empty block was ranked"
    empty_h = empty_l = rejected = proven = unproven_kept = 0
    for xi, seed, drawn in samples:
        h_shape, l_shape = conormal.block_shapes(xi.base)
        empty_h += 0 in h_shape
        empty_l += 0 in l_shape
        # the first draw, as the trial's own stream gives it
        nh = h_shape[0] * h_shape[1]
        first = SeedStream(seed).derive("conormal-sample").randints(
            nh + l_shape[0] * l_shape[1], -1, 1)
        if all(leading_minor_certificate(QMatrix(*shape, tuple(entries)))
               for shape, entries in ((h_shape, first[:nh]), (l_shape, first[nh:]))
               if 0 not in shape):
            assert drawn == [] and xi.retries == 0
            assert (xi.h_rank, xi.l_rank) == (real_rank(xi.h_block), real_rank(xi.l_block))
            proven += 1
            continue
        # walk the sample's draws through the rule, one recorded call at a time
        pos = 0
        for draw in range(xi.retries + 1):
            full = []
            if 0 not in h_shape:
                assert drawn[pos][0] == h_shape
                full.append(drawn[pos][1])
                pos += 1
            if all(full) and 0 not in l_shape:
                assert drawn[pos][0] == l_shape
                full.append(drawn[pos][1])
                pos += 1
            kept = draw == xi.retries
            assert all(full) == kept
            rejected += not kept
        assert pos == len(drawn)
        unproven_kept += xi.retries == 0
    assert proven > 0, "no trial was proven lane-wise"
    assert unproven_kept > 0, "no unproven trial was full at its first draw"
    assert rejected > 0, "no retry was exercised"
    assert empty_h and empty_l, "no empty block was drawn"


def own_stratum_membership(real):
    # answers for the covector's own stratum, not for the target it is asked
    # about: always a member, with a witness sized for the wrong thresholds
    return lambda xi, s, t: real(xi, xi.base.orbit.s, xi.base.orbit.t)


def test_every_trial_must_agree_with_the_block_shapes(monkeypatch):
    setup = glpq(6, 2, 3, 3)
    target, stratum = IntersectionOrbit(1, 0), IntersectionOrbit(1, 1)
    honest = judged(setup, target, stratum, trials=8, seed=2)
    assert honest.disagreements == 0 and honest.hits == ()
    assert honest.bad_witnesses == 0
    real, wrong = kernel_membership_Z, own_stratum_membership(kernel_membership_Z)
    answers = iter([real, real, wrong] + [real] * 5)
    monkeypatch.setattr(resolutions, "kernel_membership_Z",
                        lambda xi, s, t: next(answers)(xi, s, t))
    flipped = judged(setup, target, stratum, trials=8, seed=2)
    # every trial still runs; the one that flipped is counted, and kept
    # with its witness, which is sized for the wrong thresholds
    assert flipped.disagreements == 1
    assert len(flipped.hits) == 1 and flipped.bad_witnesses == 1


def test_check_microlocal_checks_every_witness(monkeypatch):
    setup = glpq(6, 2, 3, 3)
    monkeypatch.setattr(resolutions, "kernel_membership_Z",
                        own_stratum_membership(kernel_membership_Z))
    rows = check_microlocal(setup, trials=3, seed=1)
    assert rows and not any(r.ok for r in rows)
    for row in check_entries(setup, rows):
        assert "witness found" in row["detail"]
        assert "witness check failed on 3 of 3 witnesses" in row["detail"]
        assert "block-shape verdict contradicted by 3 of 3 trials" in row["detail"]


def test_a_contradicted_shape_verdict_fails_the_row(monkeypatch):
    # block shapes that predict membership where no trial finds any fail the
    # row, though there is no witness
    monkeypatch.setattr(resolutions, "generic_block_ranks", lambda bp: (0, 0))
    rows = check_microlocal(glpq(6, 2, 3, 3), trials=2, seed=1)
    assert rows and not any(r.ok for r in rows)
    for row in check_entries(glpq(6, 2, 3, 3), rows):
        assert "witness found" not in row["detail"]
        assert "block-shape verdict contradicted by 2 of 2 trials" in row["detail"]


def test_genuine_witnesses_pass_their_check(monkeypatch):
    # zero covectors lie in every kernel image, with witnesses that hold up:
    # the rows fail on the shape verdict alone, not on the witness check
    monkeypatch.setattr(resolutions, "draw_covectors",
                        lambda base, seeds: tuple(zero_covector(base) for _ in seeds))
    for setup in (glpq(6, 2, 3, 3), glpq(5, 3, 4, 1)):
        rows = check_microlocal(setup, trials=2, seed=1)
        assert rows and not any(r.ok for r in rows)
        for row in check_entries(setup, rows):
            assert "witness found" in row["detail"]
            assert "witness check failed" not in row["detail"]
            assert "block-shape verdict contradicted by 2 of 2 trials" in row["detail"]


@pytest.mark.parametrize("setup", [glpq(6, 2, 3, 3), glpq(8, 4, 4, 4)])
def test_each_stratum_is_drawn_once_and_judged_per_target(monkeypatch, setup):
    # both setups are normalized, so a target's thresholds are its own label
    real_draw = resolutions.draw_covectors
    bases, draws, judged = [], [], []

    def counting_draw(base, seeds):
        bases.append(base)
        drawn = real_draw(base, seeds)
        draws.extend(drawn)
        return drawn

    def counting(real):
        def member(xi, s, t):
            judged.append((xi, (s, t)))
            return real(xi, s, t)
        return member

    monkeypatch.setattr(resolutions, "draw_covectors", counting_draw)
    for name in ("kernel_membership_Z", "kernel_membership_Ztilde"):
        monkeypatch.setattr(resolutions, name, counting(getattr(resolutions, name)))
    trials = 20
    rows = check_microlocal(setup, trials=trials, seed=5)
    pairs = proper_pairs(setup)
    below = {stratum for _, stratum in pairs}
    assert len(rows) == len(pairs) and all(r.ok for r in rows)
    assert len(draws) == trials * len(below)
    # one draw per stratum, at its base point
    assert len(bases) == len(below) and {base.orbit for base in bases} == below
    assert len(judged) == trials * len(pairs)
    by_stratum = {}
    for xi in draws:
        by_stratum.setdefault(xi.base.orbit, []).append(xi)
    assert set(by_stratum) == below
    # each pair judges its stratum's draws, the very objects
    expected = [(id(xi), (target.s, target.t))
                for target, stratum in pairs for xi in by_stratum[stratum]]
    assert sorted((id(xi), st) for xi, st in judged) == sorted(expected)
    assert [r["subject"] for r in check_entries(setup, rows)] == \
        [f"q({t.s},{t.t})<-q({s.s},{s.t})" for t, s in pairs]


@pytest.mark.parametrize("setup", [glpq(8, 4, 4, 4), glpq(7, 3, 4, 3), glpq(7, 4, 3, 4)])
def test_check_microlocal_normalizes_once(monkeypatch, setup):
    # labels are normalized and validated once per orbit, not once per
    # (target, stratum) pair; glpq(7,4,3,4) is both swapped and dualized
    calls = {"normalize": 0, "relabel_orbit": 0, "check_orbit": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        real = getattr(orbits, name)
        for module in (orbits, ccengine, conormal, resolutions):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    orbits.base_point.cache_clear()
    rows = check_microlocal(setup, trials=2, seed=5)
    seen = dict(calls)
    n_orbits = len(enumerate_orbits(setup))
    assert len(rows) == len(proper_pairs(setup)) > n_orbits
    assert seen["normalize"] == 1
    assert seen["relabel_orbit"] == n_orbits
    # one per relabelling, which checks the label it is given and not the
    # one it returns, and one per stratum's base point
    assert seen["check_orbit"] <= 2 * n_orbits


def test_the_sweep_never_places_a_matrix(monkeypatch):
    setup = glpq(8, 4, 4, 4)
    rows = check_microlocal(setup, trials=20, seed=5)

    def placed(xi):
        raise AssertionError("a covector's matrix was placed")

    # the package has no matrix to place; the property catches one added later
    monkeypatch.setattr(ConormalVector, "matrix", property(placed), raising=False)
    assert check_microlocal(setup, trials=20, seed=5) == rows
    assert all(r.ok for r in rows)


def test_a_membership_fault_at_one_target_fails_only_its_rows(monkeypatch):
    # the draws are shared between targets; the judging is not
    setup = glpq(8, 4, 4, 4)
    real, wrong = kernel_membership_Z, own_stratum_membership(kernel_membership_Z)
    targets = sorted({target for target, _ in proper_pairs(setup)},
                     key=lambda o: (o.s, o.t))
    assert len(targets) > 1
    for bad in targets:
        monkeypatch.setattr(
            resolutions, "kernel_membership_Z",
            lambda xi, s, t: (wrong if (s, t) == (bad.s, bad.t) else real)(xi, s, t))
        rows = check_entries(setup, check_microlocal(setup, trials=2, seed=1))
        failed = {r["subject"] for r in rows if not r["ok"]}
        prefix = f"q({bad.s},{bad.t})<-"
        assert failed == {r["subject"] for r in rows if r["subject"].startswith(prefix)}
        assert failed


def test_verify_empty_all_pairs_small_setups():
    for setup in [glpq(6, 2, 3, 3), glpq(5, 2, 3, 2)]:
        for target, stratum in proper_pairs(setup):
            verdict = judged(setup, target, stratum, trials=20, seed=3)
            assert verdict.hits == () and verdict.bad_witnesses == 0, (target, stratum)
        rows = check_entries(setup, check_microlocal(setup, trials=1))
        assert not any("square case" in r["detail"] for r in rows)


def test_verify_empty_boundary_tagged():
    setup = glpq(4, 2, 2, 2)
    for target, stratum in proper_pairs(setup):
        verdict = judged(setup, target, stratum, trials=20, seed=1)
        assert verdict.hits == ()
    rows = check_microlocal(setup, trials=20, seed=1)
    assert len(rows) == len(proper_pairs(setup))
    assert all("square case, outside the strict regime" in r["detail"]
               for r in check_entries(setup, rows))


def test_verify_empty_second_resolution_branch():
    setup = glpq(5, 3, 4, 1)
    assert RESOLUTIONS[family(setup)].applicable(normalize(setup).setup) == (
        ResolutionKind.ZTILDE,)
    for target, stratum in proper_pairs(setup):
        verdict = judged(setup, target, stratum, trials=20, seed=7)
        assert verdict.kind == ResolutionKind.ZTILDE
        assert verdict.hits == (), (target, stratum)


def test_verify_empty_rejects_bad_pairs():
    setup = glpq(6, 2, 3, 3)
    with pytest.raises(ValueError):
        judged(setup, IntersectionOrbit(1, 0), IntersectionOrbit(1, 0))
    with pytest.raises(ValueError):
        judged(setup, IntersectionOrbit(1, 1), IntersectionOrbit(0, 0))
    with pytest.raises(ValueError):
        judged(Setup(Kind.SO, 6, 2), RadicalOrbit(1), RadicalOrbit(2))
    # the judge reads the stratum off the covectors' one base point
    at_20 = draw_conormals(base_point(setup, IntersectionOrbit(2, 0)), trials=2, seed=1)
    at_11 = draw_conormals(base_point(setup, IntersectionOrbit(1, 1)), trials=2, seed=1)
    assert judge_microlocal(IntersectionOrbit(1, 0), at_20).hits == ()
    with pytest.raises(ValueError, match="one base point"):
        judge_microlocal(IntersectionOrbit(0, 0), at_20 + at_11)
    with pytest.raises(ValueError, match="strictly below"):
        judge_microlocal(IntersectionOrbit(1, 1), at_11)
    with pytest.raises(ValueError, match="strictly below"):
        judge_microlocal(IntersectionOrbit(2, 0), at_11)
    with pytest.raises(ValueError, match="no covectors"):
        judge_microlocal(IntersectionOrbit(0, 0), ())
    # nor are no draws made without complaint
    for bad in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            draw_conormals(base_point(setup, IntersectionOrbit(2, 0)), trials=bad, seed=1)
    # a label that is no orbit of the setup is rejected, not judged
    with pytest.raises(ValueError, match="not an orbit"):
        judge_microlocal(IntersectionOrbit(0, -1), at_20)
    with pytest.raises(ValueError, match="not an orbit"):
        judge_microlocal(RadicalOrbit(0), at_20)


def test_verdict_deterministic():
    setup = glpq(6, 2, 3, 3)
    a = judged(setup, IntersectionOrbit(1, 0), IntersectionOrbit(1, 1), seed=5)
    b = judged(setup, IntersectionOrbit(1, 0), IntersectionOrbit(1, 1), seed=5)
    assert a == b


def test_fiber_shape_values():
    # each fiber is its Grassmannians' (d, a), V's then W's for Z and Ztilde
    Z, ZTILDE, ZI = ResolutionKind.Z, ResolutionKind.ZTILDE, ResolutionKind.ZI
    setup = glpq(6, 2, 3, 3)
    assert fiber(setup, Z, IntersectionOrbit(1, 0), IntersectionOrbit(1, 1)) == ((1, 1), (0, 1))
    assert fiber(setup, Z, IntersectionOrbit(1, 1), IntersectionOrbit(1, 1)) == ((1, 1), (1, 1))
    assert fiber(setup, Z, IntersectionOrbit(0, 0), IntersectionOrbit(2, 0)) == ((0, 2), (0, 0))
    # n-k = p: both apply, and over q(3,0) below q(1,0) Z's V is Gr(1, 3), Ztilde's Gr(2, 3)
    square = glpq(6, 3, 3, 3)
    assert fiber(square, Z, IntersectionOrbit(1, 0), IntersectionOrbit(3, 0)) == ((1, 3), (0, 0))
    assert fiber(square, ZTILDE, IntersectionOrbit(1, 0), IntersectionOrbit(3, 0)) == (
        (2, 3), (0, 0))
    # normalized n-k < p: Ztilde alone, V's Grassmannian Gr(s0 - s, n-k-p+s0);
    # glpq(5,3,4,1) is dualized to glpq(5,2,4,1), so its labels are mapped first
    assert fiber(glpq(6, 3, 4, 2), ZTILDE, IntersectionOrbit(2, 0), IntersectionOrbit(3, 0)) == (
        (1, 2), (0, 0))
    dual = glpq(5, 3, 4, 1)
    assert fiber(dual, ZTILDE, IntersectionOrbit(2, 0), IntersectionOrbit(2, 1)) == (
        (1, 1), (0, 0))
    assert fiber(dual, ZTILDE, IntersectionOrbit(2, 0), IntersectionOrbit(3, 0)) == (
        (0, 0), (0, 1))
    so = Setup(Kind.SO, 7, 3)
    assert fiber(so, ZI, RadicalOrbit(1), RadicalOrbit(3)) == ((1, 3),)
    assert fiber(so, ZI, RadicalOrbit(1), RadicalOrbit(1)) == ((1, 1),)


def test_fiber_shapes_match_the_closed_forms():
    # every applicable resolution, target and stratum strictly below it, on
    # every normalized setup with n <= 10: each factor is a Grassmannian
    # Gr(d, a), 0 <= d <= a, and the sum of d(a - d) is the closed form
    cases = 0
    for work in {normalize(setup).setup for setup in setups(10)}:
        sides, orbits_ = RESOLUTIONS[family(work)], enumerate_orbits(work)
        for kind in sides.applicable(work):
            for target in orbits_:
                for stratum in orbits_:
                    if stratum == target or not family(work).leq(work, stratum, target):
                        continue
                    shape = sides.fiber(work, kind, target, stratum)
                    assert all(0 <= d <= a for d, a in shape), (work, kind, target, stratum)
                    assert sum(d * (a - d) for d, a in shape) == fiber_dimension(
                        work, kind, target, stratum), (work, kind, target, stratum)
                    cases += 1
    assert cases == 1624


def test_smallness_claims():
    setup = glpq(6, 2, 3, 3)  # n-k = 4 >= p = 3
    for target in enumerate_orbits(setup):
        assert small(setup, ResolutionKind.Z, target)
    for raw in [glpq(5, 3, 4, 1), glpq(5, 2, 4, 1)]:  # n-k <= p after normalizing
        for target in enumerate_orbits(raw):
            assert small(raw, ResolutionKind.ZTILDE, target)


def test_smallness_is_a_normalized_notion():
    # raw parameters suggest n-k >= p, but the standard presentation of this
    # setup swaps the summands and lands in the other regime
    setup = glpq(5, 2, 1, 4)
    assert not small(setup, ResolutionKind.Z, IntersectionOrbit(0, 1))
    for target in enumerate_orbits(setup):
        assert small(setup, ResolutionKind.ZTILDE, target)


def test_smallness_matches_regime_criterion():
    for setup in setups(6, (Kind.GLPQ,)):
        norm = normalize(setup).setup
        for target in enumerate_orbits(setup):
            if norm.n - norm.k >= norm.p:
                assert small(setup, ResolutionKind.Z, target), (setup, target)
            if norm.n - norm.k <= norm.p:
                assert small(setup, ResolutionKind.ZTILDE, target), (setup, target)


def test_radical_resolution_not_small():
    assert not small(Setup(Kind.SO, 6, 3), ResolutionKind.ZI, RadicalOrbit(1))
    assert not small(Setup(Kind.SO, 7, 3), ResolutionKind.ZI, RadicalOrbit(1))
    # minimal orbits have nothing below them, so smallness holds vacuously
    assert small(Setup(Kind.SO, 6, 3), ResolutionKind.ZI, SplitOrbit(+1))


def test_smallness_rejects_labels_and_kinds_it_cannot_judge():
    # a label that is no orbit of the poset's setup, or a resolution the
    # family does not have, is rejected, not judged
    glpq_poset, so_poset = ClosurePoset(glpq(4, 2, 2, 2)), ClosurePoset(Setup(Kind.SO, 6, 3))
    with pytest.raises(ValueError, match="not an orbit"):
        is_small(glpq_poset, ResolutionKind.Z, RadicalOrbit(1))
    with pytest.raises(ValueError, match="not an orbit"):
        is_small(glpq_poset, ResolutionKind.Z, IntersectionOrbit(0, -1))
    with pytest.raises(ValueError, match="not an orbit"):
        is_small(so_poset, ResolutionKind.ZI, IntersectionOrbit(0, 0))
    for kind in (ResolutionKind.Z, ResolutionKind.ZTILDE):
        with pytest.raises(ValueError, match="not a resolution"):
            is_small(so_poset, kind, RadicalOrbit(1))
    with pytest.raises(ValueError, match="not a resolution"):
        is_small(glpq_poset, ResolutionKind.ZI, IntersectionOrbit(0, 0))
