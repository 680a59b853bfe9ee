
import pytest

from kcycle import degeneracy, exactla, orbits
from kcycle.ccengine import check_transversality, pullback_cc
from kcycle.degeneracy import (
    _differential_values,
    chart_for,
    form_flavor,
)
from kcycle.exactla import SEED_MAX, QMatrix, SeedStream, derive_states, draw_streams, rank
from kcycle.matrixstrata import Flavor, flavor_dim
from kcycle.orbits import (
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    enumerate_orbits,
    gram_matrix,
    orbit_of,
)
from reference import (
    ChartPoint,
    add,
    chart_draws,
    chart_points,
    conormal_solutions,
    constraint_rows,
    coordinate_basis,
    flavor_certificate,
    form_matrix,
    identity,
    is_flavored,
    pfaffian,
    product_rows,
    randint,
    random_chart_point,
    scale,
    schur_complement,
    section_differential_image,
    section_value,
    setups,
    stacked_transversality,
    trace_pairing,
    value_rank,
    verify_transversality,
    zeros,
)

SO53 = Setup(Kind.SO, 5, 3)
SP64 = Setup(Kind.SP, 6, 4)


def _zero_chart(n, k):
    return ChartPoint(zeros(n - k, k))


def _isotropy_setups(max_n):
    """Every normalized sp/so setup with n <= max_n, with its charts."""
    for setup in setups(max_n, (Kind.SP, Kind.SO)):
        if 2 * setup.k >= setup.n:
            for center_last in (False, True) if setup.n == 2 * setup.k else (False,):
                yield setup, center_last


def _frame(a, center_last):
    """The n x k chart frame: the identity block over ``a``, or under it."""
    m, k = a.a.nrows, a.a.ncols
    ident = identity(k).entries
    entries = a.a.entries + ident if center_last else ident + a.a.entries
    return QMatrix(m + k, k, entries)


def test_section_value_is_the_gram_matrix_of_the_frame():
    checked = 0
    for setup, center_last in _isotropy_setups(12):
        n, k = setup.n, setup.k
        rng = SeedStream(37).derive("plan-vs-gram", setup.describe(), center_last)
        points = [_zero_chart(n, k)] + [random_chart_point(n, k, rng) for _ in range(20)]
        for a in points:
            assert section_value(setup, a, center_last) == gram_matrix(
                setup, _frame(a, center_last))
            checked += 1
    assert checked == 21 * 69


def test_section_value_builds_no_frame_and_no_gram_product(monkeypatch):
    def no_gram(*args):
        raise AssertionError("gram_matrix called")

    monkeypatch.setattr(orbits, "gram_matrix", no_gram)
    monkeypatch.setattr(degeneracy, "gram_matrix", no_gram, raising=False)
    shapes = set()
    real_new = QMatrix.__new__

    def recording_new(cls, nrows, ncols, entries):
        shapes.add((nrows, ncols))
        return real_new(cls, nrows, ncols, entries)

    for setup, center_last in _isotropy_setups(8):
        n, k = setup.n, setup.k
        a = random_chart_point(n, k, SeedStream(41).derive(setup.describe()))
        expected = gram_matrix(setup, _frame(a, center_last))
        shapes.clear()
        monkeypatch.setattr(QMatrix, "__new__", recording_new)
        value = section_value(setup, a, center_last)
        monkeypatch.setattr(QMatrix, "__new__", real_new)
        assert value == expected
        assert shapes == {(k, k)}


def _top_rank(setup):
    k = setup.k
    return k if form_flavor(setup.kind) == Flavor.SYMMETRIC else k - (k % 2)


def _recording_rank(monkeypatch):
    """Patch degeneracy.rank to record every matrix it is given, in order.

    A call of degeneracy.product_system is recorded as None, so a matrix
    that follows None holds product rows and any other is a lane's phi.
    """
    seen, real_rank, real_system = [], degeneracy.rank, degeneracy.product_system

    def recording_rank(m):
        seen.append(m)
        return real_rank(m)

    def recording_system(*args):
        seen.append(None)
        return real_system(*args)

    monkeypatch.setattr(degeneracy, "rank", recording_rank)
    monkeypatch.setattr(degeneracy, "product_system", recording_system)
    return seen


def _lane(entries, lane, side):
    """One lane of a flat list of lane lists, as a side x side matrix."""
    return QMatrix(side, side, tuple(v[lane] for v in entries))


def _side(chart):
    n, k = chart.setup.n, chart.setup.k
    return n - k if chart.schur[0] else k


def _reference_phi(chart, x):
    return schur_complement(chart, x) if chart.schur[0] else x


def test_schur_rank_is_the_rank_of_the_value():
    # rank x = m + rank phi on every chart with n <= 16: at the zero point
    # (x = C, rank exactly m), at height-1 points, which hit the
    # degenerate locus, and at points of the default height; x and phi are
    # read off the lanes as transverse_points forms them, one k x k value
    # and one (n-k)-square phi per point (x itself at m = 0)
    pairs = degenerate = 0
    degenerate_kinds = set()
    for setup, center_last in _isotropy_setups(16):
        n, k = setup.n, setup.k
        m = 2 * k - n
        pairs += 1
        plan_m, outside, triples = degeneracy._schur_plan(setup.kind, n, k, center_last)
        # the block is J's antidiagonal on rows n-k..k-1
        assert (plan_m, outside) == (m, tuple(range(n - k)))
        assert triples == tuple((n - 1 - d, d, orbits.form_sign(setup.kind, n, d))
                                for d in range(n - k, k))
        chart = chart_for(setup, center_last)
        # the differential's pairing rows hit flavor_dim(k) - flavor_dim(m)
        # coordinates, so the quotient leaves flavor_dim(m) of them free
        free = degeneracy._free_coordinates(chart)
        assert len(free) == flavor_dim(chart.flavor, m), (setup, center_last)
        rng = SeedStream(31).derive("schur-rank", setup.describe(), center_last)
        low = [random_chart_point(n, k, rng, height_bound=1) for _ in range(12)]
        points = [_zero_chart(n, k)] + low + [random_chart_point(n, k, rng) for _ in range(12)]
        side = _side(chart)
        xs, phis = degeneracy._lane_values(chart, chart_draws(points), 0, len(points))
        assert len(xs) == k * k and len(phis) == side * side
        for i, a in enumerate(points):
            x = section_value(setup, a, center_last)
            r = rank(x)
            phi = _lane(phis, i, side)
            assert _lane(xs, i, k) == x
            assert phi == _reference_phi(chart, x), (setup, center_last)
            assert m + rank(phi) == value_rank(chart, x) == r, (setup, center_last)
            if i == 0:
                assert r == m
            elif i <= len(low) and r < _top_rank(setup):
                degenerate += 1
                if m:
                    degenerate_kinds.add(setup.kind)
    assert pairs == 116
    assert degenerate >= 100
    assert degenerate_kinds == {Kind.SP, Kind.SO}


def test_full_rank_points_rank_only_the_schur_complement(monkeypatch):
    # at a point whose value has full rank, at most the (n-k)-square phi
    # is ranked, and nothing when the flavor certificate proves phi; the
    # k x k value itself is never ranked, and a point below full rank
    # ranks its phi and then just its product rows on the free
    # coordinates, flavor_dim(m) of them, less the rows that are zero there
    ranked = _recording_rank(monkeypatch)
    drawn = []
    real_draw = degeneracy.draw_chart_points

    def recording_draw(n, k, rng, count):
        draws = real_draw(n, k, rng, count)
        drawn.extend(chart_points(n, k, draws))
        return draws

    monkeypatch.setattr(degeneracy, "draw_chart_points", recording_draw)
    unproven_full = degenerate = 0
    for setup, seed in ((Setup(Kind.SO, 8, 5), 3), (Setup(Kind.SP, 8, 6), 3),
                        (Setup(Kind.SO, 7, 4), 3), (Setup(Kind.SP, 8, 5), 3)):
        n, k = setup.n, setup.k
        chart = chart_for(setup)
        flavor, side, r = chart.flavor, _side(chart), chart.top - chart.schur[0]
        free = degeneracy._free_coordinates(chart)
        ranked.clear()
        drawn.clear()
        assert all(r.ok for r in check_transversality(setup, points=100, seed=seed))
        values = [section_value(setup, a) for a in drawn]
        full = [rank(x) == _top_rank(setup) for x in values]
        proven = [flavor_certificate(_reference_phi(chart, x), flavor, r) for x in values]
        assert len(drawn) == 100 and sum(full) >= 90 and sum(proven) >= 80
        assert all(f for f, ok in zip(full, proven) if ok)
        expected = []
        for x, is_full, ok in zip(values, full, proven):
            if not ok:
                expected.append((side, side))
            if not is_full:
                rows = [row for row in ([prod[j] for j in free] for prod in product_rows(x, flavor))
                        if any(row)]
                assert 0 < len(rows) <= k * k
                expected += [None, (len(rows), flavor_dim(flavor, 2 * k - n))]
        assert (k, k) not in expected and len(expected) < 30
        assert [m and (m.nrows, m.ncols) for m in ranked] == expected, setup
        unproven_full += sum(f and not ok for f, ok in zip(full, proven))
        degenerate += full.count(False)
    assert unproven_full > 0 and degenerate > 0


def test_each_chart_is_set_up_once(monkeypatch):
    # the sweep checks each chart and gathers its plans once, then judges
    # all the points of that chart in one transverse_points call
    real_chart, real_transverse = degeneracy.chart_for, degeneracy.transverse_points
    built, judged = [], []

    def counting_chart(setup, center_last=False):
        built.append(real_chart(setup, center_last))
        return built[-1]

    def counting_transverse(chart, draws):
        judged.append((chart, len(draws)))
        return real_transverse(chart, draws)

    monkeypatch.setattr(degeneracy, "chart_for", counting_chart)
    monkeypatch.setattr(degeneracy, "transverse_points", counting_transverse)
    assert all(r.ok for r in check_transversality(Setup(Kind.SO, 8, 4), points=30, seed=1))
    assert [c.center_last for c in built] == [False, True]
    assert [(c is b, count) for (c, count), b in zip(judged, built)] == [(True, 30 * 16)] * 2
    assert len(judged) == 2


def test_points_are_judged_in_chunks_of_lanes(monkeypatch):
    # however many points come in, at most _LANES of them are formed and
    # certified at once, and the verdicts are the ones judged a point at a
    # time
    setup = Setup(Kind.SO, 6, 4)
    chart = chart_for(setup)
    rng = SeedStream(17).derive("chunks")
    points = [random_chart_point(6, 4, rng, height_bound=1) for _ in range(70)]
    one_by_one = [degeneracy.transverse_points(chart, list(a.a.entries))[0] for a in points]
    assert one_by_one.count(False) == 0 and sum(
        rank(section_value(setup, a)) < chart.top for a in points) > 5
    real_proven, widths = degeneracy._proven_lanes, []

    def recording_proven(flavor, r, grid):
        widths.append(len(grid[0][0]))
        return real_proven(flavor, r, grid)

    monkeypatch.setattr(degeneracy, "_LANES", 16)
    monkeypatch.setattr(degeneracy, "_proven_lanes", recording_proven)
    assert degeneracy.transverse_points(chart, chart_draws(points)) == one_by_one
    assert widths == [16, 16, 16, 16, 6]
    assert degeneracy.transverse_points(chart, []) == []


def test_points_of_the_wrong_shape_raise():
    # so(5,4) chart points are 1 x 4, four draws each: a draw list that
    # ends inside a point has no verdict, and the reference route refuses
    # a point of another shape
    setup = Setup(Kind.SO, 5, 4)
    chart = chart_for(setup)
    for length in (1, 3, 5, 4 * 300 + 2):
        with pytest.raises(ValueError, match="chart point"):
            degeneracy.transverse_points(chart, [0] * length)
    for shape in ((2, 4), (4, 1), (1, 2)):
        with pytest.raises(ValueError, match="chart point"):
            verify_transversality(setup, ChartPoint(zeros(*shape)))
    assert degeneracy.transverse_points(chart, [0] * 4) == [True]
    assert degeneracy.transverse_points(chart, [0] * 1200) == [True] * 300


def test_chart_points_are_drawn_in_one_batch(monkeypatch):
    # a batch of chart points is the per-point draw, point after point, in
    # one flat list, and the call leaves the stream where the per-point
    # draws leave it
    for n, k in ((2, 1), (5, 3), (8, 4), (9, 7)):
        for count, bound in ((1, 9), (7, 9), (13, 1), (4, 250)):
            batch, single = SeedStream(n * 100 + count), SeedStream(n * 100 + count)
            with monkeypatch.context() as patch:
                patch.setattr(degeneracy, "HEIGHT_BOUND", bound)
                draws = degeneracy.draw_chart_points(n, k, batch, count)
            reference = [random_chart_point(n, k, single, bound) for _ in range(count)]
            assert batch.state == single.state
            assert type(draws) is list and len(draws) == count * (n - k) * k
            assert draws == chart_draws(reference)
            assert chart_points(n, k, draws) == reference
    # the sweep draws each chart's points in one randints call
    real_randints, draws = SeedStream.randints, []

    def counting_randints(self, count, lo, hi):
        draws.append((count, lo, hi))
        return real_randints(self, count, lo, hi)

    monkeypatch.setattr(SeedStream, "randints", counting_randints)
    assert all(r.ok for r in check_transversality(Setup(Kind.SO, 8, 4), points=30, seed=1))
    assert draws == [(30 * 16, -9, 9)] * 2


def _flavored_lanes(flavor, side, states, height):
    """Random flavored side x side matrices, one per stream state: (grid of lanes, matrices).

    Each lane draws its upper triangle, the diagonal too when symmetric,
    from [-height, height] on its own stream.
    """
    symmetric = flavor == Flavor.SYMMETRIC
    upper = [(i, j) for i in range(side) for j in range(i if symmetric else i + 1, side)]
    draws, _ = draw_streams(states, len(upper), -height, height)
    mats = []
    for d in draws:
        e = [[0] * side for _ in range(side)]
        for (i, j), v in zip(upper, d):
            e[i][j], e[j][i] = v, v if symmetric else -v
        mats.append(QMatrix.from_rows(e))
    grid = [[[mat[i, j] for mat in mats] for j in range(side)] for i in range(side)]
    return grid, mats


def test_flavor_certificate_proves_exactly_rank_r():
    # symmetric and alternating lanes of every side up to 6, at heights 1
    # and 2, over 240 lanes: the lanes proven are those the reference's
    # determinants and Pfaffians prove, each has rank exactly r, and an
    # alternating lane's Pfaffian is the reference's
    states = derive_states(SeedStream(61).randints(240, 0, SEED_MAX), "flavor-lanes")
    for flavor in (Flavor.SYMMETRIC, Flavor.SKEW):
        for side in range(1, 7):
            r = side if flavor == Flavor.SYMMETRIC else side - side % 2
            for height in (1, 2):
                grid, mats = _flavored_lanes(flavor, side, states, height)
                proven = degeneracy._proven_lanes(flavor, r, grid)
                assert proven == [flavor_certificate(mat, flavor, r) for mat in mats]
                assert all(rank(mat) == r for mat, ok in zip(mats, proven) if ok)
                assert any(proven), (flavor, side, height)
                full = sum(rank(mat) == r for mat in mats)
                if side > 1 and flavor == Flavor.SYMMETRIC:
                    # pivot-free elimination leaves some full-rank lanes unproven
                    assert full > sum(proven), (side, height)
                if r and r % 2 == 0:  # the Pfaffian reads only the upper triangle
                    pf = exactla.lane_pfaffian(grid, r)
                    assert pf == [pfaffian(mat, r) for mat in mats]
                    if flavor == Flavor.SKEW:
                        # an alternating lane is proven exactly when its
                        # leading Pfaffian is nonzero
                        assert proven == [p != 0 for p in pf]


def test_a_lane_that_is_not_alternating_is_never_proven():
    # one entry of each skew lane changed: a diagonal entry made nonzero, or
    # one of a pair of opposite entries moved off its negative
    states = derive_states(SeedStream(67).randints(200, 0, SEED_MAX), "not-alternating")
    for side in range(1, 7):
        r = side - side % 2
        grid, mats = _flavored_lanes(Flavor.SKEW, side, states, 2)
        assert any(degeneracy._proven_lanes(Flavor.SKEW, r, grid))
        spots = [(i, i) for i in range(side)] + [(i, j) for i in range(side)
                                                 for j in range(side) if i != j]
        broken = [[list(v) for v in row] for row in grid]
        for lane in range(len(mats)):
            i, j = spots[lane % len(spots)]
            broken[i][j][lane] += 1 + (lane // len(spots)) % 3
        assert not any(degeneracy._proven_lanes(Flavor.SKEW, r, broken))


def test_proving_nothing_changes_no_verdict(monkeypatch):
    # with the certificate proving no lane, every point goes the scalar way;
    # the verdicts of the 48 seed-5 charts of sp/so with n <= 8 and of a
    # height-1 and a default-height sample of every chart with n <= 16 are
    # unchanged, honestly and with no differential, where every degenerate
    # point fails
    real_transverse, verdicts = degeneracy.transverse_points, []

    def recording_transverse(chart, draws):
        verdicts.append(real_transverse(chart, draws))
        return verdicts[-1]

    def sweep():
        verdicts.clear()
        for setup in setups(8, (Kind.SP, Kind.SO)):
            check_transversality(setup, seed=5)
        charts = len(verdicts)
        for setup, center_last in _isotropy_setups(16):
            chart = chart_for(setup, center_last)
            rng = SeedStream(71).derive("prove-nothing", setup.describe(), center_last)
            for height in (1, 9):
                with monkeypatch.context() as patch:
                    patch.setattr(degeneracy, "HEIGHT_BOUND", height)
                    draws = degeneracy.draw_chart_points(setup.n, setup.k, rng, 20)
                verdicts.append(real_transverse(chart, draws))
        return charts, list(verdicts)

    monkeypatch.setattr(degeneracy, "transverse_points", recording_transverse)
    ranked = _recording_rank(monkeypatch)
    real_proven = degeneracy._proven_lanes
    for no_differential in (False, True):
        if no_differential:
            monkeypatch.setattr(degeneracy, "_differential_values", lambda *args: [])
        monkeypatch.setattr(degeneracy, "_proven_lanes", real_proven)
        ranked.clear()
        charts, certified = sweep()
        certified_ranks = len(ranked)
        failures = sum(v.count(False) for v in certified)
        assert charts == 48 and sum(map(len, certified)) == 48 * 100 + 116 * 40
        assert failures > 20 if no_differential else failures == 0
        monkeypatch.setattr(degeneracy, "_proven_lanes",
                            lambda flavor, r, grid: [False] * len(grid[0][0]))
        ranked.clear()
        assert sweep() == (charts, certified)
        assert len(ranked) > 5 * certified_ranks


@pytest.fixture
def fresh_plans():
    caches = (degeneracy._section_plan, degeneracy._schur_plan)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def _block_entry(const, n, k):
    """The flat index of J0's entry in the first block row."""
    b = n - k
    return next(b * k + c for c in range(k) if const[b * k + c])


def _dst_into_block(const, plan, n, k):
    b = n - k
    return const, [(b * k + b, plan[0][1], plan[0][2])] + plan[1:]


def _j0_entry_two(const, plan, n, k):
    const[_block_entry(const, n, k)] = 2
    return const, plan


def _stray_constant(const, plan, n, k):
    const[0] = 1
    return const, plan


@pytest.mark.parametrize("mutate", [_dst_into_block, _j0_entry_two, _stray_constant])
def test_schur_plan_rejects_a_wrong_section_plan(monkeypatch, fresh_plans, mutate):
    real = degeneracy._section_plan

    def mutated(kind, n, k, center_last):
        const, plan = real(kind, n, k, center_last)
        const, plan = mutate(list(const), list(plan), n, k)
        return tuple(const), tuple(plan)

    setups = [setup for setup, center_last in _isotropy_setups(10)
              if 2 * setup.k > setup.n and not center_last]
    assert len(setups) == 30
    for setup in setups:
        n, k = setup.n, setup.k
        a = ChartPoint(QMatrix(n - k, k, (1,) * ((n - k) * k)))
        honest = section_value(setup, a)
        monkeypatch.setattr(degeneracy, "_section_plan", mutated)
        degeneracy._schur_plan.cache_clear()
        assert section_value(setup, a) != honest
        with pytest.raises(AssertionError):
            verify_transversality(setup, a)
        monkeypatch.setattr(degeneracy, "_section_plan", real)
        degeneracy._schur_plan.cache_clear()
        assert verify_transversality(setup, a)


def test_differential_values_do_not_depend_on_the_point():
    # the section is affine, so at every point a the step S(a + E_rc) - S(a)
    # is the chart's one value in direction (r, c)
    for setup, center_last in _isotropy_setups(8):
        n, k = setup.n, setup.k
        rng = SeedStream(43).derive("differential", setup.describe(), center_last)
        a, b = (random_chart_point(n, k, rng) for _ in range(2))
        assert a != b
        values = degeneracy._differential_values(chart_for(setup, center_last))
        assert len(values) == (n - k) * k
        for p in (a, b, _zero_chart(n, k)):
            base = section_value(setup, p, center_last)
            for r in range(n - k):
                for c in range(k):
                    e = QMatrix.from_rows([[int((i, j) == (r, c)) for j in range(k)]
                                           for i in range(n - k)])
                    step = section_value(setup, ChartPoint(add(p.a, e)), center_last)
                    assert values[r * k + c] == add(step, scale(base, -1))


def test_section_values_are_flavored():
    for setup in (SO53, SP64, Setup(Kind.SP, 6, 3), Setup(Kind.SO, 7, 4)):
        rng = SeedStream(3).derive("flavored-check", setup.describe())
        for _ in range(8):
            a = random_chart_point(setup.n, setup.k, rng)
            x = section_value(setup, a)
            assert is_flavored(x, form_flavor(setup.kind))


def test_overlap_block_is_constant():
    # graph planes always contain the pairing of the middle coordinates
    for setup in (SO53, SP64, Setup(Kind.SO, 8, 6)):
        n, k = setup.n, setup.k
        overlap = list(range(n - k, k))
        jblock = form_matrix(setup.kind, n).submatrix(overlap, overlap)
        assert rank(jblock) == 2 * k - n
        rng = SeedStream(5).derive("overlap", setup.describe())
        for _ in range(6):
            a = random_chart_point(n, k, rng)
            x = section_value(setup, a)
            assert x.submatrix(overlap, overlap) == jblock
            assert rank(x) >= 2 * k - n


def test_zero_chart_value_and_differential():
    for setup in (SO53, SP64, Setup(Kind.SP, 6, 3), Setup(Kind.SO, 6, 3)):
        n, k = setup.n, setup.k
        flavor = form_flavor(setup.kind)
        x0 = section_value(setup, _zero_chart(n, k))
        assert rank(x0) == 2 * k - n
        image = section_differential_image(setup, _zero_chart(n, k))
        assert image.dim == flavor_dim(flavor, k) - flavor_dim(flavor, 2 * k - n)
        assert verify_transversality(setup, _zero_chart(n, k))


def test_rank_matches_orbit_classification():
    for setup in (SO53, Setup(Kind.SP, 6, 4)):
        n, k = setup.n, setup.k
        rng = SeedStream(11).derive("classify", setup.describe())
        seen = set()
        for _ in range(30):
            a = random_chart_point(n, k, rng, height_bound=3)
            x = section_value(setup, a)
            frame = QMatrix.from_rows(identity(k).rows() + a.a.rows())
            orbit = orbit_of(setup, frame)
            assert isinstance(orbit, RadicalOrbit)
            assert orbit.i == k - rank(x)
            seen.add(orbit.i)
        assert 0 in seen


def test_transversality_at_random_points():
    for setup in (SO53, Setup(Kind.SP, 6, 3), Setup(Kind.SO, 7, 5)):
        rows = check_transversality(setup, points=25, seed=7)
        assert all(r.ok for r in rows)
        assert [r.subject for r in rows] == [(False,)]


def test_split_setups_use_both_charts():
    rows = check_transversality(Setup(Kind.SO, 6, 3), points=15, seed=2)
    assert [r.subject for r in rows] == [(False,), (True,)]
    assert all(r.ok for r in rows)
    # symplectic square setups have one family only, hence one chart
    sp = check_transversality(Setup(Kind.SP, 6, 3), points=5, seed=2)
    assert [r.subject for r in sp] == [(False,)]


def test_suite_normalizes_small_k(monkeypatch):
    real_chart, charted = degeneracy.chart_for, []

    def recording_chart(setup, center_last=False):
        charted.append(setup)
        return real_chart(setup, center_last)

    monkeypatch.setattr(degeneracy, "chart_for", recording_chart)
    assert all(r.ok for r in check_transversality(Setup(Kind.SO, 7, 2), points=10, seed=4))
    assert charted == [Setup(Kind.SO, 7, 5)]


def test_suite_is_deterministic():
    a = check_transversality(SO53, points=12, seed=9)
    b = check_transversality(SO53, points=12, seed=9)
    assert a == b


def test_transversality_on_the_degenerate_locus():
    # in this chart the section drops rank exactly on 2 a1 = 2 a2 a4 + a3^2,
    # so integer points of that surface exercise the full constraint check
    setup = Setup(Kind.SO, 5, 4)
    rng = SeedStream(23).derive("degenerate-locus")
    hits = 0
    for _ in range(20):
        a2, a4, b = (randint(rng, -4, 4) for _ in range(3))
        a = ChartPoint(QMatrix.from_rows([[a2 * a4 + 2 * b * b, a2, 2 * b, a4]]))
        x = section_value(setup, a)
        assert rank(x) == 3
        assert verify_transversality(setup, a)
        hits += 1
    assert hits == 20


def test_perpendicularity_alone_is_not_enough(monkeypatch):
    # at the zero chart the Gram matrix is singular, so covectors
    # annihilating the stratum tangent space exist in abundance; only
    # the differential rows rule them out
    x0 = section_value(SO53, _zero_chart(5, 3))
    leftover = conormal_solutions(x0, Flavor.SYMMETRIC)
    assert leftover.dim == 3
    assert verify_transversality(SO53, _zero_chart(5, 3))
    monkeypatch.setattr(degeneracy, "_differential_values", lambda *args: [])
    assert not verify_transversality(SO53, _zero_chart(5, 3))


def test_a_pairing_row_with_two_nonzeros_raises(monkeypatch):
    # the quotient needs each pairing row to read one coordinate at most;
    # a differential value whose pairing reads two is refused, but only
    # once some point is below top rank and the rows are needed
    chart = chart_for(SO53)
    two = QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    monkeypatch.setattr(degeneracy, "_differential_values", lambda *args: [two])
    rng = SeedStream(53).derive("two-nonzeros")
    full = [a for a in (random_chart_point(5, 3, rng) for _ in range(20))
            if rank(section_value(SO53, a)) == 3]
    assert full and degeneracy.transverse_points(chart, chart_draws(full)) == [True] * len(full)
    with pytest.raises(AssertionError, match="two nonzeros"):
        degeneracy.transverse_points(chart, chart_draws(full + [_zero_chart(5, 3)]))


def _first_triple(real, change):
    """A section plan whose first triple is replaced by change(triple), a tuple."""
    def mutated(kind, n, k, center_last):
        const, plan = real(kind, n, k, center_last)
        return const, change(plan[0]) + plan[1:]
    return mutated


def test_constraint_rows_match_dense_products(monkeypatch, fresh_plans):
    # the reference's stacked rows equal the trace pairings with, and the
    # products by, the dense coordinate basis matrices; and on every chart
    # with n <= 16 the sweep's verdict in the quotient by the differential
    # is the full stacked rank's, honestly and under three wrong plans.
    # Honestly and with no differential, each degenerate lane's system on
    # the free coordinates has the rank of the dense product rows on those
    # columns.
    cases = [(SP64, False), (SO53, False),
             (Setup(Kind.SO, 8, 4), False), (Setup(Kind.SO, 8, 4), True)]
    for setup, center_last in cases:
        n, k = setup.n, setup.k
        flavor = form_flavor(setup.kind)
        basis = coordinate_basis(flavor, k)
        rng = SeedStream(29).derive("dense-constraints", setup.describe(), center_last)
        points = [_zero_chart(n, k)]
        points += [random_chart_point(n, k, rng, height_bound=1) for _ in range(40)]
        chart = degeneracy.chart_for(setup, center_last)
        seen = set()
        for a in points:
            x = section_value(setup, a, center_last)
            seen.add(rank(x) < _top_rank(setup))
            dense = [[trace_pairing(bc, v) for bc in basis]
                     for v in degeneracy._differential_values(chart)]
            products = [x.mul(bc) for bc in basis]
            dense += [[p[r, c] for p in products] for r in range(k) for c in range(k)]
            assert constraint_rows(chart, x) == dense
        assert seen == {True, False}, (setup, center_last)

    real_plan, real_system, systems = degeneracy._section_plan, degeneracy.product_system, []

    def recording_system(x, m, flavor, coords):
        systems.append((x, m, flavor, coords, real_system(x, m, flavor, coords)))
        return systems[-1][-1]

    monkeypatch.setattr(degeneracy, "product_system", recording_system)
    mutants = {
        "honest": None,
        "no differential": ("_differential_values", lambda *args: []),
        "dropped triple": ("_section_plan", _first_triple(real_plan, lambda t: ())),
        "flipped triple": ("_section_plan", _first_triple(real_plan, lambda t: (
            (t[0], t[1], -t[2]),))),
    }
    found = {}
    for name, patch in mutants.items():
        if patch:
            monkeypatch.setattr(degeneracy, *patch)
        degeneracy._schur_plan.cache_clear()
        degenerate = failures = 0
        systems.clear()
        for setup, center_last in _isotropy_setups(16):
            n, k = setup.n, setup.k
            chart = chart_for(setup, center_last)
            rng = SeedStream(47).derive("quotient", setup.describe(), center_last)
            points = [random_chart_point(n, k, rng, height_bound=1) for _ in range(6)]
            draws = chart_draws(points)
            verdicts = degeneracy.transverse_points(chart, draws)
            # the lanes hold the values the (possibly wrong) plan gives
            _, phis = degeneracy._lane_values(chart, draws, 0, len(points))
            lanes = [chart.schur[0] + rank(_lane(phis, i, _side(chart)))
                     for i in range(len(points))]
            values = [value_rank(chart, section_value(setup, a, center_last)) for a in points]
            assert lanes == values, (name, setup, center_last)
            assert verdicts == [stacked_transversality(setup, a, center_last)
                                for a in points], (name, setup, center_last)
            degenerate += sum(r < chart.top for r in values)
            failures += verdicts.count(False)
        checked = systems if name in ("honest", "no differential") else []
        for x, m, flavor, coords, system in checked:
            dense = product_rows(QMatrix(m, m, tuple(x)), flavor)
            assert system.ncols == len(coords) and system.nrows <= m * m
            assert rank(system) == rank(
                QMatrix.from_rows([[row[j] for j in coords] for row in dense])), name
        found[name] = degenerate, failures, len(systems)
        monkeypatch.setattr(degeneracy, "_section_plan", real_plan)
        monkeypatch.setattr(degeneracy, "_differential_values", _differential_values)
    honest_degenerate, _, honest_systems = found["honest"]
    assert honest_degenerate > 50 and found["honest"][1] == 0 and honest_systems > 10
    # with no differential every degenerate point fails, and each one's
    # system, on all the coordinates now, is ranked
    assert found["no differential"] == (honest_degenerate, honest_degenerate, honest_degenerate)
    assert found["dropped triple"][0] != honest_degenerate
    assert found["flipped triple"][1] > 0


def test_differential_is_the_exact_central_difference():
    # the section is affine, so its derivative in direction E_rc is
    # exactly (S(a + E_rc) - S(a - E_rc)) / 2, and the one differential
    # of the chart is that difference at every point: twice each value
    # is S(a + E_rc) - S(a - E_rc), compared over the ints
    cases = [(SO53, False), (SP64, False), (Setup(Kind.SP, 8, 5), False),
             (Setup(Kind.SO, 8, 4), False), (Setup(Kind.SO, 8, 4), True)]
    for setup, center_last in cases:
        n, k = setup.n, setup.k
        rng = SeedStream(13).derive("central-difference", setup.describe(), center_last)
        values = degeneracy._differential_values(degeneracy.chart_for(setup, center_last))
        assert len(values) == (n - k) * k
        for a in (_zero_chart(n, k), random_chart_point(n, k, rng, height_bound=4)):
            for r in range(n - k):
                for c in range(k):
                    e = QMatrix.from_rows([[int((i, j) == (r, c)) for j in range(k)]
                                           for i in range(n - k)])
                    plus = section_value(setup, ChartPoint(add(a.a, e)), center_last)
                    minus = section_value(setup, ChartPoint(add(a.a, scale(e, -1))),
                                          center_last)
                    assert scale(values[r * k + c], 2) == add(plus, scale(minus, -1))


def test_chart_preconditions():
    with pytest.raises(ValueError):
        section_value(Setup(Kind.SO, 5, 2), ChartPoint(zeros(3, 2)))
    with pytest.raises(ValueError):
        section_value(SO53, ChartPoint(zeros(3, 2)))
    with pytest.raises(ValueError):
        section_value(SO53, _zero_chart(5, 3), center_last=True)
    with pytest.raises(ValueError):
        form_flavor(Kind.GLPQ)
    with pytest.raises(ValueError):
        section_value(Setup(Kind.GLPQ, 4, 2, p=2, q=2), _zero_chart(4, 2))
    with pytest.raises(ValueError):
        pullback_cc(Setup(Kind.GLPQ, 4, 2, p=2, q=2), IntersectionOrbit(0, 0))


def test_pullback_examples():
    cases = [
        (Setup(Kind.SP, 6, 3), RadicalOrbit(1), {RadicalOrbit(1): 1}),
        (Setup(Kind.SP, 8, 4), RadicalOrbit(2), {RadicalOrbit(2): 1}),
        (Setup(Kind.SO, 5, 2), RadicalOrbit(1),
         {RadicalOrbit(1): 1, RadicalOrbit(2): 1}),
        (Setup(Kind.SO, 7, 4), RadicalOrbit(1),
         {RadicalOrbit(1): 1, RadicalOrbit(2): 1}),
        (Setup(Kind.SO, 8, 6), RadicalOrbit(2), {RadicalOrbit(2): 1}),
        (Setup(Kind.SO, 8, 4), RadicalOrbit(3),
         {RadicalOrbit(3): 1, RadicalOrbit(4, 1): 1, RadicalOrbit(4, -1): 1}),
        (Setup(Kind.SO, 8, 5), RadicalOrbit(3), {RadicalOrbit(3): 1}),
        (Setup(Kind.SO, 3, 2), RadicalOrbit(1), {RadicalOrbit(1): 1}),
        (Setup(Kind.SO, 6, 3), RadicalOrbit(3, -1), {RadicalOrbit(3, -1): 1}),
    ]
    for setup, orbit, expected in cases:
        cc = pullback_cc(setup, orbit)
        assert dict(cc) == expected
        assert cc[0] == (orbit, 1)


def test_pullback_constructs_everywhere():
    # the cycle's terms are checked for closure support and lead multiplicity
    for setup in setups(8, (Kind.SP, Kind.SO)):
        for orbit in enumerate_orbits(setup):
            cc = pullback_cc(setup, orbit)
            assert dict(cc)[orbit] == 1
