from fractions import Fraction

import pytest

from kcycle import degeneracy, orbits
from kcycle.ccengine import pullback_cc
from kcycle.degeneracy import (
    ChartPoint,
    chart_for,
    form_flavor,
    run_transversality_suite,
)
from kcycle.exactla import QMatrix, SeedStream, rank
from kcycle.matrixstrata import Flavor, flavor_dim
from kcycle.orbits import (
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    enumerate_orbits,
    gram_matrix,
    orbit_of,
)
from reference import (
    conormal_solutions,
    coordinate_basis,
    form_matrix,
    is_flavored,
    random_chart_point,
    section_differential_image,
    section_value,
    trace_pairing,
    verify_transversality,
)

SO53 = Setup(Kind.SO, 5, 3)
SP64 = Setup(Kind.SP, 6, 4)


def _zero_chart(n, k):
    return ChartPoint(QMatrix.zeros(n - k, k))


def _isotropy_setups(max_n):
    """Every normalized sp/so setup with n <= max_n, with its charts."""
    for n in range(2, max_n + 1):
        for k in range((n + 1) // 2, n):
            for kind in (Kind.SP, Kind.SO):
                if kind == Kind.SP and n % 2:
                    continue
                for center_last in (False, True) if n == 2 * k else (False,):
                    yield Setup(kind, n, k), center_last


def _frame(a, center_last):
    """The n x k chart frame: the identity block over ``a``, or under it."""
    m, k = a.a.nrows, a.a.ncols
    ident = QMatrix.identity(k).entries
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


def test_schur_rank_is_the_rank_of_the_value():
    # rank x = m + rank phi on every chart with n <= 16: at the zero point
    # (x = C, rank exactly m), at height-1 points, which hit the
    # degenerate locus, and at points of the default height
    pairs = degenerate = 0
    degenerate_kinds = set()
    for setup, center_last in _isotropy_setups(16):
        n, k = setup.n, setup.k
        m = 2 * k - n
        pairs += 1
        plan_m, outside, triples, _, _ = degeneracy._schur_plan(setup.kind, n, k, center_last)
        # the block is J's antidiagonal on rows n-k..k-1
        assert (plan_m, outside) == (m, tuple(range(n - k)))
        assert triples == tuple((n - 1 - d, d, orbits.form_sign(setup.kind, n, d))
                                for d in range(n - k, k))
        x0 = section_value(setup, _zero_chart(n, k), center_last)
        chart = chart_for(setup, center_last)
        assert rank(x0) == degeneracy._value_rank(chart, list(x0.entries)) == m
        rng = SeedStream(31).derive("schur-rank", setup.describe(), center_last)
        low = [random_chart_point(n, k, rng, height_bound=1) for _ in range(12)]
        points = low + [random_chart_point(n, k, rng) for _ in range(12)]
        for i, a in enumerate(points):
            x = section_value(setup, a, center_last)
            r = rank(x)
            assert degeneracy._value_rank(chart, list(x.entries)) == r, (setup, center_last)
            if i < len(low) and r < _top_rank(setup):
                degenerate += 1
                if m:
                    degenerate_kinds.add(setup.kind)
    assert pairs == 116
    assert degenerate >= 100
    assert degenerate_kinds == {Kind.SP, Kind.SO}


def test_full_rank_points_rank_only_the_schur_complement(monkeypatch):
    # at a point whose value has full rank, the only matrix ranked is the
    # (n-k)-square phi; the k x k value itself is never ranked
    calls = []
    real_rank, real_transverse = degeneracy.rank, degeneracy.transverse_at

    def recording_rank(m):
        calls[-1][1].append((m.nrows, m.ncols))
        return real_rank(m)

    def recording_transverse(chart, a):
        calls.append((section_value(chart.setup, a, chart.center_last), []))
        return real_transverse(chart, a)

    monkeypatch.setattr(degeneracy, "rank", recording_rank)
    monkeypatch.setattr(degeneracy, "transverse_at", recording_transverse)
    for setup, seed in ((Setup(Kind.SO, 8, 5), 3), (Setup(Kind.SP, 8, 6), 3),
                        (Setup(Kind.SO, 7, 4), 3)):
        n, k = setup.n, setup.k
        calls.clear()
        assert run_transversality_suite(setup, points=100, seed=seed).all_ok
        full = [shapes for x, shapes in calls if real_rank(x) == _top_rank(setup)]
        assert len(calls) == 100 and len(full) >= 90
        assert all(shapes == [(n - k, n - k)] for shapes in full), setup
        assert all((k, k) not in shapes for _, shapes in calls)


def test_each_chart_is_set_up_once(monkeypatch):
    # the sweep checks each chart and gathers its plans once, then judges
    # every point of that chart on the one Chart
    real_chart, real_transverse = degeneracy.chart_for, degeneracy.transverse_at
    built, judged = [], []

    def counting_chart(setup, center_last=False):
        built.append(real_chart(setup, center_last))
        return built[-1]

    def counting_transverse(chart, a):
        judged.append(chart)
        return real_transverse(chart, a)

    monkeypatch.setattr(degeneracy, "chart_for", counting_chart)
    monkeypatch.setattr(degeneracy, "transverse_at", counting_transverse)
    assert run_transversality_suite(Setup(Kind.SO, 8, 4), points=30, seed=1).all_ok
    assert [c.center_last for c in built] == [False, True]
    assert len(judged) == 60
    assert all(c is built[i // 30] for i, c in enumerate(judged))


def test_chart_points_are_drawn_in_one_batch(monkeypatch):
    # a batch of chart points is the per-point draw, point after point,
    # and the call leaves the stream where the per-point draws leave it
    for n, k in ((2, 1), (5, 3), (8, 4), (9, 7)):
        for count, bound in ((1, 9), (7, 9), (13, 1), (4, 250)):
            batch, single = SeedStream(n * 100 + count), SeedStream(n * 100 + count)
            points = degeneracy.draw_chart_points(n, k, batch, count, height_bound=bound)
            reference = [random_chart_point(n, k, single, bound) for _ in range(count)]
            # every draw is made at the call, before a point is built
            assert batch.state == single.state
            points = list(points)
            assert points == reference
            assert all(type(a) is ChartPoint and (a.a.nrows, a.a.ncols) == (n - k, k)
                       for a in points)
    # the sweep draws each chart's points in one randints call
    real_randints, draws = SeedStream.randints, []

    def counting_randints(self, count, lo, hi):
        draws.append((count, lo, hi))
        return real_randints(self, count, lo, hi)

    monkeypatch.setattr(SeedStream, "randints", counting_randints)
    assert run_transversality_suite(Setup(Kind.SO, 8, 4), points=30, seed=1).all_ok
    assert draws == [(30 * 16, -9, 9)] * 2


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
                    step = section_value(setup, ChartPoint(p.a.add(e)), center_last)
                    assert values[r * k + c] == step.add(base.scale(-1))


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
            frame = QMatrix.from_rows(QMatrix.identity(k).rows() + a.a.rows())
            orbit = orbit_of(setup, frame)
            assert isinstance(orbit, RadicalOrbit)
            assert orbit.i == k - rank(x)
            seen.add(orbit.i)
        assert 0 in seen


def test_transversality_at_random_points():
    for setup in (SO53, Setup(Kind.SP, 6, 3), Setup(Kind.SO, 7, 5)):
        result = run_transversality_suite(setup, points=25, seed=7)
        assert result.all_ok
        assert [c.center_last for c in result.charts] == [False]


def test_split_setups_use_both_charts():
    result = run_transversality_suite(Setup(Kind.SO, 6, 3), points=15, seed=2)
    assert [c.center_last for c in result.charts] == [False, True]
    assert result.all_ok
    # symplectic square setups have one family only, hence one chart
    sp = run_transversality_suite(Setup(Kind.SP, 6, 3), points=5, seed=2)
    assert [c.center_last for c in sp.charts] == [False]


def test_suite_normalizes_small_k():
    result = run_transversality_suite(Setup(Kind.SO, 7, 2), points=10, seed=4)
    assert result.setup == Setup(Kind.SO, 7, 5)
    assert result.all_ok


def test_suite_is_deterministic():
    a = run_transversality_suite(SO53, points=12, seed=9)
    b = run_transversality_suite(SO53, points=12, seed=9)
    assert a == b


def test_transversality_on_the_degenerate_locus():
    # in this chart the section drops rank exactly on 2 a1 = 2 a2 a4 + a3^2,
    # so integer points of that surface exercise the full constraint check
    setup = Setup(Kind.SO, 5, 4)
    rng = SeedStream(23).derive("degenerate-locus")
    hits = 0
    for _ in range(20):
        a2, a4, b = (rng.randint(-4, 4) for _ in range(3))
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


def test_constraint_rows_match_dense_products():
    # the sparse rows must equal the trace pairings with, and the products
    # by, the dense coordinate basis matrices, on and off the degenerate locus
    cases = [(SP64, False), (SO53, False),
             (Setup(Kind.SO, 8, 4), False), (Setup(Kind.SO, 8, 4), True)]
    for setup, center_last in cases:
        n, k = setup.n, setup.k
        flavor = form_flavor(setup.kind)
        basis = coordinate_basis(flavor, k)
        top = k if flavor == Flavor.SYMMETRIC else k - (k % 2)
        rng = SeedStream(29).derive("dense-constraints", setup.describe(), center_last)
        points = [_zero_chart(n, k)]
        points += [random_chart_point(n, k, rng, height_bound=1) for _ in range(40)]
        chart = degeneracy.chart_for(setup, center_last)
        seen = set()
        for a in points:
            x = section_value(setup, a, center_last)
            seen.add(rank(x) < top)
            dense = [[trace_pairing(bc, v) for bc in basis]
                     for v in degeneracy._differential_values(chart)]
            products = [x.mul(bc) for bc in basis]
            dense += [[p[r, c] for p in products] for r in range(k) for c in range(k)]
            assert degeneracy._constraint_rows(chart, x) == dense
        assert seen == {True, False}, (setup, center_last)


def test_differential_is_the_exact_central_difference():
    # the section is affine, so its derivative in direction E_rc is
    # exactly (S(a + E_rc) - S(a - E_rc)) / 2, and the one differential
    # of the chart is that difference at every point
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
                    plus = section_value(setup, ChartPoint(a.a.add(e)), center_last)
                    minus = section_value(setup, ChartPoint(a.a.add(e.scale(-1))),
                                          center_last)
                    assert values[r * k + c] == plus.add(minus.scale(-1)).scale(Fraction(1, 2))


def test_chart_preconditions():
    with pytest.raises(ValueError):
        section_value(Setup(Kind.SO, 5, 2), ChartPoint(QMatrix.zeros(3, 2)))
    with pytest.raises(ValueError):
        section_value(SO53, ChartPoint(QMatrix.zeros(3, 2)))
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
         {RadicalOrbit(3): 1, SplitOrbit(1): 1, SplitOrbit(-1): 1}),
        (Setup(Kind.SO, 8, 5), RadicalOrbit(3), {RadicalOrbit(3): 1}),
        (Setup(Kind.SO, 3, 2), RadicalOrbit(1), {RadicalOrbit(1): 1}),
        (Setup(Kind.SO, 6, 3), SplitOrbit(-1), {SplitOrbit(-1): 1}),
    ]
    for setup, orbit, expected in cases:
        cc = pullback_cc(setup, orbit)
        assert cc.as_dict() == expected
        assert cc.target == orbit
        assert cc.setup == setup


def test_pullback_constructs_everywhere():
    # the cycle type validates closure support and lead multiplicity
    for n in range(2, 9):
        for k in range(1, n):
            for kind in (Kind.SP, Kind.SO):
                if kind == Kind.SP and n % 2:
                    continue
                setup = Setup(kind, n, k)
                for orbit in enumerate_orbits(setup):
                    cc = pullback_cc(setup, orbit)
                    assert cc.multiplicity(orbit) == 1
