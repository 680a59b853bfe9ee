import hashlib

import pytest

from kcycle import cli
from kcycle.cli import check_entries
from kcycle.ccengine import (
    SUITES,
    _cycle_terms,
    characteristic_cycle,
    check_cc_agreement,
    check_microlocal,
    check_smallness,
    check_transversality,
    cross_check,
    pullback_cc,
)
from kcycle.exactla import SEED_MAX
from kcycle.orbits import (
    ClosurePoset,
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    enumerate_orbits,
    family,
    format_orbit,
    normalize,
    parse_orbit,
)
from kcycle.resolutions import ResolutionKind, is_small

from reference import setups


def test_singleton_kinds():
    glpq = Setup(Kind.GLPQ, 6, 3, p=4, q=2)
    for orbit in enumerate_orbits(glpq):
        assert len(characteristic_cycle(glpq, orbit)) == 1
    sp = Setup(Kind.SP, 8, 3)
    for orbit in enumerate_orbits(sp):
        assert len(characteristic_cycle(sp, orbit)) == 1


def test_orthogonal_examples():
    cc = characteristic_cycle(Setup(Kind.SO, 5, 2), RadicalOrbit(1))
    assert dict(cc) == {RadicalOrbit(1): 1, RadicalOrbit(2): 1}

    cc = characteristic_cycle(Setup(Kind.SO, 6, 3), RadicalOrbit(1))
    assert dict(cc) == {RadicalOrbit(1): 1, RadicalOrbit(2): 1}

    cc = characteristic_cycle(Setup(Kind.SO, 8, 4), RadicalOrbit(3))
    assert dict(cc) == {
        RadicalOrbit(3): 1, SplitOrbit(1): 1, SplitOrbit(-1): 1,
    }
    doc = cli.cmd_cc(Setup(Kind.SO, 8, 4), "rad3")
    assert cli.render(doc, "text").splitlines()[1] == "CC(rad3) = rad3 + rad4+ + rad4-"

    # the even radical size below the maximum stays irreducible
    cc = characteristic_cycle(Setup(Kind.SO, 8, 4), RadicalOrbit(2))
    assert len(cc) == 1

    # at the maximal radical size the closure is the whole stratum closure
    cc = characteristic_cycle(Setup(Kind.SO, 7, 3), RadicalOrbit(3))
    assert len(cc) == 1

    for sign in (1, -1):
        cc = characteristic_cycle(Setup(Kind.SO, 6, 3), SplitOrbit(sign))
        assert len(cc) == 1


def test_reducibility_set_is_odd_below_min():
    for setup in setups(8, kinds=(Kind.SO,)):
        m = min(setup.k, setup.n - setup.k)
        for orbit in enumerate_orbits(setup):
            cc = characteristic_cycle(setup, orbit)
            if isinstance(orbit, RadicalOrbit) and orbit.i % 2 == 1 and orbit.i < m:
                assert len(cc) >= 2
            else:
                assert len(cc) == 1


def test_three_term_cycles_are_exactly_the_square_even_case():
    for setup in setups(8, kinds=(Kind.SO, Kind.SP)):
        triples = [
            orbit for orbit in enumerate_orbits(setup)
            if len(characteristic_cycle(setup, orbit)) == 3
        ]
        if setup.kind == Kind.SO and setup.n == 2 * setup.k and setup.k % 2 == 0:
            assert triples == [RadicalOrbit(setup.k - 1)]
        else:
            assert triples == []


def test_multiplicities_are_zero_or_one():
    for setup in setups(8):
        for orbit in enumerate_orbits(setup):
            cc = characteristic_cycle(setup, orbit)
            assert all(m == 1 for _, m in cc)
            assert dict(cc)[orbit] == 1


def test_terms_lie_in_target_closure():
    for setup in setups(7, kinds=(Kind.SO,)):
        pos = ClosurePoset(setup)
        for orbit in enumerate_orbits(setup):
            cc = characteristic_cycle(setup, orbit)
            for term, _ in cc:
                assert pos.leq(term, orbit)


def test_duality_invariance():
    for setup in setups(8, kinds=(Kind.SO, Kind.SP)):
        norm = normalize(setup)
        if not norm.dualized:
            continue
        for orbit in enumerate_orbits(setup):
            direct = characteristic_cycle(setup, orbit)
            across = characteristic_cycle(norm.setup, norm.to_normalized(orbit))
            mapped = {norm.from_normalized(o): m for o, m in across}
            assert dict(direct) == mapped


def test_cycle_validation():
    setup = Setup(Kind.SO, 6, 2)
    top = RadicalOrbit(0)
    with pytest.raises(ValueError):
        _cycle_terms(setup, top, {})
    with pytest.raises(ValueError):
        _cycle_terms(setup, top, {RadicalOrbit(1): 1})
    with pytest.raises(ValueError):
        _cycle_terms(setup, top, {top: 2})
    with pytest.raises(ValueError):
        _cycle_terms(setup, top, {top: 1, RadicalOrbit(1): -1})
    with pytest.raises(ValueError):
        _cycle_terms(setup, top, {top: 1, RadicalOrbit(1): 1.0})
    with pytest.raises(ValueError):
        # the open orbit is not in the closure of a smaller one
        _cycle_terms(setup, RadicalOrbit(1), {RadicalOrbit(1): 1, top: 1})
    with pytest.raises(ValueError):
        _cycle_terms(setup, top, {top: 1, RadicalOrbit(3): 1})
    ok = _cycle_terms(setup, top, {RadicalOrbit(1): 1, top: 1})
    assert ok == ((top, 1), (RadicalOrbit(1), 1))
    dropped = _cycle_terms(setup, top, {top: 1, RadicalOrbit(1): 0})
    assert dropped == ((top, 1),)


def test_agreement_with_pullback_everywhere():
    for setup in setups(8, kinds=(Kind.SO, Kind.SP)):
        for orbit in enumerate_orbits(setup):
            stated = characteristic_cycle(setup, orbit)
            pulled = pullback_cc(setup, orbit)
            assert dict(stated) == dict(pulled)


def test_cc_agreement_rows():
    rows = check_cc_agreement(Setup(Kind.SO, 6, 3))
    subjects = [e["subject"] for e in check_entries(Setup(Kind.SO, 6, 3), rows)]
    assert subjects == ["rad0", "rad1", "rad2", "rad3+", "rad3-"]
    assert all(r.ok for r in rows)
    # a glpq setup has no cc-agreement rows: its family does not list the
    # suite, and the pullback route itself refuses a setup without a form
    glpq = Setup(Kind.GLPQ, 4, 2, p=2, q=2)
    with pytest.raises(ValueError, match="suite crosscheck has no checks for glpq"):
        cross_check(glpq, "crosscheck", trials=1)
    with pytest.raises(ValueError, match="pullback route needs an invariant form"):
        check_cc_agreement(glpq)


def test_smallness_rows_assert_only_applicable_side():
    setup = Setup(Kind.GLPQ, 5, 2, p=4, q=1)
    rows = check_smallness(setup)
    by_subject = {e["subject"]: e for e in check_entries(setup, rows)}
    # normalized parameters put this setup on the second resolution side
    assert by_subject["ztilde q(1,0)"]["detail"] in ("small", "not small")
    assert by_subject["z q(1,0)"]["detail"] == "not the applicable side here"
    assert all(r.ok for r in rows)


def test_smallness_builds_one_poset_per_setup(monkeypatch):
    # one closure poset per check_smallness call, not one per (kind, target)
    built = []

    class CountingPoset(ClosurePoset):
        def __init__(self, setup):
            built.append(setup)
            super().__init__(setup)

    for module in ("orbits", "ccengine", "resolutions"):
        monkeypatch.setattr(f"kcycle.{module}.ClosurePoset", CountingPoset)
    glpq_setups = setups(8, kinds=(Kind.GLPQ,))
    runs = [cross_check(setup, trials=1, seed=5) for setup in glpq_setups]
    assert len(glpq_setups) == len(built) == 140
    # the shared poset gives the verdicts of is_small on a poset per target
    for setup, rows in zip(glpq_setups, runs):
        norm = normalize(setup)
        for row in check_entries(setup, rows):
            if row["check"] == "smallness" and row["detail"] != "not the applicable side here":
                kind, label = row["subject"].split()
                target = norm.to_normalized(parse_orbit(setup, label))
                small = is_small(ClosurePoset(norm.setup), ResolutionKind(kind), target)
                assert row["ok"] == small and row["detail"] == ("small" if small else "not small")


def test_microlocal_formats_each_label_once(monkeypatch):
    # one label text per orbit per verify document, not two per row; the
    # rows hold labels, and only cli writes them
    formatted = []

    def counting_format(setup, orbit):
        formatted.append((setup, orbit))
        return format_orbit(setup, orbit)

    monkeypatch.setattr(cli, "format_orbit", counting_format)
    for setup in setups(6, kinds=(Kind.GLPQ,)):
        formatted.clear()
        cli.cmd_verify(setup, "microlocal", 1, 5)
        assert len(set(formatted)) == len(formatted) <= len(enumerate_orbits(setup))
        assert all(setup == s for s, _ in formatted)


def test_sp_so_posets_agree_with_the_normalized_setups():
    # U -> U^perp maps Gr(k, n) onto Gr(n-k, n) K-equivariantly and keeps
    # rad(U), so both posets list the same labels in the same order with
    # equal dimensions: check_smallness rests on this when it reads Sp/SO
    # smallness off the normalized setup's poset
    duals = 0
    for setup in setups(12, kinds=(Kind.SP, Kind.SO)):
        own, norm = ClosurePoset(setup), ClosurePoset(normalize(setup).setup)
        duals += own.setup != norm.setup
        assert own.orbits == norm.orbits, setup
        assert ([own.dimension[o] for o in own.orbits]
                == [norm.dimension[o] for o in norm.orbits]), setup
        if setup.n > 10:
            continue
        # the rows as the setup's own poset gives them
        expected = []
        for target in own.orbits:
            if isinstance(target, SplitOrbit):
                continue
            small = is_small(own, ResolutionKind.ZI, target)
            assert is_small(norm, ResolutionKind.ZI, target) == small
            expected.append({
                "check": "smallness", "subject": f"zi {format_orbit(setup, target)}", "ok": True,
                "detail": "small" if small else "not small (recorded, not asserted)"})
        assert check_entries(setup, check_smallness(setup)) == expected, setup
    assert duals == 45  # 15 sp and 30 so setups with k < n - k


def test_cross_check_glpq():
    setup = Setup(Kind.GLPQ, 5, 2, p=3, q=2)
    rows = cross_check(setup, trials=5)
    assert [r for r in rows if not r.ok] == []
    orbits = enumerate_orbits(setup)
    pos = ClosurePoset(setup)
    pairs = sum(
        1
        for t in orbits
        for s in orbits
        if s != t and pos.leq(s, t)
    )
    micro = [r for r in rows if r.check == "microlocal-empty"]
    assert len(micro) == pairs
    small = [r for r in rows if r.check == "smallness"]
    assert len(small) == 2 * len(orbits)
    assert [r for r in rows if r.check == "transversality"] == []


def test_cross_check_orthogonal():
    setup = Setup(Kind.SO, 6, 3)
    rows = cross_check(setup, trials=10)
    assert not [r for r in rows if not r.ok]
    checks = {r.check for r in rows}
    assert checks == {"cc-agreement", "smallness", "transversality"}
    tr = [e["subject"] for e in check_entries(setup, rows) if e["check"] == "transversality"]
    assert tr == ["standard chart", "opposite chart"]


def test_cross_check_is_deterministic():
    setup = Setup(Kind.GLPQ, 4, 2, p=2, q=2)
    assert cross_check(setup, trials=4) == cross_check(setup, trials=4)


def test_seeded_suites_reject_out_of_range_seeds():
    # a float or a bool is no seed either, though 1.5 and True lie in range
    glpq, so = Setup(Kind.GLPQ, 4, 2, p=2, q=2), Setup(Kind.SO, 6, 3)
    for bad in (-1, SEED_MAX + 1, 1.5, True):
        with pytest.raises(ValueError):
            check_transversality(so, points=1, seed=bad)
        with pytest.raises(ValueError):
            cross_check(so, "transversality", trials=1, seed=bad)
        with pytest.raises(ValueError):
            cross_check(glpq, "microlocal", trials=1, seed=bad)
        for setup in (glpq, so):
            with pytest.raises(ValueError):
                check_microlocal(setup, trials=1, seed=bad)
            with pytest.raises(ValueError):
                cross_check(setup, trials=1, seed=bad)
    for setup in (glpq, so):
        rows = cross_check(setup, trials=1, seed=SEED_MAX)
        assert [r for r in rows if not r.ok] == []


def test_sampled_checks_reject_counts_below_one():
    # a check that examined nothing must not report ok; a count is an
    # int, so 2.5 and True are refused rather than drawn or run as 1
    glpq, so = Setup(Kind.GLPQ, 4, 2, p=2, q=2), Setup(Kind.SO, 6, 3)
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="points"):
            check_transversality(so, points=bad)
        with pytest.raises(ValueError, match="trials"):
            cross_check(so, "transversality", trials=bad)
        with pytest.raises(ValueError, match="trials"):
            cross_check(glpq, "microlocal", trials=bad)
        for setup in (glpq, so):
            with pytest.raises(ValueError, match="trials"):
                check_microlocal(setup, trials=bad)
            with pytest.raises(ValueError, match="trials"):
                cross_check(setup, trials=bad)


def test_cross_check_refuses_a_suite_that_examines_nothing():
    # a suite the family does not list, or an unknown name, has no rows,
    # and a check that examined nothing must not report ok
    for setup in (Setup(Kind.GLPQ, 4, 2, p=2, q=2), Setup(Kind.SP, 6, 3), Setup(Kind.SO, 6, 3)):
        unlisted = [name for name in SUITES if name not in family(setup).suites]
        assert unlisted
        for name in unlisted + ["bogus", "All", ""]:
            with pytest.raises(ValueError, match="has no checks"):
                cross_check(setup, name, trials=1)
        for name in family(setup).suites:
            assert {r.check for r in cross_check(setup, name, trials=1)}


def test_sweep_draws_are_pinned(monkeypatch):
    # output bytes never show the draws, so pin them: every covector that
    # check_microlocal draws (blocks, ranks, retries) over glpq with n <= 6;
    # the chart points of the transversality sweep are pinned, with their
    # verdicts, by test_sweep_verdicts_are_pinned
    from kcycle import ccengine

    covectors = hashlib.sha256()
    real_draw = ccengine.draw_conormals

    def recording_draw(base, trials, seed):
        drawn = real_draw(base, trials=trials, seed=seed)
        for xi in drawn:
            covectors.update(repr((base.setup.describe(), base.orbit, tuple(xi.h_block),
                                   tuple(xi.l_block), xi.h_rank, xi.l_rank, xi.retries)).encode())
        return drawn

    monkeypatch.setattr(ccengine, "draw_conormals", recording_draw)
    for setup in setups(6, kinds=(Kind.GLPQ,)):
        check_microlocal(setup, seed=5)
    assert covectors.hexdigest() == (
        "d1a6f51fe68857cb344834498975ed35e9656052f2b31492b2f85b2732a4cb73")


def test_certificate_fallbacks_are_pinned(monkeypatch):
    # output bytes never show how much work the lane certificates save, so
    # pin it: the trials that conormal's certificate leaves unproven and
    # the ranks they take over the glpq sweep with n <= 8, and the lanes
    # that degeneracy ranks and its product systems over the sp/so sweep
    # with n <= 8, both at seed 5.  A weaker certificate raises these
    from kcycle import conormal, degeneracy

    counts = dict.fromkeys(("scalar", "conormal_rank", "degeneracy_rank", "product"), 0)

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    counting(conormal, "_scalar_draw", "scalar")
    counting(conormal, "rank", "conormal_rank")
    counting(degeneracy, "rank", "degeneracy_rank")
    counting(degeneracy, "product_system", "product")
    rows = trials = 0
    for setup in setups(8, kinds=(Kind.GLPQ,)):
        drawn = check_microlocal(setup, trials=20, seed=5)
        rows += len(drawn)
        trials += 20 * len({row.subject[1] for row in drawn})
    assert (rows, counts["scalar"], trials, counts["conormal_rank"]) == (919, 56, 10_120, 67)
    charts = lanes = 0
    for setup in setups(8, kinds=(Kind.SP, Kind.SO)):
        for row in check_transversality(setup, points=100, seed=5):
            charts += 1
            lanes += row.detail[0]
    assert (charts, lanes, counts["degeneracy_rank"], counts["product"]) == (48, 4_800, 135, 22)
    assert counts["degeneracy_rank"] - counts["product"] == 113  # lanes ranked


def test_sweep_verdicts_are_pinned(monkeypatch):
    # every chart point that check_transversality draws over sp/so with
    # n <= 8 at seed 5, with the rank of its value and its verdict, both
    # read through the reference routes; a chart's failures are exactly its
    # False verdicts
    from kcycle import degeneracy
    from kcycle.exactla import rank
    from reference import chart_points, section_value, verify_transversality

    batches = []
    real_draw = degeneracy.draw_chart_points

    def recording_draw(n, k, rng, count):
        draws = real_draw(n, k, rng, count)
        batches.append(chart_points(n, k, draws))
        return draws

    monkeypatch.setattr(degeneracy, "draw_chart_points", recording_draw)
    digest, degenerate = hashlib.sha256(), 0
    for setup in setups(8, kinds=(Kind.SP, Kind.SO)):
        batches.clear()
        rows = check_transversality(setup, seed=5)
        work = normalize(setup).setup
        assert len(batches) == len(rows)
        for row, points in zip(rows, batches):
            (center_last,), (count, failures) = row.subject, row.detail
            top = degeneracy.chart_for(work, center_last).top
            ranks = [rank(section_value(work, a, center_last)) for a in points]
            verdicts = [verify_transversality(work, a, center_last) for a in points]
            assert len(points) == count
            assert verdicts.count(False) == failures
            degenerate += sum(r < top for r in ranks)
            digest.update(repr((work.describe(), center_last,
                                [a.a.entries for a in points], ranks, verdicts)).encode())
    assert degenerate > 0
    assert digest.hexdigest() == (
        "ebdb1e2f4a72f25ddf9c884684cb50df0f44d2587860987eec208b82eeee7b14")


def test_sweep_draws_are_pinned_at_scale(monkeypatch):
    # the largest batches a sweep draws: every chart point of
    # check_transversality on so(16,8), whose two charts draw 6,400
    # values each, and on sp(16,8)
    from kcycle import degeneracy
    from reference import chart_points

    digest = hashlib.sha256()
    real_draw = degeneracy.draw_chart_points

    def recording_draw(n, k, rng, count):
        draws = real_draw(n, k, rng, count)
        digest.update(repr((n, k, [a.a.entries for a in chart_points(n, k, draws)])).encode())
        return draws

    monkeypatch.setattr(degeneracy, "draw_chart_points", recording_draw)
    charts = [len(check_transversality(Setup(kind, 16, 8), seed=3))
              for kind in (Kind.SO, Kind.SP)]
    assert charts == [2, 1]
    assert digest.hexdigest() == (
        "6fb6829f475c008766d121edb76fa912bdf574424369a78dbaec282e9a50fbc3")
