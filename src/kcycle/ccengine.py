"""Characteristic cycles of orbit-closure sheaves, with cross-checks.

The cycle attached to an orbit closure is a nonnegative combination of
conormal varieties of orbits in the closure, with the orbit itself
appearing once.  For the three setup kinds handled here the answer is
known in closed form; this module states it, and independently re-derives
it through the routes the other modules provide: pullback of
matrix-stratum cycles through the Gram section of a chart (done here,
on top of the transversality that degeneracy checks), microlocal
vanishing on resolution fibers, and smallness of the resolutions.
Each suite has one route, its check_* function, which verify runs on
the setup in its own labels; the sampled checks drive the drawing and
judging steps of resolutions and degeneracy.  cross_check runs one
suite or all of them and returns their rows; disagreements are rows
with ok False rather than raised errors, so a sweep always runs to
completion.  The rows hold values (labels, counts, cycle terms), not
text: cli writes them.
"""

from __future__ import annotations

from typing import NamedTuple

from . import degeneracy
from .exactla import SeedStream, check_count, check_seed
from .matrixstrata import Flavor, cc_table
from .orbits import (
    ClosurePoset,
    Setup,
    base_point,
    check_orbit,
    enumerate_orbits,
    family,
    form_flavor,
    format_orbit,
    normalize,
    radical_size,
)
from .resolutions import (
    RESOLUTIONS,
    draw_conormals,
    is_small,
    judge_microlocal,
)


def _cycle_terms(setup: Setup, target, mults: dict) -> tuple:
    """The cycle with multiplicities ``mults``, as ((orbit, multiplicity), ...).

    The target comes first with multiplicity one, the other orbits in
    label-text order; a zero multiplicity means the orbit is absent.
    Every term must be an orbit of the setup in the target's closure,
    with a positive int multiplicity, or ValueError is raised.
    """
    if mults.get(target) != 1:
        raise ValueError("lead term must be the target with multiplicity one")
    rest = sorted(
        (o for o in mults if o != target and mults[o]),
        key=lambda o: format_orbit(setup, o),
    )
    terms = ((target, 1), *((o, mults[o]) for o in rest))
    leq = family(setup).leq
    for orbit, mult in terms:
        check_orbit(setup, orbit)
        if not (isinstance(mult, int) and mult > 0):
            raise ValueError("multiplicities are positive integers")
        if not leq(setup, orbit, target):
            raise ValueError("terms must lie in the closure of the target")
    return terms


def characteristic_cycle(setup: Setup, orbit) -> tuple:
    """The known characteristic cycle of the orbit-closure sheaf, as its terms.

    Splitting-type and symplectic orbit closures always contribute a
    single conormal.  In the orthogonal case (a symmetric form)
    reducibility is governed by the radical size i relative to
    m = min(k, n-k): the orbits of radical size i+1 appear exactly for
    odd i below m.  In a square setup those are the two split orbits
    when i+1 = k, giving the unique three-term cycles.
    """
    check_orbit(setup, orbit)
    mults = {orbit: 1}
    if (setup.kind, Flavor.SYMMETRIC) in family(setup).forms:
        i = radical_size(setup, orbit)
        if i % 2 and i < min(setup.k, setup.n - setup.k):
            mults.update((o, 1) for o in enumerate_orbits(setup) if radical_size(setup, o) == i + 1)
    return _cycle_terms(setup, orbit, mults)


def pullback_cc(setup: Setup, orbit) -> tuple:
    """Transport the cycle of a matrix rank stratum to orbit labels, as its terms.

    The Gram section is a (transverse) map from the chart to flavored
    matrices carrying the radical stratification to the rank one, so
    cycle data pulls back term by term.  Rank values below 2k - n never
    occur on a k-plane, because the Gram matrix always contains an
    invertible block of that size; strata concentrated there relabel to
    radical sizes exceeding n - k and are discarded.  Only orbits in the
    target's closure carry terms: at n = 2k the zero matrix pulls back
    to both split orbits, which are disjoint and closed.
    """
    if "crosscheck" not in family(setup).suites:
        raise ValueError("pullback route needs an invariant form")
    norm = normalize(setup)
    work, target = norm.setup, norm.to_normalized(orbit)
    table = cc_table(form_flavor(work.kind), work.k, work.k - radical_size(work, target))
    mults, leq = {}, family(work).leq
    sizes = {label: radical_size(work, label) for label in enumerate_orbits(work)}
    for rank, mult in table:
        for label, i in sizes.items():
            if i == work.k - rank and leq(work, label, target):
                mults[label] = mult
    back = {norm.from_normalized(lab): m for lab, m in mults.items()}
    return _cycle_terms(setup, orbit, back)


class CheckRow(NamedTuple):
    """A check's verdict, what it judged and the facts behind it, in the setup's labels.

    Subject and detail by check: cc-agreement (orbit,) and the stated and
    pullback cycles' terms; microlocal-empty (target, stratum) and
    (resolution kind, trials, square setup, witnesses found, witnesses
    failing their check, trials contradicting the block-shape verdict);
    smallness (resolution kind, target) and (small, asserted), small None
    where the side does not apply; transversality (center_last,) and
    (points, failures).
    """

    check: str
    subject: tuple
    ok: bool
    detail: tuple


def check_cc_agreement(setup: Setup) -> list:
    """Stated cycle against the chart-pullback route, per orbit."""
    rows = []
    for orbit in enumerate_orbits(setup):
        stated = characteristic_cycle(setup, orbit)
        pulled = pullback_cc(setup, orbit)
        ok = dict(stated) == dict(pulled)
        rows.append(CheckRow("cc-agreement", (orbit,), ok, (stated, pulled)))
    return rows


def check_microlocal(setup: Setup, trials: int = 20, seed: int = 0) -> list:
    """Sampled vanishing of generic conormals on smaller strata.

    Each label is normalized once; each stratum's covectors are drawn
    once and judged against every target above it; rows come in target
    order.
    """
    check_seed(seed)
    check_count("trials", trials)
    norm = normalize(setup)
    orbits = enumerate_orbits(setup)
    label = {o: norm.to_normalized(o) for o in orbits}
    square = setup.n == 2 * setup.k
    # judged one stratum at a time, so that only one stratum's draws are
    # alive: holding each until its last target raises a sweep's peak memory
    rows = {}
    leq = family(setup).leq
    for stratum in orbits:
        above = [t for t in orbits if t != stratum and leq(setup, stratum, t)]
        if not above:
            continue
        drawn = draw_conormals(base_point(norm.setup, label[stratum]), trials=trials, seed=seed)
        for target in above:
            verdict = judge_microlocal(label[target], drawn)
            hits = len(verdict.hits)
            rows[target, stratum] = CheckRow(
                "microlocal-empty", (target, stratum), not hits and not verdict.disagreements,
                (verdict.kind, trials, square, hits, verdict.bad_witnesses, verdict.disagreements))
    return [rows[t, s] for t in orbits for s in orbits if (t, s) in rows]


def check_smallness(setup: Setup) -> list:
    """Smallness of the family's resolutions, per resolution and target orbit.

    The resolutions and which of them apply come from the family's
    entry in resolutions.RESOLUTIONS.  For intersection-type setups the
    applicable sides are asserted.  The radical-type resolutions are
    not small in general, so their results are recorded without being
    treated as failures, and the split labels get no row.  Every kind
    is read off one closure poset, that of the normalized setup, so a
    run over a setup and its dual computes their orbit dimensions once
    (orbit_dimension is cached).
    """
    norm = normalize(setup)
    poset = ClosurePoset(norm.setup)
    sides = RESOLUTIONS[family(setup)]
    applicable = sides.applicable(norm.setup)
    split = family(setup).split_labels(setup)
    rows = []
    for kind in sides.kinds:
        for target in enumerate_orbits(setup):
            if target in split:
                continue
            if kind not in applicable:
                rows.append(CheckRow("smallness", (kind, target), True, (None, sides.asserted)))
                continue
            small = is_small(poset, kind, norm.to_normalized(target))
            rows.append(CheckRow("smallness", (kind, target), small or not sides.asserted,
                                 (small, sides.asserted)))
    return rows


def check_transversality(setup: Setup, points: int = 100, seed: int = 0) -> list:
    """Sampled transversality of the Gram section to the rank strata, per chart.

    For a setup with split labels both reference charts are exercised,
    since the two families of maximal isotropic planes are seen by
    different charts.
    """
    check_count("points", points)
    work = normalize(setup).setup
    charts = (False, True) if family(work).split_labels(work) else (False,)
    rows = []
    for center_last in charts:
        chart = degeneracy.chart_for(work, center_last)
        rng = SeedStream(seed).derive(
            "transversality", work.describe(), "opposite" if center_last else "standard"
        )
        draws = degeneracy.draw_chart_points(work.n, work.k, rng, points)
        failures = degeneracy.transverse_points(chart, draws).count(False)
        rows.append(CheckRow("transversality", (chart.center_last,), not failures,
                             (points, failures)))
    return rows


# The verification suites in report order, by command-line name.  Each
# runner takes (setup, trials, seed) and returns check rows; it runs only
# on a setup whose family lists it (cross_check).  A runner looks its
# check up by module global when it runs, so a check patched or wrapped
# by name is the one that runs.
SUITES = {
    "crosscheck": lambda setup, trials, seed: check_cc_agreement(setup),
    "microlocal": lambda setup, trials, seed: check_microlocal(setup, trials, seed),
    "smallness": lambda setup, trials, seed: check_smallness(setup),
    "transversality": lambda setup, trials, seed: check_transversality(setup, trials, seed),
}


def cross_check(setup: Setup, suite: str = "all", trials: int = 100, seed: int = 0) -> tuple:
    """The check rows of one suite, or of every suite the family lists ("all").

    Suites run in SUITES order; trials is each sampled check's count of
    draws (covectors per stratum, or chart points per chart).  A suite
    that is unknown, or that the family does not list, raises
    ValueError: a check that examined nothing cannot fail.
    """
    check_seed(seed)
    check_count("trials", trials)
    names = [name for name in SUITES if name in family(setup).suites and suite in ("all", name)]
    rows = tuple(row for name in names for row in SUITES[name](setup, trials, seed))
    if not rows:
        raise ValueError(f"suite {suite} has no checks for {setup.describe()}")
    return rows
