"""Characteristic cycles of orbit-closure sheaves, with cross-checks.

The cycle attached to an orbit closure is a nonnegative combination of
conormal varieties of orbits in the closure, with the orbit itself
appearing once.  For the three setup kinds handled here the answer is
known in closed form; this module states it, and independently re-derives
it through the routes the other modules provide: pullback of
matrix-stratum cycles through the Gram section of a chart (done here,
on top of the transversality that degeneracy checks), microlocal
vanishing on resolution fibers, and smallness of the resolutions.
Disagreements are collected into a report rather than raised, so a
sweep always runs to completion.
"""

from __future__ import annotations

from typing import NamedTuple

from . import degeneracy
from .exactla import check_count, check_seed
from .matrixstrata import cc_table
from .orbits import (
    ClosurePoset,
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    _closure_leq,
    base_point,
    check_orbit,
    enumerate_orbits,
    format_orbit,
    is_split_setup,
    normalize,
    valid_orbit,
)
from .resolutions import (
    ResolutionKind,
    _is_small,
    draw_conormals,
    judge_microlocal,
    resolution_for,
)


class _CycleFields(NamedTuple):
    setup: Setup
    target: object
    terms: tuple


class CharacteristicCycle(_CycleFields):
    """A cycle supported on conormals of orbits in one closure.

    ``terms`` lists (orbit, multiplicity) pairs, the target orbit first
    with multiplicity one, the rest in label order.  A NamedTuple whose
    checks run in __new__; _make and _replace skip them.
    """

    __slots__ = ()

    def __new__(cls, setup: Setup, target, terms: tuple) -> "CharacteristicCycle":
        if not terms:
            raise ValueError("a cycle has at least its lead term")
        lead, lead_mult = terms[0]
        if lead != target or lead_mult != 1:
            raise ValueError("lead term must be the target with multiplicity one")
        seen = set()
        for orbit, mult in terms:
            check_orbit(setup, orbit)
            if orbit in seen:
                raise ValueError("duplicate term")
            seen.add(orbit)
            if not (isinstance(mult, int) and mult > 0):
                raise ValueError("multiplicities are positive integers")
            # the target is the lead term, checked on the first pass
            if not _closure_leq(setup, orbit, target):
                raise ValueError("terms must lie in the closure of the target")
        return tuple.__new__(cls, (setup, target, terms))

    @classmethod
    def from_multiplicities(cls, setup: Setup, target, mults: dict) -> "CharacteristicCycle":
        # zero entries mean absence, not an invalid term
        rest = sorted(
            (o for o in mults if o != target and mults[o]),
            key=lambda o: format_orbit(setup, o),
        )
        terms = [(target, mults.get(target, 0))]
        terms.extend((o, mults[o]) for o in rest)
        return cls(setup, target, tuple(terms))

    def multiplicity(self, orbit) -> int:
        for o, m in self.terms:
            if o == orbit:
                return m
        return 0

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def irreducible(self) -> bool:
        return len(self.terms) == 1

    def describe(self, setup: Setup | None = None) -> str:
        setup = setup or self.setup
        parts = []
        for o, m in self.terms:
            label = format_orbit(setup, o)
            parts.append(label if m == 1 else f"{m}*{label}")
        return " + ".join(parts)


def characteristic_cycle(setup: Setup, orbit) -> CharacteristicCycle:
    """The known characteristic cycle of the orbit-closure sheaf.

    Splitting-type and symplectic orbit closures always contribute a
    single conormal.  In the orthogonal case reducibility is governed by
    the radical size i relative to m = min(k, n-k): a second term
    rad(i+1) appears exactly for odd i below m.  When that second label
    would be the isotropic radical size in a square setup, it stands for
    both families, giving the unique three-term cycles.
    """
    check_orbit(setup, orbit)
    if setup.kind != Kind.SO or isinstance(orbit, SplitOrbit):
        return CharacteristicCycle.from_multiplicities(setup, orbit, {orbit: 1})
    i = orbit.i
    m = min(setup.k, setup.n - setup.k)
    if i % 2 == 0 or i == m:
        return CharacteristicCycle.from_multiplicities(setup, orbit, {orbit: 1})
    mults = {orbit: 1}
    if is_split_setup(setup) and i + 1 == setup.k:
        mults[SplitOrbit(1)] = 1
        mults[SplitOrbit(-1)] = 1
    else:
        mults[RadicalOrbit(i + 1)] = 1
    return CharacteristicCycle.from_multiplicities(setup, orbit, mults)


def pullback_cc(setup: Setup, orbit) -> CharacteristicCycle:
    """Transport the cycle of a matrix rank stratum to orbit labels.

    The Gram section is a (transverse) map from the chart to flavored
    matrices carrying the radical stratification to the rank one, so
    cycle data pulls back term by term.  Rank values below 2k - n never
    occur on a k-plane, because the Gram matrix always contains an
    invertible block of that size; strata concentrated there relabel to
    radical sizes exceeding n - k and are discarded.
    """
    if setup.kind == Kind.GLPQ:
        raise ValueError("pullback route needs an invariant form")
    check_orbit(setup, orbit)
    if isinstance(orbit, SplitOrbit):
        # both split orbits are smooth points of the stratification
        return CharacteristicCycle.from_multiplicities(setup, orbit, {orbit: 1})
    norm = normalize(setup)
    work = norm.setup
    i = norm.to_normalized(orbit).i
    table = cc_table(degeneracy.form_flavor(work.kind), work.k, work.k - i)
    mults = {}
    for sid, mult in table.terms:
        jlab = work.k - sid.rank
        if is_split_setup(work) and jlab == work.k:
            for sign in (1, -1):
                mults[SplitOrbit(sign)] = mult
        elif valid_orbit(work, RadicalOrbit(jlab)):
            mults[RadicalOrbit(jlab)] = mult
    back = {norm.from_normalized(lab): m for lab, m in mults.items()}
    return CharacteristicCycle.from_multiplicities(setup, orbit, back)


class CheckRow(NamedTuple):
    check: str
    subject: str
    ok: bool
    detail: str


class VerificationReport(NamedTuple):
    setup: Setup
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r.ok]


def check_cc_agreement(setup: Setup) -> list:
    """Stated cycle against the chart-pullback route, per orbit."""
    if setup.kind == Kind.GLPQ:
        return []
    rows = []
    for orbit in enumerate_orbits(setup):
        stated = characteristic_cycle(setup, orbit)
        pulled = pullback_cc(setup, orbit)
        ok = stated.as_dict() == pulled.as_dict()
        detail = f"stated {stated.describe()}; pullback {pulled.describe()}"
        rows.append(CheckRow("cc-agreement", format_orbit(setup, orbit), ok, detail))
    return rows


def _microlocal_row(setup: Setup, target, stratum, verdict, trials: int) -> CheckRow:
    subject = f"{format_orbit(setup, target)}<-{format_orbit(setup, stratum)}"
    notes = [f"{verdict.kind.value}, {trials} trials"]
    if setup.n == 2 * setup.k:
        notes.append("square case, outside the strict regime")
    if verdict.hits:
        notes.append("witness found")
    if verdict.bad_witnesses:
        notes.append(f"witness check failed on {verdict.bad_witnesses} of "
                     f"{len(verdict.hits)} witnesses")
    if verdict.disagreements:
        notes.append("block-shape verdict contradicted by "
                     f"{verdict.disagreements} of {trials} trials")
    ok = not verdict.hits and not verdict.disagreements
    return CheckRow("microlocal-empty", subject, ok, "; ".join(notes))


def check_microlocal(setup: Setup, trials: int = 20, seed: int = 0) -> list:
    """Sampled vanishing of generic conormals on smaller strata.

    Each label is normalized once; each stratum's covectors are drawn
    once and judged against every target above it; rows come in target
    order.
    """
    check_seed(seed)
    check_count("trials", trials)
    if setup.kind != Kind.GLPQ:
        return []
    norm = normalize(setup)
    orbits = enumerate_orbits(setup)
    label = {o: norm.to_normalized(o) for o in orbits}
    # judged one stratum at a time, so that only one stratum's draws are
    # alive: holding each until its last target raises a sweep's peak memory
    rows = {}
    for stratum in orbits:
        above = [t for t in orbits if t != stratum and _closure_leq(setup, stratum, t)]
        if not above:
            continue
        drawn = draw_conormals(base_point(norm.setup, label[stratum]), trials=trials, seed=seed)
        for target in above:
            verdict = judge_microlocal(label[target], drawn)
            rows[target, stratum] = _microlocal_row(setup, target, stratum, verdict, trials)
    return [rows[t, s] for t in orbits for s in orbits if (t, s) in rows]


def check_smallness(setup: Setup) -> list:
    """Smallness of the applicable resolutions, per target orbit.

    For intersection-type setups the applicable sides are asserted.  The
    radical-type resolutions are not small in general, so their results
    are recorded without being treated as failures.  Every kind is read
    off one closure poset, that of the normalized setup, so a run over a
    setup and its dual computes their orbit dimensions once
    (orbit_dimension is cached).  Sp/SO labels need no relabelling:
    U -> U^perp keeps rad(U), and the split setups (n = 2k) are
    already normalized.
    """
    norm = normalize(setup)
    poset = ClosurePoset(norm.setup)
    rows = []
    if setup.kind == Kind.GLPQ:
        applicable = resolution_for(setup)
        for kind in (ResolutionKind.Z, ResolutionKind.ZTILDE):
            for target in enumerate_orbits(setup):
                subject = f"{kind.value} {format_orbit(setup, target)}"
                if kind in applicable:
                    small = _is_small(poset, kind, norm.to_normalized(target))
                    rows.append(CheckRow("smallness", subject, small,
                                         "small" if small else "not small"))
                else:
                    rows.append(CheckRow("smallness", subject, True,
                                         "not the applicable side here"))
        return rows
    for target in poset.orbits:
        if isinstance(target, SplitOrbit):
            continue
        small = _is_small(poset, ResolutionKind.ZI, target)
        detail = "small" if small else "not small (recorded, not asserted)"
        rows.append(CheckRow("smallness",
                             f"zi {format_orbit(setup, target)}", True, detail))
    return rows


def check_transversality(setup: Setup, points: int = 100, seed: int = 0) -> list:
    """Sampled transversality of the Gram section to the rank strata."""
    if setup.kind == Kind.GLPQ:
        return []
    result = degeneracy.run_transversality_suite(setup, points=points, seed=seed)
    rows = []
    for chart in result.charts:
        name = "opposite chart" if chart.center_last else "standard chart"
        rows.append(CheckRow("transversality", name, chart.ok,
                             f"{chart.points} points, {chart.failures} failures"))
    return rows


# The verification suites in report order, by command-line name.  Each
# runner takes (setup, trials, points, seed) and returns check rows.
SUITES = {
    "crosscheck": lambda setup, trials, points, seed: check_cc_agreement(setup),
    "microlocal": lambda setup, trials, points, seed: check_microlocal(
        setup, trials=trials, seed=seed),
    "smallness": lambda setup, trials, points, seed: check_smallness(setup),
    "transversality": lambda setup, trials, points, seed: check_transversality(
        setup, points=points, seed=seed),
}


def cross_check(setup: Setup, trials: int = 20, points: int = 100,
                seed: int = 0) -> VerificationReport:
    """Run every verification route that applies to the setup."""
    check_seed(seed)
    check_count("trials", trials)
    check_count("points", points)
    rows = []
    for run in SUITES.values():
        rows.extend(run(setup, trials, points, seed))
    return VerificationReport(setup, tuple(rows))
