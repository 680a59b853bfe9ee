"""Bilinear-form degeneracy loci pulled back through affine charts.

Restricting the invariant form of an isotropy setup to a moving k-plane
gives a k x k Gram matrix that varies over a chart of the Grassmannian.
The map lands in the space of symmetric or alternating matrices, and its
rank drops exactly on the radical-stratification.  This module evaluates
that section and checks it is transverse to the rank strata; that
transversality is what lets ccengine.pullback_cc transport known cycle
data for matrix strata back to orbit labels.

The functions take a normalized setup (k >= n - k).  Then the section
is affine on each chart.  The chart frame stacks an identity block and
the chart coordinates a, and a Gram entry pairs frame row r with its
J-partner n-1-r.  Those two rows are never both chart rows: in the
standard chart the chart rows are k..n-1, whose partners are at most
n-1-k < k, so identity rows; the opposite chart (n = 2k) is the mirror
case.  So every Gram entry is a constant plus signed chart coordinates,
S(a) = C + sum of eps * a[src] placed at fixed entries dst, and the
differential does not depend on a.  _section_plan lists C and the
(dst, src, eps) triples once per (kind, n, k, chart); _section_entries
and _differential_values both read it, so no frame is built and J is
never multiplied.  The transversality constraints are read off entries
the same way.  A chart's points are drawn in one batch, one randints
call, and each is sliced straight into its matrix as it is judged.

A value x is ranked through a smaller matrix.  In the standard chart C
is zero outside one m x m block, m = 2k - n, rows and columns
n-k..k-1: there identity rows pair with identity rows, and C is J0, the
invertible signed antidiagonal.  No chart coordinate lands in that
block, so x keeps J0 there at every point.  Ordering the other n-k
indices first, x = [[x11, x12], [x21, J0]], and eliminating against J0
gives rank x = m + rank phi(x) for the (n-k)-square Schur complement
phi = x11 - x12 J0^-1 x21.  J0^-1 is the signed transpose of J0, so
phi is integer multiply and add.  _schur_plan checks these facts once
per chart; at m = 0 (n = 2k, both charts) x is ranked itself.

The sweep does its set-up once per chart: chart_for checks the chart,
fetches both plans and works out the flavor and the top rank.  Per
point it does only the point's own work: transverse_at reads the flat
value off the plan and ranks it through phi, and only a point below top
rank builds its value matrix and its constraint rows.  The flavor of
each kind's form is read off its family (orbits.form_flavor).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter, mul, sub
from typing import Iterator, NamedTuple

from .exactla import QMatrix, SeedStream, check_count, rank
from .matrixstrata import Flavor, flavor_dim, pairing_row, product_rows
from .orbits import Kind, Setup, family, form_flavor, form_sign, normalize


class ChartPoint(NamedTuple):
    """Coordinates of a k-plane in an affine chart: an (n-k) x k matrix."""

    a: QMatrix


def draw_chart_points(n: int, k: int, rng: SeedStream, count: int,
                      height_bound: int = 9) -> Iterator[ChartPoint]:
    """count chart points, drawn from rng in one randints call.

    The height bound is checked and every draw made at the call: point
    j is draws j*(n-k)*k onwards, row-major, the draws and final state
    of count per-point draws of (n-k)*k entries each.  The points are
    built as they are iterated over, so only one is alive at a time:
    building them all at once raised an isotropy pass's peak memory.
    """
    check_count("height_bound", height_bound)
    size = (n - k) * k
    draws = rng.randints(count * size, -height_bound, height_bound)
    # ints, already canonical
    return (ChartPoint(QMatrix(n - k, k, tuple(draws[i:i + size])))
            for i in range(0, count * size, size))


def _chart_flavor(setup: Setup, center_last: bool) -> Flavor:
    """The form's flavor, once the chart is checked to exist for the setup."""
    n, k = setup.n, setup.k
    flavor = form_flavor(setup.kind)  # raises for GLpq, which has no form
    if k < n - k:
        raise ValueError("chart sections require k >= n - k")
    if center_last and n != 2 * k:
        raise ValueError("the opposite chart only exists at n = 2k")
    return flavor


@lru_cache(maxsize=64)
def _section_plan(kind: Kind, n: int, k: int, center_last: bool) -> tuple:
    """The affine section of a normalized chart: (constant entries, triples).

    Frame row r is either identity row i (the pair ("id", i)) or chart
    row s (("a", s)).  Pairing row r with its partner n-1-r adds eps_r
    times their product to Gram entries (x, y); with one identity row
    that product is one chart coordinate.  Each triple (dst, src, eps)
    says entry dst of the flat k x k value gains eps * a.entries[src].
    """
    def frame_row(r):
        ident = r >= k if center_last else r < k
        if ident:
            return "id", r - k if center_last else r
        return "a", r if center_last else r - k

    const = [0] * (k * k)
    plan = []
    for r in range(n):
        eps = form_sign(kind, n, r)
        (left, i), (right, j) = frame_row(r), frame_row(n - 1 - r)
        if left == right == "id":
            const[i * k + j] += eps
        elif left == "id":
            plan += [(i * k + y, j * k + y, eps) for y in range(k)]
        elif right == "id":
            plan += [(x * k + j, i * k + x, eps) for x in range(k)]
        else:
            raise AssertionError("a chart row paired with a chart row")
    return tuple(const), tuple(plan)


def _reader(idx: list):
    """A function reading entries ``idx`` of a flat tuple, always as a tuple."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda e: (get(e),)


@lru_cache(maxsize=64)
def _schur_plan(kind: Kind, n: int, k: int, center_last: bool) -> tuple:
    """The J0 block of a chart's constant: (m, outside, triples, read_x11, terms).

    The block is rows and columns n-k..k-1 (empty at n = 2k), of size
    m = 2k - n; ``outside`` lists the other n-k indices.  Each triple
    (partner, row, sign) says block row ``row`` of C holds ``sign`` at
    column ``partner``, so J0^-1 is its signed transpose and
    (x12 J0^-1 x21)[i, j] sums sign * x[i, partner] * x[row, j] over the
    triples.  ``read_x11`` reads x11 off a flat value, row-major; per
    triple, ``terms`` holds the operator taking its product out of phi
    and the readers of x[i, partner] and x[row, j] in the same order.

    Raises unless C is J0 on the block and zero elsewhere and no plan
    entry lands in the block: rank x = m + rank phi rests on exactly that.
    """
    const, plan = _section_plan(kind, n, k, center_last)
    block, outside = range(n - k, k), tuple(range(n - k))
    triples = []
    for d in block:
        nonzero = [c for c in range(k) if const[d * k + c]]
        if len(nonzero) != 1 or nonzero[0] not in block:
            raise AssertionError(f"block row {d} of the constant is not one entry in the block")
        sign = const[d * k + nonzero[0]]
        if sign not in (1, -1):
            raise AssertionError(f"block row {d} of the constant holds {sign}, not +-1")
        triples.append((nonzero[0], d, sign))
    if len({p for p, _, _ in triples}) != len(triples):
        raise AssertionError("the constant's block is singular")
    if any(const[i * k + j] for i in outside for j in range(k)):
        raise AssertionError("the constant is nonzero outside its block")
    if any(dst // k in block and dst % k in block for dst, _, _ in plan):
        raise AssertionError("a chart coordinate lands in the constant's block")
    pairs = [(i, j) for i in outside for j in outside]
    terms = tuple(
        (sub if sign == 1 else add,
         _reader([i * k + p for i, _ in pairs]), _reader([d * k + j for _, j in pairs]))
        for p, d, sign in triples)
    return len(block), outside, tuple(triples), _reader([i * k + j for i, j in pairs]), terms


class Chart(NamedTuple):
    """One chart of a normalized setup, with what all its points share.

    Built once per chart by chart_for: the checked flavor, the top rank
    a flavored k x k value can have, the section plan and the Schur plan.
    """

    setup: Setup
    center_last: bool
    flavor: Flavor
    top: int
    const: tuple
    plan: tuple
    schur: tuple  # _schur_plan's (m, outside, triples, read_x11, terms)


def chart_for(setup: Setup, center_last: bool = False) -> Chart:
    """Check the chart and gather its plans; raises ValueError where it does not exist."""
    n, k = setup.n, setup.k
    flavor = _chart_flavor(setup, center_last)
    top = k if flavor == Flavor.SYMMETRIC else k - (k % 2)
    const, plan = _section_plan(setup.kind, n, k, center_last)
    return Chart(setup, center_last, flavor, top, const, plan,
                 _schur_plan(setup.kind, n, k, center_last))


def _section_entries(const: tuple, plan: tuple, e) -> list:
    """The flat k x k value at chart entries e: the constants plus eps * e[src] at each dst."""
    out = list(const)
    for dst, src, eps in plan:
        out[dst] += eps * e[src]
    return out


def _value_rank(chart: Chart, x: list) -> int:
    """rank x, as m + rank phi(x) for phi = x11 - x12 J0^-1 x21 (module docstring).

    x is a flat section value of the chart; phi is (n-k)-square and
    built entrywise from x by the plan's readers.  At m = 0 phi would be
    x itself, so x is ranked as it is.
    """
    n, k = chart.setup.n, chart.setup.k
    m, _, _, read_x11, terms = chart.schur
    if not m:
        return rank(QMatrix.from_flat(k, k, x))
    phi = read_x11(x)
    for op, read_col, read_row in terms:
        phi = map(op, phi, map(mul, read_col(x), read_row(x)))
    return m + rank(QMatrix.from_flat(n - k, n - k, phi))


def _differential_values(chart: Chart) -> list:
    """One flavored k x k matrix per chart direction (r, c), row-major.

    The section is affine, so the value in direction src = r * k + c is
    eps at each dst the plan pairs with src, at every point of the chart.
    """
    n, k = chart.setup.n, chart.setup.k
    values = [[0] * (k * k) for _ in range((n - k) * k)]
    for dst, src, eps in chart.plan:
        values[src][dst] += eps
    return [QMatrix(k, k, tuple(v)) for v in values]


def transverse_at(chart: Chart, a: ChartPoint) -> bool:
    """Check the section meets the stratum of its value transversally at ``a``.

    The value is read off the chart's plan and ranked through its Schur
    complement; one of top rank sits on the open stratum, whose tangent
    space is everything.  Below top rank: the tangent space of a rank
    stratum at x is {Yx + x Y^T}; its trace-pairing annihilator is
    {C : xC = 0}.  Transversality at ``a`` says no nonzero such C is
    also trace-perpendicular to the image of the differential, which is
    a rank condition on the stacked constraints of _constraint_rows.
    ``a`` must be a point of the chart's shape.
    """
    x = _section_entries(chart.const, chart.plan, a.a.entries)
    if _value_rank(chart, x) == chart.top:
        return True
    k = chart.setup.k
    rows = _constraint_rows(chart, QMatrix.from_flat(k, k, x))
    return rank(QMatrix.from_rows(rows)) == flavor_dim(chart.flavor, k)


def _constraint_rows(chart: Chart, x: QMatrix) -> list:
    """transverse_at's functionals on C in flavor coordinates, at a value x of the chart.

    First tr(C v) for each differential value v, then the entries of xC,
    each read off one or two entries of v or x.
    """
    rows = [pairing_row(v, chart.flavor) for v in _differential_values(chart)]
    return rows + product_rows(x, chart.flavor)


class ChartSuiteResult(NamedTuple):
    center_last: bool
    points: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


class TransversalityResult(NamedTuple):
    """Outcome of a sampled transversality sweep over one setup."""

    setup: Setup
    charts: tuple

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.charts)


def run_transversality_suite(setup: Setup, points: int = 100,
                             seed: int = 0) -> TransversalityResult:
    """Sample chart points and verify transversality at each.

    For a setup with split labels both reference charts are exercised,
    since the two families of maximal isotropic planes are seen by
    different charts.
    """
    if "transversality" not in family(setup).suites:
        raise ValueError("transversality sweeps need an invariant form")
    check_count("points", points)
    work = normalize(setup).setup
    n, k = work.n, work.k
    charts = (False, True) if family(work).split_labels(work) else (False,)
    results = []
    for center_last in charts:
        chart = chart_for(work, center_last)
        rng = SeedStream(seed).derive(
            "transversality", work.describe(), "opposite" if center_last else "standard"
        )
        failures = sum(not transverse_at(chart, a)
                       for a in draw_chart_points(n, k, rng, points))
        results.append(ChartSuiteResult(center_last, points, failures))
    return TransversalityResult(work, tuple(results))
