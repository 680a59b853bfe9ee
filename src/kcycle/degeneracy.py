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
(dst, src, eps) triples once per (kind, n, k, chart); the sweep and
_differential_values both read it, so no frame is built and J is never
multiplied.  A chart's points are drawn in one batch, one randints call.

A value x is ranked through a smaller matrix.  In the standard chart C
is zero outside one m x m block, m = 2k - n, rows and columns
n-k..k-1: there identity rows pair with identity rows, and C is J0, the
invertible signed antidiagonal.  No chart coordinate lands in that
block, so x keeps J0 there at every point.  Ordering the other n-k
indices first, x = [[x11, x12], [x21, J0]], and eliminating against J0
gives rank x = m + rank phi(x) for the (n-k)-square Schur complement
phi = x11 - x12 J0^-1 x21.  J0^-1 is the signed transpose of J0, so
phi is integer multiply and add.  _schur_plan checks these facts once
per chart; at m = 0 (n = 2k, both charts) phi is x itself.

The sweep, ccengine.check_transversality, does its set-up once per
chart: chart_for checks the chart, fetches both plans and works out
the flavor and the top rank.  A chart's points are one flat list of
draws (draw_chart_points), and transverse_points judges them as lanes,
at most _LANES at a time (a module constant, so no sweep forms more):
a chunk's column for chart entry src is one stride slice of the draws,
each value entry is one map of add or sub per plan triple and each phi
entry a few maps of mul, all lanes at once; no point is built as a
matrix.

Then phi is certified of rank r = top - m, the rank of a top-rank
value, across all lanes by the chart's flavor (_proven_lanes), and
only a lane left unproven is ranked.
* Symmetric: r is the side of phi.  Fraction-free Bareiss without
  pivoting (exactla.certify_full_lanes, which conormal shares) runs on
  the whole of phi; a lane whose pivots are all nonzero has a nonzero
  determinant, the last pivot, so rank r.  A zero pivot proves nothing.
* Alternating: the diagonal is zero, so that elimination never gets
  started; r is the side rounded down to even.  A lane is proven by
  two exact facts: phi is alternating (zero diagonal, phi[j][i] =
  -phi[i][j]), so its rank is even and at most r; and its leading
  principal Pfaffian of order r (exactla.lane_pfaffian) is nonzero,
  so the leading r x r block, whose determinant is that Pfaffian
  squared, is invertible and the rank is at least r.  At r = 0 the
  first fact alone proves rank 0.
A proven lane's value has top rank, exactly the verdict its rank would
give, so the certificate changes no verdict; it only saves the ranks.

A value of top rank sits on the open stratum.  Below it, the stratum's
tangent space at x is {Yx + x Y^T}, whose trace-pairing annihilator is
{C : xC = 0}, and transversality says no nonzero such C is
trace-perpendicular to the differential's image.  Each pairing row
tr(C v) of a differential value v has at most one nonzero, so the rows
together fix just the coordinates they hit (flavor_dim(k) -
flavor_dim(m) of them on every chart with n <= 16), and x is
transverse when xC on the other, free, coordinates has full rank.
They are read off the differential once per batch, if a lane is below
top rank, and such a lane's system is built on them alone, from its
values (matrixstrata.product_system); with none free nothing is
ranked.  Each kind's form flavor is read off its family.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, and_, mul, sub, truth
from typing import NamedTuple

from .exactla import QMatrix, SeedStream, certify_full_lanes, lane_pfaffian, rank
from .matrixstrata import Flavor, flavor_dim, pairing_row, product_system
from .orbits import Kind, Setup, form_flavor, form_sign

_LANES = 256  # points judged at a time, however many a sweep draws
HEIGHT_BOUND = 9  # drawn chart coordinates lie in [-HEIGHT_BOUND, HEIGHT_BOUND]


def draw_chart_points(n: int, k: int, rng: SeedStream, count: int) -> list:
    """count chart points, drawn from rng in one randints call: the flat draws.

    Every draw is made at the call: point j is draws j*(n-k)*k onwards,
    the row-major entries of its (n-k) x k coordinate matrix, and the
    list and final state are those of count per-point draws of (n-k)*k
    entries each.  transverse_points reads the list as it is; no point
    is built.
    """
    # ints, already canonical
    return rng.randints(count * (n - k) * k, -HEIGHT_BOUND, HEIGHT_BOUND)


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


@lru_cache(maxsize=64)
def _schur_plan(kind: Kind, n: int, k: int, center_last: bool) -> tuple:
    """The J0 block of a chart's constant: (m, outside, triples).

    The block is rows and columns n-k..k-1 (empty at n = 2k), of size
    m = 2k - n; ``outside`` lists the other n-k indices.  Each triple
    (partner, row, sign) says block row ``row`` of C holds ``sign`` at
    column ``partner``, so J0^-1 is its signed transpose and
    (x12 J0^-1 x21)[i, j] sums sign * x[i, partner] * x[row, j] over the
    triples.

    Raises unless C is J0 on the block and zero elsewhere, no plan entry
    lands in the block and every plan sign is +-1: rank x = m + rank phi,
    and adding or subtracting each chart coordinate, rest on exactly that.
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
    if any(eps not in (1, -1) for _, _, eps in plan):
        raise AssertionError("a plan sign is not +-1")
    return len(block), outside, tuple(triples)


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
    schur: tuple  # _schur_plan's (m, outside, triples)


def chart_for(setup: Setup, center_last: bool = False) -> Chart:
    """Check the chart and gather its plans; raises ValueError where it does not exist."""
    n, k = setup.n, setup.k
    flavor = form_flavor(setup.kind)  # raises for GLpq, which has no form
    if k < n - k:
        raise ValueError("chart sections require k >= n - k")
    if center_last and n != 2 * k:
        raise ValueError("the opposite chart only exists at n = 2k")
    top = k if flavor == Flavor.SYMMETRIC else k - (k % 2)
    const, plan = _section_plan(setup.kind, n, k, center_last)
    return Chart(setup, center_last, flavor, top, const, plan,
                 _schur_plan(setup.kind, n, k, center_last))


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


def _free_coordinates(chart: Chart) -> list:
    """The flavor coordinates that no pairing row tr(C v) of a differential value v reads.

    Raises unless each row has at most one nonzero, as the quotient needs.
    """
    hit = set()
    for v in _differential_values(chart):
        nonzero = [j for j, c in enumerate(pairing_row(v, chart.flavor)) if c]
        if len(nonzero) > 1:
            raise AssertionError("a pairing row of the differential has two nonzeros")
        hit.update(nonzero)
    return [j for j in range(flavor_dim(chart.flavor, chart.setup.k)) if j not in hit]


def _lane_values(chart: Chart, draws, start: int, stop: int) -> tuple:
    """(x, phi) of points start..stop-1 of a flat draw list, as lanes.

    Each is a flat row-major list of entries, and each entry a list of
    its values across the points: x is the k x k value, phi its
    (n-k)-square Schur complement (x itself at m = 0).  A point's
    entry src is every (n-k)*k-th draw, so each column is one stride
    slice of the draws.
    """
    n, k = chart.setup.n, chart.setup.k
    size = (n - k) * k
    m, outside, triples = chart.schur
    cols = [draws[start * size + src:stop * size:size] for src in range(size)]
    x = [[c] * (stop - start) for c in chart.const]
    for dst, src, eps in chart.plan:
        x[dst] = map(add if eps == 1 else sub, x[dst], cols[src])
    x = list(map(list, x))
    if not m:
        return x, x
    phi = []  # phi = x11 - x12 J0^-1 x21, entry by entry
    for i in outside:
        for j in outside:
            e = x[i * k + j]
            for p, d, sign in triples:
                e = map(sub if sign == 1 else add, e, map(mul, x[i * k + p], x[d * k + j]))
            phi.append(list(e))
    return x, phi


def _proven_lanes(flavor: Flavor, r: int, grid: list) -> list:
    """Per lane, whether a square grid of lanes is proven of rank r, by its flavor.

    The two certificates, and why each proves rank r, are in the module docstring.
    """
    if flavor == Flavor.SYMMETRIC:
        return certify_full_lanes(grid)
    side = len(grid)
    # per lane, every diagonal entry and every grid[i][j] + grid[j][i] is zero
    zero = [grid[i][i] for i in range(side)]
    zero += [map(add, grid[i][j], grid[j][i]) for i in range(side) for j in range(i + 1, side)]
    proven = [not any(v) for v in zip(*zero)]
    if r:
        proven = list(map(and_, proven, map(truth, lane_pfaffian(grid, r))))
    return proven


def transverse_points(chart: Chart, draws) -> list:
    """Whether the section meets the stratum of its value transversally, per point.

    draws is flat, as draw_chart_points gives it, and its points are
    judged as lanes, _LANES at a time (module docstring).  Raises
    ValueError for a length that is not a whole number of points.
    """
    n, k = chart.setup.n, chart.setup.k
    m = chart.schur[0]
    side, size = n - k if m else k, (n - k) * k
    if len(draws) % size:
        raise ValueError("chart draws must be whole chart points of (n-k)*k entries")
    verdicts, free = [], None
    count = len(draws) // size
    for start in range(0, count, _LANES):
        x, phi = _lane_values(chart, draws, start, min(start + _LANES, count))
        proven = _proven_lanes(chart.flavor, chart.top - m,
                               [phi[i * side:(i + 1) * side] for i in range(side)])
        for lane in [i for i, ok in enumerate(proven) if not ok]:
            if m + rank(QMatrix(side, side, tuple(v[lane] for v in phi))) == chart.top:
                proven[lane] = True
                continue
            if free is None:
                free = _free_coordinates(chart)
            proven[lane] = not free or rank(product_system(
                [v[lane] for v in x], k, chart.flavor, free)) == len(free)
        verdicts += proven
    return verdicts
