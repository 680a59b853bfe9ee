"""Bilinear-form degeneracy loci pulled back through affine charts.

Restricting the invariant form of an isotropy setup to a moving k-plane
gives a k x k Gram matrix that varies over a chart of the Grassmannian.
The map lands in the space of symmetric or alternating matrices, and its
rank drops exactly on the radical-stratification.  This module evaluates
that section and checks it is transverse to the rank strata; that
transversality is what lets ccengine.pullback_cc transport known cycle
data for matrix strata back to orbit labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import QMatrix, SeedStream, Subspace, rank
from .matrixstrata import (
    Flavor,
    coordinate_basis,
    flavor_coords,
    flavor_dim,
    is_flavored,
    trace_pairing,
)
from .orbits import Kind, Setup, form_matrix, is_split_setup, normalize


@dataclass(frozen=True)
class FormJ:
    """An invariant bilinear form on the ambient space."""

    n: int
    flavor: Flavor
    matrix: QMatrix

    def __post_init__(self):
        if self.matrix.nrows != self.n or self.matrix.ncols != self.n:
            raise ValueError("form matrix must be n x n")
        if not is_flavored(self.matrix, self.flavor):
            raise ValueError(f"form matrix is not {self.flavor.value}")
        if rank(self.matrix) != self.n:
            raise ValueError("form must be nondegenerate")

    @classmethod
    def for_setup(cls, setup: Setup) -> "FormJ":
        if setup.kind == Kind.SP:
            flavor = Flavor.SKEW
        elif setup.kind == Kind.SO:
            flavor = Flavor.SYMMETRIC
        else:
            raise ValueError("no invariant form for a splitting-type setup")
        return cls(setup.n, flavor, form_matrix(setup.kind, setup.n))


@dataclass(frozen=True)
class ChartPoint:
    """Coordinates of a k-plane in an affine chart: an (n-k) x k matrix."""

    a: QMatrix


def random_chart_point(n: int, k: int, rng: SeedStream, height_bound: int = 9) -> ChartPoint:
    rows = [
        [rng.randint(-height_bound, height_bound) for _ in range(k)]
        for _ in range(n - k)
    ]
    return ChartPoint(QMatrix.from_rows(rows))


def _frame(j: FormJ, a: ChartPoint, k: int, center_last: bool) -> QMatrix:
    n = j.n
    if not 1 <= k <= n - 1:
        raise ValueError("k out of range")
    if k < n - k:
        raise ValueError("chart sections require k >= n - k")
    if a.a.nrows != n - k or a.a.ncols != k:
        raise ValueError("chart point must be (n-k) x k")
    if center_last and n != 2 * k:
        raise ValueError("the opposite chart only exists at n = 2k")
    ident = QMatrix.identity(k)
    if center_last:
        return a.a.vstack(ident)
    return ident.vstack(a.a)


def section_value(j: FormJ, a: ChartPoint, k: int, center_last: bool = False) -> QMatrix:
    """Gram matrix of the form on the plane with chart coordinates ``a``.

    The default chart consists of graphs over span{e_1..e_k}; with
    ``center_last`` (square case only) the plane is a graph over
    span{e_{k+1}..e_n} instead.
    """
    m = _frame(j, a, k, center_last)
    return m.transpose().mul(j.matrix).mul(m)


def _differential_values(j: FormJ, a: ChartPoint, k: int,
                         center_last: bool = False) -> list:
    # one flavored k x k matrix per coordinate direction of the chart
    n = j.n
    m = _frame(j, a, k, center_last)
    jm = j.matrix.mul(m)
    out = []
    zero_k = QMatrix.zeros(k, k)
    sign = 1 if j.flavor == Flavor.SYMMETRIC else -1
    for r in range(n - k):
        for c in range(k):
            e = QMatrix.from_rows(
                [[1 if (i, jj) == (r, c) else 0 for jj in range(k)]
                 for i in range(n - k)]
            )
            mdot = e.vstack(zero_k) if center_last else zero_k.vstack(e)
            d = mdot.transpose().mul(jm)
            out.append(d.add(d.transpose().scale(sign)))
    return out


def section_differential_image(j: FormJ, a: ChartPoint, k: int,
                               center_last: bool = False) -> Subspace:
    """Image of the derivative of the section at ``a``, in flavor coordinates."""
    values = _differential_values(j, a, k, center_last)
    return Subspace.span(
        flavor_dim(j.flavor, k),
        [flavor_coords(v, j.flavor) for v in values],
    )


def verify_transversality(j: FormJ, a: ChartPoint, k: int,
                          center_last: bool = False) -> bool:
    """Check the section meets the stratum of its value transversally.

    The tangent space of a rank stratum at x is {Yx + x Y^T}; its
    trace-pairing annihilator is {C : xC = 0}.  Transversality of the
    section at ``a`` says no nonzero such C is also trace-perpendicular
    to the image of the differential, which is a rank condition on the
    stacked constraints.
    """
    x = section_value(j, a, k, center_last)
    top = k if j.flavor == Flavor.SYMMETRIC else k - (k % 2)
    if rank(x) == top:
        # values of maximal rank sit on the open stratum, whose tangent
        # space is everything
        return True
    basis = coordinate_basis(j.flavor, k)
    d = flavor_dim(j.flavor, k)
    rows = []
    for img in _differential_values(j, a, k, center_last):
        rows.append([trace_pairing(bc, img) for bc in basis])
    products = [x.mul(bc) for bc in basis]
    for rr in range(k):
        for cc in range(k):
            rows.append([products[b][rr, cc] for b in range(d)])
    return rank(QMatrix.from_rows(rows)) == d


@dataclass(frozen=True)
class ChartSuiteResult:
    center_last: bool
    points: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class TransversalityResult:
    """Outcome of a sampled transversality sweep over one setup."""

    setup: Setup
    charts: tuple

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.charts)


def run_transversality_suite(setup: Setup, points: int = 100,
                             seed: int = 0) -> TransversalityResult:
    """Sample chart points and verify transversality at each.

    For square split setups both reference charts are exercised, since
    the two families of maximal isotropic planes are seen by different
    charts.
    """
    if setup.kind == Kind.GLPQ:
        raise ValueError("transversality sweeps need an invariant form")
    work = normalize(setup).setup
    j = FormJ.for_setup(work)
    n, k = work.n, work.k
    charts = [False]
    if is_split_setup(work):
        charts.append(True)
    results = []
    for center_last in charts:
        rng = SeedStream(seed).derive(
            "transversality", work.describe(), "opposite" if center_last else "standard"
        )
        failures = 0
        for _ in range(points):
            a = random_chart_point(n, k, rng)
            if not verify_transversality(j, a, k, center_last):
                failures += 1
        results.append(ChartSuiteResult(center_last, points, failures))
    return TransversalityResult(work, tuple(results))
