"""Reference routes that only the tests use, kept out of the package.

Each function recomputes something the package computes another way,
so a test can compare the two, or builds seeded test data:

* ``zeros``, ``identity``, ``add``, ``scale``, ``randint``, ``next_u64``,
  ``glpq`` and ``setups`` build test data the package never needs.
  ``QMatrix`` holds ints only, so ``solve`` computes over Fractions and
  returns its solution as a plain list.
  ``Subspace`` is a column span held by the canonical basis that
  ``exactla.kernel`` returns for a null space; the package has none.
* ``draw_streams_by_loop`` is splitmix64 (Steele, Lea and Flood 2014)
  one value at a time; ``exactla.draw_streams`` mixes a batch as packed
  lanes of one integer and must give the same draws and final states.
* ``random_matrix``, ``random_matrix_from`` and ``random_flavored_matrix``
  draw seeded integer matrices, the last of a given flavor and rank.
* ``kernel_by_span`` is the null space spanned, then made canonical by
  ``Subspace.span``, from the kernel vectors of one rref, formed over
  Fractions and cleared of denominators; ``exactla.kernel`` reads the
  canonical basis off a single rref and must match it.
* ``submatrix_by_entry`` and ``from_cols_by_entry`` read a matrix one
  entry at a time, where ``QMatrix.submatrix`` slices the entries and
  ``QMatrix.from_cols`` transposes by one zip.
* ``inverse`` inverts by elimination over Fractions and checks that the
  inverse is integral before it builds a ``QMatrix``; ``orbits.base_point``
  reads the inverse of an adapted basis off its column supports and must
  match it.
  ``dense_basis`` builds that basis entry by entry from the same
  supports, where ``base_point`` writes only the ones.
* ``block_ranges`` turns a base point's ``row_groups`` and ``col_groups``
  into consecutive ranges of its columns, which the package never needs.
* ``solve_homogeneous``, the common kernel of a list of functionals,
  underlies the dense complements below.
* ``coordinate_basis`` and ``trace_pairing`` form the dense basis
  matrices and the dense pairing that ``matrixstrata.pairing_row`` reads
  off one or two entries.  ``product_rows`` is every entry of xC over
  all the coordinates, zero rows included; ``matrixstrata.product_system``
  keeps only the nonzero rows on the coordinates it is given, sparsest
  first.
  ``is_flavored``, ``flavor_coords`` and ``flavor_from_coords`` convert
  between matrices and flavor coordinates.
* ``conormal_condition``, ``tangent_space_at`` and ``conormal_solutions``
  give the dense tangent and conormal geometry of the rank strata,
  which ``degeneracy.transverse_points`` reads as the entries of xC
  through ``matrixstrata.product_system``.
* ``conormal_space`` is the literal-block conormal space of a GLpq
  orbit, the second route beside the kernel of ``action_image``;
  ``max_conormal_rank`` is the closed-form rank that
  ``conormal.draw_covectors`` must reach, and ``conormal_matrix``
  places a sampled covector's two blocks in its k x (n-k) matrix.
  ``draw_covector`` draws one covector on its own seed's ``SeedStream``,
  one attempt at a time; ``conormal.draw_covectors`` must give each seed
  of a batch the same covector.
  ``sample_conormal`` draws one covector in a batch of its own, through
  the sweep's ``conormal.draw_covectors``.
  ``leading_minor_certificate`` states by cofactor determinants
  (``det``) what ``conormal._certified_lanes`` proves per lane by
  lane-wise Bareiss, and ``flavor_certificate`` what
  ``degeneracy._proven_lanes`` proves of a lane's phi: by those
  determinants when symmetric, and when alternating by ``pfaffian``, a
  signed sum over perfect matchings, where
  ``exactla.lane_pfaffian`` expands along the first row.
* ``form_matrix`` is the dense invariant form that ``orbits.form_sign``
  and everything read off its signs replace; ``perp`` and
  ``annihilator`` are the dense complements that the duality
  relabelling of ``orbits.normalize`` must match.
* ``action_image`` is the dense image of Lie(K) at a base point, built
  entry by entry; ``orbits.orbit_dimension`` must equal its rank, and
  the sparse rows of ``orbits._action_rows`` its entries.
* ``orbit_of_by_intersection`` and ``split_family_by_intersection``
  classify a plane by ``Subspace`` intersections with the coordinate
  subspaces (``_coordinate_subspace``, ``split_reference``), which
  ``orbits.orbit_of`` and ``orbits.split_family`` read as ranks of
  blocks of a frame.  ``base_plane`` is a base point's plane U as a
  ``Subspace``, where the package keeps only its frame ``u_matrix``.
* ``open_orbit`` finds the open orbit from the closure order alone.
* ``ChartPoint`` is one chart point as its (n-k) x k coordinate
  matrix, which the package never builds; ``chart_points`` and
  ``chart_draws`` convert between such points and the flat draw list
  the sweep reads.  ``random_chart_point`` draws one chart point on a
  stream; ``degeneracy.draw_chart_points`` draws a chart's points in
  one batch and must give the same points and final stream state.
* ``section_differential_image`` spans the differential of the Gram
  section that ``degeneracy.transverse_points`` reads off its plan.
  ``section_entries`` and ``section_value`` evaluate the section at one
  point, where the sweep forms a batch of values lane-wise.
  ``schur_complement`` and ``value_rank`` form phi of one value and rank
  the value through it.  ``constraint_rows`` is the full stacked system,
  the differential's pairing rows over the product rows, and
  ``stacked_transversality`` ranks it whole, where the sweep ranks only
  the product rows on the coordinates its quotient by the differential
  leaves free.  ``verify_transversality`` is the sweep's verdict at one
  point, ``degeneracy.transverse_points`` on the draws of that point
  alone, on a chart set up for it alone, after ``check_chart`` checks
  its shape.
* ``ambient_membership_Z``/``_Ztilde`` and
  ``ambient_witness_satisfies_Z``/``_Ztilde`` build and check membership
  witnesses as subspaces of C^n, through ``Subspace`` spans and a solve
  against the adapted basis; ``resolutions`` builds and checks them as
  frames in block coordinates, and ``lift_witness`` carries such a
  frame pair to C^n for the ambient check.  ``WITNESS_ROUTES`` pairs
  the two routes per resolution.
* ``fiber_dimension`` is each resolution's fiber dimension in closed
  form; ``RESOLUTIONS`` states each fiber as Grassmannian factors
  Gr(d, a), whose dimensions, the sums of d(a - d), must match it.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from kcycle import conormal, degeneracy
from kcycle.conormal import (
    RETRY_BUDGET,
    ConormalVector,
    NoGenericCovector,
    block_shapes,
    draw_covectors,
    generic_block_ranks,
)
from kcycle.degeneracy import _differential_values
from kcycle.exactla import SEED_MAX, QMatrix, SeedStream, kernel, rank, rref
from kcycle.matrixstrata import (
    Flavor,
    cc_table,
    coordinate_pairs,
    flavor_dim,
    flavor_sign,
    pairing_row,
)
from kcycle.orbits import (
    BasePoint,
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    base_point,
    family,
    form_flavor,
    form_sign,
    gram_matrix,
    is_split_setup,
    lie_algebra_basis,
)
from kcycle import resolutions
from kcycle.resolutions import ResolutionKind, Witness


# ---------------------------------------------------------------------------
# exact linear algebra

def zeros(nrows: int, ncols: int) -> QMatrix:
    return QMatrix(nrows, ncols, (0,) * (nrows * ncols))


def identity(n: int) -> QMatrix:
    return QMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def add(a: QMatrix, b: QMatrix) -> QMatrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch in sum")
    return QMatrix.from_flat(a.nrows, a.ncols, map(operator.add, a.entries, b.entries))


def scale(a: QMatrix, c: int) -> QMatrix:
    (c,) = QMatrix.from_flat(1, 1, [c]).entries  # a c that is not an int raises TypeError
    return QMatrix.from_flat(a.nrows, a.ncols, [c * x for x in a.entries])


def solve(m: QMatrix, v: Sequence):
    """One solution x of m x = v, as a list of Fractions, or None if inconsistent."""
    aug = m.hstack(QMatrix.from_rows([[x] for x in v]))
    pivots, rows = rref(aug)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for r_i, c in enumerate(pivots):
        x[c] = Fraction(rows[r_i][m.ncols], rows[r_i][c])
    return x


class Subspace(NamedTuple):
    """Column span with a canonical (column-reduced) basis.

    Canonical form makes equality of subspaces plain field equality.
    """

    ambient_dim: int
    basis: QMatrix  # ambient_dim x dim, full column rank, canonical

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector outside the ambient space")
        if not vecs:
            return cls(ambient_dim, QMatrix(ambient_dim, 0, ()))
        _, rows = rref(QMatrix.from_rows(vecs))
        rows = [r for r in rows if any(r)]
        return cls(ambient_dim, QMatrix.from_rows(rows).transpose() if rows
                   else QMatrix(ambient_dim, 0, ()))

    @classmethod
    def from_matrix(cls, m: QMatrix) -> "Subspace":
        return cls.span(m.nrows, [m.col(j) for j in range(m.ncols)])

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")

    def contains_vector(self, v: Sequence) -> bool:
        return solve(self.basis, v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return rank(self.basis.hstack(other.basis)) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_matrix(self.basis.hstack(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        # x = B1 a = B2 b: the a of the kernel of [B1 | -B2], mapped through B1
        self._check_ambient(other)
        ker = kernel(self.basis.hstack(scale(other.basis, -1)))
        a = ker.submatrix(range(self.dim), range(ker.ncols))
        return Subspace.from_matrix(self.basis.mul(a))


def glpq(n: int, k: int, p: int, q: int) -> Setup:
    return Setup(Kind.GLPQ, n, k, p=p, q=q)


def setups(max_n: int, kinds=tuple(Kind)) -> list:
    """Every setup of the kinds with n <= max_n, by n, then k, then kind, GLpq by p."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for kind in kinds:
                if kind == Kind.GLPQ:
                    out += [glpq(n, k, p, n - p) for p in range(1, n)]
                elif kind == Kind.SO or n % 2 == 0:
                    out.append(Setup(kind, n, k))
    return out


def randint(rng: SeedStream, lo: int, hi: int) -> int:
    return rng.randints(1, lo, hi)[0]


def next_u64(rng: SeedStream) -> int:
    return rng.randints(1, 0, SEED_MAX)[0]


def draw_streams_by_loop(states: Sequence[int], count: int, lo: int, hi: int) -> tuple:
    """count draws from [lo, hi] on each splitmix64 state, one value at a time."""
    if lo > hi:
        raise ValueError(f"empty draw range [{lo}, {hi}]")
    span, mask = hi - lo + 1, (1 << 64) - 1
    draws, finals = [], []
    for z in states:
        out = []
        for _ in range(count):
            z = (z + 0x9E3779B97F4A7C15) & mask
            x = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
            out.append(lo + (x ^ (x >> 31)) % span)
        draws.append(out)
        finals.append(z)
    return draws, finals


def kernel_by_span(m: QMatrix) -> Subspace:
    """Right null space of m: one kernel vector per free column of rref(m), then spanned.

    Each vector is formed over Fractions, with a 1 at its free column,
    and cleared of denominators before it is spanned.
    """
    pivots, rows = rref(m)
    cols = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for r_i, c in enumerate(pivots):
            v[c] = Fraction(-rows[r_i][f], rows[r_i][c])
        d = lcm(*(x.denominator for x in v))
        cols.append([x.numerator * (d // x.denominator) for x in v])
    return Subspace.span(m.ncols, cols)


def random_matrix(nrows: int, ncols: int, seed: int, height_bound: int = 100) -> QMatrix:
    """Deterministic integer matrix with entries in [-height_bound, height_bound]."""
    assert height_bound >= 0
    rng = SeedStream(seed)
    return random_matrix_from(rng, nrows, ncols, height_bound)


def random_matrix_from(rng: SeedStream, nrows: int, ncols: int, height_bound: int = 100) -> QMatrix:
    # row-major draws of ints
    return QMatrix(nrows, ncols,
                   tuple(rng.randints(nrows * ncols, -height_bound, height_bound)))


def submatrix_by_entry(m: QMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> QMatrix:
    """The selected rows and columns, read one entry at a time through m[i, j]."""
    return QMatrix.from_flat(len(row_idx), len(col_idx),
                             [m[i, j] for i in row_idx for j in col_idx])


def from_cols_by_entry(nrows: int, cols: Sequence[Sequence]) -> QMatrix:
    """The matrix whose columns are cols, each of length nrows, built entry by entry."""
    if any(len(col) != nrows for col in cols):
        raise ValueError("ragged columns")
    return QMatrix.from_flat(nrows, len(cols), [cols[j][i] for i in range(nrows)
                                                for j in range(len(cols))])


def dense_basis(setup: Setup, orbit) -> QMatrix:
    """The adapted basis B of a base point, each entry tested against its column's support."""
    supports = family(setup).base_columns(setup, orbit)[0]
    n = setup.n
    return QMatrix.from_rows([[int(r in supports[j]) for j in range(n)] for r in range(n)])


def inverse(m: QMatrix) -> QMatrix:
    """The inverse of m, by one rref over Fractions; it must be integral."""
    assert m.nrows == m.ncols
    n = m.nrows
    pivots, rows = rref(m.hstack(identity(n)))
    assert pivots == list(range(n)), "matrix is singular"
    inv = [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]
    assert all(x.denominator == 1 for row in inv for x in row), "inverse is not integral"
    return QMatrix.from_rows([[x.numerator for x in row] for row in inv])


def solve_homogeneous(constraints: Iterable[Sequence], dim: int) -> "Subspace":
    """Common kernel of a list of linear functionals on Q^dim."""
    rows = [list(c) for c in constraints]
    if not rows:
        return Subspace(dim, identity(dim))
    for row in rows:
        assert len(row) == dim, "functional on the wrong coordinate space"
    return Subspace(dim, kernel(QMatrix.from_rows(rows)))


# ---------------------------------------------------------------------------
# matrix strata

@lru_cache(maxsize=None)
def coordinate_basis(flavor: Flavor, m: int) -> tuple:
    """Basis matrices matching the upper-triangle coordinate order.

    The matrix of (a, b) has 1 at (a, b) and sign at (b, a).
    """
    out = []
    for a, b in coordinate_pairs(flavor, m):
        rows = [[0] * m for _ in range(m)]
        rows[b][a] = flavor_sign(flavor)
        rows[a][b] = 1
        out.append(QMatrix.from_rows(rows))
    return tuple(out)


def is_flavored(x: QMatrix, flavor: Flavor) -> bool:
    if x.nrows != x.ncols:
        return False
    sign = flavor_sign(flavor)
    return all(
        x[a, b] == sign * x[b, a] for a in range(x.nrows) for b in range(a, x.ncols)
    )


def flavor_coords(x: QMatrix, flavor: Flavor) -> tuple:
    assert is_flavored(x, flavor), "matrix does not have the stated symmetry"
    return tuple(x[a, b] for a, b in coordinate_pairs(flavor, x.nrows))


def flavor_from_coords(coords, flavor: Flavor, m: int) -> QMatrix:
    basis = coordinate_basis(flavor, m)
    assert len(coords) == len(basis)
    acc = zeros(m, m)
    for c, b in zip(coords, basis):
        if c:
            acc = add(acc, scale(b, c))
    return acc


def trace_pairing(c: QMatrix, d: QMatrix):
    """tr(c d), the pairing identifying the flavor space with its dual.

    Dense; pairing_row is the same pairing against the coordinate basis.
    """
    return sum(c[a, b] * d[b, a] for a in range(c.nrows) for b in range(c.ncols))


def product_rows(x: QMatrix, flavor: Flavor) -> list:
    """Entry (r, c) of x C as a functional of all of C's flavor coordinates.

    Row r * m + c holds (x bc)[r, c] for each coordinate basis matrix
    bc, in coordinate order, zero rows included; matrixstrata.product_system
    keeps the nonzero rows on the coordinates it is given.
    """
    m = x.nrows
    sign = flavor_sign(flavor)
    pairs = coordinate_pairs(flavor, m)
    out = []
    for r in range(m):
        xr = x.row(r)
        for c in range(m):
            out.append([(xr[a] if c == b else 0) + (sign * xr[b] if c == a != b else 0)
                        for a, b in pairs])
    return out


def conormal_condition(x: QMatrix, c: QMatrix) -> bool:
    """Is c conormal to the congruence orbit through x?  Equivalent to xc = 0."""
    if x.nrows != c.nrows or x.ncols != c.ncols or x.nrows != x.ncols:
        raise ValueError("need square matrices of equal size")
    same_flavor = any(
        is_flavored(x, f) and is_flavored(c, f) for f in (Flavor.SYMMETRIC, Flavor.SKEW)
    )
    if not same_flavor:
        raise ValueError("x and c must share a symmetry type")
    return x.mul(c).is_zero()


def tangent_space_at(x: QMatrix, flavor: Flavor) -> Subspace:
    """Span of {Yx + xY^T} over all Y, in flavor coordinates."""
    assert is_flavored(x, flavor)
    m = x.nrows
    vecs = []
    for a in range(m):
        for b in range(m):
            rows = [[0] * m for _ in range(m)]
            rows[a][b] = 1
            y = QMatrix.from_rows(rows)
            vecs.append(flavor_coords(add(y.mul(x), x.mul(y.transpose())), flavor))
    return Subspace.span(flavor_dim(flavor, m), vecs)


def conormal_solutions(x: QMatrix, flavor: Flavor) -> Subspace:
    """All flavor matrices c with xc = 0, in flavor coordinates."""
    assert is_flavored(x, flavor)
    return solve_homogeneous(product_rows(x, flavor), flavor_dim(flavor, x.nrows))


def random_flavored_matrix(flavor: Flavor, m: int, r: int, seed: int, height_bound: int = 9) -> QMatrix:
    """Deterministic random matrix of the flavor with exact rank r."""
    cc_table(flavor, m, r)  # validates the pair
    rng = SeedStream(seed).derive("flavored", flavor.value, m, r)
    rows = [[0] * m for _ in range(m)]
    if flavor == Flavor.SYMMETRIC:
        for j in range(r):
            rows[j][j] = 1
    else:
        for j in range(0, r, 2):
            rows[j][j + 1] = 1
            rows[j + 1][j] = -1
    d = QMatrix.from_rows(rows)
    while True:
        a = random_matrix_from(rng, m, m, height_bound)
        if rank(a) == m:
            return a.transpose().mul(d).mul(a)


# ---------------------------------------------------------------------------
# conormal spaces

def block_ranges(bp: BasePoint) -> tuple:
    """A base point's row groups, then its column groups, as consecutive ranges."""
    return tuple(tuple(range(sum(g[:i]), sum(g[:i + 1])) for i in range(len(g)))
                 for g in (bp.row_groups, bp.col_groups))


def _unit(k: int, nk: int, j: int, c: int) -> list:
    v = [0] * (k * nk)
    v[j * nk + c] = 1
    return v


def conormal_space(base: BasePoint) -> Subspace:
    """Conormal directions at the base point, flattened row-major."""
    setup = base.setup
    k, nk = setup.k, setup.n - setup.k
    if setup.kind == Kind.GLPQ:
        rows, cols = block_ranges(base)
        vecs = [_unit(k, nk, j, c) for j in rows[0] for c in cols[2]]
        vecs += [_unit(k, nk, j, c) for j in rows[1] for c in cols[0]]
        return Subspace.span(k * nk, vecs)
    return Subspace(k * nk, kernel(action_image(base.setup, base.orbit)))


def max_conormal_rank(setup: Setup, orbit) -> int:
    """Largest matrix rank attained on the orbit's conormal space (GLpq)."""
    if setup.kind != Kind.GLPQ:
        raise ValueError("rank formula applies to GLpq only")
    s, t = orbit.s, orbit.t
    n, k, p, q = setup.n, setup.k, setup.p, setup.q
    return min(s, n - k - p + s) + min(t, n - k - q + t)


def conormal_matrix(xi: ConormalVector) -> QMatrix:
    """The k x (n-k) matrix with h and l at their ranges, zero elsewhere."""
    setup = xi.base.setup
    nk = setup.n - setup.k
    flat = [0] * (setup.k * nk)
    rows, cols = block_ranges(xi.base)
    for blk, rr, cc in ((xi.h_block, rows[0], cols[2]), (xi.l_block, rows[1], cols[0])):
        for a, j in enumerate(rr):
            flat[j * nk + cc.start:j * nk + cc.stop] = blk.row(a)
    return QMatrix(setup.k, nk, tuple(flat))


def det(m: QMatrix):
    """Determinant of a square matrix, by cofactor expansion along row 0."""
    n = m.nrows
    if n == 0:
        return 1
    return sum((-1) ** j * m[0, j] * det(m.submatrix(range(1, n), [c for c in range(n) if c != j]))
               for j in range(n) if m[0, j])


def pfaffian(m: QMatrix, order: int):
    """Pfaffian of the leading order x order block of m, read above its diagonal.

    The signed sum over the perfect matchings of 0..order-1, each the
    product of its pairs' entries m[i, j], i < j, with sign (-1) to the
    number of crossing pairs.
    """
    def matchings(idx):
        if not idx:
            yield []
            return
        for t in range(1, len(idx)):
            for rest in matchings(idx[1:t] + idx[t + 1:]):
                yield [(idx[0], idx[t])] + rest

    total = 0
    for pairs in matchings(tuple(range(order))):
        crossings = sum(a < c < b < d for a, b in pairs for c, d in pairs)
        term = (-1) ** crossings
        for i, j in pairs:
            term *= m[i, j]
        total += term
    return total


def flavor_certificate(phi: QMatrix, flavor: Flavor, r: int) -> bool:
    """Whether the sweep's lane certificate proves a square phi of rank r.

    A symmetric-flavor phi by nonzero leading principal minors of every
    order; an alternating-flavor one by being alternating, with a
    nonzero leading Pfaffian of order r when r > 0.
    """
    side = phi.nrows
    if flavor == Flavor.SYMMETRIC:
        return all(det(phi.submatrix(range(i), range(i))) for i in range(1, side + 1))
    if any(phi[i, j] != -phi[j, i] for i in range(side) for j in range(i, side)):
        return False
    return r == 0 or pfaffian(phi, r) != 0


def leading_minor_certificate(m: QMatrix) -> bool:
    """Whether the lane certificate proves m of rank min(r, c): by nonzero
    leading principal minors of orders 1 to min(r, c), for a vector too."""
    k = min(m.nrows, m.ncols)
    return all(det(m.submatrix(range(i), range(i))) for i in range(1, k + 1))


def draw_covector(base: BasePoint, seed: int) -> ConormalVector:
    """One covector on its own seed's stream, drawn and certified alone.

    Its entries lie within conormal.HEIGHT_BOUND, read at the call.
    """
    rng = SeedStream(seed).derive("conormal-sample")
    (hr, hc), (lr, lc) = block_shapes(base)
    h_full, l_full = generic_block_ranks(base)
    nh, bound = hr * hc, conormal.HEIGHT_BOUND
    for attempt in range(RETRY_BUDGET + 1):
        draw = rng.randints(nh + lr * lc, -bound, bound)
        h = QMatrix(hr, hc, tuple(draw[:nh]))
        l = QMatrix(lr, lc, tuple(draw[nh:]))
        h_rank = rank(h) if hr and hc else 0
        if h_rank < h_full:
            continue
        l_rank = rank(l) if lr and lc else 0
        if l_rank == l_full:
            return ConormalVector(base, h, l, h_rank, l_rank, attempt)
    raise NoGenericCovector(f"no generic covector within {RETRY_BUDGET} resamples")


def sample_conormal(base: BasePoint, seed: int) -> ConormalVector:
    """One covector as the sweep draws it, in a batch of its own."""
    return draw_covectors(base, [seed])[0]


# ---------------------------------------------------------------------------
# orbits

def form_matrix(kind: Kind, n: int) -> QMatrix:
    """J as a dense n x n matrix, a reference for the sparse formulas."""
    return QMatrix.from_rows(
        [[form_sign(kind, n, a) if b == n - 1 - a else 0 for b in range(n)]
         for a in range(n)]
    )


def perp(setup: Setup, u: Subspace) -> Subspace:
    """Orthogonal complement with respect to the form (Sp/SO)."""
    n = setup.n
    # the functional w -> v^T J w has coefficient eps_{n-1-b} v[n-1-b] at b
    return solve_homogeneous(
        [[form_sign(setup.kind, n, n - 1 - b) * v[n - 1 - b] for b in range(n)]
         for v in (u.basis.col(r) for r in range(u.dim))], n
    )


def annihilator(u: Subspace) -> Subspace:
    """Functionals vanishing on u, in dual coordinates."""
    return solve_homogeneous(
        [u.basis.col(j) for j in range(u.dim)], u.ambient_dim
    )


def action_image(setup: Setup, orbit) -> QMatrix:
    """Image of Lie(K) in the tangent space at the orbit's base point.

    Row r is the action of the r-th element x of lie_algebra_basis, as
    a k x (n-k) chart matrix flattened row-major: entry (j, c) is the
    c-th complement coordinate of x . u_j in the adapted basis B, i.e.
    the sum of value * B^-1[k+c, a] * B[b, j] over the entries (a, b) of x.
    """
    bp = base_point(setup, orbit)
    n, k = setup.n, setup.k
    nk = n - k
    basis, binv = bp.basis, inverse(bp.basis)
    rows = []
    for x in lie_algebra_basis(setup):
        row = [0] * (k * nk)
        for a, b, v in x:
            for j in range(k):
                ub = basis[b, j]
                if ub:
                    for c in range(nk):
                        row[j * nk + c] += v * binv[k + c, a] * ub
        rows.append(row)
    return QMatrix.from_rows(rows)


def base_plane(bp: BasePoint) -> Subspace:
    """The plane U of a base point, spanned by its frame."""
    return Subspace.from_matrix(bp.u_matrix)


def _coordinate_subspace(n: int, idx) -> Subspace:
    return Subspace.span(n, [[int(i == a) for i in range(n)] for a in idx])


def split_reference(setup: Setup) -> Subspace:
    assert is_split_setup(setup)
    return _coordinate_subspace(setup.n, range(setup.k))


def split_family_by_intersection(setup: Setup, u: Subspace) -> int:
    """Ruling family of a maximal isotropic from its intersection with the reference."""
    ref = split_reference(setup)
    return +1 if (u.intersection(ref).dim - setup.k) % 2 == 0 else -1


def orbit_of_by_intersection(setup: Setup, u: Subspace):
    """The orbit label of a k-plane, from Subspace intersections and the Gram rank."""
    n, k = setup.n, setup.k
    assert u.ambient_dim == n and u.dim == k
    if setup.kind == Kind.GLPQ:
        cp = _coordinate_subspace(n, range(setup.p))
        cq = _coordinate_subspace(n, range(setup.p, n))
        return IntersectionOrbit(u.intersection(cp).dim, u.intersection(cq).dim)
    g = gram_matrix(setup, u.basis)
    i = k - rank(g)
    if is_split_setup(setup) and i == k:
        return RadicalOrbit(k, split_family_by_intersection(setup, u))
    return RadicalOrbit(i)


def open_orbit(pos: ClosurePoset):
    tops = [o for o in pos.orbits
            if all(o == b or not pos.leq(o, b) for b in pos.orbits)]
    assert len(tops) == 1, "closure order must have a unique open orbit"
    return tops[0]


# ---------------------------------------------------------------------------
# the Gram section

class ChartPoint(NamedTuple):
    """Coordinates of a k-plane in an affine chart: an (n-k) x k matrix."""

    a: QMatrix


def chart_points(n: int, k: int, draws: Sequence) -> list:
    """The points of a flat chart draw list, as draw_chart_points lays them out."""
    size = (n - k) * k
    return [ChartPoint(QMatrix(n - k, k, tuple(draws[i:i + size])))
            for i in range(0, len(draws), size)]


def chart_draws(points: Iterable[ChartPoint]) -> list:
    """The flat draw list of chart points, point after point."""
    return [x for a in points for x in a.a.entries]


def random_chart_point(n: int, k: int, rng: SeedStream, height_bound: int = 9) -> ChartPoint:
    """One chart point: (n-k) * k row-major draws from [-height_bound, height_bound]."""
    draws = rng.randints((n - k) * k, -height_bound, height_bound)
    return ChartPoint(QMatrix(n - k, k, tuple(draws)))


def check_chart(setup: Setup, a: ChartPoint, center_last: bool) -> None:
    """The chart exists for the setup and ``a`` has its (n-k) x k shape."""
    n, k = setup.n, setup.k
    form_flavor(setup.kind)  # raises for GLpq, which has no form
    if k < n - k:
        raise ValueError("chart sections require k >= n - k")
    if center_last and n != 2 * k:
        raise ValueError("the opposite chart only exists at n = 2k")
    if a.a.nrows != setup.n - setup.k or a.a.ncols != setup.k:
        raise ValueError("chart point must be (n-k) x k")


def section_entries(const: tuple, plan: tuple, e) -> list:
    """The flat k x k value at chart entries e: the constants plus eps * e[src] at each dst."""
    out = list(const)
    for dst, src, eps in plan:
        out[dst] += eps * e[src]
    return out


def section_value(setup: Setup, a: ChartPoint, center_last: bool = False) -> QMatrix:
    """Gram matrix of the form on the plane with chart coordinates ``a``.

    The default chart consists of graphs over span{e_1..e_k}; with
    ``center_last`` (square case only) the plane is a graph over
    span{e_{k+1}..e_n} instead.  The value is read off the section plan,
    one point at a time, and only that plan: no Schur plan is built, so
    a wrong section plan gives a wrong value here without raising.
    """
    check_chart(setup, a, center_last)
    const, plan = degeneracy._section_plan(setup.kind, setup.n, setup.k, center_last)
    return QMatrix.from_flat(setup.k, setup.k, section_entries(const, plan, a.a.entries))


def schur_complement(chart: degeneracy.Chart, x: QMatrix) -> QMatrix:
    """phi = x11 - x12 J0^-1 x21 of a chart value, from the chart's Schur triples."""
    _, outside, triples = chart.schur
    return QMatrix.from_rows(
        [[x[i, j] - sum(sign * x[i, p] * x[d, j] for p, d, sign in triples)
          for j in outside] for i in outside])


def value_rank(chart: degeneracy.Chart, x: QMatrix) -> int:
    """rank x, as m + rank phi(x); at m = 0 phi would be x, which is ranked as it is."""
    m = chart.schur[0]
    return m + rank(schur_complement(chart, x)) if m else rank(x)


def constraint_rows(chart: degeneracy.Chart, x: QMatrix) -> list:
    """The full stacked system on C in flavor coordinates, at a value x of the chart.

    First tr(C v) for each differential value v, then the entries of xC.
    The differential is read through the module, so a patched
    ``degeneracy._differential_values`` reaches it.
    """
    rows = [pairing_row(v, chart.flavor) for v in degeneracy._differential_values(chart)]
    return rows + product_rows(x, chart.flavor)


def stacked_transversality(setup: Setup, a: ChartPoint, center_last: bool = False) -> bool:
    """Transversality at one point by the full stacked system, with no quotient.

    A value of top rank is transverse; below it, the point is transverse
    when the differential's pairings and the product rows together have
    rank flavor_dim(k).
    """
    chart = degeneracy.chart_for(setup, center_last)
    x = section_value(setup, a, center_last)
    if value_rank(chart, x) == chart.top:
        return True
    rows = constraint_rows(chart, x)
    return rank(QMatrix.from_rows(rows)) == flavor_dim(chart.flavor, setup.k)


def verify_transversality(setup: Setup, a: ChartPoint, center_last: bool = False) -> bool:
    """The sweep's verdict at one point, on a chart set up for it alone."""
    chart = degeneracy.chart_for(setup, center_last)
    check_chart(setup, a, center_last)
    return degeneracy.transverse_points(chart, list(a.a.entries))[0]


def section_differential_image(setup: Setup, a: ChartPoint,
                               center_last: bool = False) -> Subspace:
    """Image of the derivative of the section at ``a``, in flavor coordinates."""
    check_chart(setup, a, center_last)
    chart = degeneracy.chart_for(setup, center_last)
    return Subspace.span(
        flavor_dim(chart.flavor, setup.k),
        [flavor_coords(v, chart.flavor) for v in _differential_values(chart)],
    )


# ---------------------------------------------------------------------------
# microlocal witnesses in C^n

@dataclass(frozen=True)
class AmbientWitness:
    """A fiber point (V, W) certifying kernel membership, in ambient coordinates."""

    v: Subspace
    w: Subspace


def _group_vectors(bp: BasePoint, g: int) -> list:
    """Basis vectors of U in row group g: U cap C^p for 0, U cap C^q for 1."""
    return [bp.basis.col(j) for j in block_ranges(bp)[0][g]]


def _ambient_columns(bp: BasePoint, block: QMatrix, row_vectors: list) -> list:
    """Images of the relevant complement vectors, as ambient vectors."""
    out = []
    for c in range(block.ncols):
        vec = [0] * bp.setup.n
        for r in range(block.nrows):
            coeff = block[r, c]
            if coeff:
                vec = [a + coeff * b for a, b in zip(vec, row_vectors[r])]
        out.append(vec)
    return out


def _extend_inside(span_vectors: list, target_dim: int, pool: list, n: int) -> Subspace:
    """Grow a span to target_dim using vectors from the pool."""
    cur = Subspace.span(n, span_vectors)
    for v in pool:
        if cur.dim >= target_dim:
            break
        grown = Subspace.span(n, span_vectors + [v])
        if grown.dim > cur.dim:
            span_vectors = span_vectors + [v]
            cur = grown
    assert cur.dim == target_dim, "extension pool too small"
    return cur


def _grown_image(bp: BasePoint, block: QMatrix, g: int, dim: int) -> Subspace:
    """The block's column images in row group g, grown inside the group to dim."""
    vecs = _group_vectors(bp, g)
    return _extend_inside(_ambient_columns(bp, block, vecs), dim, vecs, bp.setup.n)


def _holds_image(bp: BasePoint, block: QMatrix, g: int, dim: int, space: Subspace) -> bool:
    """space has dimension dim, lies in row group g and contains the block's image."""
    n, vecs = bp.setup.n, _group_vectors(bp, g)
    return (space.dim == dim and Subspace.span(n, vecs).contains(space)
            and space.contains(Subspace.span(n, _ambient_columns(bp, block, vecs))))


def ambient_membership_Z(xi: ConormalVector, s: int,
                         t: int) -> Tuple[bool, Optional[AmbientWitness]]:
    """Does xi lie in the codifferential image of the (V, W) resolution?

    True iff the map h (rows U cap C^p, columns C^q/U) has rank <= s and
    the map l (rows U cap C^q, columns C^p/U) has rank <= t; then V, W
    are the column spaces grown to dimensions s and t.
    """
    bp = xi.base
    assert bp.setup.kind == Kind.GLPQ
    if xi.h_rank > s or xi.l_rank > t:
        return False, None
    return True, AmbientWitness(_grown_image(bp, xi.h_block, 0, s),
                                _grown_image(bp, xi.l_block, 1, t))


def ambient_membership_Ztilde(xi: ConormalVector, s: int,
                              t: int) -> Tuple[bool, Optional[AmbientWitness]]:
    """Membership for the resolution with V containing U + C^p.

    The V-side budget drops to n-k-p+s: h must vanish on a subspace of
    dimension k+p-s containing U + C^p, which caps its rank there.
    """
    bp = xi.base
    setup = bp.setup
    assert setup.kind == Kind.GLPQ
    n, k, p = setup.n, setup.k, setup.p
    if xi.h_rank > n - k - p + s or xi.l_rank > t:
        return False, None
    # lift kernel vectors of h from pure C^q/U coordinates into C^n
    q_vectors = [bp.basis.col(k + c) for c in block_ranges(bp)[1][2]]
    lifted = _ambient_columns(bp, kernel(xi.h_block), q_vectors)[:bp.row_groups[0] - s]
    u_and_p = [bp.basis.col(j) for j in range(k)] + \
        [[int(i == a) for i in range(n)] for a in range(p)]
    v = Subspace.span(n, u_and_p + lifted)
    assert v.dim == k + p - s
    return True, AmbientWitness(v, _grown_image(bp, xi.l_block, 1, t))


def _pure_q_coords(bp: BasePoint, vec) -> list:
    coords = solve(bp.basis, list(vec))
    off = bp.setup.k + bp.col_groups[0] + bp.col_groups[1]
    return coords[off:off + bp.col_groups[2]]


def ambient_witness_satisfies_Z(xi: ConormalVector, s: int, t: int,
                                wit: AmbientWitness) -> bool:
    bp = xi.base
    return (_holds_image(bp, xi.h_block, 0, s, wit.v)
            and _holds_image(bp, xi.l_block, 1, t, wit.w))


def ambient_witness_satisfies_Ztilde(xi: ConormalVector, s: int, t: int,
                                     wit: AmbientWitness) -> bool:
    bp = xi.base
    setup = bp.setup
    n, k, p = setup.n, setup.k, setup.p
    if wit.v.dim != k + p - s:
        return False
    cp = Subspace.span(n, [[int(i == a) for i in range(n)] for a in range(p)])
    if not (wit.v.contains(base_plane(bp)) and wit.v.contains(cp)):
        return False
    # h must vanish identically on V
    h = xi.h_block
    for j in range(wit.v.dim):
        coords = _pure_q_coords(bp, wit.v.basis.col(j))
        for r in range(h.nrows):
            if sum(h[r, c] * coords[c] for c in range(h.ncols)) != 0:
                return False
    return _holds_image(bp, xi.l_block, 1, t, wit.w)


def lift_witness(xi: ConormalVector, kind: ResolutionKind, wit: Witness) -> AmbientWitness:
    """A block-coordinate witness as subspaces of C^n, through the adapted basis."""
    bp = xi.base
    n, k, p = bp.setup.n, bp.setup.k, bp.setup.p
    w = Subspace.span(n, _ambient_columns(bp, wit.w, _group_vectors(bp, 1)))
    if kind == ResolutionKind.Z:
        v = _ambient_columns(bp, wit.v, _group_vectors(bp, 0))
        return AmbientWitness(Subspace.span(n, v), w)
    q_vectors = [bp.basis.col(k + c) for c in block_ranges(bp)[1][2]]
    u_and_p = [bp.basis.col(j) for j in range(k)] + \
        [[int(i == a) for i in range(n)] for a in range(p)]
    return AmbientWitness(Subspace.span(n, u_and_p + _ambient_columns(bp, wit.v, q_vectors)), w)


# per resolution: the package's membership and check, then the ambient ones
WITNESS_ROUTES = {
    ResolutionKind.Z: (resolutions.kernel_membership_Z, resolutions.witness_satisfies_Z,
                       ambient_membership_Z, ambient_witness_satisfies_Z),
    ResolutionKind.ZTILDE: (resolutions.kernel_membership_Ztilde,
                            resolutions.witness_satisfies_Ztilde,
                            ambient_membership_Ztilde, ambient_witness_satisfies_Ztilde),
}


# ---------------------------------------------------------------------------
# resolution fibers

def fiber_dimension(work: Setup, kind: ResolutionKind, tgt, strat) -> int:
    """The closed-form fiber dimension over strat below tgt, on a normalized setup's labels."""
    if kind == ResolutionKind.ZI:
        return tgt.i * (strat.i - tgt.i)
    s, t = tgt.s, tgt.t
    sp, tp = strat.s, strat.t
    if kind == ResolutionKind.Z:
        return s * (sp - s) + t * (tp - t)
    n, k, p = work.n, work.k, work.p
    return (sp - s) * (n - k - p + s) + t * (tp - t)

