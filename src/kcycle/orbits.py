"""K-orbits on the Grassmannian Gr(k, n) for three symmetric pairs.

Supported groups K acting on Gr(k, C^n):

  * GLpq:  GL(p) x GL(q) for a fixed splitting C^n = C^p (+) C^q;
    orbits are cut out by the intersection dimensions
    s = dim(U cap C^p), t = dim(U cap C^q).
  * Sp:    Sp(n) preserving a symplectic form; orbits are cut out by
    i = dim rad(U), the radical of the restricted form, with i = k (mod 2).
  * SO:    SO(n) preserving a symmetric form; orbits are cut out by
    i = dim rad(U), except that when n = 2k the totally isotropic
    locus splits into two closed orbits (the two ruling families).

The kinds fall into two families, and each family's geometry is stated
once, in a Family record: INTERSECTION for GLpq, RADICAL for Sp and SO.
family(setup) picks it; the functions below dispatch to it once per
call, and other modules read it instead of branching on the kind.

The module provides orbit enumeration, closure posets, explicit base
points with adapted bases, and the normalization of a setup: a second
setup, reached by swapping the summands or passing to annihilators /
orthogonal complements, and the map of labels onto it.  An
adapted basis B is written from its column supports, e_a or e_a + e_b;
B^-1 is read off the same supports, which proves B invertible.

The invariant form of Sp/SO is the signed antidiagonal J with
J[a, n-1-a] = form_sign(kind, n, a), +1 on the first half and the sign
of the form's flavor (J^T = +-J) on the second.  Everything
form-related is derived from those signs without a dense product:
Gram matrices, the parity of radical sizes, the split labels and the
closed-form basis of Lie(K).  Lie(K) is stored by the nonzero
entries of its basis elements.  The image of the action differential
at a base point is built from them as one {column: value} dict of
nonzeros per element, multiplying only the nonzeros of the adapted
basis and its inverse, read off their entries, for all three kinds.
Its rank is the orbit dimension.  That image is very sparse (0.24 %
nonzeros on so(30,15)), and its nonzero pattern splits into connected
components of a few cells, so orbit_dimension joins columns by a
union-find and sums the components' ranks; only a component with at
least two rows and two columns is eliminated.

Orbit labels of a k-plane U are read off ranks of one n x k frame u
of rank k.  Since u x lies in a coordinate subspace exactly when the
other rows of u annihilate x, dim(U cap C^p) = k - rank(rows p..n-1
of u), dim(U cap C^q) = k - rank(rows 0..p-1), and the ruling family
of a maximal isotropic is the parity of rank(rows k..n-1).  No
subspace is spanned or intersected.
"""

from __future__ import annotations

import re
import sys
import zlib
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .exactla import QMatrix, rank
from .matrixstrata import Flavor, flavor_sign


class Kind(str, Enum):
    GLPQ = "glpq"
    SP = "sp"
    SO = "so"


class _SetupFields(NamedTuple):
    kind: Kind
    n: int
    k: int
    p: Optional[int] = None
    q: Optional[int] = None


class Setup(_SetupFields):
    """A symmetric pair acting on Gr(k, n), checked when it is built.

    A NamedTuple whose checks run in __new__, on positional and keyword
    construction alike; _make and _replace skip them.
    """

    __slots__ = ()

    def __new__(cls, kind: Kind, n: int, k: int, p: Optional[int] = None,
                q: Optional[int] = None) -> "Setup":
        if not isinstance(kind, Kind):
            raise ValueError(f"not a setup kind: {kind!r}")
        for value in (n, k, *(v for v in (p, q) if v is not None)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"setup sizes are ints, got {value!r}")
        if n > sys.maxsize:
            # vectors of length n are lists, which no index-sized int can address
            raise ValueError(f"need n <= {sys.maxsize}, got n={n}")
        if not (1 <= k <= n - 1):
            raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
        if kind == Kind.GLPQ:
            if p is None or q is None:
                raise ValueError("GLpq setup needs p and q")
            if p < 1 or q < 1 or p + q != n:
                raise ValueError(f"need p,q >= 1 with p+q=n, got p={p}, q={q}, n={n}")
        else:
            if p is not None or q is not None:
                raise ValueError(f"{kind.value} setup takes no p,q")
            if kind == Kind.SP and n % 2 != 0:
                raise ValueError("Sp needs n even")
        return tuple.__new__(cls, (kind, n, k, p, q))

    @property
    def dim_gr(self) -> int:
        return self.k * (self.n - self.k)

    def describe(self) -> str:
        if self.kind == Kind.GLPQ:
            return f"glpq(n={self.n},k={self.k},p={self.p},q={self.q})"
        return f"{self.kind.value}(n={self.n},k={self.k})"


class OrbitLabel:
    """Mixin of the two orbit labels, each a NamedTuple of its fields and a tag.

    IntersectionOrbit labels the GLpq orbits, RadicalOrbit the Sp/SO
    orbits; a split orbit of SO at n = 2k is a RadicalOrbit whose sign
    names its ruling family.  A label class subclasses this and a
    NamedTuple whose last field, tag, is the crc32 of the class name.
    The tuple gives equality, hashing, immutability, copy and pickle;
    the tag keeps IntersectionOrbit(1, 0) and RadicalOrbit(1, 0)
    unequal, so apart in dicts and lru_caches, and, unlike a str hash,
    it hashes the same in every process.  A caller, copy and pickle
    give the fields only: __new__ adds the class's tag, and passing one
    raises TypeError.  valid_orbit refuses a label with another tag,
    which only _make or _replace can build, and the label caches are
    typed, so that neither it nor an equal plain tuple meets a cached
    label.  This class also gives the repr without the tag,
    RadicalOrbit(i=1, sign=0), and no order: <, <=, > and >= raise
    TypeError, within one class too.  Package code reads label fields
    by name only.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named):
        return super().__new__(cls, *fields, **named, tag=cls._field_defaults["tag"])

    def __getnewargs__(self):
        return tuple(self)[:-1]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields[:-1])
        return f"{self.__class__.__qualname__}({fields})"

    def __lt__(self, other):
        raise TypeError(f"orbit labels do not order: {self!r}, {other!r}")

    __le__ = __gt__ = __ge__ = __lt__


class _IntersectionFields(NamedTuple):
    s: int
    t: int
    tag: int = zlib.crc32(b"IntersectionOrbit")


class IntersectionOrbit(OrbitLabel, _IntersectionFields):
    """GLpq orbit: dim(U cap C^p) = s, dim(U cap C^q) = t."""

    __slots__ = ()


class _RadicalFields(NamedTuple):
    i: int
    sign: int = 0
    tag: int = zlib.crc32(b"RadicalOrbit")


class RadicalOrbit(OrbitLabel, _RadicalFields):
    """Sp/SO orbit: dim rad(U) = i, with sign 0 except on the split orbits.

    For SO at n = 2k the maximal isotropics, i = k, form two closed
    orbits, one per ruling family, RadicalOrbit(k, +1) and
    RadicalOrbit(k, -1).  Sign +1 is the family of the reference point
    span{e_1,...,e_k}; sign -1 the family of its image under the
    reflection swapping e_{n/2} and e_{n/2+1}.
    """

    __slots__ = ()


class Family(NamedTuple):
    """The geometry of one family of setup kinds.

    Callables take valid labels of the setup, except that valid and text
    take any label of the family's class.
    """

    label: type            # the label class
    forms: tuple           # (kind, flavor of its invariant form) for each kind with a form
    suites: frozenset      # the verify suites with rows; a suite's route refuses other families
    valid: Callable        # (setup, label) -> bool
    orbits: Callable       # setup -> every label, open orbit first
    text: Callable         # (setup, label) -> str
    parse: Callable        # (setup, text) -> label, or None for text of another family
    leq: Callable          # (setup, a, b) -> whether orbit a lies in the closure of orbit b
    split_labels: Callable  # setup -> the labels that share one radical size, SO at n = 2k
    base_columns: Callable  # (setup, label) -> (column supports, row_groups, col_groups)
    classify: Callable     # (setup, n x k frame of rank k) -> label
    lie_basis: Callable    # setup -> the basis of Lie(K), as in lie_algebra_basis
    normalize: Callable    # setup -> the normalized Setup
    relabel: Callable      # (NormalizedSetup, label of its original) -> label of its setup


def family(setup: Setup) -> Family:
    """The family of the setup's kind."""
    return _FAMILIES[setup.kind]


def valid_orbit(setup: Setup, orbit) -> bool:
    """True when the label denotes a non-empty orbit of this setup."""
    fam = _FAMILIES[setup.kind]
    return (orbit.__class__ is fam.label and orbit.tag == orbit._field_defaults["tag"]
            and fam.valid(setup, orbit))


def check_orbit(setup: Setup, orbit) -> None:
    if not valid_orbit(setup, orbit):
        raise ValueError(f"{format_orbit(setup, orbit)} is not a (non-empty) orbit of {setup.describe()}")


def enumerate_orbits(setup: Setup) -> list:
    """All non-empty orbits, open orbit first, deterministic order."""
    return _FAMILIES[setup.kind].orbits(setup)


def format_orbit(setup: Setup, orbit) -> str:
    """The label's text, by the family of its class, so that any setup's message can name it."""
    fam = _BY_LABEL.get(orbit.__class__)
    if fam is None:
        raise ValueError(f"not an orbit label: {orbit!r}")
    return fam.text(setup, orbit)


def parse_orbit(setup: Setup, text: str):
    text = text.strip()
    for fam in _FAMILY_LIST:
        orbit = fam.parse(setup, text)
        if orbit is not None:
            check_orbit(setup, orbit)
            return orbit
    raise ValueError(f"cannot parse orbit label: {text!r}")


# ---------------------------------------------------------------------------
# normalization

class NormalizedSetup(NamedTuple):
    """A setup and its normalized setup, which fix the map of labels between them.

    GLpq is brought to p >= q and k <= n-k; Sp/SO to k >= n-k.  The map
    runs one way, from original to setup: a swap of the summands where p
    moved, then a duality where k moved.  A map back is the inverse of
    to_normalized over enumerate_orbits(original).
    """

    original: Setup
    setup: Setup

    def to_normalized(self, orbit):
        """The orbit's label on the normalized setup.

        Only the given label is checked: the map is a bijection of valid labels.
        """
        check_orbit(self.original, orbit)
        return _FAMILIES[self.setup.kind].relabel(self, orbit)


def normalize(setup: Setup) -> NormalizedSetup:
    return NormalizedSetup(setup, _FAMILIES[setup.kind].normalize(setup))


# ---------------------------------------------------------------------------
# closure order and poset

class ClosurePoset:
    """Closure order on the orbit set, with dimensions and covers."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self.orbits = enumerate_orbits(setup)
        self.dimension = {o: orbit_dimension(setup, o) for o in self.orbits}
        self._leq = family(setup).leq

    def leq(self, a, b) -> bool:
        return self._leq(self.setup, a, b)

    def codim(self, orbit) -> int:
        return self.setup.dim_gr - self.dimension[orbit]

    def covers(self) -> list:
        """Pairs (lower, upper): lower maximal among orbits strictly below upper."""
        out = []
        for b in self.orbits:
            below = [a for a in self.orbits if a != b and self.leq(a, b)]
            for a in below:
                if not any(c != a and c != b and self.leq(a, c) and self.leq(c, b) for c in below):
                    out.append((a, b))
        return out


# ---------------------------------------------------------------------------
# bilinear forms and base points

def form_flavor(kind: Kind) -> Flavor:
    """The symmetry of the invariant form, hence of every Gram matrix."""
    for form_kind, flavor in _FAMILIES[kind].forms:
        if form_kind == kind:
            return flavor
    raise ValueError("no invariant form for a splitting-type setup")


def form_sign(kind: Kind, n: int, a: int) -> int:
    """The sign eps_a = J[a, n-1-a] of the invariant form, as the module docstring gives it."""
    sign = flavor_sign(form_flavor(kind))
    return 1 if a < n // 2 else sign


def is_split_setup(setup: Setup) -> bool:
    """The maximal isotropic planes of a symmetric form at n = 2k fall into two families."""
    return setup.n == 2 * setup.k and (setup.kind, Flavor.SYMMETRIC) in family(setup).forms


def gram_matrix(setup: Setup, u: QMatrix) -> QMatrix:
    """Restriction of the form to the columns of u.

    Entry (x, y) is the sum over a of eps_a * u[a, x] * u[n-1-a, y].
    Each row's nonzero (column, value) pairs are collected once, and
    each a multiplies only the nonzeros of row a by those of row n-1-a.
    """
    n, k, e = u.nrows, u.ncols, u.entries
    nonzero = [[(x, v) for x, v in enumerate(e[a * k:(a + 1) * k]) if v]
               for a in range(n)]
    out = [0] * (k * k)
    for a, row in enumerate(nonzero):
        partner = nonzero[n - 1 - a]
        if not partner:
            continue
        eps = form_sign(setup.kind, n, a)
        for x, v in row:
            v *= eps
            x *= k
            for y, w in partner:
                out[x + y] += v * w
    return QMatrix.from_flat(k, k, out)


class BasePoint(NamedTuple):
    """A marked point of an orbit with an adapted basis of C^n.

    The first k columns of `basis` span U, and `inverse` is B^-1, read
    off the column supports that base_point builds B from.  `row_groups`
    partitions those k columns (GLpq: the C^p part, the C^q part, the
    mixed part; Sp/SO: the radical, then the rest).  `col_groups`
    partitions the n-k complement columns (GLpq: inside C^p, the overlap
    block, inside C^q; Sp/SO: a single block).
    """

    setup: Setup
    orbit: OrbitLabel
    basis: QMatrix
    inverse: QMatrix
    row_groups: tuple
    col_groups: tuple

    @property
    def u_matrix(self) -> QMatrix:
        n, k = self.setup.n, self.setup.k
        return self.basis.submatrix(range(n), range(k))


def _adapted_inverse(n: int, supports) -> QMatrix:
    """B^-1 of the basis of C^n whose column j has a 1 at each row of supports[j].

    Every column of B is a unit vector e_b or a sum e_a + e_b of two
    units one of which, e_b, is itself a column.  So e_r is column j
    when e_r is a column, and otherwise e_r = B e_j - B e_j' for the sum
    column j = e_r + e_b and the unit column j' = e_b.  Reading each of
    the n unit vectors this way exactly once proves B invertible; else
    AssertionError is raised explicitly, so that python -O keeps the proof.
    """
    unit = {s[0]: j for j, s in enumerate(supports) if len(s) == 1}
    read = set(unit)  # the r whose e_r is read off
    inv = [[0] * n for _ in supports]  # inv[j][r] = B^-1[j, r]
    for r, j in unit.items():
        inv[j][r] = 1
    for j, support in enumerate(supports):
        if len(support) == 2:
            free = [r for r in support if r not in unit]
            if len(free) != 1:
                raise AssertionError(f"adapted basis must be invertible: column {j} is "
                                     "e_a + e_b, but not exactly one of e_a, e_b is a column")
            r = free[0]
            inv[j][r], inv[unit[sum(support) - r]][r] = 1, -1  # e_b is the other unit
            read.add(r)
    if len(supports) != n or len(read) != n:
        raise AssertionError(f"adapted basis must be invertible: its {len(supports)} "
                             f"columns give {len(read)} of the {n} unit vectors")
    return QMatrix(n, n, tuple([v for row in inv for v in row]))


@lru_cache(maxsize=None, typed=True)
def base_point(setup: Setup, orbit) -> BasePoint:
    check_orbit(setup, orbit)
    n = setup.n
    # B's rows are allocated before its supports are listed, so that an n
    # that no list can hold raises MemoryError at once, not after filling memory
    rows = [[0] * n for _ in range(n)]
    supports, rg, cg = _FAMILIES[setup.kind].base_columns(setup, orbit)
    for j, support in enumerate(supports):
        for r in support:
            rows[r][j] = 1
    basis = QMatrix(n, n, tuple([v for row in rows for v in row]))
    bp = BasePoint(setup, orbit, basis, _adapted_inverse(n, supports), rg, cg)
    # an explicit raise, not an assert, so that python -O keeps the self-check
    got = orbit_of(setup, bp.u_matrix)
    if got != orbit:
        raise AssertionError(f"constructed point sits on {got}, wanted {orbit}")
    return bp


# ---------------------------------------------------------------------------
# classifying arbitrary points

def orbit_of(setup: Setup, u: QMatrix):
    """The orbit label of the k-plane spanned by u, an n x k frame of rank k.

    The label is read off ranks of blocks of u, as the module docstring says.
    """
    n, k = setup.n, setup.k
    if u.nrows != n or u.ncols != k or rank(u) != k:
        raise ValueError(f"a frame for {setup.describe()} must be {n} x {k} of rank {k}, "
                         f"got {u.nrows} x {u.ncols}")
    return _FAMILIES[setup.kind].classify(setup, u)


def split_family(setup: Setup, u: QMatrix) -> int:
    """Which ruling family the maximal isotropic spanned by u belongs to (+1 or -1).

    The family is the parity of k - dim(U cap span(e_0..e_{k-1})), and
    for a frame u of rank k that intersection has dimension
    k - rank(rows k..n-1 of u).
    """
    n, k = setup.n, setup.k
    return +1 if rank(u.submatrix(range(k, n), range(k))) % 2 == 0 else -1


# ---------------------------------------------------------------------------
# orbit dimension via the action differential

@lru_cache(maxsize=None)
def lie_algebra_basis(setup: Setup) -> tuple:
    """Basis of Lie(K) acting on C^n, each element as its nonzero entries.

    An element is a tuple of (row, col, value) triples.  For GLpq it is
    the single unit entry of E_ab.  For Sp/SO, X^T J + J X = 0 ties entry
    (a, b) to entry (n-1-b, n-1-a) with coefficient -eps_a * eps_b, so
    each such pair spans one element; a self-paired entry (a + b = n-1)
    is tied to itself, so it stands alone where that coefficient is +1
    (Sp) and is forced to zero where it is -1 (SO).  The elements have
    disjoint supports, hence are independent.
    """
    return _FAMILIES[setup.kind].lie_basis(setup)


def _action_rows(setup: Setup, orbit) -> list:
    """Image of Lie(K) in the tangent space at the orbit's base point.

    One {column: value} dict of nonzeros per element x of
    lie_algebra_basis.  Column j * (n-k) + c is entry (j, c) of the
    k x (n-k) chart matrix of x . u_j: the c-th complement coordinate in
    the adapted basis B, i.e. the sum of value * B^-1[k+c, a] * B[b, j]
    over the entries (a, b) of x.  Only nonzero factors are multiplied:
    those of row b of B among the first k columns, and those of column
    a of B^-1 among the last n-k rows.
    """
    bp = base_point(setup, orbit)
    n, k = setup.n, setup.k
    nk = n - k
    e, inv = bp.basis.entries, bp.inverse.entries
    u_part = [[(j * nk, v) for j, v in enumerate(e[b * n:b * n + k]) if v] for b in range(n)]
    comp_part = [[(c, v) for c, v in enumerate(inv[k * n + a::n]) if v] for a in range(n)]
    rows = []
    for x in lie_algebra_basis(setup):
        row = {}
        for a, b, v in x:
            us, ws = u_part[b], comp_part[a]
            if us and ws:
                for offset, ub in us:
                    for c, w in ws:
                        row[offset + c] = row.get(offset + c, 0) + v * w * ub
        rows.append({col: val for col, val in row.items() if val})
    return rows


def _components(rows: list) -> list:
    """The blocks of a sparse matrix on the connected components of its columns.

    Two columns are joined when some row has a nonzero in both (a
    union-find over the nonzero pattern).  Each block lists, as
    {column: value} dicts, the rows' entries in one component; once the
    columns are joined, every row lies in a single block.  Every row
    must have a nonzero.
    """
    parent = {}

    def find(c):
        while parent.setdefault(c, c) != c:
            parent[c] = c = parent[parent[c]]
        return c

    for row in rows:
        cols = iter(row)
        top = find(next(cols))
        for c in cols:
            other = find(c)
            if other != top:
                parent[other] = top
    blocks = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            blocks.setdefault(find(c), {}).setdefault(r, {})[c] = v
    return [list(block.values()) for block in blocks.values()]


@lru_cache(maxsize=None, typed=True)
def orbit_dimension(setup: Setup, orbit) -> int:
    """Rank of the action image, summed over its connected components.

    Permuted to its components, the image is block diagonal, so its rank
    is the sum of the blocks' ranks.  A block with one row or one column
    has rank 1; any other is ranked by exactla.rank.  The int is cached;
    the rows are not, since keeping them per orbit raises peak memory
    for no reuse.
    """
    dim = 0
    for block in _components([row for row in _action_rows(setup, orbit) if row]):
        cols = sorted({c for row in block for c in row})
        if len(block) == 1 or len(cols) == 1:
            dim += 1
        else:
            dim += rank(QMatrix.from_flat(len(block), len(cols),
                                          [row.get(c, 0) for row in block for c in cols]))
    return dim


# ---------------------------------------------------------------------------
# the intersection family: GLpq, labels q(s,t)

def _intersection_valid(setup: Setup, orbit) -> bool:
    k, s, t = setup.k, orbit.s, orbit.t
    # k-t <= p and k-s <= q make the mixed part fit in both summands
    return s >= 0 and t >= 0 and s + t <= k and k - t <= setup.p and k - s <= setup.q


def _intersection_orbits(setup: Setup) -> list:
    k, p, q = setup.k, setup.p, setup.q
    out = [IntersectionOrbit(s, t) for s in range(max(0, k - q), min(k, p) + 1)
           for t in range(max(0, k - p), k - s + 1)]
    out.sort(key=lambda o: (o.s + o.t, o.s))
    return out


def _intersection_normalize(setup: Setup) -> Setup:
    """p >= q by swapping the summands, then k <= n-k by passing to annihilators."""
    n, k, p, q = setup.n, setup.k, setup.p, setup.q
    return Setup(setup.kind, n, min(k, n - k), p=max(p, q), q=min(p, q))


def _intersection_relabel(norm: NormalizedSetup, orbit):
    """Swapping the summands swaps s and t; in the (p, q, k) setup Ann(U) is q(p-k+t, q-k+s)."""
    work, original = norm.setup, norm.original
    s, t = orbit.s, orbit.t
    if work.p != original.p:
        s, t = t, s
    if work.k != original.k:
        s, t = work.p - original.k + t, work.q - original.k + s
    return IntersectionOrbit(s, t)


# The *_base_columns functions give each adapted basis column as its
# support, the rows of its 1s: e_a or e_a + e_b.  The first k span U.

def _glpq_base_columns(setup: Setup, orbit: IntersectionOrbit):
    n, k, p, q = setup.n, setup.k, setup.p, setup.q
    s, t = orbit.s, orbit.t
    m = k - s - t
    cols = [(a,) for a in range(s)]
    cols += [(p + b,) for b in range(t)]
    cols += [(s + j, p + t + j) for j in range(m)]
    cols += [(a,) for a in range(k - t, p)]          # pure p, count p-k+t
    cols += [(a,) for a in range(s, k - t)]          # overlap, count m
    cols += [(a,) for a in range(p + k - s, n)]      # pure q, count q-k+s
    return cols, (s, t, m), (p - k + t, m, q - k + s)


def _intersection_classify(setup: Setup, u: QMatrix):
    n, k, p = setup.n, setup.k, setup.p
    return IntersectionOrbit(k - rank(u.submatrix(range(p, n), range(k))),
                             k - rank(u.submatrix(range(p), range(k))))


def _intersection_lie_basis(setup: Setup) -> tuple:
    """The unit entries E_ab of gl(p) + gl(q)."""
    blocks = (range(setup.p), range(setup.p, setup.n))
    return tuple(((a, b, 1),) for block in blocks for a in block for b in block)


# a label's numbers are ASCII numerals without leading zeros, as format_orbit
# writes them: q(01,1), or a label with another script's digit, is no label
_NUMERAL = "0|[1-9][0-9]*"
_Q_RE = re.compile(rf"q\(({_NUMERAL}),({_NUMERAL})\)")

INTERSECTION = Family(
    label=IntersectionOrbit, forms=(), suites=frozenset({"microlocal", "smallness"}),
    valid=_intersection_valid, orbits=_intersection_orbits,
    text=lambda setup, orbit: f"q({orbit.s},{orbit.t})",
    parse=lambda setup, text: (m := _Q_RE.fullmatch(text)) and IntersectionOrbit(int(m[1]), int(m[2])),
    leq=lambda setup, a, b: a.s >= b.s and a.t >= b.t, split_labels=lambda setup: (),
    base_columns=_glpq_base_columns, classify=_intersection_classify,
    lie_basis=_intersection_lie_basis, normalize=_intersection_normalize,
    relabel=_intersection_relabel,
)


# ---------------------------------------------------------------------------
# the radical family: Sp and SO, labels rad{i}, and rad{k}+ / rad{k}- for SO at n = 2k

def _radical_valid(setup: Setup, orbit) -> bool:
    n, k, i = setup.n, setup.k, orbit.i
    if not (0 <= i <= min(k, n - k)):
        return False
    if (k - i) % 2 and form_flavor(setup.kind) == Flavor.SKEW:
        return False  # a skew Gram matrix has even rank k - i
    # only the maximal isotropics of a split setup carry a ruling family's sign
    return orbit.sign in ((+1, -1) if i == k and is_split_setup(setup) else (0,))


def _radical_orbits(setup: Setup) -> list:
    n, k = setup.n, setup.k
    step = 2 if form_flavor(setup.kind) == Flavor.SKEW else 1  # k - i is even on a skew form
    out = [RadicalOrbit(i) for i in range(k % step, min(k, n - k) + 1, step)]
    split = RADICAL.split_labels(setup)
    return out[:-1] + list(split) if split else out


def _radical_text(setup: Setup, orbit) -> str:
    return f"rad{orbit.i}{'+' if orbit.sign > 0 else '-' if orbit.sign < 0 else ''}"


_RAD_RE = re.compile(rf"rad({_NUMERAL})([+-]?)")
_SIGNS = {"": 0, "+": +1, "-": -1}


def _radical_parse(setup: Setup, text: str):
    m = _RAD_RE.fullmatch(text)
    return m and RadicalOrbit(int(m[1]), _SIGNS[m[2]])


def _radical_base_columns(setup: Setup, orbit):
    n, k, i = setup.n, setup.k, orbit.i
    f = (k - i) // 2
    cols = [(a,) for a in range(i)] + [(b,) for a in range(i, i + f) for b in (a, n - 1 - a)]
    if (k - i) % 2:
        a = i + f  # n odd: the middle unit; n even: the anisotropic e_a + e_{n-1-a}
        cols.append(((n - 1) // 2,) if n % 2 else (a, n - 1 - a))
    # a sum column uses up its first row only: e_{n-1-a} joins the complement
    used = {col[0] for col in cols}
    cols += [(a,) for a in range(n) if a not in used]
    if orbit.sign < 0:  # the reflection swaps U's last column e_{n/2} and e_{n/2+1}
        cols[k - 1], cols[k] = cols[k], cols[k - 1]
    return cols, (i, k - i), (n - k,)


def _radical_classify(setup: Setup, u: QMatrix):
    i = setup.k - rank(gram_matrix(setup, u))
    split = i == setup.k and is_split_setup(setup)
    return RadicalOrbit(i, split_family(setup, u) if split else 0)


def _radical_lie_basis(setup: Setup) -> tuple:
    n = setup.n
    eps = [form_sign(setup.kind, n, a) for a in range(n)]
    out = []
    for a in range(n):
        for b in range(n):
            pa, pb = n - 1 - b, n - 1 - a
            if (a, b) < (pa, pb):
                out.append(((a, b, 1), (pa, pb, -eps[a] * eps[b])))
            elif (a, b) == (pa, pb) and eps[a] * eps[b] == -1:
                out.append(((a, b, 1),))
    return tuple(out)


def _radical_normalize(setup: Setup) -> Setup:
    """k >= n-k by passing to orthogonal complements; the split setups are already there."""
    return Setup(setup.kind, setup.n, max(setup.k, setup.n - setup.k))


RADICAL = Family(
    label=RadicalOrbit, forms=((Kind.SP, Flavor.SKEW), (Kind.SO, Flavor.SYMMETRIC)),
    suites=frozenset({"crosscheck", "smallness", "transversality"}),
    valid=_radical_valid, orbits=_radical_orbits, text=_radical_text, parse=_radical_parse,
    leq=lambda setup, a, b: a == b if b.sign else a.i >= b.i,  # split orbits are closed
    split_labels=lambda setup: ((RadicalOrbit(setup.k, +1), RadicalOrbit(setup.k, -1))
                                if is_split_setup(setup) else ()),
    base_columns=_radical_base_columns, classify=_radical_classify, lie_basis=_radical_lie_basis,
    normalize=_radical_normalize,
    relabel=lambda norm, orbit: orbit,  # rad(U^perp) = rad(U)
)

_FAMILY_LIST = (INTERSECTION, RADICAL)
_FAMILIES = {Kind.GLPQ: INTERSECTION, Kind.SP: RADICAL, Kind.SO: RADICAL}
_BY_LABEL = {fam.label: fam for fam in _FAMILY_LIST}
