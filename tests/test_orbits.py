import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from kcycle import orbits
from kcycle.degeneracy import form_flavor
from kcycle.exactla import QMatrix, SeedStream, rank
from kcycle.orbits import (
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    base_point,
    enumerate_orbits,
    format_orbit,
    gram_matrix,
    lie_algebra_basis,
    normalize,
    orbit_dimension,
    orbit_of,
    parse_orbit,
    split_family,
    valid_orbit,
)
from reference import (
    Subspace,
    action_image,
    add,
    annihilator,
    base_plane,
    dense_basis,
    form_matrix,
    glpq,
    identity,
    inverse,
    is_flavored,
    open_orbit,
    orbit_of_by_intersection,
    perp,
    randint,
    random_matrix,
    setups,
    split_family_by_intersection,
    split_reference,
)


SWEEP = [
    glpq(4, 2, 2, 2),
    glpq(5, 2, 3, 2),
    glpq(5, 3, 3, 2),
    glpq(6, 2, 3, 3),
    glpq(6, 3, 4, 2),
    glpq(6, 3, 5, 1),
    glpq(7, 3, 4, 3),
    Setup(Kind.SP, 4, 2),
    Setup(Kind.SP, 6, 2),
    Setup(Kind.SP, 6, 4),
    Setup(Kind.SP, 8, 4),
    Setup(Kind.SO, 4, 2),
    Setup(Kind.SO, 5, 2),
    Setup(Kind.SO, 6, 3),
    Setup(Kind.SO, 7, 3),
    Setup(Kind.SO, 7, 5),
    Setup(Kind.SO, 8, 4),
    Setup(Kind.SO, 8, 5),
]


def test_setup_validation():
    with pytest.raises(ValueError):
        Setup(Kind.GLPQ, 5, 2, p=2, q=2)
    with pytest.raises(ValueError):
        Setup(Kind.SP, 5, 2)
    with pytest.raises(ValueError):
        Setup(Kind.SO, 4, 0)
    with pytest.raises(ValueError):
        Setup(Kind.SO, 4, 2, p=2, q=2)


def test_enumerate_examples():
    got = set(enumerate_orbits(glpq(4, 2, 2, 2)))
    want = {IntersectionOrbit(s, t) for s, t in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]}
    assert got == want
    assert enumerate_orbits(Setup(Kind.SP, 4, 2)) == [RadicalOrbit(0), RadicalOrbit(2)]
    assert enumerate_orbits(Setup(Kind.SO, 4, 2)) == [
        RadicalOrbit(0), RadicalOrbit(1), SplitOrbit(+1), SplitOrbit(-1)]


def test_enumerate_counts_in_generic_range():
    # closed-form counts hold whenever no label is forced empty
    for n, k, p, q in [(6, 2, 3, 3), (7, 3, 4, 3), (8, 3, 4, 4)]:
        assert k <= min(p, q)
        assert len(enumerate_orbits(glpq(n, k, p, q))) == (k + 1) * (k + 2) // 2
    for n, k in [(6, 2), (8, 2), (8, 4)]:
        assert len(enumerate_orbits(Setup(Kind.SP, n, k))) == k // 2 + 1
    for n, k in [(6, 2), (7, 3), (9, 4)]:
        assert len(enumerate_orbits(Setup(Kind.SO, n, k))) == k + 1
    assert len(enumerate_orbits(Setup(Kind.SO, 8, 4))) == 4 + 2


def test_enumerate_degenerate_ranges():
    # labels that would have empty intersections/radicals are not listed
    got = set(enumerate_orbits(glpq(6, 3, 5, 1)))
    assert got == {IntersectionOrbit(2, 0), IntersectionOrbit(3, 0), IntersectionOrbit(2, 1)}
    assert enumerate_orbits(Setup(Kind.SP, 6, 4)) == [RadicalOrbit(0), RadicalOrbit(2)]
    assert enumerate_orbits(Setup(Kind.SO, 7, 5)) == [RadicalOrbit(i) for i in range(3)]
    assert not valid_orbit(Setup(Kind.SP, 6, 4), RadicalOrbit(4))
    assert not valid_orbit(glpq(6, 3, 5, 1), IntersectionOrbit(0, 0))


def test_orbit_labels_round_trip():
    for setup in setups(8):
        for orbit in enumerate_orbits(setup):
            assert parse_orbit(setup, format_orbit(setup, orbit)) == orbit
    # a label's numbers are canonical ASCII numerals, so each label has one spelling
    for setup, text in ((glpq(5, 2, 3, 2), "q(01,1)"), (glpq(5, 2, 3, 2), "q(1,\u0661)"),
                        (Setup(Kind.SO, 8, 4), "rad\u0663"), (Setup(Kind.SO, 8, 4), "rad03")):
        with pytest.raises(ValueError, match="cannot parse orbit label"):
            parse_orbit(setup, text)
    s = Setup(Kind.SO, 8, 4)
    assert format_orbit(s, SplitOrbit(+1)) == "rad4+"
    assert parse_orbit(s, "rad4-") == SplitOrbit(-1)
    with pytest.raises(ValueError):
        parse_orbit(s, "rad9")
    with pytest.raises(ValueError):
        parse_orbit(glpq(4, 2, 2, 2), "q(9,0)")


def test_normalize_directions():
    norm = normalize(glpq(6, 2, 3, 3))
    assert norm.setup == norm.original and not norm.swapped_pq and not norm.dualized
    norm = normalize(glpq(6, 4, 3, 3))
    assert norm.dualized and norm.setup.k == 2
    norm = normalize(glpq(6, 2, 2, 4))
    assert norm.swapped_pq and norm.setup.p == 4 and norm.setup.q == 2
    # Sp/SO standardize to k >= n-k, the opposite direction
    norm = normalize(Setup(Kind.SO, 7, 2))
    assert norm.dualized and norm.setup.k == 5
    norm = normalize(Setup(Kind.SP, 6, 4))
    assert not norm.dualized


def test_relabel_involution_exhaustive():
    for setup in setups(8):
        norm = normalize(setup)
        orbits = enumerate_orbits(setup)
        images = [norm.to_normalized(o) for o in orbits]
        assert [norm.from_normalized(o) for o in images] == orbits
        # relabelling is a bijection onto the normalized orbit set
        assert sorted(images, key=str) == sorted(enumerate_orbits(norm.setup), key=str)


def test_glpq_duality_against_annihilators():
    # the label map under U -> Ann(U) computed from scratch at base points
    setup = glpq(5, 3, 3, 2)
    norm = normalize(setup)
    assert norm.dualized and norm.setup.k == 2
    dual_p = Subspace.span(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    dual_q = Subspace.span(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    for orbit in enumerate_orbits(setup):
        u = base_plane(base_point(setup, orbit))
        ann = annihilator(u)
        assert ann.dim == 2
        got = IntersectionOrbit(ann.intersection(dual_p).dim, ann.intersection(dual_q).dim)
        assert got == norm.to_normalized(orbit)


def test_sp_so_duality_preserves_radical():
    for setup in [Setup(Kind.SO, 6, 2), Setup(Kind.SP, 6, 2)]:
        dual = Setup(setup.kind, 6, 4)
        for orbit in enumerate_orbits(setup):
            u = base_plane(base_point(setup, orbit))
            up = perp(setup, u)
            assert up.dim == 4
            assert orbit_of(dual, up.basis) == RadicalOrbit(orbit.i)
        # perp against the dense form, on planes off the coordinate axes
        j = form_matrix(setup.kind, setup.n)
        for seed in range(3):
            u = Subspace.from_matrix(random_matrix(6, 2, seed, height_bound=5))
            up = perp(setup, u)
            assert up.dim == 4
            assert u.basis.transpose().mul(j).mul(up.basis).is_zero()


def test_duality_preserves_order_and_codim():
    for setup in [glpq(5, 3, 3, 2), glpq(6, 4, 3, 3), Setup(Kind.SO, 6, 2), Setup(Kind.SP, 6, 2)]:
        norm = normalize(setup)
        assert norm.dualized
        pos = ClosurePoset(setup)
        pos2 = ClosurePoset(norm.setup)
        for a in pos.orbits:
            for b in pos.orbits:
                assert pos.leq(a, b) == pos2.leq(norm.to_normalized(a), norm.to_normalized(b))
            assert pos.codim(a) == pos2.codim(norm.to_normalized(a))


def test_closure_order_examples():
    pos = ClosurePoset(glpq(4, 2, 2, 2))
    assert pos.leq(IntersectionOrbit(1, 1), IntersectionOrbit(0, 0))
    assert not pos.leq(IntersectionOrbit(0, 0), IntersectionOrbit(1, 1))
    pos = ClosurePoset(Setup(Kind.SP, 4, 2))
    assert pos.leq(RadicalOrbit(2), RadicalOrbit(0))
    assert not pos.leq(RadicalOrbit(0), RadicalOrbit(2))
    pos = ClosurePoset(Setup(Kind.SO, 4, 2))
    assert pos.leq(SplitOrbit(+1), RadicalOrbit(1))
    assert not pos.leq(SplitOrbit(+1), SplitOrbit(-1))
    assert not pos.leq(SplitOrbit(-1), SplitOrbit(+1))


def test_poset_structure():
    for setup in SWEEP:
        pos = ClosurePoset(setup)
        top = open_orbit(pos)
        assert pos.dimension[top] == setup.dim_gr
        for a, b in pos.covers():
            assert pos.leq(a, b) and a != b
            assert pos.dimension[a] < pos.dimension[b]
        # strict monotonicity everywhere, not only on covers
        for a in pos.orbits:
            for b in pos.orbits:
                if a != b and pos.leq(a, b):
                    assert pos.dimension[a] < pos.dimension[b]


def test_base_point_examples():
    bp = base_point(glpq(6, 2, 3, 3), IntersectionOrbit(1, 0))
    u = bp.u_matrix
    # span{e1, e2+e4}
    assert u.col(0) == tuple([1, 0, 0, 0, 0, 0])
    assert u.col(1) == tuple([0, 1, 0, 1, 0, 0])
    bp = base_point(Setup(Kind.SP, 4, 2), RadicalOrbit(2))
    g = gram_matrix(bp.setup, bp.u_matrix)
    assert g.is_zero()
    assert bp.u_matrix.col(0) == tuple([1, 0, 0, 0])


def test_gram_matrix_matches_dense():
    # the sparse Gram matrix is the dense u^T J u: on random matrices, on
    # the frames transversality samples (identity block on top, or below
    # for the opposite chart) and on those frames with their entries
    # scaled by 1 to 3, with int entries
    from kcycle.exactla import SeedStream
    from reference import random_chart_point

    for setup in [Setup(Kind.SP, 6, 3), Setup(Kind.SO, 7, 4), Setup(Kind.SO, 8, 2)]:
        j = form_matrix(setup.kind, setup.n)
        for seed in range(4):
            u = random_matrix(setup.n, 3, seed, height_bound=5)
            assert gram_matrix(setup, u) == u.transpose().mul(j).mul(u)
    rng = SeedStream(31)
    checked = 0
    for setup in [Setup(Kind.SO, 8, 4), Setup(Kind.SP, 8, 4), Setup(Kind.SO, 7, 4),
                  Setup(Kind.SP, 6, 4), Setup(Kind.SO, 6, 3)]:
        n, k = setup.n, setup.k
        j = form_matrix(setup.kind, n)
        ident = identity(k).entries
        for center_last in (False, True) if n == 2 * k else (False,):
            for _ in range(5):
                a = random_chart_point(n, k, rng, height_bound=3).a.entries
                u = QMatrix(n, k, a + ident if center_last else ident + a)
                scaled = QMatrix.from_rows(
                    [[x * (1 + (a + c) % 3) for c, x in enumerate(row)]
                     for a, row in enumerate(u.rows())])
                for m in (u, scaled):
                    g = gram_matrix(setup, m)
                    assert g == m.transpose().mul(j).mul(m)
                    assert all(type(x) is int for x in g.entries)
                    checked += 1
    # a literal: the frame of so(4,2) with rows (1,0), (1,2), (1,0), (1,0)
    frame = QMatrix.from_rows([[1, 0], [1, 2], [1, 0], [1, 0]])
    assert gram_matrix(Setup(Kind.SO, 4, 2), frame).entries == (4, 2, 2, 0)
    assert checked == 2 * 5 * 8


def test_base_point_invariants_sweep():
    for setup in SWEEP:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            # block ranks of the frame against Subspace intersections
            u = base_plane(bp)
            assert orbit_of(setup, bp.u_matrix) == orbit_of_by_intersection(setup, u) == orbit
            if isinstance(orbit, SplitOrbit):
                assert (split_family(setup, bp.u_matrix)
                        == split_family_by_intersection(setup, u) == orbit.sign)
            assert sum(bp.row_groups) == setup.k
            assert sum(bp.col_groups) == setup.n - setup.k
            assert rank(bp.basis) == setup.n


def test_split_families():
    setup = Setup(Kind.SO, 8, 4)
    plus = base_plane(base_point(setup, SplitOrbit(+1)))
    minus = base_plane(base_point(setup, SplitOrbit(-1)))
    assert split_family(setup, plus.basis) == +1
    assert split_family(setup, minus.basis) == -1
    assert plus.intersection(minus).dim == setup.k - 1
    # both totally isotropic
    for u in (plus, minus):
        assert gram_matrix(setup, u.basis).is_zero()
    assert split_reference(setup) == plus


def _random_invertible(k, rng):
    while True:
        m = QMatrix(k, k, tuple(rng.randints(k * k, -2, 2)))
        if rank(m) == k:
            return m


def _glpq_frame(setup, s, t, rng):
    """A random frame whose first s columns lie in C^p and next t in C^q, mixed."""
    n, k, p = setup.n, setup.k, setup.p
    cols = []
    for j in range(k):
        v = rng.randints(n, -2, 2)
        if j < s:
            v[p:] = [0] * (n - p)
        elif j < s + t:
            v[:p] = [0] * p
        cols.append(v)
    return QMatrix.from_cols(n, cols).mul(_random_invertible(k, rng))


def _isotropic_frame(setup, sign, rng):
    """A random maximal isotropic frame of so(2k, k) in the family of sign.

    [I; R S] with R the k x k reversal and S skew is isotropic for the
    antidiagonal form; swapping rows k-1 and k (a reflection that keeps
    the form) moves it to the other family.
    """
    k = setup.k
    skew = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            skew[a][b] = randint(rng, -2, 2)
            skew[b][a] = -skew[a][b]
    rows = identity(k).rows() + [skew[k - 1 - a] for a in range(k)]
    if sign < 0:
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
    return QMatrix.from_rows(rows).mul(_random_invertible(k, rng))


def test_orbit_of_matches_intersection_reference_off_the_axes():
    # block ranks of seeded random frames against Subspace intersections
    rng = SeedStream(13)
    for setup in [glpq(6, 3, 3, 3), glpq(7, 3, 4, 3), glpq(7, 4, 3, 4), glpq(8, 4, 5, 3)]:
        seen = set()
        for orbit in enumerate_orbits(setup):
            for _ in range(4):
                frame = _glpq_frame(setup, orbit.s, orbit.t, rng)
                plane = Subspace.from_matrix(frame)
                if plane.dim < setup.k:
                    with pytest.raises(ValueError):
                        orbit_of(setup, frame)
                    continue
                got = orbit_of(setup, frame)
                assert got == orbit_of_by_intersection(setup, plane)
                seen.add(got)
        assert seen == set(enumerate_orbits(setup))
    for setup in [Setup(Kind.SO, 6, 3), Setup(Kind.SO, 8, 4), Setup(Kind.SO, 10, 5)]:
        for sign in (+1, -1):
            for _ in range(6):
                frame = _isotropic_frame(setup, sign, rng)
                plane = Subspace.from_matrix(frame)
                assert gram_matrix(setup, frame).is_zero()
                assert split_family(setup, frame) == split_family_by_intersection(setup, plane) == sign
                assert orbit_of(setup, frame) == orbit_of_by_intersection(setup, plane) == SplitOrbit(sign)


def test_orbit_of_rejects_wrong_frames():
    # the block-rank identity holds only for an n x k frame of rank k
    for setup, orbit in [(glpq(6, 3, 3, 3), IntersectionOrbit(1, 1)),
                         (Setup(Kind.SO, 8, 4), SplitOrbit(-1))]:
        u = base_point(setup, orbit).u_matrix
        n, k = setup.n, setup.k
        for frame in [u.submatrix(range(n - 1), range(k)),     # wrong ambient dimension
                      u.submatrix(range(n), range(k - 1)),     # too few columns
                      u.hstack(u.submatrix(range(n), range(1))),  # too many columns
                      QMatrix.from_cols(n, [u.col(0)] * k)]:   # rank below k
            with pytest.raises(ValueError):
                orbit_of(setup, frame)


def _dense(n, entries):
    """The n x n matrix with the given (row, col, value) entries."""
    rows = [[0] * n for _ in range(n)]
    for a, b, v in entries:
        rows[a][b] += v
    return QMatrix.from_rows(rows)


def test_lie_algebra_dimensions():
    assert len(lie_algebra_basis(Setup(Kind.SP, 4, 2))) == 10
    assert len(lie_algebra_basis(Setup(Kind.SO, 4, 2))) == 6
    assert len(lie_algebra_basis(Setup(Kind.SO, 5, 2))) == 10
    assert len(lie_algebra_basis(glpq(4, 2, 2, 2))) == 8
    # sparse elements: one unit entry for GLpq, at most two for Sp/SO
    assert all(len(x) == 1 for x in lie_algebra_basis(glpq(4, 2, 2, 2)))
    # every generator preserves the form, and the closed-form elements
    # are independent; the form itself is flavored and nondegenerate
    for n in range(2, 9):
        for kind in (Kind.SP, Kind.SO):
            if kind == Kind.SP and n % 2:
                continue
            setup = Setup(kind, n, 1)
            j = form_matrix(kind, n)
            assert is_flavored(j, form_flavor(kind))
            assert rank(j) == n
            dense = []
            for entries in lie_algebra_basis(setup):
                assert 1 <= len(entries) <= 2
                x = _dense(n, entries)
                assert add(x.transpose().mul(j), j.mul(x)).is_zero()
                dense.append(x.entries)
            want = n * (n + 1) // 2 if kind == Kind.SP else n * (n - 1) // 2
            assert len(dense) == want
            assert rank(QMatrix.from_rows(dense)) == want


def test_action_image_matches_dense_action():
    # reference: x . u_j in the adapted basis B is B^-1 X U, column j
    for setup in [glpq(6, 3, 4, 2), Setup(Kind.SP, 6, 4), Setup(Kind.SO, 7, 3),
                  Setup(Kind.SO, 8, 4)]:
        n, k = setup.n, setup.k
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            binv = inverse(bp.basis)
            image = action_image(setup, orbit)
            assert image.nrows == len(lie_algebra_basis(setup))
            for r, entries in enumerate(lie_algebra_basis(setup)):
                coords = binv.mul(_dense(n, entries)).mul(bp.u_matrix)
                want = coords.submatrix(range(k, n), range(k)).transpose()
                assert image.row(r) == want.entries


EQUIVALENCE = [*setups(10), Setup(Kind.SO, 16, 8), Setup(Kind.SP, 16, 8),
               glpq(12, 6, 6, 6)]


@lru_cache(maxsize=None)
def _dense_rank(setup, orbit):
    return rank(action_image(setup, orbit))


def _dimension_mismatches(dimension):
    """Orbits of EQUIVALENCE where dimension disagrees with the dense action rank."""
    return [(setup.describe(), format_orbit(setup, orbit))
            for setup in EQUIVALENCE for orbit in enumerate_orbits(setup)
            if dimension(setup, orbit) != _dense_rank(setup, orbit)]


def test_sparse_action_matches_dense_reference():
    # every nonzero of the sparse rows, and the per-component rank, against
    # the dense action image and its whole-matrix rank
    checked = 0
    for setup in EQUIVALENCE:
        for orbit in enumerate_orbits(setup):
            image = action_image(setup, orbit)
            rows = orbits._action_rows(setup, orbit)
            assert len(rows) == image.nrows
            for r, row in enumerate(rows):
                assert all(row.values())
                assert tuple(row.get(c, 0) for c in range(image.ncols)) == image.row(r)
            checked += 1
    assert checked > 1500
    assert _dimension_mismatches(orbit_dimension) == []


def test_adapted_inverse_matches_elimination():
    # B^-1 read off the supports of each adapted basis equals the inverse by
    # elimination, at every base point with n <= 10 and at three large ones
    large = [Setup(Kind.SO, 30, 15), Setup(Kind.SP, 24, 12), glpq(16, 8, 8, 8)]
    checked = 0
    for setup in [*setups(10), *large]:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            assert bp.inverse == inverse(bp.basis)
            checked += 1
    assert checked > 1800


def test_base_point_matches_a_dense_build():
    # B written from its column supports, and B^-1 read off them, equal B
    # built entry by entry and inverted by elimination, at every base point
    # with n <= 8 and at every base point of so(24,12); the frame is B's
    # first k columns
    checked = 0
    for setup in [*setups(8), Setup(Kind.SO, 24, 12)]:
        n, k = setup.n, setup.k
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            dense = dense_basis(setup, orbit)
            assert bp.basis == dense and {type(v) for v in bp.basis.entries} == {int}
            assert bp.inverse == inverse(dense)
            assert bp.u_matrix == QMatrix.from_rows([row[:k] for row in dense.rows()])
            checked += 1
    assert checked == 754 + 14


def test_adapted_inverse_rejects_other_columns():
    # glpq(6,3,4,2) at (1,1): columns e0, e4, e1 + e5, then e2, e3, e1
    supports, _, _ = orbits._glpq_base_columns(glpq(6, 3, 4, 2), IntersectionOrbit(1, 1))
    assert supports == [(0,), (4,), (1, 5), (2,), (3,), (1,)]
    # a sum whose units are both columns, e1 + e4
    with pytest.raises(AssertionError, match="invertible: column 2 is e_a [+] e_b, but not exac"):
        orbits._adapted_inverse(6, supports[:2] + [(1, 4)] + supports[3:])
    # a repeated unit column leaves e2 unread, and five columns leave e3
    for bad, found in ((supports[:3] + [(0,)] + supports[4:], "6 columns give 5"),
                       (supports[:4] + supports[5:], "5 columns give 5")):
        with pytest.raises(AssertionError, match=f"invertible: its {found} of the 6"):
            orbits._adapted_inverse(6, bad)


def test_equivalence_catches_unmerged_components(monkeypatch):
    # a union-find that never merges leaves every column its own block
    def unmerged(rows):
        blocks = {}
        for r, row in enumerate(rows):
            for c, v in row.items():
                blocks.setdefault(c, {})[r] = {c: v}
        return [list(block.values()) for block in blocks.values()]

    monkeypatch.setattr(orbits, "_components", unmerged)
    assert _dimension_mismatches(orbit_dimension.__wrapped__)


def test_orbit_dimension_ranks_only_small_blocks(monkeypatch):
    # so(30,15): base_point never ranks the 30 x 30 basis, as reading B^-1 off
    # its supports proves it invertible; the 435 x 225 action image has
    # components of at most 4 cells, and only those reach exactla.rank
    setup = Setup(Kind.SO, 30, 15)
    labels = enumerate_orbits(setup)
    shapes = []

    def recording(m):
        shapes.append((m.nrows, m.ncols))
        return rank(m)

    monkeypatch.setattr(orbits, "rank", recording)
    for orbit in labels:
        base_point(setup, orbit)  # cached here for orbit_dimension below
        orbits.base_point.__wrapped__(setup, orbit)
    assert (30, 15) in shapes and (30, 30) not in shapes
    shapes.clear()
    for orbit in labels:
        i = orbit.i if isinstance(orbit, RadicalOrbit) else setup.k
        assert setup.dim_gr - orbit_dimension.__wrapped__(setup, orbit) == i * (i + 1) // 2
    assert shapes and max(r * c for r, c in shapes) <= 4


def test_orbit_dimension_examples():
    for setup in SWEEP:
        pos = ClosurePoset(setup)
        assert pos.dimension[open_orbit(pos)] == setup.dim_gr
    assert orbit_dimension(glpq(4, 2, 2, 2), IntersectionOrbit(2, 0)) == 0


def test_glpq_codim_closed_form():
    # codim Q(s,t) = s(q-k+s) + t(p-k+t), an independent count of the
    # conormal directions at the base point
    for setup in [glpq(4, 2, 2, 2), glpq(6, 2, 3, 3), glpq(6, 3, 4, 2), glpq(7, 3, 4, 3)]:
        n, k, p, q = setup.n, setup.k, setup.p, setup.q
        for orbit in enumerate_orbits(setup):
            s, t = orbit.s, orbit.t
            want = s * (q - k + s) + t * (p - k + t)
            assert setup.dim_gr - orbit_dimension(setup, orbit) == want


def test_radical_codim_closed_form():
    # symmetric flavor: i(i+1)/2; alternating flavor: i(i-1)/2
    for setup in [Setup(Kind.SO, 5, 2), Setup(Kind.SO, 7, 3), Setup(Kind.SO, 8, 4)]:
        for orbit in enumerate_orbits(setup):
            i = orbit.i if isinstance(orbit, RadicalOrbit) else setup.k
            assert setup.dim_gr - orbit_dimension(setup, orbit) == i * (i + 1) // 2
    for setup in [Setup(Kind.SP, 6, 2), Setup(Kind.SP, 8, 4)]:
        for orbit in enumerate_orbits(setup):
            i = orbit.i
            assert setup.dim_gr - orbit_dimension(setup, orbit) == i * (i - 1) // 2


def test_base_point_self_check_survives_optimize():
    # a classifier that disagrees with the construction, or base columns that
    # are singular, must stop base_point, with or without python -O,
    # which strips assert statements
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from kcycle import orbits\n"
        "from kcycle.orbits import Kind, RadicalOrbit, Setup\n"
        "exec(sys.argv[1])\n"
        "try:\n"
        "    orbits.base_point(Setup(Kind.SO, 5, 2), RadicalOrbit(2))\n"
        "except AssertionError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
        "else:\n"
        "    print('returned', sys.flags.optimize)\n"
    )
    for patch, message in (("orbits.orbit_of = lambda setup, u: RadicalOrbit(0)",
                            "constructed point sits on "),
                           ("orbits._radical_base_columns = lambda setup, i: [(0,)] * setup.n",
                            "adapted basis must be invertible: its 5 columns give 1 ")):
        for flags, optimize in (([], 0), (["-O"], 1)):
            done = subprocess.run([sys.executable, *flags, "-c", script, patch], env=env,
                                  capture_output=True, text=True, check=True)
            assert done.stdout.startswith(f"raised {optimize} {message}"), (flags, done.stdout)
