import itertools
import os
import struct
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from kcycle import conormal, exactla
from kcycle.exactla import (
    SEED_MAX,
    QMatrix,
    SeedStream,
    kernel,
    rank,
    rref,
)
from reference import (
    Subspace,
    add,
    conormal_matrix,
    draw_streams_by_loop,
    from_cols_by_entry,
    identity,
    inverse,
    kernel_by_span,
    next_u64,
    randint,
    random_matrix,
    sample_conormal,
    scale,
    solve,
    solve_homogeneous,
    submatrix_by_entry,
    zeros,
)


def to_sympy(m: QMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.nrows, m.ncols, list(m.entries))


def test_rank_hand_values():
    assert rank(zeros(3, 4)) == 0
    assert rank(identity(5)) == 5
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    m = QMatrix.from_rows([[3, 2], [1, 4]])
    assert rank(m) == 2
    # rank 2 despite three rows
    m = QMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert rank(m) == 2
    # [0, 2, 0] skips the first pivot and becomes the next pivot row one
    # scale behind; eliminating with it unrescaled zeroes the last row
    m = QMatrix.from_rows([[-3, 0, 1], [0, 2, 0], [0, 0, 0], [1, -3, 0]])
    assert rank(m) == 3


def _two_vectors() -> list:
    """Every 2 x c and r x 2 shape up to 6, of two vectors: zero, parallel
    (positive and negative multiples, zero rows among them) and independent."""
    cases = []
    for along in range(2, 7):  # the length of each vector
        vectors = [[0] * along, [i - 2 for i in range(along)], [i + 1 for i in range(along)],
                   [0] * (along - 1) + [5], [-7] + [0] * (along - 1)]
        pairs = [(u, w) for u in vectors for w in vectors]
        pairs += [(u, [f * x for x in u]) for f in (3, -2) for u in vectors]
        pairs += [(u, [x + (i == along - 1) for i, x in enumerate(u)]) for u in vectors]
        for u, w in pairs:
            cases.append(QMatrix.from_flat(2, along, u + w))
            cases.append(QMatrix.from_flat(along, 2, [x for pair in zip(u, w) for x in pair]))
    return cases


def _three_by_three() -> list:
    """Every 3 x 3 matrix with entries in {-1, 0, 1}, then larger ints of ranks 3, 2, 1, 2, 1."""
    ints = [QMatrix(3, 3, e) for e in itertools.product((-1, 0, 1), repeat=9)]
    return ints + [QMatrix.from_flat(3, 3, e) for e in (
        [2, 0, 0, 0, -3, 0, 0, 0, 7],
        [3, 2, 6, 3, 2, 6, 0, 0, 7],
        [3, 2, 6, 3, 2, 6, -3, -2, -6],
        [5, 15, 6, 10, 30, 12, -5, -15, -3],
        [0, 0, 0, 0, 9, 0, 0, 0, 0],
    )]


def test_rank_against_sympy():
    rng = SeedStream(2024)
    for trial in range(60):
        nr = randint(rng, 1, 6)
        nc = randint(rng, 1, 6)
        m = random_matrix(nr, nc, seed=next_u64(rng), height_bound=9)
        assert rank(m) == to_sympy(m).rank(), (trial, m)


def test_two_rows_or_two_columns_rank_without_elimination():
    # two rows or two columns have no closed form of their own: they go
    # through the one elimination and must agree with the reference
    pairs = _two_vectors()
    expected = [DomainMatrix.from_list(m.rows(), QQ).rank() for m in pairs]
    assert {0, 1, 2} <= set(expected)
    assert [rank(m) for m in pairs] == expected


def test_three_by_three_rank_by_its_determinant():
    # 3 x 3 matrices, singular and not, with unit and larger entries, are
    # ranked by the one elimination, not by a determinant shortcut
    cubes = _three_by_three()
    expected = [DomainMatrix.from_list(m.rows(), QQ).rank() for m in cubes]
    assert set(expected) == {0, 1, 2, 3} and expected[-5:] == [3, 2, 1, 2, 1]
    assert [rank(m) for m in cubes] == expected


def test_rank_on_sparse_tall_matrices():
    # zero-heavy rows once defeated the elimination's row updates; keep
    # shapes tall and entries sparse so skipped-scaling bugs resurface
    rng = SeedStream(51)
    for trial in range(80):
        nr = randint(rng, 2, 14)
        nc = randint(rng, 2, 8)
        rows = [
            [randint(rng, -9, 9) if randint(rng, 0, 2) == 0 else 0
             for _ in range(nc)]
            for _ in range(nr)
        ]
        m = QMatrix.from_rows(rows)
        assert rank(m) == to_sympy(m).rank(), (trial, rows)


def test_rank_on_block_sparse_tall_matrices():
    # columns fall into blocks of 2-4; a row combines one to three base
    # rows, each dense on one block, so it sits untouched through the
    # pivots of the blocks it misses before one touches it or it becomes
    # the pivot row.  The base rows leave each block short of full rank:
    # dependent rows must cancel to exact zeros, which any inexact step
    # of the elimination breaks
    rng = SeedStream(17)
    for trial in range(100):
        widths = [randint(rng, 2, 4) for _ in range(randint(rng, 2, 4))]
        nc = sum(widths)
        base, at = [], 0
        for w in widths:
            for _ in range(randint(rng, 1, w)):
                base.append([randint(rng, -3, 3) if at <= j < at + w else 0 for j in range(nc)])
            at += w
        rows = []
        for _ in range(randint(rng, nc, 2 * nc)):
            row = [0] * nc
            for _ in range(randint(rng, 1, 3)):
                b, coeff = base[randint(rng, 0, len(base) - 1)], randint(rng, -3, 3)
                row = [x + coeff * y for x, y in zip(row, b)]
            rows.append(row)
        m = QMatrix.from_rows(rows)
        assert rank(m) == to_sympy(m).rank(), (trial, rows)


def test_rank_regression_block_constraint_system():
    # 20 x 10 system whose first pivot column contains zeros; the buggy
    # variant reported 8 and even fell below the rank of a row subset
    rows = [
        [2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [-10, 7, -4, -6, 0, 0, 0, 0, 0, 0],
        [0, -10, 0, 0, 7, -4, -6, 0, 0, 0],
        [0, 0, -10, 0, 0, 7, 0, -4, -6, 0],
        [0, 0, 0, -10, 0, 0, 7, 0, -4, -6],
        [7, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 7, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 7, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 7, 0, 0, 0, 0, 0, 1],
        [-4, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, -4, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, -4, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, -4, 0, 0, 0, 0, 1, 0],
        [-6, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -6, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, -6, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, -6, 0, 0, 1, 0, 0, 0],
    ]
    m = QMatrix.from_rows(rows)
    assert rank(m) == to_sympy(m).rank() == 10
    # rank is monotone under adding rows
    for cut in (4, 8, 12, 16):
        assert rank(QMatrix.from_rows(rows[:cut])) <= rank(m)


def test_rank_low_rank_products():
    # products of thin matrices give planted ranks
    rng = SeedStream(7)
    for trial in range(40):
        n = randint(rng, 2, 6)
        r = randint(rng, 0, n)
        a = random_matrix(n, r, seed=next_u64(rng), height_bound=5)
        b = random_matrix(r, n, seed=next_u64(rng), height_bound=5)
        m = a.mul(b) if r else zeros(n, n)
        assert rank(m) <= r
        assert rank(m) == to_sympy(m).rank()


def test_submatrix_keeps_both_sizes():
    m = QMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.submatrix([1], [0, 2]) == QMatrix.from_rows([[4, 6]])
    # an empty row or column selection still knows the other size
    assert m.submatrix([], [2]) == QMatrix(0, 1, ())
    assert m.submatrix(range(0), range(3)) == QMatrix(0, 3, ())
    assert m.submatrix([0, 1], []) == QMatrix(2, 0, ())
    assert m.submatrix([], []) == QMatrix(0, 0, ())


def _selections(size):
    """Every subset of range(size), increasing; for size > 0 also three reordered or repeated."""
    out = [[i for i in range(size) if mask >> i & 1] for mask in range(1 << size)]
    if size:
        out += [list(range(size))[::-1], [0] * size, [size - 1, 0]]
    return out


def test_submatrix_and_from_cols_match_reading_entry_by_entry():
    # every shape up to 4 x 4, with small int entries and with the same
    # entries scaled by 1 to 3: every selection
    # of rows and columns, empty ones included, and every selection of
    # columns handed to from_cols as lists and as tuples; hstack of a
    # matrix with itself doubles each row
    rng = SeedStream(83)
    shapes = checked = 0
    for nrows in range(5):
        for ncols in range(5):
            ints = [randint(rng, -3, 3) for _ in range(nrows * ncols)]
            for m in (QMatrix.from_flat(nrows, ncols, ints),
                      QMatrix.from_flat(nrows, ncols, [v * (1 + j % 3) for j, v in enumerate(ints)])):
                shapes += 1
                for rows in _selections(nrows):
                    for cols in _selections(ncols):
                        got = m.submatrix(rows, cols)
                        assert got == submatrix_by_entry(m, rows, cols)
                        assert list(map(type, got.entries)) == [
                            type(m[i, j]) for i in rows for j in cols]
                        checked += 1
                assert m.submatrix(range(nrows), range(ncols)) == m
                doubled = [x for i in range(nrows) for x in m.row(i) * 2]
                assert m.hstack(m) == QMatrix.from_flat(nrows, 2 * ncols, doubled)
                for cols in _selections(ncols):
                    columns = [m.col(j) for j in cols]
                    want = from_cols_by_entry(nrows, columns)
                    assert QMatrix.from_cols(nrows, columns) == want
                    assert QMatrix.from_cols(nrows, map(list, columns)) == want
                    assert want.ncols == len(cols) and want.nrows == nrows
                    if not cols:
                        continue
                    # a first column one entry long, or one short, is ragged
                    longer, shorter = columns[0] + (0,), columns[0][:-1]
                    for bad in (longer, shorter) if nrows else (longer,):
                        for build in (QMatrix.from_cols, from_cols_by_entry):
                            with pytest.raises(ValueError, match="ragged columns"):
                                build(nrows, [bad] + columns[1:])
    assert shapes == 50 and checked == 3698
    assert QMatrix.from_cols(3, []) == QMatrix(3, 0, ())


def test_rref_shape_and_pivots():
    m = QMatrix.from_rows([[0, 2, 4], [1, 1, 1]])
    pivots, rows = rref(m)
    assert pivots == [0, 1]
    assert rows == [[1, 0, -1], [0, 1, 2]]


def test_kernel_rank_nullity():
    rng = SeedStream(11)
    for trial in range(40):
        nr = randint(rng, 1, 5)
        nc = randint(rng, 1, 6)
        m = random_matrix(nr, nc, seed=next_u64(rng), height_bound=7)
        k = kernel(m)
        assert k.ncols == nc - rank(m)
        for j in range(k.ncols):
            v = k.col(j)
            img = m.mul(QMatrix.from_rows([[x] for x in v]))
            assert img.is_zero()


def test_kernel_is_one_rref_and_matches_the_span_route(monkeypatch):
    # kernel reads its canonical basis off a single rref: it equals the
    # span of rref(m)'s kernel vectors and sympy's null space, scaled
    # rows, zero rows, empty shapes and dependent rows included
    calls = []
    real_rref = exactla.rref

    def counting_rref(m):
        calls.append((m.nrows, m.ncols))
        return real_rref(m)

    monkeypatch.setattr(exactla, "rref", counting_rref)
    rng = SeedStream(909)
    cases = [QMatrix(0, 3, ()), QMatrix(2, 0, ()), zeros(2, 3), identity(3),
             QMatrix.from_rows([[1, 2, 3], [2, 4, 6]]), QMatrix.from_rows([[0, 0, 5, 1]])]
    for _ in range(300):
        nr, nc = randint(rng, 1, 5), randint(rng, 1, 6)
        rows = [[randint(rng, -4, 4) if randint(rng, 0, 2) else 0 for _ in range(nc)]
                for _ in range(nr)]
        if nr > 2 and randint(rng, 0, 1):
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        if randint(rng, 0, 3) == 0:
            rows = [[x * randint(rng, 1, 4) for x in row] for row in rows]
        cases.append(QMatrix.from_rows(rows))
    for m in cases:
        calls.clear()
        ker = kernel(m)
        assert len(calls) == 1, m
        assert ker == kernel_by_span(m).basis, m
        null = [[int(x * lcm(*(y.q for y in v))) for x in v] for v in to_sympy(m).nullspace()]
        assert ker.ncols == len(null) == m.ncols - rank(m), m
        assert ker == Subspace.span(m.ncols, null).basis, m
        assert all(_primitive(ker.col(j)) for j in range(ker.ncols)), m


def test_solve_and_inverse():
    m = QMatrix.from_rows([[2, 1], [1, 1]])
    x = solve(m, [3, 2])
    assert x == [1, 1]
    assert solve(QMatrix.from_rows([[2, 0], [0, 3]]), [1, 1]) == [F(1, 2), F(1, 3)]
    assert solve(QMatrix.from_rows([[1, 1], [1, 1]]), [0, 1]) is None
    mi = inverse(m)
    assert m.mul(mi).entries == identity(2).entries


def test_solve_homogeneous_dims():
    # two independent functionals on Q^4 cut the dimension by 2
    sol = solve_homogeneous([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    assert sol.dim == 2
    assert sol.contains_vector([0, 0, 3, -1])
    assert not sol.contains_vector([1, 0, 0, 0])
    assert solve_homogeneous([], 3).dim == 3


def test_subspace_canonical_equality():
    a = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(3, [[1, 1, 0], [1, -1, 0]])
    assert a == b
    assert a.dim == 2
    c = Subspace.span(3, [[1, 1, 1]])
    assert a != c


def test_subspace_operations():
    a = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    cap = a.intersection(b)
    assert cap.dim == 1
    assert cap.contains_vector([0, 5, 0, 0])
    tot = a.sum(b)
    assert tot.dim == 3
    assert tot.contains(a) and tot.contains(b)
    assert a.contains(cap) and b.contains(cap)


def test_subspace_intersection_dims_random():
    rng = SeedStream(23)
    for trial in range(30):
        n = randint(rng, 2, 6)
        da = randint(rng, 0, n)
        db = randint(rng, 0, n)
        a = Subspace.span(
            n, [random_matrix(1, n, seed=next_u64(rng), height_bound=5).row(0) for _ in range(da)]
        )
        b = Subspace.span(
            n, [random_matrix(1, n, seed=next_u64(rng), height_bound=5).row(0) for _ in range(db)]
        )
        # inclusion-exclusion for subspaces
        assert a.sum(b).dim == a.dim + b.dim - a.intersection(b).dim


def test_transpose_product_identities():
    rng = SeedStream(31)
    for trial in range(20):
        a = random_matrix(3, 4, seed=next_u64(rng), height_bound=6)
        b = random_matrix(4, 2, seed=next_u64(rng), height_bound=6)
        assert a.mul(b).transpose().entries == b.transpose().mul(a.transpose()).entries
        assert rank(a) == rank(a.transpose())


def test_seed_stream_determinism():
    a = SeedStream(99)
    b = SeedStream(99)
    assert [next_u64(a) for _ in range(10)] == [next_u64(b) for _ in range(10)]
    assert SeedStream(1).derive("x").state == SeedStream(1).derive("x").state
    assert SeedStream(1).derive("x").state != SeedStream(1).derive("y").state
    assert SeedStream(1).derive("x", 2).state != SeedStream(1).derive("x", 3).state


def test_seed_stream_rejects_out_of_range_seeds():
    # a seed outside [0, 2^64) would alias one inside it
    assert SeedStream(SEED_MAX).state == SEED_MAX == (1 << 64) - 1
    assert SeedStream(0).state == 0
    for bad in (-1, SEED_MAX + 1):
        with pytest.raises(ValueError, match="seed must be between 0 and"):
            SeedStream(bad)


def test_random_matrix_frozen_bytes():
    # literal values: a reordered or re-derived draw changes these, even
    # where no printed output shows sample values
    m = random_matrix(2, 3, seed=12345, height_bound=100)
    assert m.entries == (-32, 62, -43, 20, -52, -24)
    assert m.entries == random_matrix(2, 3, seed=12345).entries


def test_randint_bounds():
    rng = SeedStream(5)
    vals = [randint(rng, -3, 3) for _ in range(300)]
    assert min(vals) == -3 and max(vals) == 3


def _primitive(vector) -> bool:
    """Every entry an int, content 1, and the first nonzero entry positive."""
    lead = next((x for x in vector if x), 0)
    return all(type(x) is int for x in vector) and gcd(*vector) == 1 and lead > 0


def test_bad_draw_ranges_raise_under_optimize():
    # an empty draw range raises ValueError, with or without python -O,
    # which strips assert statements
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from kcycle.exactla import SeedStream\n"
        "calls = [lambda: SeedStream(1).randints(4, 1, -1),\n"
        "         lambda: SeedStream(1).randints(1, 0, -1)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('raised', exc)\n"
        "    else:\n"
        "        print('returned')\n"
        "print('optimize', sys.flags.optimize)\n"
    )
    for flags, optimize in (([], 0), (["-O"], 1)):
        done = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        assert lines[-1] == f"optimize {optimize}"
        assert lines[:2] == ["raised empty draw range [1, -1]",
                             "raised empty draw range [0, -1]"], (flags, lines)


def test_internal_checks_raise_under_optimize():
    # shape checks (from_flat's entry count among them), the form's kind
    # check, membership thresholds outside the blocks, Setup's checks and
    # those of the cycles cc_table and _cycle_terms build raise ValueError,
    # with or without python -O; so do the sum and the subspace checks of
    # the reference routes
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from kcycle.ccengine import _cycle_terms\n"
        "from kcycle.conormal import ConormalVector\n"
        "from kcycle.exactla import QMatrix, rank\n"
        "from kcycle.matrixstrata import Flavor, cc_table\n"
        "from kcycle.orbits import IntersectionOrbit, Kind, RadicalOrbit, Setup, base_point, form_sign\n"
        "from kcycle.resolutions import kernel_membership_Z, kernel_membership_Ztilde\n"
        "from reference import Subspace, add, identity, zeros\n"
        "a, b = identity(2), zeros(3, 2)\n"
        "s2, s3 = Subspace(2, identity(2)), Subspace(3, identity(3))\n"
        "bp = base_point(Setup(Kind.GLPQ, 5, 2, p=4, q=1), IntersectionOrbit(1, 0))\n"
        "xi = ConormalVector(bp, zeros(1, 0), zeros(0, 2), 0, 0)\n"
        "calls = [lambda: QMatrix.from_rows([[1, 2], [3]]),\n"
        "         lambda: QMatrix.from_flat(2, 2, [0, 0, 0, 0, 5]),\n"
        "         lambda: rank(QMatrix.from_flat(2, 2, [1, 2, 3])),\n"
        "         lambda: QMatrix.from_flat(-1, -1, [0]),\n"
        "         lambda: a.mul(b), lambda: add(a, b), lambda: a.hstack(b),\n"
        "         lambda: Subspace.span(2, [[1, 2, 3]]),\n"
        "         lambda: s2.contains(s3), lambda: s2.sum(s3), lambda: s2.intersection(s3),\n"
        "         lambda: form_sign(Kind.GLPQ, 4, 0)]\n"
        "calls += [lambda m=m, st=st: m(xi, *st)\n"
        "          for m in (kernel_membership_Z, kernel_membership_Ztilde)\n"
        "          for st in ((2, 0), (1, 1), (3, 0))]\n"
        "so, r = Setup(Kind.SO, 8, 4), RadicalOrbit\n"
        "builds = [(Setup, ('kind', 'n', 'k', 'p', 'q'),\n"
        "           [(Kind.SO, sys.maxsize + 1, 2), (Kind.SO, 4, 0), (Kind.SO, 4, 4),\n"
        "            (Kind.GLPQ, 4, 2, 2), (Kind.GLPQ, 4, 2, 1, 1), (Kind.GLPQ, 4, 2, 0, 4),\n"
        "            (Kind.SO, 4, 2, 2, 2), (Kind.SP, 5, 2), ('bogus', 4, 2), ('so', 4, 2),\n"
        "            (Kind.SO, 4.0, 2), (Kind.SO, 4, True), (Kind.GLPQ, 4, 2, 2, 2.0)]),\n"
        "          (cc_table, ('flavor', 'm', 'r'),\n"
        "           [(Flavor.SYMMETRIC, 2, 3), (Flavor.SKEW, 3, -1), (Flavor.SKEW, 4, 3)]),\n"
        "          (_cycle_terms, ('setup', 'target', 'mults'),\n"
        "           [(so, r(1), {r(2): 1}), (so, r(1), {r(1): 2}),\n"
        "            (so, r(1), {r(1): 1, r(2): -1}), (so, r(1), {r(1): 1, r(2): 0.5}),\n"
        "            (so, r(3), {r(3): 1, r(1): 1}), (so, r(1), {r(1): 1, r(4): 1}),\n"
        "            (so, r(4), {r(4): 1})])]\n"
        "for build, names, cases in builds:\n"
        "    for args in cases:\n"
        "        calls += [lambda build=build, args=args: build(*args),\n"
        "                  lambda build=build, args=args, names=names:\n"
        "                  build(**dict(zip(names, args)))]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('raised', exc)\n"
        "    else:\n"
        "        print('returned')\n"
        "print('optimize', sys.flags.optimize)\n"
    )
    thresholds = ["raised thresholds (2, 0) lie outside the blocks' rows (1, 0)",
                  "raised thresholds (1, 1) lie outside the blocks' rows (1, 0)",
                  "raised thresholds (3, 0) lie outside the blocks' rows (1, 0)"]
    expected = ["raised ragged rows", "raised entry count 5 does not fit a 2 x 2 matrix",
                "raised entry count 3 does not fit a 2 x 2 matrix",
                "raised entry count 1 does not fit a -1 x -1 matrix",
                "raised shape mismatch in product",
                "raised shape mismatch in sum", "raised row counts differ in hstack",
                "raised vector outside the ambient space"]
    expected += ["raised subspaces of different ambient spaces"] * 3
    expected += ["raised no invariant form for a splitting-type setup"] + thresholds * 2
    records = [f"raised need n <= {sys.maxsize}, got n={sys.maxsize + 1}",
               "raised need 1 <= k <= n-1, got k=0, n=4",
               "raised need 1 <= k <= n-1, got k=4, n=4",
               "raised GLpq setup needs p and q",
               "raised need p,q >= 1 with p+q=n, got p=1, q=1, n=4",
               "raised need p,q >= 1 with p+q=n, got p=0, q=4, n=4",
               "raised so setup takes no p,q", "raised Sp needs n even",
               "raised not a setup kind: 'bogus'", "raised not a setup kind: 'so'",
               "raised setup sizes are ints, got 4.0", "raised setup sizes are ints, got True",
               "raised setup sizes are ints, got 2.0",
               "raised rank 3 out of range for size 2", "raised rank -1 out of range for size 3",
               "raised skew matrices have even rank",
               "raised lead term must be the target with multiplicity one",
               "raised lead term must be the target with multiplicity one",
               "raised multiplicities are positive integers",
               "raised multiplicities are positive integers",
               "raised terms must lie in the closure of the target",
               "raised rad4 is not a (non-empty) orbit of so(n=8,k=4)",
               "raised rad4 is not a (non-empty) orbit of so(n=8,k=4)"]
    # each is built positionally, then by keyword
    expected += [line for line in records for _ in range(2)]
    for flags, optimize in (([], 0), (["-O"], 1)):
        done = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == expected + [f"optimize {optimize}"], flags


def test_float_entries_rejected():
    builds = [
        lambda: QMatrix.from_rows([[0.1]]),
        lambda: QMatrix.from_cols(1, [[0.5]]),
        lambda: scale(identity(2), 0.5),
        lambda: Subspace.span(2, [[1.0, 0]]),
        lambda: solve(identity(1), [0.25]),
    ]
    for build in builds:
        with pytest.raises(TypeError):
            build()


def test_non_int_entries_raise_type_error():
    # a Fraction, a float or a bool raises through from_flat, from_rows
    # and from_cols, integral or not, wherever it sits
    builds = [lambda bad: QMatrix.from_flat(1, 2, [1, bad]),
              lambda bad: QMatrix.from_flat(1, 1, [bad]),
              lambda bad: QMatrix.from_rows([[1], [bad]]),
              lambda bad: QMatrix.from_cols(2, [[0, 1], [bad, 1]])]
    for bad in (F(1, 2), F(4, 2), 0.5, 2.0, True, False):
        for build in builds:
            with pytest.raises(TypeError, match="entry .* is not an int"):
                build(bad)


def test_entries_are_canonical():
    # int entries are kept as they are, and rref's rows are primitive
    # with a positive pivot: each reduced echelon row times the smallest
    # positive scale that makes it integral
    m = QMatrix.from_rows([[4, -1, 7, 0, -2]])
    assert m.entries == (4, -1, 7, 0, -2) and {type(x) for x in m.entries} == {int}
    assert add(m, m).entries == (8, -2, 14, 0, -4)
    assert scale(m, -3).entries == (-12, 3, -21, 0, 6)
    pivots, rows = rref(QMatrix.from_rows([[2, 1, 4], [6, 3, 1]]))
    assert pivots == [0, 2]
    assert rows == [[2, 1, 0], [0, 0, 1]]
    assert kernel(QMatrix.from_rows([[2, 1, 4], [6, 3, 1]])).entries == (1, -2, 0)
    pivots, rows = rref(QMatrix.from_rows([[-4, 2, 6], [0, 0, 0], [2, -1, 1]]))
    assert pivots == [0, 2]
    assert rows == [[2, -1, 0], [0, 0, 1], [0, 0, 0]]
    assert kernel(QMatrix.from_rows([[2, 1], [4, 3]])) == QMatrix(2, 0, ())


def _rref_cases() -> list:
    """A few int matrices by hand, then seeded ones whose pivots are mostly not units."""
    cases = [QMatrix.from_rows([[2, 1], [4, 3]]), QMatrix.from_rows([[0, -6, 4], [0, 3, -2]]),
             QMatrix.from_rows([[-4, 2, 6], [6, -3, 1]]), zeros(2, 3), QMatrix(0, 3, ()),
             QMatrix(2, 0, ())]
    rng = SeedStream(4242)
    for _ in range(150):
        nr, nc = randint(rng, 1, 5), randint(rng, 1, 6)
        rows = [[randint(rng, -6, 6) if randint(rng, 0, 2) else 0 for _ in range(nc)]
                for _ in range(nr)]
        if nr > 2 and randint(rng, 0, 1):
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        cases.append(QMatrix.from_rows(rows))
    return cases


def _positive_multiple(vector, reduced) -> bool:
    """vector is the sympy row `reduced` times a positive scale."""
    j = next(j for j, y in enumerate(reduced) if y)
    s = sympy.Rational(vector[j]) / reduced[j]
    return s > 0 and all(x == y * s for x, y in zip(vector, reduced))


def test_rref_and_kernel_are_primitive_and_match_sympy():
    # rref's pivot rows and kernel's columns are primitive int vectors
    # with a positive pivot or leading entry, and each is sympy's
    # rational reduced row (of m, or of a basis of its null space) times
    # a positive scale; the rows after the pivot rows are zero
    non_unit = 0
    for m in _rref_cases():
        pivots, rows = rref(m)
        reduced, sympy_pivots = to_sympy(m).rref()
        assert pivots == list(sympy_pivots) and len(rows) == m.nrows, m
        assert not any(map(any, rows[len(pivots):])), m
        for i, c in enumerate(pivots):
            assert _primitive(rows[i]) and rows[i][c] > 0, m
            assert _positive_multiple(rows[i], list(reduced.row(i))), m
            non_unit += rows[i][c] > 1
        ker, null = kernel(m), to_sympy(m).nullspace()
        assert (ker.nrows, ker.ncols) == (m.ncols, len(null)), m
        if null:
            reduced = sympy.Matrix.hstack(*null).T.rref()[0]
            for j in range(ker.ncols):
                assert _primitive(ker.col(j)), m
                assert _positive_multiple(ker.col(j), list(reduced.row(j))), m
    assert non_unit >= 50


def test_sample_streams_pinned(monkeypatch):
    # every sampled route's draws, pinned literally: chart points and GLpq
    # blocks (retries included)
    from kcycle.degeneracy import draw_chart_points
    from kcycle.orbits import IntersectionOrbit, Kind, Setup, base_point

    rng = SeedStream(7)
    draws = draw_chart_points(8, 4, rng, 2)
    first, second = draws[:16], draws[16:]
    assert first == [
        -4, 5, 7, 2, -3, -9, 6, 1, -7, 0, 0, 7, 4, -8, 2, -4]
    assert second == [
        -5, 3, 1, 9, -7, 2, -5, -1, 6, -4, -4, 0, -9, -2, -4, 6]
    assert rng.state == 14334736817860870823

    bp = base_point(Setup(Kind.GLPQ, 8, 4, p=4, q=4), IntersectionOrbit(2, 2))
    with monkeypatch.context() as patch:
        patch.setattr(conormal, "HEIGHT_BOUND", 1)
        xi = sample_conormal(bp, 3)
    assert xi.h_block.entries == (-1, 0, 0, -1)
    assert xi.l_block.entries == (1, 0, -1, -1)
    assert xi.retries == 3
    assert conormal_matrix(xi).entries == (0, 0, -1, 0, 0, 0, 0, -1, 1, 0, 0, 0, -1, -1, 0, 0)
    xi = sample_conormal(bp, 3)
    assert (xi.h_block.entries, xi.l_block.entries, xi.retries) == (
        (1, 16, -42, 79), (-92, 95, 100, -52), 0)


def _splitmix64(state: int, count: int) -> tuple:
    """Reference splitmix64 (Steele, Lea and Flood 2014): count outputs, final state."""
    mask = (1 << 64) - 1
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out, state


def test_randints_is_repeated_randint():
    assert next_u64(SeedStream(0)) == 0xE220A8397B1DCDAF  # the published first output
    for seed in (0, 5, 12345, (1 << 64) - 1):
        for count, lo, hi in ((0, -9, 9), (1, -9, 9), (16, -9, 9), (7, 0, 0),
                              (25, -100, 100), (5, 3, 1 << 70)):
            batch, single = SeedStream(seed), SeedStream(seed)
            values = batch.randints(count, lo, hi)
            assert values == [randint(single, lo, hi) for _ in range(count)]
            assert batch.state == single.state
            raw, state = _splitmix64(seed, count)
            assert values == [lo + x % (hi - lo + 1) for x in raw]
            assert batch.state == state
    # derive's mixer is the same function as the inlined draw
    from kcycle.exactla import _mix64
    raw, _ = _splitmix64(77, 3)
    assert [_mix64((77 + i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) for i in (1, 2, 3)] == raw


def test_draw_streams_matches_the_loop():
    # the batch draw against splitmix64 one value at a time: counts that
    # fill a chunk of lanes partly, exactly and past it, states that wrap,
    # span 1, and spans of 2^64 and more with lo != 0
    wrap = [0, SEED_MAX]
    state_sets = ([], [SEED_MAX], wrap + SeedStream(808).randints(18, 0, SEED_MAX))
    ranges = ((-9, 9), (0, 0), (7, 7), (0, SEED_MAX), (-5, SEED_MAX - 5),
              (3, 1 << 70), (-(1 << 80), 1 << 80))
    cases = [(count, lo, hi) for count in (0, 1, 5, 57) for lo, hi in ranges]
    # around one and two chunks of lanes, a stream or many to a chunk
    lanes = exactla._LANES
    cases += [(count, lo, hi) for count in (lanes - 1, lanes, lanes + 1, 2 * lanes + 1, 2000)
              for lo, hi in ranges[::3]]
    for count, lo, hi in cases:
        for states in state_sets:
            expected = draw_streams_by_loop(states, count, lo, hi)
            assert exactla.draw_streams(tuple(states), count, lo, hi) == expected
    for lo, hi in ((1, 0), (5, -5), (SEED_MAX, 0)):
        for states in state_sets:
            with pytest.raises(ValueError, match="empty draw range"):
                exactla.draw_streams(states, 3, lo, hi)
    # a count no list holds fails before anything is drawn, never by OverflowError
    for count in (1 << 62, 99999999999999999999):
        with pytest.raises(MemoryError):
            exactla.draw_streams([5], count, 0, 9)


def test_packed_lanes_read_on_either_byte_order():
    # the lanes' low halves are every other 64-bit word of the packed
    # int's bytes in the host's order: forwards from the first word when
    # little-endian, backwards from the last when big-endian
    lanes = [(j * 0x9E3779B97F4A7C15 + 1) % (1 << 64) for j in range(7)]
    packed = sum((low | (j + 1) << 64) << 128 * j for j, low in enumerate(lanes))
    for order, code, step in (("little", "<", 2), ("big", ">", -2)):
        words = struct.unpack(f"{code}14Q", packed.to_bytes(16 * 7, order))
        assert list(words[::step]) == lanes
    assert exactla._LOW_HALVES == slice(None, None, 2 if sys.byteorder == "little" else -2)
    assert exactla._mixed_lanes(packed, 7).tolist() == [exactla._mix64(x) for x in lanes]


def test_derive_states_is_derive():
    # more seeds than one chunk of lanes holds
    seeds = [0, 1, SEED_MAX] + SeedStream(909).randints(2 * exactla._LANES, 0, SEED_MAX)
    for tag in ("conormal-sample", "", "microlocal", 0, 7, SEED_MAX, -1, 1 << 70):
        expected = [SeedStream(seed).derive(tag).state for seed in seeds]
        assert exactla.derive_states(seeds, tag) == expected
        assert exactla.derive_states(seeds[:1], tag) == expected[:1]
        assert exactla.derive_states([], tag) == []
    for bad in (-1, SEED_MAX + 1):
        with pytest.raises(ValueError, match="seed"):
            exactla.derive_states([0, bad], "x")


class _Unsliceable(tuple):
    """Entries that refuse to be sliced, as elimination slices them into rows."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError("a vector went into elimination")
        return tuple.__getitem__(self, key)


def test_vectors_rank_without_elimination():
    # every shape with at most one row or one column, up to length 6
    shapes = sorted({(r, c) for r in range(7) for c in range(7) if min(r, c) <= 1})
    cases = []
    for r, c in shapes:
        size = r * c
        cases.append(zeros(r, c))
        for at in range(size):
            for value in (-3, 7):
                flat = [0] * size
                flat[at] = value
                cases.append(QMatrix.from_flat(r, c, flat))
        cases.append(QMatrix.from_flat(r, c, [i - 2 for i in range(size)]))
        cases.append(QMatrix.from_flat(r, c, [3 * i + 1 for i in range(size)]))
    expected = [to_sympy(m).rank() for m in cases]
    assert [rank(m) for m in cases] == expected
    # entries that cannot be sliced into rows still rank as vectors
    refusing = [QMatrix(m.nrows, m.ncols, _Unsliceable(m.entries)) for m in cases]
    assert [rank(m) for m in refusing] == expected
    with pytest.raises(AssertionError, match="a vector went into elimination"):
        rank(QMatrix(2, 2, _Unsliceable((1, 0, 0, 1))))
