import pytest

from kcycle.exactla import QMatrix, SeedStream, rank
from kcycle.matrixstrata import (
    Flavor,
    cc_table,
    flavor_dim,
    pairing_row,
    product_system,
)
from reference import (
    add,
    conormal_condition,
    conormal_solutions,
    coordinate_basis,
    flavor_coords,
    flavor_from_coords,
    identity,
    is_flavored,
    next_u64,
    product_rows,
    randint,
    random_flavored_matrix,
    random_matrix,
    tangent_space_at,
    trace_pairing,
    zeros,
)


def test_table_examples():
    got = cc_table(Flavor.SYMMETRIC, 3, 2)
    assert got == ((2, 1), (1, 1))
    assert cc_table(Flavor.SYMMETRIC, 3, 0) == ((0, 1),)
    assert cc_table(Flavor.SKEW, 4, 2) == ((2, 1),)


def test_table_reducibility_pattern():
    for m in range(1, 6):
        for r in range(m + 1):
            cyc = cc_table(Flavor.SYMMETRIC, m, r)
            assert cyc[0] == (r, 1)
            assert (len(cyc) == 1) == ((m - r) % 2 == 0 or r == 0)
        for r in range(0, m + 1, 2):
            assert len(cc_table(Flavor.SKEW, m, r)) == 1


def test_stratum_validation():
    with pytest.raises(ValueError):
        cc_table(Flavor.SKEW, 4, 3)
    with pytest.raises(ValueError):
        cc_table(Flavor.SYMMETRIC, 3, 4)
    with pytest.raises(ValueError):
        cc_table(Flavor.SKEW, 4, 1)
    with pytest.raises(ValueError):
        cc_table(Flavor.SYMMETRIC, 3, -1)


def test_conormal_condition_hand_values():
    x = QMatrix.from_rows([[1, 0], [0, 0]])
    assert conormal_condition(x, QMatrix.from_rows([[0, 0], [0, 1]]))
    assert not conormal_condition(x, QMatrix.from_rows([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        conormal_condition(x, QMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_coordinate_round_trip():
    rng = SeedStream(4)
    for flavor in Flavor:
        for m in range(1, 5):
            x = random_flavored_matrix(flavor, m, m if flavor == Flavor.SYMMETRIC else 2 * (m // 2),
                                       seed=next_u64(rng))
            back = flavor_from_coords(flavor_coords(x, flavor), flavor, m)
            assert back.entries == x.entries
            assert len(coordinate_basis(flavor, m)) == flavor_dim(flavor, m)


def test_random_flavored_matrix_rank_and_flavor():
    rng = SeedStream(8)
    for m in range(2, 6):
        for r in range(m + 1):
            x = random_flavored_matrix(Flavor.SYMMETRIC, m, r, seed=next_u64(rng))
            assert is_flavored(x, Flavor.SYMMETRIC) and rank(x) == r
        for r in range(0, m + 1, 2):
            x = random_flavored_matrix(Flavor.SKEW, m, r, seed=next_u64(rng))
            assert is_flavored(x, Flavor.SKEW) and rank(x) == r
    a = random_flavored_matrix(Flavor.SYMMETRIC, 3, 2, seed=123)
    b = random_flavored_matrix(Flavor.SYMMETRIC, 3, 2, seed=123)
    assert a.entries == b.entries


def test_conormal_solution_dimension():
    rng = SeedStream(15)
    for m in range(1, 6):
        for r in range(m + 1):
            x = random_flavored_matrix(Flavor.SYMMETRIC, m, r, seed=next_u64(rng))
            sol = conormal_solutions(x, Flavor.SYMMETRIC)
            assert sol.dim == (m - r) * (m - r + 1) // 2
        for r in range(0, m + 1, 2):
            x = random_flavored_matrix(Flavor.SKEW, m, r, seed=next_u64(rng))
            sol = conormal_solutions(x, Flavor.SKEW)
            assert sol.dim == (m - r) * (m - r - 1) // 2


def test_solutions_annihilate_tangent_vectors():
    x = random_flavored_matrix(Flavor.SYMMETRIC, 4, 2, seed=99)
    sol = conormal_solutions(x, Flavor.SYMMETRIC)
    rng = SeedStream(1001)
    for j in range(sol.dim):
        c = flavor_from_coords(sol.basis.col(j), Flavor.SYMMETRIC, 4)
        assert conormal_condition(x, c)
        for _ in range(50):
            y = random_matrix(4, 4, seed=next_u64(rng), height_bound=9)
            d = add(y.mul(x), x.mul(y.transpose()))
            assert trace_pairing(c, d) == 0


def test_sparse_rows_match_dense_basis():
    rng = SeedStream(41)
    for flavor in Flavor:
        for m in range(1, 6):
            basis = coordinate_basis(flavor, m)
            for _ in range(4):
                d = random_matrix(m, m, seed=next_u64(rng), height_bound=9)
                assert pairing_row(d, flavor) == [trace_pairing(bc, d) for bc in basis]
                products = [d.mul(bc) for bc in basis]
                assert product_rows(d, flavor) == [
                    [p[r, c] for p in products] for r in range(m) for c in range(m)]


def test_product_system_is_the_nonzero_product_rows_on_its_coordinates():
    # every set of coordinates of every m <= 4, on matrices of heights 1
    # and 9 (height 1 leaves zero rows to drop): the rows are the dense
    # product rows restricted to those columns, with each row that is zero
    # there left out, the sparsest first and rows with as many zeros in
    # their (r, c) order
    rng = SeedStream(43)
    for flavor in Flavor:
        for m in range(1, 5):
            dim = flavor_dim(flavor, m)
            subsets = [[j for j in range(dim) if mask >> j & 1] for mask in range(1 << dim)]
            for height in (1, 9):
                d = random_matrix(m, m, seed=next_u64(rng), height_bound=height)
                full = product_rows(d, flavor)
                dropped = 0
                for coords in subsets:
                    want = [row for row in ([r[j] for j in coords] for r in full) if any(row)]
                    want.sort(key=lambda row: -row.count(0))
                    assert product_system(list(d.entries), m, flavor, coords) == QMatrix(
                        len(want), len(coords), tuple(v for row in want for v in row))
                    dropped += m * m - len(want)
                assert dropped > 0


def test_tangent_examples():
    assert tangent_space_at(zeros(2, 2), Flavor.SYMMETRIC).dim == 0
    assert tangent_space_at(identity(2), Flavor.SYMMETRIC).dim == 3
    x = random_flavored_matrix(Flavor.SKEW, 4, 2, seed=7)
    assert tangent_space_at(x, Flavor.SKEW).dim == 5


def test_tangent_conormal_complementarity():
    rng = SeedStream(21)
    for flavor in Flavor:
        for m in range(1, 6):
            ranks = range(m + 1) if flavor == Flavor.SYMMETRIC else range(0, m + 1, 2)
            for r in ranks:
                x = random_flavored_matrix(flavor, m, r, seed=next_u64(rng))
                tang = tangent_space_at(x, flavor)
                sol = conormal_solutions(x, flavor)
                assert tang.dim + sol.dim == flavor_dim(flavor, m)


def test_condition_iff_perpendicular():
    rng = SeedStream(33)
    for flavor, m, r in [(Flavor.SYMMETRIC, 3, 1), (Flavor.SYMMETRIC, 4, 3), (Flavor.SKEW, 4, 2)]:
        x = random_flavored_matrix(flavor, m, r, seed=next_u64(rng))
        tang = tangent_space_at(x, flavor)
        basis = coordinate_basis(flavor, m)
        for trial in range(20):
            coords = [randint(rng, -5, 5) for _ in range(flavor_dim(flavor, m))]
            c = flavor_from_coords(coords, flavor, m)
            perp = all(
                trace_pairing(c, flavor_from_coords(tang.basis.col(j), flavor, m)) == 0
                for j in range(tang.dim)
            )
            assert perp == conormal_condition(x, c)
