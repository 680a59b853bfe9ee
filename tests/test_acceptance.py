"""End-to-end acceptance sweep.

Each test covers one shipping criterion over the full parameter range
it names, prints a single pass line with its timing, and enforces the
stated runtime budget where one exists.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from kcycle.ccengine import (
    characteristic_cycle,
    check_microlocal,
    check_smallness,
    check_transversality,
    pullback_cc,
)
from kcycle.exactla import QMatrix, SeedStream, rank
from kcycle.matrixstrata import Flavor, flavor_dim
from kcycle.orbits import (
    Kind,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    base_point,
    enumerate_orbits,
    family,
    normalize,
    orbit_dimension,
)
from kcycle.resolutions import RESOLUTIONS, ResolutionKind
from reference import (
    add,
    conormal_condition,
    conormal_matrix,
    conormal_solutions,
    conormal_space,
    flavor_from_coords,
    max_conormal_rank,
    next_u64,
    randint,
    random_flavored_matrix,
    sample_conormal,
    setups,
    tangent_space_at,
    trace_pairing,
)

MAX_N = 8
GLPQ_SETUPS = setups(MAX_N, (Kind.GLPQ,))
ISOTROPY_SETUPS = setups(MAX_N, (Kind.SP, Kind.SO))


def _passed(name, started, detail):
    print(f"{name}: PASS ({time.monotonic() - started:.1f}s) {detail}")


def test_criterion_1_cycle_table_reproduction():
    started = time.monotonic()
    orbit_count = 0
    three_term = []
    for setup in GLPQ_SETUPS + ISOTROPY_SETUPS:
        m = min(setup.k, setup.n - setup.k)
        for orbit in enumerate_orbits(setup):
            cc = characteristic_cycle(setup, orbit)
            orbit_count += 1
            if setup.kind != Kind.SO:
                assert len(cc) == 1
                continue
            reducible = (isinstance(orbit, RadicalOrbit)
                         and orbit.i % 2 == 1 and orbit.i < m)
            assert (len(cc) == 1) == (not reducible)
            if not reducible:
                continue
            if (setup.n == 2 * setup.k and setup.k % 2 == 0
                    and orbit.i == setup.k - 1):
                assert len(cc) == 3
                assert dict(cc) == {
                    orbit: 1, SplitOrbit(1): 1, SplitOrbit(-1): 1,
                }
                three_term.append((setup, orbit))
            else:
                assert dict(cc) == {orbit: 1, RadicalOrbit(orbit.i + 1): 1}
    assert (Setup(Kind.SO, 8, 4), RadicalOrbit(3)) in three_term
    assert len(three_term) == 2  # n=4 and n=8 square even cases
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed("criterion 1 (cycle tables, n <= 8)", started,
            f"{orbit_count} orbit cycles")


def test_criterion_2_pullback_agreement():
    started = time.monotonic()
    checked = 0
    for setup in ISOTROPY_SETUPS:
        for orbit in enumerate_orbits(setup):
            stated = characteristic_cycle(setup, orbit)
            pulled = pullback_cc(setup, orbit)
            assert dict(stated) == dict(pulled), (setup, orbit)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed("criterion 2 (chart pullback agreement)", started,
            f"{checked} orbits")


def test_criterion_3_microlocal_vanishing():
    started = time.monotonic()
    pairs = 0
    for setup in GLPQ_SETUPS:
        for row in check_microlocal(setup, trials=20, seed=0):
            kind, trials, square, hits, bad, disagreements = row.detail
            assert row.ok and trials == 20, (setup, row.subject)
            assert hits == bad == disagreements == 0, (setup, row.subject)
            pairs += 1
    assert pairs == 919
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed("criterion 3 (microlocal vanishing, 20 trials)", started,
            f"{pairs} ordered pairs")


def test_criterion_4_smallness_claims():
    started = time.monotonic()
    checked = 0
    for setup in GLPQ_SETUPS:
        work = normalize(setup).setup
        sides = []
        if work.n - work.k >= work.p:
            sides.append(ResolutionKind.Z)
        if work.n - work.k <= work.p:
            sides.append(ResolutionKind.ZTILDE)
        assert RESOLUTIONS[family(setup)].applicable(work) == tuple(sides)
        for row in check_smallness(setup):
            kind, target = row.subject
            small, asserted = row.detail
            assert row.ok and asserted, (setup, kind, target)
            if kind in sides:
                assert small is True, (setup, kind, target)
                checked += 1
            else:
                assert small is None, (setup, kind, target)
    assert checked == 928
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed("criterion 4 (resolution smallness)", started,
            f"{checked} claims")


def test_criterion_5_transversality_sweep():
    started = time.monotonic()
    charts = 0
    for setup in ISOTROPY_SETUPS:
        if setup.k < setup.n - setup.k:
            continue
        rows = check_transversality(setup, points=100, seed=0)
        assert all(r.ok and r.detail == (100, 0) for r in rows), setup
        expect_charts = 2 if (setup.kind == Kind.SO
                              and setup.n == 2 * setup.k) else 1
        assert len(rows) == expect_charts
        charts += expect_charts
    assert charts == 30
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed("criterion 5 (transversality, 100 points/chart)", started,
            f"{charts} charts")


def test_criterion_6_matrix_stratum_geometry():
    started = time.monotonic()
    complement_checks = 0
    for flavor in Flavor:
        for m in range(1, 6):
            d = flavor_dim(flavor, m)
            ranks = range(0, m + 1, 2) if flavor == Flavor.SKEW else range(m + 1)
            for r in ranks:
                for sample in range(3):
                    x = random_flavored_matrix(flavor, m, r, seed=sample)
                    tangent = tangent_space_at(x, flavor)
                    normal = conormal_solutions(x, flavor)
                    assert tangent.dim + normal.dim == d
                    complement_checks += 1
    pair_checks = 0
    for flavor in Flavor:
        m = 4
        d = flavor_dim(flavor, m)
        rng = SeedStream(17).derive("acceptance-pairs", flavor.value)
        for trial in range(50):
            r = 2 * randint(rng, 0, 2) if flavor == Flavor.SKEW \
                else randint(rng, 0, m)
            x = random_flavored_matrix(flavor, m, r, seed=next_u64(rng))
            if trial % 2 == 0:
                c = flavor_from_coords(
                    [randint(rng, -5, 5) for _ in range(d)], flavor, m)
            else:
                sol = conormal_solutions(x, flavor)
                acc = [0] * d
                for j in range(sol.dim):
                    w = randint(rng, -5, 5)
                    col = sol.basis.col(j)
                    acc = [a + w * v for a, v in zip(acc, col)]
                c = flavor_from_coords(acc, flavor, m)
            perpendicular = all(
                trace_pairing(c, t) == 0 for t in _tangent_generators(x)
            )
            assert conormal_condition(x, c) == perpendicular
            pair_checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed("criterion 6 (matrix stratum geometry)", started,
            f"{complement_checks} complements, {pair_checks} pairs")


def _tangent_generators(x):
    m = x.nrows
    out = []
    for a in range(m):
        for b in range(m):
            y = QMatrix.from_rows(
                [[1 if (i, j) == (a, b) else 0 for j in range(m)]
                 for i in range(m)]
            )
            out.append(add(y.mul(x), x.mul(y.transpose())))
    return out


def test_criterion_7_conormal_structure():
    started = time.monotonic()
    dim_checks = 0
    for setup in GLPQ_SETUPS + ISOTROPY_SETUPS:
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            assert (conormal_space(bp).dim + orbit_dimension(setup, orbit)
                    == setup.dim_gr), (setup, orbit)
            dim_checks += 1
    rank_checks = 0
    for setup in GLPQ_SETUPS:
        for orbit in enumerate_orbits(setup):
            expected = max_conormal_rank(setup, orbit)
            bp = base_point(setup, orbit)
            if conormal_space(bp).dim == 0:
                assert expected == 0  # open orbit: nothing to sample
                continue
            observed = max(
                rank(conormal_matrix(sample_conormal(bp, seed))) for seed in range(50)
            )
            assert observed == expected, (setup, orbit)
            rank_checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed("criterion 7 (conormal structure)", started,
            f"{dim_checks} dimension sums, {rank_checks} rank maxima")


def test_criterion_8_reproducible_reports():
    started = time.monotonic()
    # the child interpreter does not see pytest's pythonpath setting
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (
        ["--kind", "glpq", "--n", "5", "--k", "2", "--p", "3", "--q", "2"],
        ["--kind", "so", "--n", "6", "--k", "3"],
    ):
        cmd = [sys.executable, "-m", "kcycle.cli", "verify",
               "--suite", "all", "--seed", "42", "--format", "json"] + argv
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout
    _passed("criterion 8 (byte-identical verify reports)", started,
            "two commands, two runs each")
