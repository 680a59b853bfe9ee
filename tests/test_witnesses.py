"""Block-coordinate witnesses against the ambient route of tests/reference.py.

Every glpq setup with n <= 6, every non-open orbit, the zero block pair
and two seeded height-1 pairs, every (s, t) inside the blocks' rows and
both resolutions: membership must agree with the ambient route, every
block witness must pass its own check and, lifted to C^n, the ambient
check; at every other threshold pair the two checks must agree on the
two routes' witnesses.  The mutants show that the block check is not
vacuous.
"""

import pytest

from kcycle import conormal, resolutions
from kcycle.conormal import ConormalVector
from kcycle.exactla import QMatrix, SeedStream, rank
from kcycle.orbits import Kind, base_point, enumerate_orbits
from kcycle.resolutions import ResolutionKind
from reference import WITNESS_ROUTES as ROUTES, lift_witness, setups

MAX_N = 6


def covector(bp, h_entries, l_entries) -> ConormalVector:
    (hr, hc), (lr, lc) = conormal.block_shapes(bp)
    h, l = QMatrix(hr, hc, tuple(h_entries)), QMatrix(lr, lc, tuple(l_entries))
    return ConormalVector(bp, h, l, rank(h), rank(l))


def block_pairs(bp) -> list:
    """The zero pair and two seeded pairs with entries in {-1, 0, 1}."""
    (hr, hc), (lr, lc) = conormal.block_shapes(bp)
    rng = SeedStream(61).derive("witness-blocks", bp.setup.describe(), str(bp.orbit))
    out = [covector(bp, [0] * (hr * hc), [0] * (lr * lc))]
    for _ in range(2):
        out.append(covector(bp, rng.randints(hr * hc, -1, 1), rng.randints(lr * lc, -1, 1)))
    return out


def sweep_covectors(max_n: int = MAX_N) -> list:
    out = []
    for setup in setups(max_n, (Kind.GLPQ,)):
        for orbit in enumerate_orbits(setup):
            bp = base_point(setup, orbit)
            (hr, hc), (lr, lc) = conormal.block_shapes(bp)
            if hr * hc + lr * lc:  # the open orbit has no conormal directions
                out.extend(block_pairs(bp))
    return out


def grid(xi) -> list:
    return [(s, t) for s in range(xi.h_block.nrows + 1) for t in range(xi.l_block.nrows + 1)]


def test_block_witnesses_match_the_ambient_route():
    calls = witnesses = 0
    for xi in sweep_covectors():
        thresholds = grid(xi)
        for kind, (member, satisfies, ref_member, ref_satisfies) in ROUTES.items():
            for s, t in thresholds:
                hit, wit = member(xi, s, t)
                ref_hit, ref_wit = ref_member(xi, s, t)
                calls += 1
                assert hit == ref_hit, (xi, kind, s, t)
                if not hit:
                    assert wit is None
                    continue
                witnesses += 1
                assert satisfies(xi, s, t, wit), (xi, kind, s, t)
                assert ref_satisfies(xi, s, t, lift_witness(xi, kind, wit)), (xi, kind, s, t)
                for other in thresholds:
                    if other != (s, t):
                        assert satisfies(xi, *other, wit) == ref_satisfies(xi, *other, ref_wit)
    assert (calls, witnesses) == (4110, 2676)


def _first_units(block, dim):
    return QMatrix.from_cols(block.nrows, [[int(i == c) for i in range(block.nrows)]
                                           for c in range(dim)])


def _outside_kernel(real):
    def frame(h, dim):
        v = real(h, dim)
        c = next((c for c in range(h.ncols) if any(h.col(c))), None)
        if not dim or c is None:
            return v
        # the first column becomes a unit vector that h does not kill
        rows = v.rows()
        for i, row in enumerate(rows):
            row[0] = int(i == c)
        return QMatrix.from_rows(rows)
    return frame


def _one_short(real):
    def frame(block, dim):
        v = real(block, dim)
        return v.submatrix(range(v.nrows), range(max(dim - 1, 0)))
    return frame


MUTANTS = {
    "image ignored": ("_image_frame", lambda real: _first_units,
                      {ResolutionKind.Z, ResolutionKind.ZTILDE}),
    "vector outside ker h": ("_kernel_frame", _outside_kernel, {ResolutionKind.ZTILDE}),
    "image frame one short": ("_image_frame", _one_short,
                              {ResolutionKind.Z, ResolutionKind.ZTILDE}),
    "kernel frame one short": ("_kernel_frame", _one_short, {ResolutionKind.ZTILDE}),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_wrong_frame_fails_its_check(monkeypatch, mutant):
    name, mutate, kinds = MUTANTS[mutant]
    monkeypatch.setattr(resolutions, name, mutate(getattr(resolutions, name)))
    failed = dict.fromkeys(kinds, 0)
    for xi in sweep_covectors():
        for kind in kinds:
            member, satisfies = ROUTES[kind][:2]
            for s, t in grid(xi):
                hit, wit = member(xi, s, t)
                failed[kind] += hit and not satisfies(xi, s, t, wit)
    assert all(failed.values()), failed
