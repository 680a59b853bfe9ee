"""Properties of orbits, closure order, dimensions and witnesses over random setups.

The exhaustive sweeps stop at n <= 8; these draw setups with n <= 12.
Draws are derandomized, so the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle.conormal import ConormalVector, block_shapes
from kcycle.exactla import QMatrix, rank
from kcycle.orbits import (
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    Setup,
    base_point,
    enumerate_orbits,
    normalize,
    orbit_dimension,
)
from reference import WITNESS_ROUTES, lift_witness

MAX_N = 12

draws = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def setups(draw):
    kind = draw(st.sampled_from(list(Kind)))
    n = 2 * draw(st.integers(1, MAX_N // 2)) if kind == Kind.SP else draw(st.integers(2, MAX_N))
    k = draw(st.integers(1, n - 1))
    if kind == Kind.GLPQ:
        p = draw(st.integers(1, n - 1))
        return Setup(kind, n, k, p=p, q=n - p)
    return Setup(kind, n, k)


def closed_form_codim(setup: Setup, orbit) -> int:
    if isinstance(orbit, IntersectionOrbit):
        s, t, k = orbit.s, orbit.t, setup.k
        return s * (setup.q - k + s) + t * (setup.p - k + t)
    i = orbit.i
    return i * (i - 1) // 2 if setup.kind == Kind.SP else i * (i + 1) // 2


@draws
@given(setups())
def test_normalization_round_trips_every_orbit(setup):
    # the forward map inverted over the setup's orbits: one orbit per
    # normalized label, and every normalized orbit is reached
    norm = normalize(setup)
    orbits = enumerate_orbits(setup)
    back = {norm.to_normalized(orbit): orbit for orbit in orbits}
    assert len(back) == len(orbits)
    assert set(back) == set(enumerate_orbits(norm.setup))


@draws
@given(setups())
def test_closure_order_is_strictly_monotone_in_dimension(setup):
    pos = ClosurePoset(setup)
    for a in pos.orbits:
        for b in pos.orbits:
            if a != b and pos.leq(a, b):
                assert pos.dimension[a] < pos.dimension[b], (a, b)


@draws
@given(setups())
def test_action_rank_codimension_matches_closed_form(setup):
    for orbit in enumerate_orbits(setup):
        codim = setup.dim_gr - orbit_dimension(setup, orbit)
        assert codim == closed_form_codim(setup, orbit), orbit


@st.composite
def glpq_points(draw):
    """A glpq covector with height-1 blocks at a non-open orbit, and thresholds in range."""
    n = draw(st.integers(2, MAX_N))
    k, p = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    setup = Setup(Kind.GLPQ, n, k, p=p, q=n - p)
    bases = [base_point(setup, o) for o in enumerate_orbits(setup)]
    bp = draw(st.sampled_from([b for b in bases if sum(r * c for r, c in block_shapes(b))]))
    (hr, hc), (lr, lc) = block_shapes(bp)
    h = QMatrix(hr, hc, tuple(draw(st.lists(st.integers(-1, 1), min_size=hr * hc,
                                            max_size=hr * hc))))
    l = QMatrix(lr, lc, tuple(draw(st.lists(st.integers(-1, 1), min_size=lr * lc,
                                            max_size=lr * lc))))
    xi = ConormalVector(bp, h, l, rank(h), rank(l))
    return xi, draw(st.integers(0, hr)), draw(st.integers(0, lr))


@draws
@given(glpq_points())
def test_member_witnesses_hold_in_blocks_and_in_the_ambient_space(point):
    xi, s, t = point
    for kind, (member, satisfies, _, ambient) in WITNESS_ROUTES.items():
        hit, wit = member(xi, s, t)
        if hit:
            assert satisfies(xi, s, t, wit), kind
            assert ambient(xi, s, t, lift_witness(xi, kind, wit)), kind
