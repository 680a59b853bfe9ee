"""Properties of orbits, closure order and dimensions over random setups.

The exhaustive sweeps stop at n <= 8; these draw setups with n <= 12.
Draws are derandomized, so the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle.orbits import (
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    RadicalOrbit,
    Setup,
    enumerate_orbits,
    normalize,
    orbit_dimension,
)

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
    i = orbit.i if isinstance(orbit, RadicalOrbit) else setup.k  # split orbits are isotropic
    return i * (i - 1) // 2 if setup.kind == Kind.SP else i * (i + 1) // 2


@draws
@given(setups())
def test_normalization_round_trips_every_orbit(setup):
    norm = normalize(setup)
    for orbit in enumerate_orbits(setup):
        assert norm.from_normalized(norm.to_normalized(orbit)) == orbit


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
