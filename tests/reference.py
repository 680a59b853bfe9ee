"""Reference routes that only the tests use, kept out of the package.

Each function recomputes something the package computes another way,
so a test can compare the two.
"""

from kcycle.degeneracy import ChartPoint, _differential_values, form_flavor
from kcycle.exactla import Subspace
from kcycle.matrixstrata import flavor_coords, flavor_dim
from kcycle.orbits import Setup


def section_differential_image(setup: Setup, a: ChartPoint,
                               center_last: bool = False) -> Subspace:
    """Image of the derivative of the section at ``a``, in flavor coordinates."""
    flavor = form_flavor(setup.kind)
    return Subspace.span(
        flavor_dim(flavor, setup.k),
        [flavor_coords(v, flavor) for v in _differential_values(setup, a, center_last)],
    )
