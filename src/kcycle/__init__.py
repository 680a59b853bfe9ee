"""Characteristic cycles of K-orbit closures on Grassmannians.

Exact integer computations of orbit posets, conormal geometry, and
characteristic cycles for the symmetric pairs GL(p)xGL(q), Sp(n), and
O(n) acting on Gr(k, n), together with independent verification routes
(microlocal fibers, transversal slices to matrix rank strata).

The package defines no dataclass.  Records are typing.NamedTuples; one
with checks is a thin subclass that runs them in __new__.  The three
orbit labels share a small slotted base class, orbits.OrbitLabel, so
that labels of two classes never compare equal, as tuples would.
Importing dataclasses loads inspect, ast, dis and tokenize, which
nothing else here needs, and decorating a class takes several times as
long as defining a NamedTuple: together about two thirds of importing
kcycle.cli, 46 ms before and 14 ms after (median of 25 fresh python -I
interpreters, 2-CPU host, Python 3.11.7).
"""

__version__ = "0.1.0"
