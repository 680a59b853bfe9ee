"""Value semantics of the package's records and orbit labels.

Orbit labels are values of their own class: two labels of different
classes are never equal, so they never share a dict or lru_cache
entry.  Labels do not order, not even within one class.  Every record
and label refuses assignment to its fields.
"""

import copy
import pickle

import pytest

from kcycle.ccengine import CheckRow, cross_check
from kcycle.orbits import (
    BasePoint,
    ClosurePoset,
    IntersectionOrbit,
    Kind,
    NormalizedSetup,
    RadicalOrbit,
    Setup,
    SplitOrbit,
    base_point,
    normalize,
    orbit_dimension,
)
from kcycle.resolutions import MicrolocalVerdict, Witness, draw_conormals, judge_microlocal

from reference import zeros

SO42 = Setup(Kind.SO, 4, 2)


def _labels():
    return [IntersectionOrbit(1, 0), IntersectionOrbit(0, 1), IntersectionOrbit(1, 1),
            RadicalOrbit(0), RadicalOrbit(1), RadicalOrbit(2), SplitOrbit(1), SplitOrbit(-1)]


def test_labels_of_different_classes_never_meet():
    labels = _labels()
    for a, b in zip(labels, _labels()):
        assert a == b and hash(a) == hash(b) and a is not b
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            assert (a == b) == (i == j) and (a != b) == (i != j), (a, b)
    assert RadicalOrbit(1) != SplitOrbit(1) and not RadicalOrbit(1) == SplitOrbit(1)
    assert RadicalOrbit(1) != (1,) and IntersectionOrbit(1, 0) != (1, 0)
    assert IntersectionOrbit(s=1, t=0) == IntersectionOrbit(1, 0)
    assert RadicalOrbit(i=2) == RadicalOrbit(2) and SplitOrbit(sign=-1) == SplitOrbit(-1)
    assert len({RadicalOrbit(1): "r", SplitOrbit(1): "s", RadicalOrbit(1): "again"}) == 2
    assert len(set(labels) | set(_labels())) == len(labels)
    for a in labels:
        assert copy.copy(a) == a == copy.deepcopy(a) == pickle.loads(pickle.dumps(a))


def test_labels_of_different_classes_never_share_a_cache_entry():
    # so(4,2) has rad0, rad1 and the two split orbits rad2+ and rad2-:
    # RadicalOrbit(1) and SplitOrbit(1) have fields (1,) both
    rad, split = RadicalOrbit(1), SplitOrbit(1)
    for first, second in ((rad, split), (split, rad)):
        assert base_point(SO42, first).orbit == first
        assert base_point(SO42, second).orbit == second
    assert base_point(SO42, rad) != base_point(SO42, split)
    assert base_point(SO42, rad).row_groups == (1, 1)
    assert base_point(SO42, split).row_groups == (2, 0)
    assert (orbit_dimension(SO42, rad), orbit_dimension(SO42, split)) == (3, 1)
    poset = ClosurePoset(SO42)
    assert poset.dimension == {RadicalOrbit(0): 4, rad: 3, split: 1, SplitOrbit(-1): 1}
    # every so(2k, k) has a RadicalOrbit(1) beside SplitOrbit(1)
    for k in (3, 4):
        setup = Setup(Kind.SO, 2 * k, k)
        assert len(ClosurePoset(setup).dimension) == k + 2
        assert base_point(setup, RadicalOrbit(1)).orbit == RadicalOrbit(1)
        assert base_point(setup, SplitOrbit(1)).orbit == SplitOrbit(1)


def test_labels_do_not_order():
    # no package code orders a label, so no pair orders, within one class or across two
    pairs = [(RadicalOrbit(1), RadicalOrbit(2)), (RadicalOrbit(1), RadicalOrbit(1)),
             (IntersectionOrbit(0, 1), IntersectionOrbit(1, 0)), (SplitOrbit(-1), SplitOrbit(1)),
             (RadicalOrbit(1), SplitOrbit(1)), (SplitOrbit(1), RadicalOrbit(1)),
             (IntersectionOrbit(0, 1), RadicalOrbit(0)), (RadicalOrbit(1), (2,))]
    for x, y in pairs:
        for compare in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y):
            with pytest.raises(TypeError):
                compare()
    for labels in ([RadicalOrbit(2), RadicalOrbit(0)], [RadicalOrbit(1), SplitOrbit(1)]):
        with pytest.raises(TypeError):
            sorted(labels)


def test_label_reprs():
    assert repr(IntersectionOrbit(1, 0)) == "IntersectionOrbit(s=1, t=0)"
    assert repr(RadicalOrbit(1)) == "RadicalOrbit(i=1)"
    assert repr(SplitOrbit(-1)) == "SplitOrbit(sign=-1)"
    assert repr(SO42) == "Setup(kind=<Kind.SO: 'so'>, n=4, k=2, p=None, q=None)"


def test_records_and_labels_are_frozen():
    glpq = Setup(Kind.GLPQ, 4, 2, p=2, q=2)
    rows = cross_check(glpq, trials=2)
    bp = base_point(glpq, IntersectionOrbit(1, 0))
    verdict = judge_microlocal(IntersectionOrbit(0, 0), draw_conormals(bp, trials=2))
    instances = {
        Setup: glpq, NormalizedSetup: normalize(glpq), BasePoint: bp,
        IntersectionOrbit: IntersectionOrbit(1, 0), RadicalOrbit: RadicalOrbit(1),
        SplitOrbit: SplitOrbit(1),
        CheckRow: rows[0],
        Witness: Witness(zeros(1, 1), zeros(1, 1)),
        MicrolocalVerdict: verdict,
    }
    fields = {
        Setup: ("kind", "n", "k", "p", "q"),
        NormalizedSetup: ("original", "setup", "swapped_pq", "dualized"),
        BasePoint: ("setup", "orbit", "basis", "inverse", "row_groups", "col_groups"),
        IntersectionOrbit: ("s", "t"), RadicalOrbit: ("i",), SplitOrbit: ("sign",),
        CheckRow: ("check", "subject", "ok", "detail"),
        Witness: ("v", "w"),
        MicrolocalVerdict: ("kind", "disagreements", "hits", "bad_witnesses"),
    }
    assert len(instances) == 9
    for cls, obj in instances.items():
        assert type(obj) is cls
        for name in fields[cls]:
            value = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            assert getattr(obj, name) is value
