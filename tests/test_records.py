"""Value semantics of the package's records and orbit labels.

Orbit labels are values of their own class: each is a NamedTuple whose
last field, tag, is a crc32 of the class name, so two labels of
different classes, such as IntersectionOrbit(1, 0) and
RadicalOrbit(1, 0), are never equal and never share a dict or lru_cache
entry, and a label's hash is the same under every hash seed.  The two
split orbits of so(2k, k) are RadicalOrbit(k, +1) and
RadicalOrbit(k, -1).  A caller cannot set the tag, and a label with
another tag, or a plain tuple, is no orbit.  Labels do not order, not
even within one class.  Every record and label refuses assignment to
its fields, and no label has a __dict__.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    base_point,
    check_orbit,
    family,
    normalize,
    orbit_dimension,
    valid_orbit,
)
from kcycle.resolutions import (
    RESOLUTIONS,
    MicrolocalVerdict,
    Witness,
    draw_conormals,
    is_small,
    judge_microlocal,
)

from reference import zeros

SO42 = Setup(Kind.SO, 4, 2)
GLPQ4 = Setup(Kind.GLPQ, 4, 2, p=2, q=2)
SRC = Path(__file__).resolve().parent.parent / "src"


def _labels():
    return [IntersectionOrbit(1, 0), IntersectionOrbit(0, 1), IntersectionOrbit(1, 1),
            RadicalOrbit(0), RadicalOrbit(1), RadicalOrbit(2), RadicalOrbit(2, 1), RadicalOrbit(2, -1)]


def test_labels_of_different_classes_never_meet():
    labels = _labels()
    for a, b in zip(labels, _labels()):
        assert a == b and hash(a) == hash(b) and a is not b
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            assert (a == b) == (i == j) and (a != b) == (i != j), (a, b)
    # IntersectionOrbit(1, 0) and RadicalOrbit(1, 0) have fields (1, 0) both
    assert IntersectionOrbit(1, 0) != RadicalOrbit(1, 0)
    assert not IntersectionOrbit(1, 0) == RadicalOrbit(1, 0)
    assert RadicalOrbit(1) != (1, 0) and IntersectionOrbit(1, 0) != (1, 0)
    assert IntersectionOrbit(s=1, t=0) == IntersectionOrbit(1, 0)
    assert RadicalOrbit(i=2) == RadicalOrbit(2, 0) and RadicalOrbit(i=2, sign=-1) == RadicalOrbit(2, -1)
    assert len({IntersectionOrbit(1, 0): "q", RadicalOrbit(1, 0): "r", IntersectionOrbit(1, 0): "again"}) == 2
    assert len(set(labels) | set(_labels())) == len(labels)
    for a in labels:
        assert copy.copy(a) == a == copy.deepcopy(a) == pickle.loads(pickle.dumps(a))


def test_labels_of_different_classes_never_share_a_cache_entry():
    # the label of one family is no orbit of the other's setup, even after
    # the label with its fields, (1, 0), is cached there
    quad, rad = IntersectionOrbit(1, 0), RadicalOrbit(1, 0)
    for setup, cached, other in ((SO42, rad, quad), (GLPQ4, quad, rad)):
        assert base_point(setup, cached).orbit == cached and orbit_dimension(setup, cached) == 3
        for call in (base_point, orbit_dimension):
            with pytest.raises(ValueError, match=r" is not a \(non-empty\) orbit of "):
                call(setup, other)
        assert other not in ClosurePoset(setup).dimension
    # the posets of the two setups share one dict with no key in common
    dims = {**ClosurePoset(SO42).dimension, **ClosurePoset(GLPQ4).dimension}
    assert len(dims) == 4 + 6 and (dims[quad], dims[rad]) == (3, 3)


def test_split_labels_differ_by_sign_alone():
    # so(4,2) has rad0, rad1 and the two split orbits rad2+ and rad2-
    rad, plus, minus = RadicalOrbit(1), RadicalOrbit(2, 1), RadicalOrbit(2, -1)
    assert base_point(SO42, plus) != base_point(SO42, minus)
    assert base_point(SO42, rad).row_groups == (1, 1)
    assert base_point(SO42, plus).row_groups == base_point(SO42, minus).row_groups == (2, 0)
    assert (orbit_dimension(SO42, rad), orbit_dimension(SO42, plus)) == (3, 1)
    poset = ClosurePoset(SO42)
    assert poset.dimension == {RadicalOrbit(0): 4, rad: 3, plus: 1, minus: 1}
    for k in (3, 4):
        setup = Setup(Kind.SO, 2 * k, k)
        assert len(ClosurePoset(setup).dimension) == k + 2
        for sign in (1, -1):
            assert base_point(setup, RadicalOrbit(k, sign)).orbit == RadicalOrbit(k, sign)


def test_labels_do_not_order():
    # no package code orders a label, so no pair orders, within one class or across two
    pairs = [(RadicalOrbit(1), RadicalOrbit(2)), (RadicalOrbit(1), RadicalOrbit(1)),
             (IntersectionOrbit(0, 1), IntersectionOrbit(1, 0)), (RadicalOrbit(2, -1), RadicalOrbit(2, 1)),
             (IntersectionOrbit(1, 0), RadicalOrbit(1, 0)), (RadicalOrbit(1, 0), IntersectionOrbit(1, 0)),
             (IntersectionOrbit(0, 1), RadicalOrbit(0)), (RadicalOrbit(1), (2,))]
    for x, y in pairs:
        for compare in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y):
            with pytest.raises(TypeError):
                compare()
    for labels in ([RadicalOrbit(2), RadicalOrbit(0)], [IntersectionOrbit(1, 0), RadicalOrbit(1, 0)]):
        with pytest.raises(TypeError):
            sorted(labels)


def test_label_reprs():
    assert repr(IntersectionOrbit(1, 0)) == "IntersectionOrbit(s=1, t=0)"
    assert repr(RadicalOrbit(1)) == "RadicalOrbit(i=1, sign=0)"
    assert repr(RadicalOrbit(3, -1)) == "RadicalOrbit(i=3, sign=-1)"
    assert repr(SO42) == "Setup(kind=<Kind.SO: 'so'>, n=4, k=2, p=None, q=None)"


def test_a_caller_cannot_set_a_tag():
    for build in (lambda: IntersectionOrbit(1, 0, 7), lambda: IntersectionOrbit(1, 0, tag=7),
                  lambda: RadicalOrbit(1, 0, IntersectionOrbit(1, 0).tag), lambda: RadicalOrbit(1, tag=0)):
        with pytest.raises(TypeError):
            build()
    for label in _labels():  # copy and pickle rebuild through __new__, with the class's tag
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert tuple(pickle.loads(pickle.dumps(label, proto))) == tuple(label)
        assert tuple(copy.copy(label)) == tuple(label) == tuple(copy.deepcopy(label))


def test_a_label_or_tuple_equal_to_a_cached_label_is_no_orbit():
    # _replace can still give a label another class's tag; as a tuple it
    # then equals that class's label, and so does a plain tuple
    for setup, real, other in ((GLPQ4, IntersectionOrbit(1, 0), RadicalOrbit(1, 0)),
                               (SO42, RadicalOrbit(1, 0), IntersectionOrbit(1, 0))):
        assert base_point(setup, real).orbit == real and orbit_dimension(setup, real) == 3
        forged = other._replace(tag=real.tag)
        assert forged == real == tuple(real) and hash(forged) == hash(real) == hash(tuple(real))
        # the forged label's class and tag disagree: the class check refuses it
        # on this setup, the tag check on a setup of its class's family
        assert not valid_orbit(GLPQ4, forged) and not valid_orbit(SO42, forged)
        pos = ClosurePoset(setup)
        first = RESOLUTIONS[family(setup)].kinds[0]
        for fake in (forged, tuple(real)):
            for call in (lambda: base_point(setup, fake), lambda: orbit_dimension(setup, fake),
                         lambda: check_orbit(setup, fake), lambda: is_small(pos, first, fake)):
                with pytest.raises(ValueError, match=r"orbit"):
                    call()
    forged = RadicalOrbit(1)._replace(tag=IntersectionOrbit(1, 0).tag)
    assert valid_orbit(SO42, RadicalOrbit(1))
    with pytest.raises(ValueError, match=r"^rad1 is not a \(non-empty\) orbit of so\(n=4,k=2\)$"):
        check_orbit(SO42, forged)


def test_labels_take_no_new_attribute_and_have_no_dict():
    # without __slots__ = () on the mixin and on each label class, every
    # label would get a __dict__ and take new attributes
    for label in _labels():
        assert not hasattr(label, "__dict__"), label
        with pytest.raises(AttributeError):
            label.extra = 1
        with pytest.raises(AttributeError):
            object.__setattr__(label, "extra", 1)


def test_label_hashes_do_not_depend_on_the_hash_seed():
    # the tag is a crc32, not a str hash, so a label hashes the same in
    # every process; the printed hash("kcycle") shows that the seeds differ
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from kcycle.orbits import Kind, Setup, enumerate_orbits\n"
        "print(hash('kcycle'))\n"
        "for setup in (Setup(Kind.SO, 4, 2), Setup(Kind.GLPQ, 4, 2, p=2, q=2)):\n"
        "    print([hash(o) for o in enumerate_orbits(setup)])\n"
    )
    outputs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
               for seed in ("0", "1")]
    (control0, rest0), (control1, rest1) = (out.split("\n", 1) for out in outputs)
    assert control0 != control1
    assert rest0 == rest1 and rest0.count("[") == 2


def test_records_and_labels_are_frozen():
    glpq = GLPQ4
    rows = cross_check(glpq, trials=2)
    bp = base_point(glpq, IntersectionOrbit(1, 0))
    verdict = judge_microlocal(IntersectionOrbit(0, 0), draw_conormals(bp, trials=2))
    instances = {
        Setup: glpq, NormalizedSetup: normalize(glpq), BasePoint: bp,
        IntersectionOrbit: IntersectionOrbit(1, 0), RadicalOrbit: RadicalOrbit(2, -1),
        CheckRow: rows[0],
        Witness: Witness(zeros(1, 1), zeros(1, 1)),
        MicrolocalVerdict: verdict,
    }
    fields = {
        Setup: ("kind", "n", "k", "p", "q"),
        NormalizedSetup: ("original", "setup"),
        BasePoint: ("setup", "orbit", "basis", "inverse", "row_groups", "col_groups"),
        IntersectionOrbit: ("s", "t"), RadicalOrbit: ("i", "sign"),
        CheckRow: ("check", "subject", "ok", "detail"),
        Witness: ("v", "w"),
        MicrolocalVerdict: ("kind", "disagreements", "hits", "bad_witnesses"),
    }
    assert len(instances) == 8
    for cls, obj in instances.items():
        assert type(obj) is cls
        for name in fields[cls]:
            value = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            assert getattr(obj, name) is value
