"""The record classes keep the value semantics of the dataclasses they were.

Frozen value types (``CompactGroup``, ``DiscreteSeriesDatum``,
``GroupDatum``, ``PrincipalClass``, ``TempiricRep``,
``VerificationReport``) compare by the tuple of their compared fields,
hash as that tuple, and refuse assignment.  ``MultMatrix`` and
``DiagramSpec`` compare the same way but stay mutable and unhashable.
``Window`` is frozen and compares by identity.  Every class takes its
fields positionally, in the order of that tuple.
"""

import json
from fractions import Fraction

import pytest

from tempiric.catalog import DiscreteSeriesDatum, GroupDatum, builtin, load, serialize
from tempiric.cktheory import VerificationReport
from tempiric.figures import DiagramSpec, build_diagram
from tempiric.tempered import MultMatrix, PrincipalClass, TempiricRep, Window
from tempiric.weights import SU2, TORUS1, CompactGroup


def _sp11():
    return load(json.dumps(serialize(builtin("Sp11"))))


def _ds():
    ds = builtin("Sp11").ds
    return DiscreteSeriesDatum(ds.compact_pos_roots, ds.noncompact_roots, ds.weyl_k)


def _matrix():
    return MultMatrix(((0,), (1,)), ("a", "b"), [{0: 1}, {1: 2}], ("exact", "exact"))


def _spec():
    spec = build_diagram(builtin("SL2R"), 2)
    return DiagramSpec(spec.group, spec.grid_bound, spec.nodes, spec.markers, spec.partners)


FIELDS = {
    CompactGroup: ("atoms",),
    DiscreteSeriesDatum: ("compact_pos_roots", "noncompact_roots", "weyl_k"),
    GroupDatum: (
        "name", "k", "m", "branching_rule", "gram", "two_rho_c", "weyl_on_mhat",
        "equal_rank", "ds",
    ),
    PrincipalClass: ("orbit", "w_sigma_order"),
    TempiricRep: ("kind", "min_ktype", "hc_param", "ps_class", "split"),
    VerificationReport: ("name", "passed", "counterexample", "data"),
    MultMatrix: ("rows", "cols", "nonzeros", "resolution"),
    Window: ("datum", "bound"),
    DiagramSpec: ("group", "grid_bound", "nodes", "markers", "partners"),
}

# (build an instance, build one that differs in a field, kind)
CASES = {
    "CompactGroup": (
        lambda: CompactGroup((SU2, SU2)), lambda: CompactGroup((SU2, TORUS1)), "frozen"
    ),
    "DiscreteSeriesDatum": (_ds, lambda: builtin("SL2R").ds, "frozen"),
    "GroupDatum": (_sp11, lambda: builtin("SL2R"), "frozen"),
    "PrincipalClass": (
        lambda: PrincipalClass(((1,),), 2), lambda: PrincipalClass(((-1,), (1,)), 1), "frozen"
    ),
    "TempiricRep": (
        lambda: TempiricRep("ds", (0, 2), (1, 2)),
        lambda: TempiricRep("ds", (0, 2), (1, 2), None, True),
        "frozen",
    ),
    "VerificationReport": (
        lambda: VerificationReport("check", False, {"error": "e"}, {"n": 1}),
        lambda: VerificationReport("check", True),
        "frozen",
    ),
    "MultMatrix": (_matrix, lambda: MultMatrix((), (), [], ()), "mutable"),
    "Window": (
        lambda: Window(builtin("SL2R"), Fraction(4)),
        lambda: Window(builtin("SL2R"), Fraction(5)),
        "identity",
    ),
    "DiagramSpec": (_spec, lambda: build_diagram(builtin("SL2R"), 3), "mutable"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    build, build_other, kind = CASES[name]
    a, b, other = build(), build(), build_other()
    fields = FIELDS[type(a)]
    key = tuple(getattr(a, f) for f in fields)
    assert key == tuple(getattr(b, f) for f in fields)
    assert a == a and (a == 1) is False
    assert type(a)(*key) == a or kind == "identity"
    if kind == "identity":
        assert a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b and a != other
    if kind == "frozen":
        try:
            expected = hash(key)
        except TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected
    if kind == "mutable":
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, fields[1], getattr(other, fields[1]))
        assert a != b
        return
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert tuple(getattr(a, f) for f in fields) == key


def test_group_datum_ignores_its_derived_fields():
    a, b = _sp11(), builtin("Sp11")
    assert (a.gram_scale, a.int_gram) == (1, ((1, 0), (0, 1)))
    half = load(json.dumps({**serialize(a), "gram": ["1/2", "0", "0", "1/2"]}))
    assert (half.gram_scale, half.int_gram) == (2, ((1, 0), (0, 1)))
    b.__dict__.update(gram_scale=7, int_gram=((7,),))
    assert a == b and hash(a) == hash(b)


def test_cached_parts_still_cache_on_frozen_instances():
    window = Window(builtin("Sp11"), Fraction(10))
    assert window.rows is window.rows and "rows" in vars(window)
    ds = _ds()
    assert ds.signed_weyl_k is ds.signed_weyl_k


def test_invalid_inputs_still_raise():
    with pytest.raises(ValueError, match="nonempty"):
        CompactGroup(())
    with pytest.raises(ValueError, match="unknown atom kind"):
        CompactGroup(("U1",))
    with pytest.raises(ValueError, match="counterexample"):
        VerificationReport("check", False)
    first, second = VerificationReport("a", True), VerificationReport("b", True)
    assert first.data == {} and first.data is not second.data
