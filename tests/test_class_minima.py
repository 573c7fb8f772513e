"""The window's one pass over its rows certifies each class's minimal K-types.

Every principal-series representative of ``tempiric_window`` carries a
minimal K-type read off the window's own rows.  Grouped by class, they
must match the exhaustive sweep of ``oracles.minimal_ktypes_by_sweep``
and the standalone ``minimal_ktypes``, and the window must enumerate its
K-types once and never sweep.
"""

import functools
import json
from fractions import Fraction

import pytest

from tempiric import tempered, weights
from tempiric.catalog import builtin, load, serialize
from tempiric.cli import main
from tempiric.tempered import minimal_ktypes, tempiric_window

import oracles

BOUNDS = (0, 9, 41, 100)


def _half_gram_sp11():
    doc = serialize(builtin("Sp11"))
    doc["gram"] = ["1/2", "0", "0", "1/2"]
    return load(json.dumps(doc))


DATA = {
    "SL2R": builtin("SL2R"),
    "SO31": builtin("SO31"),
    "Sp11": builtin("Sp11"),
    "Sp11-half-gram": _half_gram_sp11(),
}


@functools.cache
def _swept(name, sigma):
    # The oracle's exhaustive sweep does not depend on the bound.
    return oracles.minimal_ktypes_by_sweep(DATA[name], sigma)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", sorted(DATA))
def test_window_minima_match_the_sweeps(name, bound):
    datum = DATA[name]
    window = tempiric_window(datum, bound)
    by_class: dict = {}
    for rep in window.reps:
        if rep.kind == "ps":
            by_class.setdefault(rep.ps_class, []).append(rep.min_ktype)
    assert sorted(by_class, key=lambda c: c.representative) == list(window.classes)
    for cls, minima in by_class.items():
        assert tuple(minima) == _swept(name, cls.representative), cls.describe()
        assert tuple(minima) == minimal_ktypes(datum, cls), cls.describe()


def test_window_certifies_minima_above_the_sweep_ceiling():
    # The class {(-181)|(181)} has its minimum (181) at norm 182^2 = 33,124,
    # above norm 32,768: the window reads it off its own rows, and the
    # standalone minimal_ktypes reads it off the one window at the norm of
    # its witness K-type (181), which here is the minimum itself.
    so31 = DATA["SO31"]
    (rep,) = [
        rep for rep in tempiric_window(so31, 33124).reps
        if rep.ps_class.orbit == ((-181,), (181,))
    ]
    assert rep.min_ktype == (181,) and not rep.split
    assert minimal_ktypes(so31, rep.ps_class) == ((181,),)


def _count_calls(monkeypatch, name, modules):
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(DATA))
def test_window_enumerates_once_and_never_sweeps(monkeypatch, name):
    enumerations = _count_calls(monkeypatch, "enumerate_ktypes", [tempered])
    sweeps = _count_calls(monkeypatch, "minimal_ktypes", [tempered])
    tempiric_window(DATA[name], 100).reps
    assert len(enumerations) == 1 and not sweeps


def test_tempiric_table_enumerates_once(monkeypatch, capsys):
    enumerations = _count_calls(
        monkeypatch, "enumerate_ktypes", [weights, tempered]
    )
    assert main(["tempiric-table", "--group", "Sp11", "--bound", "100"]) == 0
    assert capsys.readouterr().out.startswith("kind,parameters,")
    assert len(enumerations) == 1


def test_standalone_minimal_ktypes_enumerates_once_at_the_witness_norm(monkeypatch):
    # Called on its own, minimal_ktypes (and constituents) builds one
    # window, at the norm of the class's witness K-type: for Sp11's class
    # {(9)} the witness is (9,0), of norm 11^2 + 2^2 = 125, and the minima
    # (4,5) and (5,4) lie at norm 85.
    sp11 = DATA["Sp11"]
    enumerations = _count_calls(monkeypatch, "enumerate_ktypes", [tempered])
    cls = tempered.make_principal_class(sp11, (9,))
    assert minimal_ktypes(sp11, cls) == ((4, 5), (5, 4))
    assert [Fraction(args[1]) for args in enumerations] == [125]
    reps = tempered.constituents(sp11, cls)
    assert [rep.min_ktype for rep in reps] == [(4, 5), (5, 4)]
    assert [Fraction(args[1]) for args in enumerations] == [125, 125]
