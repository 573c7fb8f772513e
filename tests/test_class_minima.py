"""The window's one pass over its rows certifies each class's minimal K-types.

Every principal-series representative of ``tempiric_window`` carries a
minimal K-type read off the window's own rows.  Grouped by class, they
must match ``Window.classes`` and the exhaustive sweep of
``oracles.minimal_ktypes_by_sweep``, and the window must enumerate its
K-types once.
"""

import functools

import pytest

from tempiric import tempered, weights
from tempiric.catalog import builtin
from tempiric.cli import main
from tempiric.tempered import tempiric_window

import oracles
from conftest import half_gram_sp11

BOUNDS = (0, 9, 41, 100)


DATA = {
    "SL2R": builtin("SL2R"),
    "SO31": builtin("SO31"),
    "Sp11": builtin("Sp11"),
    "Sp11-half-gram": half_gram_sp11(),
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
        assert tuple(minima) == window.classes[cls], cls.describe()


def test_window_certifies_minima_above_the_sweep_ceiling():
    # The class {(-181)|(181)} has its minimum (181) at norm 182^2 = 33,124,
    # above norm 32,768: the window reads it off its own rows.
    window = tempiric_window(DATA["SO31"], 33124)
    (rep,) = [rep for rep in window.reps if rep.ps_class == window.class_of[(181,)]]
    assert rep.ps_class.orbit == ((-181,), (181,))
    assert rep.min_ktype == (181,) and not rep.split
    assert window.classes[rep.ps_class] == ((181,),)


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
    tempiric_window(DATA[name], 100).reps
    assert len(enumerations) == 1


def test_tempiric_table_enumerates_once(monkeypatch, capsys):
    enumerations = _count_calls(
        monkeypatch, "enumerate_ktypes", [weights, tempered]
    )
    assert main(["tempiric-table", "--group", "Sp11", "--bound", "100"]) == 0
    assert capsys.readouterr().out.startswith("kind,parameters,")
    assert len(enumerations) == 1

