import json
import tracemalloc
from fractions import Fraction

import pytest

from tempiric import figures
from tempiric.catalog import GroupDatum, builtin, load, serialize
from tempiric.figures import (
    CIRCLE,
    SQUARE,
    TRIANGLE,
    build_diagram,
    render_dot,
    render_svg,
    render_text,
)
from tempiric.tempered import ds_enumerate
from tempiric.weights import (
    CYCLIC2,
    TORUS1,
    CompactGroup,
    WindowTooLargeError,
    labels_in_box,
    scaled_norm,
)


def test_sp11_grid_partition(sp11):
    spec = build_diagram(sp11, 6)
    counts = spec.counts()
    assert len(spec.nodes) == 49
    assert counts == {CIRCLE: 30, SQUARE: 12, TRIANGLE: 7}
    for (a, b), marker in spec.markers.items():
        if a == b:
            assert marker == TRIANGLE
        elif abs(a - b) == 1:
            assert marker == SQUARE
        else:
            assert marker == CIRCLE


def test_sp11_pairing_is_fixed_point_free_involution(sp11):
    spec = build_diagram(sp11, 6)
    squares = {n for n, m in spec.markers.items() if m == SQUARE}
    assert set(spec.partners) == squares
    for node, partner in spec.partners.items():
        assert partner != node
        assert spec.partners[partner] == node
        assert partner == (node[1], node[0])


def test_sp11_circles_match_discrete_series(sp11):
    spec = build_diagram(sp11, 6)
    circles = {n for n, m in spec.markers.items() if m == CIRCLE}
    bound = max(
        (a + 2) ** 2 + (b + 2) ** 2 for a in range(7) for b in range(7)
    )
    on_grid = {
        rep.min_ktype
        for rep in ds_enumerate(sp11, bound)
        if max(rep.min_ktype) <= 6
    }
    assert circles == on_grid


def test_sl2r_strip(sl2r):
    spec = build_diagram(sl2r, 4)
    markers = spec.markers
    assert markers[(0,)] == TRIANGLE
    assert markers[(1,)] == SQUARE and markers[(-1,)] == SQUARE
    assert spec.partners[(1,)] == (-1,)
    for n in (2, 3, 4, -2, -3, -4):
        assert markers[(n,)] == CIRCLE


def test_so31_strip_all_triangles(so31):
    spec = build_diagram(so31, 5)
    assert all(marker == TRIANGLE for marker in spec.markers.values())
    assert not spec.partners


def test_render_text(sp11):
    text = render_text(build_diagram(sp11, 6))
    assert "counts: circles=30 squares=12 (pairs=6) triangles=7" in text
    assert "derived pattern" in text
    rows = [line for line in text.splitlines() if line.startswith("b=")]
    assert len(rows) == 7


def test_render_dot_is_perfect_matching(sp11):
    dot = render_dot(build_diagram(sp11, 6))
    edges = [line for line in dot.splitlines() if " -- " in line]
    assert len(edges) == 6
    endpoints = []
    for line in edges:
        left, right = line.strip().rstrip(";").split(" -- ")
        endpoints += [left.strip('"'), right.strip('"')]
    assert len(endpoints) == len(set(endpoints)) == 12
    assert dot.count("[shape=box]") == 12
    assert dot.count("[shape=circle]") == 30
    assert dot.count("[shape=triangle]") == 7


def test_render_svg_shapes(sl2r):
    svg = render_svg(build_diagram(sl2r, 4))
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 6
    assert svg.count("<rect") == 2
    assert svg.count("<polygon") == 1
    assert svg.count("<line") == 1


def test_grid_requires_low_dimension(sl2r):
    with pytest.raises(ValueError):
        build_diagram(sl2r, -1)


@pytest.mark.parametrize(
    "atoms, message",
    [
        (
            (TORUS1, TORUS1, TORUS1),
            "group SL2R has a 3-dimensional label grid; only strips and planes are drawable",
        ),
        ((TORUS1, CYCLIC2), "diagram grids are not defined for parity atoms"),
    ],
    ids=["three-dimensional", "parity-atom"],
)
def test_undrawable_k_is_refused(sl2r, atoms, message):
    # SL2R with K replaced by the given atoms.  No branching rule of the
    # loader admits such a K, so the GroupDatum is built directly.
    fields = ("name", "m", "branching_rule", "gram", "two_rho_c", "weyl_on_mhat", "equal_rank", "ds")
    datum = GroupDatum(k=CompactGroup(atoms), **{f: getattr(sl2r, f) for f in fields})
    with pytest.raises(ValueError) as caught:
        build_diagram(datum, 3)
    assert str(caught.value) == message


def test_oversize_window_is_refused_before_the_grid_is_listed(sp11):
    # Sp11's grid at 999 is 10^6 nodes, within the label-box limit, but its
    # window's label box is not.  The window is refused before any node is
    # listed, so the refusal stays far below the grid's own size.
    tracemalloc.start()
    try:
        with pytest.raises(WindowTooLargeError, match="needs a box of 1999396 labels"):
            build_diagram(sp11, 999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _with_gram(name, gram):
    doc = serialize(builtin(name))
    doc["gram"] = gram
    return load(json.dumps(doc))


GRID_DATA = {
    "SL2R": builtin("SL2R"),
    "SO31": builtin("SO31"),
    "Sp11": builtin("Sp11"),
    "Sp11-half-gram": _with_gram("Sp11", ["1/2", "0", "0", "1/2"]),
    "Sp11-skew-gram": _with_gram("Sp11", ["1", "-5/2", "-5/2", "7"]),
}


class _WindowBound(Exception):
    pass


@pytest.mark.parametrize("grid_bound", range(25))
@pytest.mark.parametrize("name", sorted(GRID_DATA))
def test_diagram_window_bound_is_the_largest_norm_on_the_grid(monkeypatch, name, grid_bound):
    # build_diagram reads its window bound off the grid box's corners; the
    # reference is the largest Vogan norm over every node of the grid.
    def window(datum, bound):
        raise _WindowBound(bound)

    monkeypatch.setattr(figures, "tempiric_window", window)
    datum = GRID_DATA[name]
    with pytest.raises(_WindowBound) as caught:
        build_diagram(datum, grid_bound)
    nodes = labels_in_box(datum.k, grid_bound)
    largest = max(scaled_norm(datum, node) for node in nodes)
    assert caught.value.args == (Fraction(largest, datum.gram_scale),)
