import pytest

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

