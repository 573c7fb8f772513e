"""Lattice diagrams of the minimal-K-type labeling of the tempered dual.

Each node is a K-type on a coordinate grid.  Circles mark lowest K-types
of discrete series, paired squares mark the two minimal K-types of a
split principal-series component, and triangles mark unique minimal
K-types of unsplit components.  The node placement is derived from the
assembled window, not transcribed from any picture, and the emitted
headers say so.

Each marker kind is declared once, in ``_MARKERS``: its text letter,
legend meaning, DOT shape and SVG element, which every writer and the
legend read.  ``_pairs`` lists each partner pair once for the DOT and SVG
writers.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .catalog import GroupDatum
from .tempered import (
    InternalInconsistencyError,
    format_label,
    partner_minimum,
    tempiric_window,
)
from .weights import CYCLIC2, scaled_norm, _label_axes, _Record

CIRCLE = "circle"
SQUARE = "square"
TRIANGLE = "triangle"

_Marker = namedtuple("_Marker", "letter meaning shape svg")

# The SVG element is drawn about the node's centre (x, y); render_svg
# closes it with the fill and stroke that every marker shares.
_MARKERS = {
    CIRCLE: _Marker("o", "discrete series", "circle", lambda x, y: f'<circle cx="{x}" cy="{y}" r="8"'),
    SQUARE: _Marker("s", "split principal-series pair", "box",
                    lambda x, y: f'<rect x="{x - 8}" y="{y - 8}" width="16" height="16"'),
    TRIANGLE: _Marker("t", "unique minimal K-type", "triangle",
                      lambda x, y: f'<polygon points="{x},{y - 9} {x - 8},{y + 7} {x + 8},{y + 7}"'),
}


class DiagramSpec(_Record):
    def __init__(self, group: str, grid_bound: int, nodes: tuple, markers: dict, partners: dict):
        self.group, self.grid_bound, self.nodes = group, grid_bound, nodes
        self.markers, self.partners = markers, partners

    def _key(self) -> tuple:
        return (self.group, self.grid_bound, self.nodes, self.markers, self.partners)

    def counts(self) -> dict:
        out = dict.fromkeys(_MARKERS, 0)
        for marker in self.markers.values():
            out[marker] += 1
        return out


def build_diagram(datum: GroupDatum, grid_bound: int) -> DiagramSpec:
    """Marker assignment for every K-type on the coordinate grid.

    Supports groups whose K-label grid is a one-dimensional strip or a
    two-dimensional grid.
    """
    if datum.k.lattice_dim not in (1, 2):
        raise ValueError(
            f"group {datum.name} has a {datum.k.lattice_dim}-dimensional label grid; "
            "only strips and planes are drawable"
        )
    if grid_bound < 0:
        raise ValueError("grid bound must be nonnegative")
    if CYCLIC2 in datum.k.atoms:
        raise ValueError("diagram grids are not defined for parity atoms")
    dim = datum.k.lattice_dim
    axes = _label_axes(datum.k, [grid_bound] * dim, [0] * dim, grid_bound)
    # The largest Vogan norm on the grid, divided by D once.  The catalog
    # refuses a Gram matrix that is not positive-definite, so the norm is
    # convex and takes its maximum at a corner of the grid's box.
    corners = itertools.product(*[(axis[0], axis[-1]) for axis in axes])
    bound = Fraction(max(scaled_norm(datum, c) for c in corners), datum.gram_scale)
    window = tempiric_window(datum, bound)
    # An oversize window is refused before the grid's nodes are listed.
    window.refuse_oversize_boxes()
    nodes = list(itertools.product(*axes))
    on_grid = set(nodes)
    by_min = {rep.min_ktype: rep for rep in window.reps}
    markers = {}
    partners = {}
    for node in nodes:
        rep = by_min.get(node)
        if rep is None:
            raise InternalInconsistencyError(
                f"grid node {format_label(node)} is minimal in no representative"
            )
        if rep.kind == "ds":
            markers[node] = CIRCLE
        elif rep.split:
            markers[node] = SQUARE
            partner = partner_minimum(window, rep)
            if partner not in on_grid:
                raise InternalInconsistencyError(
                    f"partner of {format_label(node)} falls outside the grid"
                )
            partners[node] = partner
        else:
            markers[node] = TRIANGLE
    return DiagramSpec(
        group=datum.name,
        grid_bound=grid_bound,
        nodes=tuple(nodes),
        markers=markers,
        partners=partners,
    )


def _pairs(spec: DiagramSpec) -> list[tuple]:
    # Each partner pair once, its smaller node first, in node order.
    return [(node, partner) for node, partner in sorted(spec.partners.items()) if node < partner]


def _header_lines(spec: DiagramSpec) -> list[str]:
    counts = spec.counts()
    return [
        f"tempered-dual marker diagram (derived pattern), group={spec.group}, "
        f"grid={spec.grid_bound}",
        "legend: " + ", ".join(f"{m.letter}={m.meaning}" for m in _MARKERS.values()),
        f"counts: circles={counts[CIRCLE]} squares={counts[SQUARE]} "
        f"(pairs={len(spec.partners) // 2}) triangles={counts[TRIANGLE]}",
    ]


def render_text(spec: DiagramSpec) -> str:
    lines = ["# " + line for line in _header_lines(spec)]
    dim = len(spec.nodes[0])
    if dim == 1:
        xs = sorted(node[0] for node in spec.nodes)
        lines.append(" ".join(_MARKERS[spec.markers[(x,)]].letter for x in xs))
        lines.append(" ".join(str(x) for x in xs))
    else:
        xs = sorted({node[0] for node in spec.nodes})
        ys = sorted({node[1] for node in spec.nodes})
        for y in reversed(ys):
            row = " ".join(_MARKERS[spec.markers[(x, y)]].letter for x in xs)
            lines.append(f"b={y:>2} | {row}")
        lines.append("       " + " ".join(str(x) for x in xs))
    return "\n".join(lines) + "\n"


def render_dot(spec: DiagramSpec) -> str:
    lines = ["graph tempered_markers {"]
    for line in _header_lines(spec):
        lines.append(f"  // {line}")
    for node in spec.nodes:
        shape = _MARKERS[spec.markers[node]].shape
        lines.append(f'  "{format_label(node)}" [shape={shape}];')
    for node, partner in _pairs(spec):
        lines.append(f'  "{format_label(node)}" -- "{format_label(partner)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_svg(spec: DiagramSpec) -> str:
    step = 40
    pad = 30
    dim = len(spec.nodes[0])
    xs = sorted({node[0] for node in spec.nodes})
    ys = sorted({node[1] for node in spec.nodes}) if dim == 2 else [0]

    def place(node):
        x = pad + (node[0] - xs[0]) * step
        y_val = node[1] if dim == 2 else 0
        y = pad + (ys[-1] - y_val) * step
        return x, y

    width = pad * 2 + (len(xs) - 1) * step
    height = pad * 2 + (len(ys) - 1) * step
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for line in _header_lines(spec):
        lines.append(f"  <!-- {line} -->")
    for node, partner in _pairs(spec):
        x1, y1 = place(node)
        x2, y2 = place(partner)
        lines.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black"/>'
        )
    for node in spec.nodes:
        svg = _MARKERS[spec.markers[node]].svg
        lines.append(f'  {svg(*place(node))} fill="white" stroke="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
