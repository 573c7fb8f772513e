"""Lattice diagrams of the minimal-K-type labeling of the tempered dual.

Each node is a K-type on a coordinate grid.  Circles mark lowest K-types
of discrete series, paired squares mark the two minimal K-types of a
split principal-series component, and triangles mark unique minimal
K-types of unsplit components.  The node placement is derived from the
assembled window, not transcribed from any picture, and the emitted
headers say so.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import GroupDatum
from .tempered import (
    InternalInconsistencyError,
    format_label,
    partner_minimum,
    tempiric_window,
)
from .weights import CYCLIC2, labels_in_box, scaled_norm, _Record

CIRCLE = "circle"
SQUARE = "square"
TRIANGLE = "triangle"

_TEXT_MARKS = {CIRCLE: "o", SQUARE: "s", TRIANGLE: "t"}


class DiagramSpec(_Record):
    def __init__(self, group: str, grid_bound: int, nodes: tuple, markers: dict, partners: dict):
        self.group, self.grid_bound, self.nodes = group, grid_bound, nodes
        self.markers, self.partners = markers, partners

    def _key(self) -> tuple:
        return (self.group, self.grid_bound, self.nodes, self.markers, self.partners)

    def counts(self) -> dict:
        out = {CIRCLE: 0, SQUARE: 0, TRIANGLE: 0}
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
    nodes = list(labels_in_box(datum.k, grid_bound))
    on_grid = set(nodes)
    # The largest Vogan norm on the grid, divided by D once.
    bound = Fraction(max(scaled_norm(datum, node) for node in nodes), datum.gram_scale)
    window = tempiric_window(datum, bound)
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


def _header_lines(spec: DiagramSpec) -> list[str]:
    counts = spec.counts()
    return [
        f"tempered-dual marker diagram (derived pattern), group={spec.group}, "
        f"grid={spec.grid_bound}",
        "legend: o=discrete series, s=split principal-series pair, "
        "t=unique minimal K-type",
        f"counts: circles={counts[CIRCLE]} squares={counts[SQUARE]} "
        f"(pairs={len(spec.partners) // 2}) triangles={counts[TRIANGLE]}",
    ]


def render_text(spec: DiagramSpec) -> str:
    lines = ["# " + line for line in _header_lines(spec)]
    dim = len(spec.nodes[0])
    if dim == 1:
        xs = sorted(node[0] for node in spec.nodes)
        lines.append(" ".join(_TEXT_MARKS[spec.markers[(x,)]] for x in xs))
        lines.append(" ".join(str(x) for x in xs))
    else:
        xs = sorted({node[0] for node in spec.nodes})
        ys = sorted({node[1] for node in spec.nodes})
        for y in reversed(ys):
            row = " ".join(_TEXT_MARKS[spec.markers[(x, y)]] for x in xs)
            lines.append(f"b={y:>2} | {row}")
        lines.append("       " + " ".join(str(x) for x in xs))
    return "\n".join(lines) + "\n"


def render_dot(spec: DiagramSpec) -> str:
    lines = ["graph tempered_markers {"]
    for line in _header_lines(spec):
        lines.append(f"  // {line}")
    shapes = {CIRCLE: "circle", SQUARE: "box", TRIANGLE: "triangle"}
    for node in spec.nodes:
        lines.append(
            f'  "{format_label(node)}" [shape={shapes[spec.markers[node]]}];'
        )
    for node in sorted(spec.partners):
        partner = spec.partners[node]
        if node < partner:
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
    for node in sorted(spec.partners):
        partner = spec.partners[node]
        if node < partner:
            x1, y1 = place(node)
            x2, y2 = place(partner)
            lines.append(
                f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                'stroke="black"/>'
            )
    for node in spec.nodes:
        x, y = place(node)
        marker = spec.markers[node]
        if marker == CIRCLE:
            lines.append(
                f'  <circle cx="{x}" cy="{y}" r="8" fill="white" stroke="black"/>'
            )
        elif marker == SQUARE:
            lines.append(
                f'  <rect x="{x - 8}" y="{y - 8}" width="16" height="16" '
                'fill="white" stroke="black"/>'
            )
        else:
            points = f"{x},{y - 9} {x - 8},{y + 7} {x + 8},{y + 7}"
            lines.append(
                f'  <polygon points="{points}" fill="white" stroke="black"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
