"""Planar drawings: barycentric (Tutte) layout, SVG and DOT output.

The layout pins the largest face to a regular polygon and places every
other vertex at the average of its neighbours, which for a 3-connected
planar graph yields a planar straight-line drawing with convex faces.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import PaintedGraph

Point = tuple[float, float]

SVG_SIZE = 640  # width and height of the drawing, in pixels
SVG_MARGIN = 40  # blank border around the layout, in pixels


def tutte_layout(g: PaintedGraph) -> list[Point]:
    """Coordinates per vertex, outer face on the unit circle.  Raises
    NonplanarError or PreconditionError unless g is planar and 3-connected."""
    fs = g.embedding.faces
    sizes = fs.face_sizes()
    outer = max(range(len(sizes)), key=lambda f: (sizes[f], -f))
    boundary = [tail for tail, _head, _e in fs.faces[outer]]  # a cycle: g is 3-connected
    pos: dict[int, Point] = {}
    for i, v in enumerate(boundary):
        ang = 2.0 * math.pi * i / len(boundary) - math.pi / 2.0
        pos[v] = (math.cos(ang), math.sin(ang))
    interior = [v for v in range(g.vertex_count) if v not in pos]
    if interior:
        index = {v: i for i, v in enumerate(interior)}
        a = np.zeros((len(interior), len(interior)))
        b = np.zeros((len(interior), 2))
        for v in interior:
            i = index[v]
            a[i, i] = g.degree(v)
            for e in g.incident[v]:
                u = g.other_end(e, v)
                if u in index:
                    a[i, index[u]] -= 1.0
                else:
                    b[i, 0] += pos[u][0]
                    b[i, 1] += pos[u][1]
        sol = np.linalg.solve(a, b)
        for v in interior:
            pos[v] = (float(sol[index[v], 0]), float(sol[index[v], 1]))
    return [pos[v] for v in range(g.vertex_count)]


def to_svg(g: PaintedGraph) -> str:
    """SVG 1.1 drawing; painted edges get a distinct heavy stroke."""
    layout = tutte_layout(g)
    xs = [p[0] for p in layout]
    ys = [p[1] for p in layout]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / span

    def sx(p: Point) -> float:
        return SVG_MARGIN + (p[0] - min(xs)) * scale

    def sy(p: Point) -> float:
        return SVG_MARGIN + (p[1] - min(ys)) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for e, (u, v) in enumerate(g.edges):
        x1, y1 = sx(layout[u]), sy(layout[u])
        x2, y2 = sx(layout[v]), sy(layout[v])
        if g.is_painted(e):
            style = 'stroke="#c0392b" stroke-width="3.5"'
        else:
            style = 'stroke="#2c3e50" stroke-width="1.5"'
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>'
        )
    for v, p in enumerate(layout):
        lines.append(
            f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="4" fill="#2c3e50"/>'
        )
        lines.append(
            f'<text x="{sx(p) + 6:.2f}" y="{sy(p) - 6:.2f}" '
            f'font-size="11" font-family="sans-serif">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def to_dot(g: PaintedGraph) -> str:
    """Graphviz source; painted edges carry a painted attribute."""
    lines = ["graph crushtacean {", "  node [shape=circle fontsize=10];"]
    for v in range(g.vertex_count):
        lines.append(f"  {v};")
    for e, (u, v) in enumerate(g.edges):
        if g.is_painted(e):
            lines.append(f'  {u} -- {v} [painted=true color="#c0392b" penwidth=2.5];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
