"""Planar drawings: barycentric (Tutte) layout, SVG and DOT output.

The layout pins the largest face to a regular polygon and places every
other vertex at the average of its neighbours, which for a 3-connected
planar graph yields a planar straight-line drawing with convex faces.
"""

from __future__ import annotations

import heapq
import math

from .graphs import PaintedGraph

Point = tuple[float, float]

SVG_SIZE = 640  # width and height of the drawing, in pixels
SVG_MARGIN = 40  # blank border around the layout, in pixels


def tutte_layout(g: PaintedGraph) -> list[Point]:
    """Coordinates per vertex, outer face on the unit circle.  Raises
    NonplanarError or PreconditionError unless g is planar and 3-connected.

    The interior positions solve the Dirichlet Laplacian system, which is
    sparse and symmetric positive definite: Gaussian elimination in
    minimum-degree order (ties to the smaller vertex) needs no pivoting
    and fills in little on a planar graph.
    """
    fs = g.embedding.faces
    sizes = fs.face_sizes()
    outer = max(range(len(sizes)), key=lambda f: (sizes[f], -f))
    boundary = [tail for tail, _head, _e in fs.faces[outer]]  # a cycle: g is 3-connected
    pos: dict[int, Point] = {}
    for i, v in enumerate(boundary):
        ang = 2.0 * math.pi * i / len(boundary) - math.pi / 2.0
        pos[v] = (math.cos(ang), math.sin(ang))
    # row v of the interior system: diagonal, off-diagonal entries by column, right-hand side
    diag: dict[int, float] = {}
    rows: dict[int, dict[int, float]] = {}
    rhs: dict[int, Point] = {}
    for v in range(g.vertex_count):
        if v in pos:
            continue
        diag[v] = float(g.degree(v))
        row = rows[v] = {}
        bx = by = 0.0
        for e in g.incident[v]:
            u = g.other_end(e, v)
            if u in pos:
                bx += pos[u][0]
                by += pos[u][1]
            else:
                row[u] = -1.0
        rhs[v] = (bx, by)
    heap = [(len(row), v) for v, row in rows.items()]
    heapq.heapify(heap)
    eliminated: list[tuple[int, dict[int, float]]] = []
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in rows or degree != len(rows[v]):
            continue  # stale entry: v is gone or its degree has changed
        row = rows.pop(v)
        pivot = diag[v]
        if not pivot > 0.0:
            raise RuntimeError(f"Tutte system is not positive definite at vertex {v}")
        bx, by = rhs[v]
        for u, a_uv in row.items():
            f = a_uv / pivot
            urow = rows[u]
            del urow[v]
            diag[u] -= f * a_uv
            for w, a_vw in row.items():
                if w != u:
                    urow[w] = urow.get(w, 0.0) - f * a_vw
            ux, uy = rhs[u]
            rhs[u] = (ux - f * bx, uy - f * by)
            heapq.heappush(heap, (len(urow), u))
        eliminated.append((v, row))
    for v, row in reversed(eliminated):  # row holds only vertices eliminated after v
        bx, by = rhs[v]
        for w, a in row.items():
            bx -= a * pos[w][0]
            by -= a * pos[w][1]
        pos[v] = (bx / diag[v], by / diag[v])
    return [pos[v] for v in range(g.vertex_count)]


def to_svg(g: PaintedGraph) -> str:
    """SVG 1.1 drawing; painted edges get a distinct heavy stroke."""
    layout = tutte_layout(g)
    xs = [p[0] for p in layout]
    ys = [p[1] for p in layout]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0) or 1.0
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / span

    def sx(p: Point) -> float:
        return SVG_MARGIN + (p[0] - x0) * scale

    def sy(p: Point) -> float:
        return SVG_MARGIN + (p[1] - y0) * scale

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
