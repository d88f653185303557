"""Painted graphs, rotation systems, faces and duals.

A painted graph is an undirected simple graph together with a distinguished
edge subset (the "painted" edges).  Everything downstream (validation,
knot-circle tracing, cut enumeration, symmetry classification) is built on
the three primitives in this module: a canonical immutable graph value, a
rotation system describing a sphere embedding, and the face structure that
a rotation system induces.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    GraphFormatError,
    InvalidRotationError,
    NonplanarError,
    PreconditionError,
)

GRAPH_FORMAT = "painted-graph/1"

Edge = tuple[int, int]
# Rotation system: one row per vertex, the incident edge indices in cyclic
# order.  Rows are canonically rotated to start at the smallest edge index.
Rotation = tuple[tuple[int, ...], ...]
# A dart is a directed edge (tail, head, edge_index).
Dart = tuple[int, int, int]


@dataclass(frozen=True)
class PaintedGraph:
    """Immutable graph with a painted edge subset.

    Invariants (enforced by the ``painted_graph`` factory): edges are
    loop-free, duplicate-free, stored as (u, v) with u < v in ascending
    order; painted indices are ascending and in range; every vertex is
    incident to at least one edge.  ``rotation`` is a sphere rotation the
    graph arrived with (from a file or a construction); it takes no part in
    equality, hashing or serialization.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    painted: tuple[int, ...]
    rotation: Rotation | None = field(default=None, compare=False, hash=False, repr=False)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(row) for row in inc)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(row)) for row in adj)

    @cached_property
    def embedding(self) -> Embedding:
        """The sphere embedding, unique up to mirror image (Whitney): the
        carried rotation, else the planarity test's.  Raises NonplanarError,
        or PreconditionError unless the graph is 3-connected."""
        rot = planar_embed(self) if self.rotation is None else self.rotation
        return Embedding(self, rot, check_3_connected(self, rot))

    @cached_property
    def painted_set(self) -> frozenset[int]:
        return frozenset(self.painted)

    def is_painted(self, edge: int) -> bool:
        return edge in self.painted_set

    def painted_pairs(self) -> tuple[Edge, ...]:
        return tuple(self.edges[i] for i in self.painted)

    def degree(self, v: int) -> int:
        return len(self.incident[v])

    def other_end(self, edge: int, v: int) -> int:
        u, w = self.edges[edge]
        return w if v == u else u

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def painted_graph(
    vertex_count: int,
    edges: Iterable[Sequence[int]],
    painted: Iterable[Sequence[int]] = (),
) -> PaintedGraph:
    """Build a canonical PaintedGraph from loose edge/painted pair lists.

    ``painted`` is given as edge pairs (any endpoint order); they must all
    occur in ``edges``.  Raises GraphFormatError on structural problems.
    """
    if vertex_count < 1:
        raise GraphFormatError("vertex_count must be at least 1")
    norm: list[Edge] = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        norm.append((u, v) if u < v else (v, u))
    if len(set(norm)) != len(norm):
        raise GraphFormatError("duplicate edge")
    if vertex_count > 2 * len(norm):  # checked before anything of size vertex_count is allocated
        raise GraphFormatError(f"isolated vertex: {vertex_count} vertices, {len(norm)} edges")
    norm.sort()
    index = {e: i for i, e in enumerate(norm)}
    seen = [False] * vertex_count
    for u, v in norm:
        seen[u] = seen[v] = True
    if not all(seen):
        missing = seen.index(False)
        raise GraphFormatError(f"isolated vertex {missing}")
    painted_idx: set[int] = set()
    for p in painted:
        u, v = int(p[0]), int(p[1])
        key = (u, v) if u < v else (v, u)
        if key not in index:
            raise GraphFormatError(f"painted pair {key} is not an edge")
        if index[key] in painted_idx:
            raise GraphFormatError(f"painted pair {key} listed twice")
        painted_idx.add(index[key])
    return PaintedGraph(vertex_count, tuple(norm), tuple(sorted(painted_idx)))


def relabel(g: PaintedGraph, perm: Sequence[int]) -> PaintedGraph:
    """Apply a vertex relabeling (perm[old] = new) and re-canonicalize."""
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    painted = [(perm[u], perm[v]) for u, v in g.painted_pairs()]
    return painted_graph(g.vertex_count, edges, painted)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructReport:
    vertex_count: int
    edge_count: int
    connected: bool
    cubic: bool
    degree_min: int
    degree_max: int


def _component_count(g: PaintedGraph) -> int:
    seen = [False] * g.vertex_count
    count = 0
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def validate_basic(g: PaintedGraph) -> StructReport:
    """Report connected/cubic structure.  Never raises."""
    degs = [g.degree(v) for v in range(g.vertex_count)]
    return StructReport(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        connected=_component_count(g) == 1,
        cubic=all(d == 3 for d in degs),
        degree_min=min(degs),
        degree_max=max(degs),
    )


# ---------------------------------------------------------------------------
# embeddings, faces, duals
# ---------------------------------------------------------------------------


def _canon_row(row: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence to start at its smallest entry."""
    if not row:
        return ()
    k = row.index(min(row))
    return tuple(row[k:]) + tuple(row[:k])


def planar_embed(g: PaintedGraph) -> Rotation:
    """Planarity test returning a rotation system, not just a boolean.

    Brandes' left-right planarity test (2009), run step for step as
    networkx's ``check_planarity`` runs it, so the rows equal the ones
    networkx gives; rows are reduced to canonical cyclic form so equal
    graphs embed identically run to run.  Raises PreconditionError for a
    disconnected graph and NonplanarError for a non-planar one.
    """
    if _component_count(g) != 1:
        raise PreconditionError("planar_embed requires a connected graph")
    rot = _left_right_rotation(g)
    if rot is None:
        raise NonplanarError("graph is not planar")
    return rot


def _left_right_rotation(g: PaintedGraph) -> Rotation | None:
    """The left-right planarity test on edge indices; None if g is not planar.

    Three passes over a DFS from vertex 0, each an explicit stack, so deep
    graphs cannot overflow the interpreter's recursion limit:

    1. orientation: tree and back edges, lowpoints and nesting depths;
    2. testing: conflict pairs of intervals [low, high] of return edges,
       each edge given a side relative to a reference edge;
    3. embedding: sides made absolute, out-edges sorted by signed nesting
       depth, back edges inserted next to the left or right reference.

    Neighbours are visited in ascending order (``g.incident`` is ascending
    in the far end too) and every sort is stable, as in networkx.
    """
    n, m, edges, incident = g.vertex_count, g.edge_count, g.edges, g.incident
    if n > 2 and m > 3 * n - 6:
        return None

    # 1. orientation
    height: list[int | None] = [None] * n
    parent: list[int | None] = [None] * n  # tree edge into each vertex
    tail: list[int | None] = [None] * m  # edge e runs tail[e] -> head[e] once oriented
    head = [0] * m
    lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # out-edges in the order oriented
    pos = [0] * n
    height[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        e, row, i = parent[v], incident[v], pos[v]
        while i < len(row):
            vw = row[i]
            if tail[vw] is None:
                tail[vw] = v
                w = head[vw] = edges[vw][0] + edges[vw][1] - v
                out[v].append(vw)
                lowpt[vw] = lowpt2[vw] = height[v]
                if height[w] is None:  # tree edge: visit w, then come back to vw
                    parent[w] = vw
                    height[w] = height[v] + 1
                    stack += (v, w)
                    break
                lowpt[vw] = height[w]  # back edge
            elif tail[vw] != v:  # oriented from the other end
                i += 1
                continue
            # vw is a back edge, or a tree edge whose subtree is done
            nesting[vw] = 2 * lowpt[vw] + (lowpt2[vw] < height[v])
            if e is not None:
                if lowpt[vw] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[vw])
                    lowpt[e] = lowpt[vw]
                elif lowpt[vw] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[vw])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[vw])
            i += 1
        pos[v] = i

    # 2. testing; a conflict pair is [left.low, left.high, right.low, right.high]
    ordered = [sorted(row, key=nesting.__getitem__) for row in out]
    ref: list[int | None] = [None] * m
    side = [1] * m
    lowpt_edge: list[int | None] = [None] * m
    bottom: list[list | None] = [None] * m  # top of the conflict stack when an edge starts
    conflicts: list[list] = []

    def conflicting(low: int | None, high: int | None, b: int) -> bool:
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def lowest(p: list) -> int:
        if p[0] is None and p[1] is None:
            return lowpt[p[2]]
        if p[2] is None and p[3] is None:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def add_constraints(ei: int, e: int) -> bool:
        p: list = [None, None, None, None]
        while True:  # merge the return edges of ei into p's right interval
            q = conflicts.pop()
            if q[0] is not None or q[1] is not None:
                q[:] = q[2], q[3], q[0], q[1]
            if q[0] is not None or q[1] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] is None and p[3] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align
                ref[q[2]] = lowpt_edge[e]
            if (conflicts[-1] if conflicts else None) is bottom[ei]:
                break
        # merge the conflicting return edges of ei's earlier siblings into p's left
        while conflicts and (
            conflicting(conflicts[-1][0], conflicts[-1][1], ei)
            or conflicting(conflicts[-1][2], conflicts[-1][3], ei)
        ):
            q = conflicts.pop()
            if conflicting(q[2], q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
            if conflicting(q[2], q[3], ei):
                return False
            if p[2] is not None:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if any(x is not None for x in p):
            conflicts.append(p)
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        while conflicts and lowest(conflicts[-1]) == height[u]:  # drop whole pairs
            p = conflicts.pop()
            if p[0] is not None:
                side[p[0]] = -1
        if conflicts:  # trim the back edges ending at u from one more pair
            p = conflicts[-1]
            while p[1] is not None and head[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] is None and p[0] is not None:
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = None
            while p[3] is not None and head[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] is None and p[2] is not None:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = None
        if lowpt[e] < height[u]:  # e takes the side of a highest return edge
            hl, hr = conflicts[-1][1], conflicts[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    pos = [0] * n
    entered = [False] * m  # tree edges whose subtree has been started
    stack = [0]
    while stack:
        v = stack.pop()
        e, row, i = parent[v], ordered[v], pos[v]
        while i < len(row):
            ei = row[i]
            if not entered[ei]:
                bottom[ei] = conflicts[-1] if conflicts else None
                if ei == parent[head[ei]]:
                    entered[ei] = True
                    stack += (v, head[ei])
                    break
                lowpt_edge[ei] = ei
                conflicts.append([None, None, ei, ei])
            if lowpt[ei] < height[v]:  # integrate the new return edges
                if i == 0:
                    lowpt_edge[e] = lowpt_edge[ei]
                elif not add_constraints(ei, e):
                    return None
            i += 1
        else:
            if e is not None:
                remove_back_edges(e)
        pos[v] = i

    # 3. embedding
    for start in range(m):  # resolve each side along its chain of references
        chain, e = [], start
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        for x in reversed(chain):
            side[x] *= side[ref[x]]
            ref[x] = None
    signed = [side[e] * nesting[e] for e in range(m)]
    # a dart is edge e at one of its ends: 2e at edges[e][0], 2e + 1 at edges[e][1];
    # each vertex's darts form a ring under cw/ccw, read from its leftmost dart
    cw, ccw, leftmost = [0] * (2 * m), [0] * (2 * m), [-1] * n

    def dart(e: int, v: int) -> int:
        return 2 * e + (v != edges[e][0])

    def insert_before(v: int, d: int, ref_dart: int) -> None:  # ccw of ref_dart
        prev = ccw[ref_dart]
        cw[d], ccw[d], cw[prev], ccw[ref_dart] = ref_dart, prev, d, d
        if ref_dart == leftmost[v]:
            leftmost[v] = d

    def insert_after(d: int, ref_dart: int) -> None:  # cw of ref_dart
        nxt = cw[ref_dart]
        cw[d], ccw[d], ccw[nxt], cw[ref_dart] = nxt, ref_dart, d, d

    for v in range(n):
        ordered[v] = sorted(out[v], key=signed.__getitem__)
        ring = [dart(e, v) for e in ordered[v]]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            cw[a], ccw[b] = b, a
        if ring:
            leftmost[v] = ring[0]
    left_ref, right_ref = [0] * n, [0] * n
    pos = [0] * n
    stack = [0]
    while stack:
        v = stack.pop()
        row = ordered[v]
        while pos[v] < len(row):
            ei = row[pos[v]]
            pos[v] += 1
            w = head[ei]
            d = dart(ei, w)
            if ei == parent[w]:  # tree edge: v becomes w's leftmost neighbour
                if leftmost[w] < 0:
                    cw[d] = ccw[d] = leftmost[w] = d
                else:
                    insert_before(w, d, leftmost[w])
                left_ref[v] = right_ref[v] = dart(ei, v)
                stack += (v, w)
                break
            if side[ei] == 1:
                insert_after(d, right_ref[w])
            else:
                insert_before(w, d, left_ref[w])
                left_ref[w] = d

    rows = []
    for v in range(n):
        ring, d = [leftmost[v] >> 1], cw[leftmost[v]]
        while d != leftmost[v]:
            ring.append(d >> 1)
            d = cw[d]
        rows.append(_canon_row(ring))
    return tuple(rows)


def check_rotation(g: PaintedGraph, rot: Rotation) -> None:
    """Raise InvalidRotationError unless rot matches g structurally."""
    if len(rot) != g.vertex_count:
        raise InvalidRotationError("rotation has wrong number of vertices")
    for v in range(g.vertex_count):
        if sorted(rot[v]) != sorted(g.incident[v]):
            raise InvalidRotationError(f"rotation at vertex {v} does not list its incident edges")


@dataclass(frozen=True)
class FaceSet:
    """Faces traced from a rotation system.

    Each face is a closed walk of darts (tail, head, edge_index).  The face
    tracing convention is fixed: the dart after (u, v) is the successor of
    the reversed dart's edge in the rotation at v.
    """

    faces: tuple[tuple[Dart, ...], ...]

    def __len__(self) -> int:
        return len(self.faces)

    @cached_property
    def dart_face(self) -> dict[tuple[int, int], int]:
        """Map (tail, edge_index) -> face id."""
        out: dict[tuple[int, int], int] = {}
        for fid, walk in enumerate(self.faces):
            for tail, _head, e in walk:
                out[(tail, e)] = fid
        return out

    @cached_property
    def edge_faces(self) -> dict[int, tuple[int, ...]]:
        """Map edge index -> the face ids on its two sides."""
        out: dict[int, list[int]] = {}
        for fid, walk in enumerate(self.faces):
            for _tail, _head, e in walk:
                out.setdefault(e, []).append(fid)
        return {e: tuple(fids) for e, fids in out.items()}

    def face_sizes(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.faces)


def faces(g: PaintedGraph, rot: Rotation) -> FaceSet:
    """Trace all faces of the embedding given by rot."""
    check_rotation(g, rot)
    pos: list[dict[int, int]] = [
        {e: i for i, e in enumerate(rot[v])} for v in range(g.vertex_count)
    ]
    seen: set[tuple[int, int]] = set()
    walks: list[tuple[Dart, ...]] = []
    starts = sorted(
        (u, e) for e in range(g.edge_count) for u in g.edges[e]
    )
    for u0, e0 in starts:
        if (u0, e0) in seen:
            continue
        walk: list[Dart] = []
        u, e = u0, e0
        while (u, e) not in seen:
            seen.add((u, e))
            v = g.other_end(e, u)
            walk.append((u, v, e))
            row = rot[v]
            e2 = row[(pos[v][e] + 1) % len(row)]
            u, e = v, e2
        walks.append(_canon_walk(walk))
    walks.sort()
    return FaceSet(tuple(walks))


def check_3_connected(g: PaintedGraph, rot: Rotation) -> FaceSet:
    """The faces of rot, once rot is known to embed a 3-connected graph.

    A connected graph embedded in the sphere (V - E + F = 2) is
    3-connected exactly when every face is bounded by a cycle and any two
    faces meet in nothing, in one vertex or in one edge; a 2-vertex cut
    shows up as two faces that share both cut vertices but no edge between
    them.  Raises PreconditionError otherwise.
    """
    fs = faces(g, rot)
    if _component_count(g) != 1 or g.vertex_count - g.edge_count + len(fs) != 2:
        raise PreconditionError("rotation is not a sphere embedding of a connected graph")
    at_vertex: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for fid, walk in enumerate(fs.faces):
        tails = {tail for tail, _head, _e in walk}
        if len(walk) < 3 or len(tails) != len(walk):
            raise PreconditionError("graph is not 3-connected: a face is not bounded by a cycle")
        for v in tails:
            at_vertex[v].append(fid)
    shared = Counter(pair for fids in at_vertex for pair in combinations(sorted(fids), 2))
    beside_edge = {tuple(sorted(fids)) for fids in fs.edge_faces.values()}
    for pair, count in shared.items():
        if count > 2 or (count == 2 and pair not in beside_edge):
            raise PreconditionError("graph is not 3-connected: two faces meet beyond one vertex or edge")
    return fs


def _canon_walk(walk: list[Dart]) -> tuple[Dart, ...]:
    k = walk.index(min(walk))
    return tuple(walk[k:]) + tuple(walk[:k])


class Embedding:
    """A 3-connected graph's sphere embedding: its rotation, its faces and,
    built on first use, its dual."""

    def __init__(self, g: PaintedGraph, rot: Rotation, fs: FaceSet):
        self.graph, self.rotation, self.faces = g, rot, fs

    @cached_property
    def dual(self) -> tuple[PaintedGraph, tuple[int, ...]]:
        return _dual(self.graph, self.faces)


def dual(g: PaintedGraph, rot: Rotation) -> tuple[PaintedGraph, tuple[int, ...]]:
    """Planar dual plus edge correspondence.

    Returns (dual_graph, corr) where corr[primal_edge] = dual_edge.  The
    dual's painted set is the image of the primal painted set, so the
    correspondence records which dual edges cross painted primal edges;
    the dual carries the rotation that lists each face's edges in walk
    order.  Requires every primal edge to separate two distinct faces that
    do not already share another edge (true for all 3-connected inputs
    here); otherwise the dual is not simple and a PreconditionError is
    raised.
    """
    return _dual(g, faces(g, rot))


def _dual(g: PaintedGraph, fs: FaceSet) -> tuple[PaintedGraph, tuple[int, ...]]:
    ef = fs.edge_faces
    dual_edges: list[Edge] = []
    for e in range(g.edge_count):
        fids = ef[e]
        if len(fids) != 2 or fids[0] == fids[1]:
            raise PreconditionError(f"edge {e} does not separate two distinct faces")
        a, b = sorted(fids)
        dual_edges.append((a, b))
    if len(set(dual_edges)) != len(dual_edges):
        raise PreconditionError("dual has parallel edges (primal 2-edge cut)")
    painted_pairs = [dual_edges[i] for i in g.painted]
    dg = painted_graph(len(fs.faces), dual_edges, painted_pairs)
    corr = tuple(dg.edge_index[e] for e in dual_edges)
    rot = tuple(_canon_row([corr[e] for _t, _h, e in walk]) for walk in fs.faces)
    return replace(dg, rotation=rot), corr


# ---------------------------------------------------------------------------
# serialization (painted-graph/1)
# ---------------------------------------------------------------------------


def serialize_graph(g: PaintedGraph, rot: Rotation | None = None) -> str:
    """Canonical JSON; equal graphs produce byte-identical output."""
    doc: dict = {
        "format": GRAPH_FORMAT,
        "vertices": g.vertex_count,
        "edges": [list(e) for e in g.edges],
        "painted": list(g.painted),
    }
    if rot is not None:
        check_rotation(g, rot)
        doc["rotation"] = [list(_canon_row(row)) for row in rot]
    return json.dumps(doc, separators=(",", ":"))


def parse_graph(text: str | bytes) -> tuple[PaintedGraph, Rotation | None]:
    """Parse painted-graph/1 JSON.  Raises GraphFormatError on any defect."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    if doc.get("format") != GRAPH_FORMAT:
        raise GraphFormatError(f"expected format {GRAPH_FORMAT!r}")
    try:
        n = int(doc["vertices"])
        raw_edges = [(int(e[0]), int(e[1])) for e in doc["edges"]]
        raw_painted = [int(i) for i in doc["painted"]]
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:  # int(Infinity)
        raise GraphFormatError(f"malformed field: {exc}") from exc
    for i in raw_painted:
        if not (0 <= i < len(raw_edges)):
            raise GraphFormatError(f"painted index {i} out of range")
    painted_pairs = [raw_edges[i] for i in raw_painted]
    g = painted_graph(n, raw_edges, painted_pairs)
    rot: Rotation | None = None
    if "rotation" in doc and doc["rotation"] is not None:
        try:
            rows = [tuple(int(i) for i in row) for row in doc["rotation"]]
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"malformed rotation: {exc}") from exc
        # rotation rows refer to the caller's edge order; remap to canonical
        remap = {i: g.edge_index[e if e[0] < e[1] else (e[1], e[0])] for i, e in enumerate(raw_edges)}
        try:
            rot = tuple(_canon_row([remap[i] for i in row]) for row in rows)
            check_rotation(g, rot)
        except (KeyError, InvalidRotationError) as exc:
            raise GraphFormatError(f"rotation does not match graph: {exc}") from exc
        if n - g.edge_count + len(faces(g, rot)) != 2 * _component_count(g):
            raise GraphFormatError("rotation is not a sphere embedding (V - E + F != 2 per component)")
        g = replace(g, rotation=rot)
    return g, rot
