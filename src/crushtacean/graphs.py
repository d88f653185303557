"""Painted graphs, rotation systems, faces and duals.

A painted graph is an undirected simple graph together with a distinguished
edge subset (the "painted" edges).  Everything downstream (validation,
knot-circle tracing, cut enumeration, symmetry classification) is built on
the three primitives in this module: a canonical immutable graph value, a
rotation system describing a sphere embedding, and the face structure that
a rotation system induces.  ``faces`` numbers the darts and traces the
faces once; its dart table (see ``FaceSet``) is the one numbering the
automorphism search, cycle expansion and the 3-edge cuts read.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

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


class PaintedGraph:
    """Immutable graph with a painted edge subset.

    Invariants (enforced by the ``painted_graph`` factory): edges are
    loop-free, duplicate-free, stored as (u, v) with u < v in ascending
    order; painted indices are ascending and in range; every vertex is
    incident to at least one edge.  ``rotation`` is a sphere rotation the
    graph arrived with (from a file or a construction); it takes no part in
    equality, hashing, repr or serialization.
    """

    def __init__(
        self, vertex_count: int, edges: tuple[Edge, ...], painted: tuple, rotation: Rotation | None = None
    ):
        self.vertex_count, self.edges, self.painted, self.rotation = vertex_count, edges, painted, rotation

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.edges, self.painted) == (other.vertex_count, other.edges, other.painted)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges, self.painted))

    def __repr__(self) -> str:
        return f"PaintedGraph(vertex_count={self.vertex_count}, edges={self.edges}, painted={self.painted})"

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

    component_count = cached_property(lambda self: _component_count(self))  # counted once per graph

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
        return Embedding(rot, check_3_connected(self, rot))

    @cached_property
    def _carried_faces(self) -> FaceSet:
        """The faces of the carried rotation, traced once for both a file's
        Euler check and the embedding."""
        return faces(self, self.rotation)

    @cached_property
    def dart_arrays(self) -> dict:
        """The automorphism search's per-dart invariants, by painting flag."""
        return {}

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
    keys: list[int] = []  # edge (u, v), u < v, as u * vertex_count + v
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        keys.append(u * vertex_count + v if u < v else v * vertex_count + u)
    if len(set(keys)) != len(keys):
        raise GraphFormatError("duplicate edge")
    if vertex_count > 2 * len(keys):  # checked before anything of size vertex_count is allocated
        raise GraphFormatError(f"isolated vertex: {vertex_count} vertices, {len(keys)} edges")
    keys.sort()
    norm = [*map(divmod, keys, repeat(vertex_count))]
    index = dict(zip(norm, range(len(norm))))
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
    g = PaintedGraph(vertex_count, tuple(norm), tuple(sorted(painted_idx)))
    vars(g)["edge_index"] = index
    return g


def relabel(g: PaintedGraph, perm: Sequence[int]) -> PaintedGraph:
    """Apply a vertex relabeling (perm[old] = new) and re-canonicalize."""
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    painted = [(perm[u], perm[v]) for u, v in g.painted_pairs()]
    return painted_graph(g.vertex_count, edges, painted)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


class StructReport(NamedTuple):
    vertex_count: int
    edge_count: int
    connected: bool
    cubic: bool
    degree_min: int
    degree_max: int


def _component_count(g: PaintedGraph) -> int:
    """Depth-first search over ``incident``, once per graph: read ``g.component_count``."""
    incident, edges = g.incident, g.edges
    seen = [False] * g.vertex_count
    count = 0
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for e in incident[v]:
                w = edges[e][0] + edges[e][1] - v
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def validate_basic(g: PaintedGraph) -> StructReport:
    """Report connected/cubic structure.  Never raises."""
    degs = [*map(len, g.incident)]
    return StructReport(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        connected=g.component_count == 1,
        cubic=all(d == 3 for d in degs),
        degree_min=min(degs),
        degree_max=max(degs),
    )


# ---------------------------------------------------------------------------
# embeddings, faces, duals
# ---------------------------------------------------------------------------


def _canon_row(row: Iterable[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence to start at its smallest entry."""
    row = tuple(row)
    k = row.index(min(row)) if row else 0
    return row[k:] + row[:k] if k else row


def planar_embed(g: PaintedGraph) -> Rotation:
    """Planarity test returning a rotation system, not just a boolean.

    Brandes' left-right planarity test (2009), run step for step as
    networkx's ``check_planarity`` runs it, so the rows equal the ones
    networkx gives; rows are reduced to canonical cyclic form so equal
    graphs embed identically run to run.  Raises PreconditionError for a
    disconnected graph and NonplanarError for a non-planar one.
    """
    if g.component_count != 1:
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


def check_rotation(g: PaintedGraph, rot: Rotation) -> list[int]:
    """The slot table of rot: ``slot[2 * e + i]`` is the dart (numbered as in
    ``FaceSet``) of edge e at ``edges[e][i]``.  Each entry of v's row fills
    the empty slot of an edge at v, as many as v's degree, or
    InvalidRotationError names the first row that does not."""
    if len(rot) != g.vertex_count:
        raise InvalidRotationError("rotation has wrong number of vertices")
    edges, m = g.edges, g.edge_count
    slot, d = [-1] * (2 * m), 0
    for v, (row, inc) in enumerate(zip(rot, g.incident)):
        for e in row if len(row) == len(inc) else (-1,):  # a row of the wrong length fails at once
            if 0 <= e < m and v in edges[e] and slot[s := 2 * e + (edges[e][0] != v)] < 0:
                slot[s], d = d, d + 1
            else:
                raise InvalidRotationError(f"rotation at vertex {v} does not list its incident edges")
    return slot


class FaceSet:
    """The dart table of a rotation system and the faces it traces.

    Dart d is the end of edge ``edge[d]`` at vertex ``tail[d]``; the darts
    leaving v are numbered consecutively in the order of v's rotation row,
    rows in vertex order.  ``rev[d]`` is the other end of d's edge, and
    ``nxt[d]`` / ``prv[d]`` the next / previous dart around d's tail.  The
    face after dart d is ``nxt[rev[d]]``: the successor of d's edge in the
    rotation at d's head.  ``face[d]`` is the face holding d; faces ascend
    in their smallest darts (tail, head, edge_index), face f has ``size[f]``
    darts from ``first[f]``, and the walks and tables are built when read.
    """

    def __init__(self, tail, edge, rev, nxt, prv, face, first, size):
        self.tail, self.edge, self.rev, self.nxt, self.prv = tail, edge, rev, nxt, prv
        self.face, self.first, self.size = face, first, size

    def __len__(self) -> int:
        return len(self.first)

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Each face's closed walk of darts (tail, head, edge_index), from its smallest."""
        tail, edge, rev, nxt, walks = self.tail, self.edge, self.rev, self.nxt, []
        for d, k in zip(self.first, self.size):
            walk = []
            for _ in range(k):
                walk.append((tail[d], tail[rev[d]], edge[d]))
                d = nxt[rev[d]]
            walks.append(tuple(walk))
        return tuple(walks)

    @cached_property
    def edge_faces(self) -> dict[int, tuple[int, ...]]:
        """Map edge index -> the face ids on its two sides, ascending."""
        face, rev = self.face, self.rev
        return {e: tuple(sorted((face[d], face[rev[d]]))) for d, e in enumerate(self.edge)}

    @cached_property
    def shared(self) -> list[dict[int, int]]:
        """Face f -> {face beside f: f's dart along an edge between them, the last}."""
        face, table = self.face, [{} for _ in self.size]
        for d, (f, h) in enumerate(zip(face, map(face.__getitem__, self.rev))):
            table[f][h] = d
        return table

    def face_sizes(self) -> tuple[int, ...]:
        return self.size


def faces(g: PaintedGraph, rot: Rotation) -> FaceSet:
    """Trace all faces of the embedding given by rot, and its dart table."""
    slot = check_rotation(g, rot)
    count, m = len(slot), g.edge_count
    edge, tail = [*chain.from_iterable(rot)], [v for v, row in enumerate(rot) for _ in row]
    nxt, prv, rev, end = [*range(1, count + 1)], [*range(-1, count - 1)], [0] * count, 0
    for row in rot:  # close each vertex's ring
        start, end = end, end + len(row)
        nxt[end - 1], prv[start] = start, end - 1
    for a, b in zip(slot[::2], slot[1::2]):
        rev[a], rev[b] = b, a
    after = [*map(nxt.__getitem__, rev)]  # the next dart of d's face
    face, first, size = [-1] * count, [], []
    # darts ascending in (tail, edge) ascend in (tail, head, edge): each face is met at its smallest
    for d in sorted(range(count), key=[v * m + e for v, row in enumerate(rot) for e in row].__getitem__):
        if face[d] < 0:
            f, k = len(first), 0
            first.append(d)
            while face[d] < 0:
                face[d], d, k = f, after[d], k + 1
            size.append(k)
    return FaceSet(tail, edge, rev, nxt, prv, face, first, tuple(size))


def check_3_connected(g: PaintedGraph, rot: Rotation) -> FaceSet:
    """The faces of rot, once rot is known to embed a 3-connected graph.

    A connected graph embedded in the sphere (V - E + F = 2) is
    3-connected exactly when every face is bounded by a cycle and any two
    faces meet in nothing, in one vertex or in one edge; a 2-vertex cut
    shows up as two faces that share both cut vertices but no edge between
    them.  Raises PreconditionError otherwise.  A cubic graph's vertex
    connectivity is its edge connectivity, and the minimal edge cuts of a
    plane graph are its dual's cycles, so it is 3-connected exactly when no
    edge has one face on both sides (a bridge; that face is no cycle) and
    no two faces share two edges (a 2-edge cut).  Other graphs' faces
    sharing k vertices close k(k-1)/2 four-cycles in the vertex-face
    incidence graph, so with no vertex of degree 2 they meet as they should
    exactly when it has E four-cycles, one per edge, counted in decreasing
    degree order in O(E) steps whatever the degrees (Chiba & Nishizeki 1985).
    """
    fs = g._carried_faces if rot is g.rotation else faces(g, rot)
    n = g.vertex_count
    if g.component_count != 1 or n - g.edge_count + len(fs) != 2:
        raise PreconditionError("rotation is not a sphere embedding of a connected graph")
    if {*map(len, g.incident)} == {3}:
        face = fs.face
        if any(map(int.__eq__, face, map(face.__getitem__, fs.rev))):
            raise PreconditionError("graph is not 3-connected: a face is not bounded by a cycle")
        if any(len(row) != k for row, k in zip(fs.shared, fs.size)):
            raise PreconditionError("graph is not 3-connected: two faces meet beyond one vertex or edge")
        return fs
    adj: list[list[int]] = [[] for _ in range(n)]  # vertex v, then face f as node n + f
    for fid, walk in enumerate(fs.faces):
        tails = {tail for tail, _head, _e in walk}
        if len(walk) < 3 or len(tails) != len(walk):
            raise PreconditionError("graph is not 3-connected: a face is not bounded by a cycle")
        adj.append(sorted(tails))
        for v in tails:
            adj[v].append(n + fid)
    order = sorted(range(len(adj)), key=lambda x: -len(adj[x]))
    rank = {x: i for i, x in enumerate(order)}
    cycles = 0
    for x in order:
        r, paths = rank[x], {}  # node z -> the 2-paths x y z found so far
        for y in adj[x]:
            if rank[y] > r:
                for z in adj[y]:
                    if rank[z] > r:
                        k = paths.get(z, 0)
                        cycles += k  # each earlier path closes a 4-cycle with this one
                        paths[z] = k + 1
    if cycles != g.edge_count or any(len(adj[v]) < 3 for v in range(n)):
        raise PreconditionError("graph is not 3-connected: two faces meet beyond one vertex or edge")
    return fs


class Embedding:
    """A 3-connected graph's sphere embedding: its rotation and its faces."""

    def __init__(self, rot: Rotation, fs: FaceSet):
        self.rotation, self.faces = rot, fs


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
    fs = faces(g, rot)
    ef = fs.edge_faces
    dual_edges: list[Edge] = []
    for e in range(g.edge_count):
        a, b = ef[e]
        if a == b:
            raise PreconditionError(f"edge {e} does not separate two distinct faces")
        dual_edges.append((a, b))
    if len(set(dual_edges)) != len(dual_edges):
        raise PreconditionError("dual has parallel edges (primal 2-edge cut)")
    painted_pairs = [dual_edges[i] for i in g.painted]
    dg = painted_graph(len(fs), dual_edges, painted_pairs)
    corr = tuple(dg.edge_index[e] for e in dual_edges)
    rot = tuple(_canon_row([corr[e] for _t, _h, e in walk]) for walk in fs.faces)
    return PaintedGraph(dg.vertex_count, dg.edges, dg.painted, rot), corr


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
        if rot is not getattr(vars(g).get("embedding"), "rotation", None):  # g's embedding checked its own
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
    numbers = [doc["vertices"], *doc["painted"], *chain.from_iterable(doc["edges"])]
    if {*map(type, numbers)} != {int} or {*map(len, doc["edges"])} - {2}:
        raise GraphFormatError("malformed field: numbers must be JSON integers, and edges pairs of them")
    for i in raw_painted:
        if not (0 <= i < len(raw_edges)):
            raise GraphFormatError(f"painted index {i} out of range")
    painted_pairs = [raw_edges[i] for i in raw_painted]
    g = painted_graph(n, raw_edges, painted_pairs)
    rot: Rotation | None = None
    if doc.get("rotation") is not None:
        rows = doc["rotation"]
        try:
            flat = [*map(int, chain.from_iterable(rows))]
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphFormatError(f"malformed rotation: {exc}") from exc
        if {*map(type, chain.from_iterable(rows))} - {int}:
            raise GraphFormatError("malformed rotation: edge positions must be JSON integers")
        # rotation rows refer to the caller's edge order; remap to canonical
        remap = [g.edge_index[(u, v) if u < v else (v, u)] for u, v in raw_edges]
        try:
            if flat and not (0 <= min(flat) and max(flat) < len(remap)):
                raise KeyError(next(i for i in flat if not 0 <= i < len(remap)))
            rot = tuple([_canon_row(map(remap.__getitem__, row)) for row in rows])
            g = PaintedGraph(g.vertex_count, g.edges, g.painted, rot)
            fs = g._carried_faces  # checks the rotation, once
        except (KeyError, InvalidRotationError) as exc:
            raise GraphFormatError(f"rotation does not match graph: {exc}") from exc
        if n - g.edge_count + len(fs) != 2 * g.component_count:
            raise GraphFormatError("rotation is not a sphere embedding (V - E + F != 2 per component)")
    return g, rot
