"""Shared test utilities: random corpora and independent brute-force oracles.

Everything here deliberately avoids the library's own algorithms: cut
enumeration removes subsets and checks connectivity, automorphism counts
try all vertex permutations, and the random crushtacean corpus is built
by dualizing stacked triangulations (always simple, cubic, planar and
3-connected) and painting a maximum matching.  Two references reuse
library parts: ``scan_automorphisms``, the engine's own flag extension
run over every candidate flag, is the reference for the flag-orbit search
(``check_irredundant_generators`` closes each span of its moves from
scratch); and the catalog oracle (``realize``, ``candidate_tags``,
``catalog_identify``) matches any permutation group against concrete
realizations of every catalog tag by centre and derived subgroup, the
reference for the orientation-split ``identify``.  ``position_faces``
and ``indexed_cycle_expand`` trace faces and expand cycles with a position
or index dict per edge-end instead of the dart table of ``faces``, and
``corner_knot_circles`` traces the knot circles from dicts over the faces'
corners, the reference for ``knot_circles``.  ``expands_by_isomorphism``
re-expands a seed and matches the expansion against a graph with the
painted isomorphism search, the reference for ``families.expands_to``.
``template_reflection`` matches g against chain templates of its face
sizes with ``find_isomorphism``, the reference for the painting count of
``detect_reflection_multiplicity``, and ``enumerated_cuts`` forms every
triangle of the dual and drops the vertex stars afterwards, the reference
for ``three_edge_cuts``.
"""

import json
import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import NamedTuple

import networkx as nx
import numpy as np

from crushtacean import (
    CapExceededError,
    EdgeCut,
    GroupId,
    NonplanarError,
    PaintedGraph,
    PermGroup,
    Permutation,
    PreconditionError,
    ReflectionMultiplicity,
    close,
    cube,
    cycle_expand,
    dual,
    faces,
    find_isomorphism,
    gamma_ochain,
    gamma_pretzel,
    painted_graph,
    planar_embed,
)
from crushtacean.automorphism import _Darts, _extend
from crushtacean.classify import KnotCircle, KnotStructure, _require_valid
from crushtacean.groups import DEFAULT_CAP, GroupSignature


def nx_graph(g: PaintedGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


def nx_planar_embed(g: PaintedGraph) -> tuple[tuple[int, ...], ...]:
    """``planar_embed`` as networkx computes it: ``check_planarity``'s
    clockwise neighbour lists as edge-index rows, each started at its
    smallest entry.  Same errors as ``planar_embed``."""
    if not nx.is_connected(nx_graph(g)):
        raise PreconditionError("planar_embed requires a connected graph")
    ok, emb = nx.check_planarity(nx_graph(g), counterexample=False)
    if not ok:
        raise NonplanarError("graph is not planar")
    data, idx = emb.get_data(), g.edge_index
    rows = []
    for v in range(g.vertex_count):
        row = [idx[(min(v, w), max(v, w))] for w in data[v]]
        k = row.index(min(row))
        rows.append(tuple(row[k:] + row[:k]))
    return tuple(rows)


def random_triangulation(rng, extra: int) -> PaintedGraph:
    """Stacked sphere triangulation: K4 plus `extra` vertex insertions."""
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    n = 4
    for _ in range(extra):
        a, b, c = tris.pop(rng.randrange(len(tris)))
        v = n
        n += 1
        tris += [(a, b, v), (a, c, v), (b, c, v)]
        edges |= {(a, v), (b, v), (c, v)}
    return painted_graph(n, sorted(edges))


def random_cubic_planar(rng, extra: int) -> PaintedGraph:
    """Unpainted cubic planar 3-connected graph on 4 + 2*extra vertices."""
    t = random_triangulation(rng, extra)
    d, _corr = dual(t, planar_embed(t))
    return d


def random_crushtacean(rng, extra: int) -> PaintedGraph:
    """Valid random crushtacean: cubic planar 3-connected dual with a
    painted maximum (here perfect) matching."""
    d = random_cubic_planar(rng, extra)
    m = nx.max_weight_matching(nx_graph(d), maxcardinality=True)
    assert 2 * len(m) == d.vertex_count
    return painted_graph(d.vertex_count, d.edges, painted=[tuple(sorted(p)) for p in m])


def splice(g1: PaintedGraph, g2: PaintedGraph, e1: int = 0, e2: int = 0) -> PaintedGraph:
    """Cross-join two graphs along one removed edge each.

    Preserves all degrees but leaves only a 2-edge cut between the halves,
    so splicing cubic 3-connected inputs yields a cubic graph that is not
    3-connected.
    """
    n1 = g1.vertex_count
    u1, v1 = g1.edges[e1]
    u2, v2 = g2.edges[e2]
    edges = [e for i, e in enumerate(g1.edges) if i != e1]
    edges += [(a + n1, b + n1) for i, (a, b) in enumerate(g2.edges) if i != e2]
    edges += [(u1, u2 + n1), (v1, v2 + n1)]
    return painted_graph(n1 + g2.vertex_count, edges)


def bridge_join(g1: PaintedGraph, g2: PaintedGraph, e1: int = 0, e2: int = 0) -> PaintedGraph:
    """Subdivide one edge of each graph and join the two new vertices by an
    edge: cubic inputs give a cubic graph with a bridge (two K4s give the
    smallest)."""
    n1, n = g1.vertex_count, g1.vertex_count + g2.vertex_count
    (u1, v1), (u2, v2) = g1.edges[e1], g2.edges[e2]
    edges = [e for i, e in enumerate(g1.edges) if i != e1]
    edges += [(a + n1, b + n1) for i, (a, b) in enumerate(g2.edges) if i != e2]
    edges += [(u1, n), (v1, n), (u2 + n1, n + 1), (v2 + n1, n + 1), (n, n + 1)]
    return painted_graph(n + 2, edges)


def hung_blocks(block: str) -> PaintedGraph:
    """Minimum degree 3, 2-connected but not 3-connected: four copies of a
    block hung between two cut vertices.  "triangle" joins each triangle
    twice to one cut vertex and once to the other; "diamond" (K4 minus an
    edge) joins each diamond once to each."""
    size = 3 if block == "triangle" else 4
    a, b = 4 * size, 4 * size + 1
    edges = []
    for i in range(4):
        v = [size * i + k for k in range(size)]
        if block == "triangle":
            edges += [(v[0], v[1]), (v[1], v[2]), (v[0], v[2]), (v[0], a), (v[2], a), (v[1], b)]
        else:
            edges += [(v[0], v[1]), (v[0], v[2]), (v[1], v[2]), (v[1], v[3]), (v[2], v[3])]
            edges += [(v[0], a), (v[3], b)]
    return painted_graph(b + 1, edges)


def gyro(g: PaintedGraph) -> PaintedGraph:
    """Conway's gyro of a plane graph: each edge is cut in thirds, and a new
    centre in each face joins the third at the head of each dart of its
    walk.  Only the rotations of g survive (Conway, Burgiel &
    Goodman-Strauss 2008), unless the result gains symmetry of its own."""
    n, m = g.vertex_count, g.edge_count
    edges = []
    for e, (u, v) in enumerate(g.edges):
        edges += [(u, n + 2 * e), (n + 2 * e, n + 2 * e + 1), (n + 2 * e + 1, v)]
    for f, walk in enumerate(g.embedding.faces.faces):
        for _tail, head, e in walk:
            edges.append((n + 2 * m + f, n + 2 * e + (head != g.edges[e][0])))
    return painted_graph(n + 2 * m + len(g.embedding.faces), edges)


def twist(g: PaintedGraph, faces: list[set[int]], reverse: tuple[bool, ...]) -> PaintedGraph:
    """A chiral decoration of the faces of g with the given vertex sets.
    Each boundary edge v_i v_(i+1) of a face, in its walk order or the
    reverse, gets a middle vertex s_i, and a new inner cycle w joins w_i to
    s_i and v_(i+1): a triangle then a square around the face, which no
    reflection of the face keeps."""
    walks = {frozenset(t for t, _h, _e in walk): walk for walk in g.embedding.faces.faces}
    cut, added, n = set(), [], g.vertex_count
    for vertices, back in zip(faces, reverse):
        walk = [(t, h) for t, h, _e in walks[frozenset(vertices)]]
        if back:
            walk = [(h, t) for t, h in reversed(walk)]
        k = len(walk)
        for i, (t, h) in enumerate(walk):
            s, w, w_next = n + i, n + k + i, n + k + (i + 1) % k
            cut.add((min(t, h), max(t, h)))
            added += [(t, s), (s, h), (w, s), (w, h), (w, w_next)]
        n += 2 * k
    return painted_graph(n, [e for e in g.edges if e not in cut] + added)


def chorded_cube(k: int) -> PaintedGraph:
    """The cube with k parallel chords across each face, between points on
    two opposite edges, the faces taking turns so that each edge carries
    the ends of one face's chords: the pyritohedral pattern.  k = 1 gives
    the dodecahedron graph, and k = 3 only the pyritohedral symmetries."""
    g = cube()
    walks = [[t for t, _h, _e in walk] for walk in g.embedding.faces.faces]

    def side(x: int, i: int) -> tuple[int, int]:  # edge i of face x, in walk order
        return walks[x][i % 4], walks[x][(i + 1) % 4]

    pick = next(
        pick
        for pick in product((0, 1), repeat=len(walks))
        if len({frozenset(side(x, i + 2 * j)) for x, i in enumerate(pick) for j in (0, 1)}) == 12
    )
    n, points, edges = g.vertex_count, {}, []
    for e in g.edges:
        points[e] = list(range(n, n + k))  # in order from e[0] to e[1]
        n += k
        path = [e[0], *points[e], e[1]]
        edges += zip(path, path[1:])

    def at(t: int, h: int, j: int) -> int:  # the j-th point from t on edge t-h
        ps = points[(min(t, h), max(t, h))]
        return ps[j] if t < h else ps[k - 1 - j]

    for x, i in enumerate(pick):
        (a, b), (c, d) = side(x, i), side(x, i + 2)
        edges += [(at(a, b, j), at(d, c, j)) for j in range(k)]
    return painted_graph(n, edges)


def count_planarity_tests(monkeypatch) -> list:
    """The calls of ``graphs.planar_embed`` from here on, as a growing list."""
    from crushtacean import graphs

    calls = []
    real = graphs.planar_embed
    monkeypatch.setattr(graphs, "planar_embed", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def mirror(rot: tuple) -> tuple:
    """The mirror image of a rotation: every row reversed."""
    return tuple(tuple(reversed(row)) for row in rot)


def flip_block(g: PaintedGraph, rot: tuple, side: set) -> tuple:
    """Another sphere rotation of g when ``side`` is cut off by two vertices
    or two edges: ``side`` is mirrored, and at each vertex outside it the
    (contiguous) run of edges into ``side`` is reversed."""
    rows = []
    for v, row in enumerate(rot):
        if v in side:
            rows.append(tuple(reversed(row)))
            continue
        into = [g.other_end(e, v) in side for e in row]
        m, d = sum(into), len(row)
        k = next(k for k in range(d) if all(into[(k + j) % d] for j in range(m)))
        turned = row[k:] + row[:k]
        rows.append(tuple(reversed(turned[:m])) + turned[m:])
    return tuple(rows)


def shuffled_document(g: PaintedGraph, rot, rng) -> str:
    """painted-graph/1 text for g with vertices relabelled, the edge list
    shuffled, edge ends flipped and rotation rows started anywhere."""
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(g.edge_count))  # order[new] = old edge index
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    edges = []
    for old in order:
        pair = [perm[u] for u in g.edges[old]]
        if rng.random() < 0.5:
            pair.reverse()
        edges.append(pair)
    doc = {
        "format": "painted-graph/1",
        "vertices": n,
        "edges": edges,
        "painted": sorted(new_index[i] for i in g.painted),
    }
    if rot is not None:
        rows: list = [None] * n
        for v, row in enumerate(rot):
            k = rng.randrange(len(row))
            rows[perm[v]] = [new_index[e] for e in row[k:] + row[:k]]
        doc["rotation"] = rows
    return json.dumps(doc)


def brute_cuts(g: PaintedGraph) -> list[tuple[int, int, int]]:
    """All non-trivial edge triples whose removal disconnects g."""
    out = []
    for trip in combinations(range(g.edge_count), 3):
        ends = [set(g.edges[e]) for e in trip]
        if ends[0] & ends[1] & ends[2]:
            continue
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges[e] for e in range(g.edge_count) if e not in trip)
        if not nx.is_connected(h):
            out.append(trip)
    return sorted(out)


def enumerated_cuts(g: PaintedGraph) -> tuple[EdgeCut, ...]:
    """``three_edge_cuts`` as every triangle of the dual, from an edge-keyed
    face-adjacency table, with the vertex stars filtered out afterwards."""
    fs = g.embedding.faces
    shared: list[dict[int, int]] = [{} for _ in fs.faces]  # face -> {neighbour: shared edge}
    for d, e in enumerate(fs.edge):
        shared[fs.face[d]][fs.face[fs.rev[d]]] = e
    triples = {
        tuple(sorted((ab, row[c], shared[b][c])))
        for a, row in enumerate(shared)
        for b, ab in row.items()
        if b > a
        for c in row.keys() & shared[b].keys()
        if c > b
    }
    cuts = []
    for triple in sorted(triples):
        ends = [set(g.edges[e]) for e in triple]
        if not ends[0] & ends[1] & ends[2]:  # a vertex star is a trivial cut
            cuts.append(EdgeCut(triple, sum(1 for e in triple if g.is_painted(e))))
    return tuple(cuts)


def template_reflection(g: PaintedGraph) -> ReflectionMultiplicity:
    """``detect_reflection_multiplicity`` as a template match: a chain's
    face sizes (n squares and two n-gons for pretzel(n); two triangles,
    n - 2 squares and two (n + 1)-gons for the o-chain of n - 1 links, on
    2n vertices), then a painted isomorphism search against the chain."""
    _require_valid(g)
    v = g.vertex_count
    if v == 4:
        return ReflectionMultiplicity("borromean", None, 3)
    n, sizes = v // 2, Counter(g.embedding.faces.face_sizes())
    if v % 2 == 0 and v >= 6:
        if sizes == Counter({4: n}) + Counter({n: 2}):
            if find_isomorphism(g, gamma_pretzel(n), True) is not None:
                return ReflectionMultiplicity("pretzel", n, 2)
        if sizes == Counter({3: 2, 4: n - 2}) + Counter({n + 1: 2}):
            if find_isomorphism(g, gamma_ochain(n - 1), True) is not None:
                return ReflectionMultiplicity("o_chain", n - 1, 2)
    return ReflectionMultiplicity("unique", None, 1)


def perfect_matchings(g: PaintedGraph):
    """Yield every perfect matching of g as ascending edge indices: the
    smallest unmatched vertex is matched to each free neighbour in turn."""
    free, chosen = [True] * g.vertex_count, []

    def extend():
        if True not in free:
            yield tuple(sorted(chosen))
            return
        v = free.index(True)
        free[v] = False
        for e in g.incident[v]:
            w = g.other_end(e, v)
            if free[w]:
                free[w] = False
                chosen.append(e)
                yield from extend()
                chosen.pop()
                free[w] = True
        free[v] = True

    yield from extend()


def perm_compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_order(p: tuple) -> int:
    """The order of p: the lcm of its cycle lengths."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = lcm(order, length)
    return order


def perm_order_by_powers(p: tuple) -> int:
    """The order of p by composing p with itself until the identity: the
    reference ``perm_order`` is checked against on small groups."""
    ident = tuple(range(len(p)))
    k, cur = 1, p
    while cur != ident:
        cur = perm_compose(p, cur)
        k += 1
    return k


def close_tuples(gens: list[tuple], degree: int | None = None) -> set[tuple]:
    ident = tuple(range(len(gens[0]) if gens else degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = perm_compose(g, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def abstract_isomorphic(elems1: set[tuple], elems2: set[tuple]) -> bool:
    """Brute-force abstract group isomorphism on element sets of permutation
    tuples, by backtracking over generator images and checking the whole
    multiplication table.  Only sensible for small groups."""
    if len(elems1) != len(elems2):
        return False
    if sorted(map(perm_order, elems1)) != sorted(map(perm_order, elems2)):
        return False

    # greedy small generating set for group 1
    gens: list[tuple] = []
    have: set[tuple] = {tuple(range(len(next(iter(elems1)))))}
    for e in sorted(elems1):
        if e not in have:
            gens.append(e)
            have = close_tuples(gens)
        if len(have) == len(elems1):
            break

    # express every element of group 1 as a word in the generators
    ident1 = tuple(range(len(gens[0])))
    word: dict[tuple, tuple] = {ident1: ()}
    frontier = [ident1]
    while frontier:
        nxt = []
        for a in frontier:
            for i, g in enumerate(gens):
                b = perm_compose(g, a)
                if b not in word:
                    word[b] = word[a] + (i,)
                    nxt.append(b)
        frontier = nxt

    by_order: dict[int, list[tuple]] = {}
    for e in elems2:
        by_order.setdefault(perm_order(e), []).append(e)

    def evaluate(images: list[tuple], w: tuple) -> tuple:
        ident2 = tuple(range(len(images[0])))
        out = ident2
        for i in w:
            out = perm_compose(images[i], out)
        return out

    def try_assign(images: list[tuple]) -> bool:
        if len(images) < len(gens):
            for cand in by_order.get(perm_order(gens[len(images)]), []):
                if try_assign(images + [cand]):
                    return True
            return False
        phi = {a: evaluate(images, w) for a, w in word.items()}
        if len(set(phi.values())) != len(elems1):
            return False
        return all(
            phi[perm_compose(a, b)] == perm_compose(phi[a], phi[b])
            for a in elems1
            for b in elems1
        )

    return try_assign([])


# ---------------------------------------------------------------------------
# the catalog oracle
# ---------------------------------------------------------------------------


def from_cycles(degree: int, cycles) -> Permutation:
    """The permutation of 0..degree-1 with the given cycles."""
    image = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            image[a] = b
    return Permutation(tuple(image))


def realize(tag: GroupId) -> PermGroup:
    """A concrete permutation realization of a catalog tag."""
    k, n = tag.kind, tag.n
    C = from_cycles
    if k == "trivial":
        return close([], degree=1)
    if k == "cyclic":
        return close([C(n, [list(range(n))])])
    if k == "klein":
        return close([C(4, [(0, 1)]), C(4, [(2, 3)])])
    if k == "dihedral":
        r = C(n, [list(range(n))])
        s = Permutation(tuple((n - i) % n for i in range(n)))
        return close([r, s])
    if k == "cyclic_x_z2":
        r = C(n + 2, [list(range(n))])
        t = C(n + 2, [(n, n + 1)])
        return close([r, t])
    if k == "dihedral_x_z2":
        if n == 2:
            # Klein x Z2: the 2-point "dihedral" realization degenerates
            return close([C(6, [(0, 1)]), C(6, [(2, 3)]), C(6, [(4, 5)])])
        r = C(n + 2, [list(range(n))])
        s = Permutation(tuple((n - i) % n for i in range(n)) + (n, n + 1))
        t = C(n + 2, [(n, n + 1)])
        return close([r, s, t])
    if k == "A4":
        return close([C(4, [(0, 1, 2)]), C(4, [(0, 1), (2, 3)])])
    if k == "S4":
        return close([C(4, [(0, 1)]), C(4, [(0, 1, 2, 3)])])
    if k == "A5":
        return close([C(5, [(0, 1, 2, 3, 4)]), C(5, [(0, 1, 2)])])
    if k in ("A4xZ2", "S4xZ2", "A5xZ2"):
        base = realize(GroupId.exceptional(k[:2]))
        d = base.degree
        lifted = [Permutation(p.image + (d, d + 1)) for p in base.generators]
        lifted.append(C(d + 2, [(d, d + 1)]))
        return close(lifted)
    raise ValueError(f"no realization for {tag}")


def candidate_tags(order: int) -> list[GroupId]:
    """All canonical catalog tags with the given order, deterministic order."""
    if order == 1:
        return [GroupId.trivial()]
    tags = [GroupId.cyclic(order)]
    if order == 4:
        tags.append(GroupId.klein())
    if order % 2 == 0 and order // 2 >= 3:
        tags.append(GroupId.dihedral(order // 2))
    if order % 4 == 0 and order // 2 >= 4:
        tags.append(GroupId.cyclic_x_z2(order // 2))
    if order % 8 == 0 and order // 4 >= 2:
        tags.append(GroupId.dihedral_x_z2(order // 4))
    for name in ("A4", "S4", "A5", "A4xZ2", "S4xZ2", "A5xZ2"):
        if GroupId.exceptional(name).order == order:
            tags.append(GroupId.exceptional(name))
    return tags


class CatalogSignature(NamedTuple):
    """Abstract-isomorphism invariants of any permutation group."""

    order: int
    abelian: bool
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int


def catalog_signature(g: PermGroup) -> CatalogSignature:
    gens = [p.image for p in g.generators]
    hist = Counter(perm_order(p.image) for p in g.elements)
    center = sum(
        1 for p in g.elements if all(perm_compose(p.image, q) == perm_compose(q, p.image) for q in gens)
    )
    return CatalogSignature(
        order=g.order,
        abelian=center == g.order,
        order_histogram=tuple(sorted(hist.items())),
        center_order=center,
        derived_order=_derived_order(g.degree, gens),
    )


def _derived_order(degree: int, gens: list[tuple]) -> int:
    """Order of the derived subgroup: the normal closure of the generators'
    commutators, as the elements reached from the identity by multiplying
    by a commutator or conjugating by a generator."""
    pairs = [(perm_inverse(a), a) for a in gens]
    commutators = {
        perm_compose(perm_compose(a, b), perm_compose(ai, bi)) for ai, a in pairs for bi, b in pairs
    }
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            steps = [perm_compose(c, x) for c in commutators]
            steps += [perm_compose(gi, perm_compose(x, g)) for gi, g in pairs]
            for y in steps:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


@lru_cache(maxsize=None)
def _tag_signature(tag: GroupId) -> CatalogSignature:
    return catalog_signature(realize(tag))


def catalog_identify(g: PermGroup) -> GroupId:
    """Match any permutation group against the catalog by its signature
    tuple: the canonical tag, or unrecognized(order) when no catalog member
    of that order has the same signature."""
    sig = catalog_signature(g)
    for tag in candidate_tags(g.order):
        if _tag_signature(tag) == sig:
            return tag
    return GroupId.unrecognized(g.order)


def full_signature(grp: PermGroup) -> GroupSignature:
    """``signature`` from every element's full vertex images: orders by
    ``perm_order``, and a central reversal by commuting with every
    generator on every vertex."""
    gens = [p.image for p in grp.generators]
    orders = [perm_order(p.image) for p in grp.elements]
    rotation_orders = [k for k, s in zip(orders, grp.signs) if s > 0]
    return GroupSignature(
        rotations=len(rotation_orders),
        rotation_max_order=max(rotation_orders),
        max_order=max(orders),
        central_reversal=any(
            s < 0 and k == 2 and all(perm_compose(p.image, q) == perm_compose(q, p.image) for q in gens)
            for p, k, s in zip(grp.elements, orders, grp.signs)
        ),
    )


def base_fixers(grp: PermGroup) -> int:
    """The elements other than the identity that fix every base point."""
    return sum(
        all(p.image[b] == b for b in grp.base) and p.image != tuple(range(grp.degree))
        for p in grp.elements
    )


def check_irredundant_generators(grp: PermGroup) -> None:
    """The generators are the moves, each outside the span of the ones
    before it (closed from scratch), and together they span the elements;
    so each at least doubles the span, and there are at most
    floor(log2 |G|) of them."""
    gens = [p.image for p in grp.generators]
    assert gens == list(grp.moves)
    for k, x in enumerate(gens):
        assert x not in close_tuples(gens[:k], grp.degree)
    assert close_tuples(gens, grp.degree) == {p.image for p in grp.elements}
    assert len(gens) <= grp.order.bit_length() - 1


def from_elements(signed: dict, degree: int) -> PermGroup:
    """The group whose elements (all of them) are the keys of ``signed``,
    each with its sign: every point is its base, and each element but the
    identity is one move from it."""
    ident = Permutation(tuple(range(degree)))
    others = [p for p in signed if p != ident]
    return PermGroup(
        degree,
        ident.image,
        tuple(p.image for p in others),
        tuple((0, k) for k in range(len(others))),
        (signed[ident], *(signed[p] for p in others)),
    )


def scan_automorphisms(
    g: PaintedGraph, respect_painting: bool = False, cap: int = DEFAULT_CAP
) -> PermGroup:
    """``automorphisms`` by extending every candidate flag of the base dart:
    the flags that survive are the maps themselves, each with the sign of
    its flag, handed to ``from_elements``.  Raises like ``automorphisms``."""
    darts = _Darts(g, respect_painting)
    base = darts.base
    found: dict[Permutation, int] = {}  # each map with the sign of its flag
    for image, sign in darts.flags(darts.keys[1][base]):
        perm = _extend(darts, darts, base, image, sign)
        if perm is not None:
            found[Permutation(perm)] = sign
            if len(found) > cap:
                raise CapExceededError(f"automorphism count exceeded cap of {cap}")
    return from_elements(found, g.vertex_count)


def position_faces(g: PaintedGraph, rot) -> tuple[tuple, dict]:
    """The faces of rot and the faces beside each edge, traced from a
    position dict per vertex: the dart after (u, v, e) leaves v along the
    edge after e in v's row.  Each walk starts at its smallest dart, walks
    sorted.  The reference for ``faces``."""
    pos = [{e: i for i, e in enumerate(row)} for row in rot]
    seen: set[tuple[int, int]] = set()
    walks = []
    for u0, e0 in sorted((u, e) for e in range(g.edge_count) for u in g.edges[e]):
        walk, u, e = [], u0, e0
        while (u, e) not in seen:
            seen.add((u, e))
            v = g.other_end(e, u)
            walk.append((u, v, e))
            u, e = v, rot[v][(pos[v][e] + 1) % len(rot[v])]
        if walk:
            k = walk.index(min(walk))
            walks.append(tuple(walk[k:] + walk[:k]))
    walks.sort()
    sides: dict[int, list[int]] = {}
    for f, walk in enumerate(walks):
        for _t, _h, e in walk:
            sides.setdefault(e, []).append(f)
    return tuple(walks), {e: tuple(fs) for e, fs in sides.items()}


def four_cycle_check(g: PaintedGraph, rot) -> None:
    """The 3-connectivity check of any graph by the four-cycle count of its
    vertex-face incidence graph (Chiba & Nishizeki 1985), with the messages
    ``check_3_connected`` raises: the rule it keeps for graphs that are not
    cubic, and the reference for its face-table rule on cubic ones."""
    walks = faces(g, rot).faces
    n = g.vertex_count
    if not nx.is_connected(nx_graph(g)) or n - g.edge_count + len(walks) != 2:
        raise PreconditionError("rotation is not a sphere embedding of a connected graph")
    adj: list[list[int]] = [[] for _ in range(n)]  # vertex v, then face f as node n + f
    for fid, walk in enumerate(walks):
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
        r, paths = rank[x], Counter()
        for y in adj[x]:
            if rank[y] > r:
                for z in adj[y]:
                    if rank[z] > r:
                        cycles += paths[z]
                        paths[z] += 1
    if cycles != g.edge_count or any(len(adj[v]) < 3 for v in range(n)):
        raise PreconditionError("graph is not 3-connected: two faces meet beyond one vertex or edge")


def indexed_cycle_expand(g: PaintedGraph) -> tuple[PaintedGraph, tuple]:
    """``cycle_expand`` from an index dict over the edge-ends (v, e) of
    g's rotation, numbered row by row: end (v, e) becomes a vertex joined
    to the ends beside it in v's row and, by a painted edge, to the other
    end of e.  Returns the graph, carrying its rotation, and the rotation."""
    rot = g.embedding.rotation
    idx = {(v, e): i for i, (v, e) in enumerate((v, e) for v, row in enumerate(rot) for e in row)}

    def norm(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    painted = [norm(idx[(u, e)], idx[(v, e)]) for e, (u, v) in enumerate(g.edges)]
    cycles = [norm(idx[(v, row[i])], idx[(v, row[(i + 1) % len(row)])])
              for v, row in enumerate(rot) for i in range(len(row))]
    out = painted_graph(2 * g.edge_count, painted + cycles, painted)
    rows = []
    for v, row in enumerate(rot):
        d = len(row)
        for i, e in enumerate(row):
            x = idx[(v, e)]
            ends = [(g.other_end(e, v), e), (v, row[(i + 1) % d]), (v, row[(i - 1) % d])]
            ids = [out.edge_index[norm(x, idx[y])] for y in ends]
            k = ids.index(min(ids))
            rows.append(tuple(ids[k:] + ids[:k]))
    return PaintedGraph(out.vertex_count, out.edges, out.painted, tuple(rows)), tuple(rows)


def expands_by_isomorphism(seed: PaintedGraph, g: PaintedGraph) -> bool:
    """``families.expands_to`` as the sizes, then the seed's re-expansion
    and a painted isomorphism search against g.  Raises like it."""
    edges = seed.edge_count
    return (g.vertex_count, g.edge_count) == (2 * edges, 3 * edges) and (
        find_isomorphism(cycle_expand(seed)[0], g, respect_painting=True) is not None
    )


def corner_knot_circles(g: PaintedGraph) -> KnotStructure:
    """Trace the knot circles of the encoded link.

    Each painted edge contributes two parallel arcs, one per adjacent face;
    each unpainted edge carries exactly one connecting segment.  Circles are
    traversal orbits of the arc-segment gluing, emitted in canonical order.
    """
    _require_valid(g)
    fs = g.embedding.faces
    arc_eps: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ep_arc: dict[tuple[int, int], tuple[int, int]] = {}
    for fid, walk in enumerate(fs.faces):
        m = len(walk)
        for i in range(m):
            _u1, v1, e1 = walk[i]
            _u2, _v2, e2 = walk[(i + 1) % m]
            # corner at v1 between e1 and e2 inside face fid
            if g.is_painted(e1) and not g.is_painted(e2):
                arc, ep = (e1, fid), (v1, e2)
            elif g.is_painted(e2) and not g.is_painted(e1):
                arc, ep = (e2, fid), (v1, e1)
            else:
                continue
            arc_eps.setdefault(arc, []).append(ep)
            if ep in ep_arc:
                raise RuntimeError("endpoint reused; painting is not a matching")
            ep_arc[ep] = arc
    for arc, eps in arc_eps.items():
        if len(eps) != 2:
            raise RuntimeError(f"arc {arc} has {len(eps)} endpoints")
        eps.sort()

    circles: list[KnotCircle] = []
    arc_circle: dict[tuple[int, int], int] = {}
    for start in sorted(arc_eps):
        if start in arc_circle:
            continue
        cid = len(circles)
        arcs = [start]
        segments: list[int] = []
        arc_circle[start] = cid
        ep = arc_eps[start][0]
        while True:
            v, x = ep
            v2 = g.other_end(x, v)
            segments.append(x)
            nxt = ep_arc[(v2, x)]
            if nxt == start:
                break
            arcs.append(nxt)
            arc_circle[nxt] = cid
            a, b = arc_eps[nxt]
            ep = a if b == (v2, x) else b
        circles.append(KnotCircle(tuple(arcs), tuple(segments)))

    links = []
    for e in g.painted:
        f1, f2 = sorted(fs.edge_faces[e])
        pair = tuple(sorted((arc_circle[(e, f1)], arc_circle[(e, f2)])))
        links.append((e, pair))
    return KnotStructure(tuple(circles), tuple(links))


def dual_nerve(g: PaintedGraph) -> tuple[bool, bool]:
    """Read off the faces of the planar dual's own embedding: whether every
    face is a triangle, and whether each crosses exactly one painted edge."""
    dg, _corr = dual(g, g.embedding.rotation)
    walks = dg.embedding.faces.faces
    return (
        all(len(walk) == 3 for walk in walks),
        all(sum(dg.is_painted(e) for _t, _h, e in walk) == 1 for walk in walks),
    )


def brute_automorphism_count(g: PaintedGraph, respect_painting: bool = False) -> int:
    """Count automorphisms by trying every vertex permutation.

    Permutations are built one vertex at a time in label order; a prefix is
    dropped at the first edge between placed vertices whose image is not an
    edge (or, when asked, is painted differently), which skips only
    permutations that would fail that same check.
    """
    edge_set = set(g.edges)
    painted = {g.edges[e] for e in g.painted} if respect_painting else set()
    earlier = [[u for u in g.adjacency[v] if u < v] for v in range(g.vertex_count)]
    perm: list[int] = []

    def extend() -> int:
        v = len(perm)
        if v == g.vertex_count:
            return 1
        count = 0
        for img in range(g.vertex_count):
            if img in perm:
                continue
            for u in earlier[v]:
                a, b = perm[u], img
                pair = (a, b) if a < b else (b, a)
                if pair not in edge_set or ((u, v) in painted) != (pair in painted):
                    break
            else:
                perm.append(img)
                count += extend()
                perm.pop()
        return count

    return extend()


def numpy_tutte_layout(g: PaintedGraph) -> list[tuple[float, float]]:
    """``tutte_layout`` by a dense solve: the same boundary polygon and
    right-hand side, the interior system handed whole to
    ``numpy.linalg.solve`` (LU with partial pivoting)."""
    fs = g.embedding.faces
    sizes = fs.face_sizes()
    outer = max(range(len(sizes)), key=lambda f: (sizes[f], -f))
    boundary = [tail for tail, _head, _e in fs.faces[outer]]
    pos = {}
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
