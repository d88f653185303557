"""Shared test utilities: random corpora and independent brute-force oracles.

Everything here deliberately avoids the library's own algorithms: cut
enumeration removes subsets and checks connectivity, automorphism counts
try all vertex permutations, and the random crushtacean corpus is built
by dualizing stacked triangulations (always simple, cubic, planar and
3-connected) and painting a maximum matching.
"""

import json
from itertools import combinations
from math import lcm

import networkx as nx

from crushtacean import NonplanarError, PaintedGraph, PreconditionError, dual, painted_graph, planar_embed


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


def close_tuples(gens: list[tuple]) -> set[tuple]:
    ident = tuple(range(len(gens[0])))
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
