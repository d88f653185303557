"""Automorphisms and isomorphisms of 3-connected planar graphs.

By Whitney's theorem such a graph has one sphere embedding, up to mirror
image, so an isomorphism is fixed by a flag: the image of one dart and a
sign (+1 keeps the rotations, -1 reverses them; Weinberg 1966).  Both
entry points fix a base dart, try each flag whose invariant matches it
(edge class, end degrees, the sizes of the two faces beside the dart,
swapped for sign -1) and extend it by breadth-first search over the
rotation system, checking every edge and its class, in O(E) steps.  The
automorphism search skips each flag that the group generated by the maps
found so far already sends the base flag to, as in a Schreier-Sims orbit
walk (Sims 1970): each map it finds at least doubles that group, so at
most floor(log2 |G|) flags succeed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from .errors import CapExceededError
from .graphs import PaintedGraph
from .groups import DEFAULT_CAP, Image, PermGroup, Permutation, _closure, from_elements


class _Darts:
    """Per-dart arrays of one embedded graph; the darts leaving vertex v
    are numbered consecutively in its rotation order."""

    def __init__(self, g: PaintedGraph, respect_painting: bool):
        rot, fs = g.embedding.rotation, g.embedding.faces
        size = fs.face_sizes()
        darts = [(v, e) for v, row in enumerate(rot) for e in row]
        index = {d: i for i, d in enumerate(darts)}
        self.deg = [len(row) for row in rot]
        self.tail = [v for v, _e in darts]
        self.rev = [index[(g.other_end(e, v), e)] for v, e in darts]
        first = [index[(v, row[0])] for v, row in enumerate(rot)]
        self.nxt = [first[v] + (d - first[v] + 1) % self.deg[v] for d, v in enumerate(self.tail)]
        self.prv = [first[v] + (d - first[v] - 1) % self.deg[v] for d, v in enumerate(self.tail)]
        self.cls = [1 if respect_painting and g.is_painted(e) else 0 for _v, e in darts]
        fsz = [size[fs.dart_face[d]] for d in darts]
        deg_of = [self.deg[v] for v in self.tail]
        ends = [(c, deg_of[d], deg_of[r]) for d, (c, r) in enumerate(zip(self.cls, self.rev))]
        self.keys = {
            1: [ends[d] + (fsz[d], fsz[r]) for d, r in enumerate(self.rev)],
            -1: [ends[d] + (fsz[r], fsz[d]) for d, r in enumerate(self.rev)],
        }
        self.shape = (g.vertex_count, g.edge_count, sum(self.cls), tuple(sorted(size)))

    def base(self) -> int:
        """The dart whose invariant the fewest flags share."""
        count = Counter(self.keys[1] + self.keys[-1])
        return min(range(len(self.tail)), key=lambda d: (count[self.keys[1][d]], d))

    def flags(self, key: tuple) -> list[tuple[int, int]]:
        return [(d, s) for d in range(len(self.tail)) for s in (1, -1) if self.keys[s][d] == key]


def _extend(a: _Darts, b: _Darts, base: int, image: int, sign: int) -> tuple[int, ...] | None:
    """The vertex map a -> b fixed by the flag, or None if it breaks."""
    a_tail, a_rev, a_nxt, a_cls, a_deg = a.tail, a.rev, a.nxt, a.cls, a.deg
    b_tail, b_rev, b_cls, b_deg = b.tail, b.rev, b.cls, b.deg
    b_step = b.nxt if sign > 0 else b.prv
    vmap, used, dmap = [-1] * len(a_deg), [False] * len(b_deg), [-1] * len(a_tail)
    vmap[a_tail[base]] = b_tail[image]
    used[b_tail[image]] = True
    queue = [(base, image)]
    for x, y in queue:
        for _ in range(a_deg[a_tail[x]]):
            if a_cls[x] != b_cls[y]:
                return None
            dmap[x] = y
            r, t = a_rev[x], b_rev[y]
            w = a_tail[r]
            if vmap[w] < 0:
                wt = b_tail[t]
                if used[wt] or a_deg[w] != b_deg[wt]:
                    return None
                vmap[w], used[wt] = wt, True
                queue.append((r, t))
            elif dmap[r] >= 0 and dmap[r] != t:  # the edge's other end disagrees
                return None
            x, y = a_nxt[x], b_step[y]
    return tuple(vmap)


def automorphisms(
    g: PaintedGraph, respect_painting: bool = False, cap: int = DEFAULT_CAP
) -> PermGroup:
    """The automorphism group of g (painted edges preserved when asked),
    closed from the maps of the candidate flags that the maps found before
    do not reach: at most floor(log2 |G|) of them.  Each element carries
    the sign of the base flag's image: +1 when it keeps the rotations.

    Raises NonplanarError or PreconditionError unless g is planar and
    3-connected, and CapExceededError when there are more than ``cap`` maps.
    """
    darts = _Darts(g, respect_painting)
    base = darts.base()
    tail, rev = darts.tail, darts.rev
    dart_at = {(tail[d], tail[r]): d for d, r in enumerate(rev)}
    v, w, u = tail[base], tail[rev[base]], tail[rev[darts.nxt[base]]]

    def flag(p: Image) -> tuple[int, int]:  # the image of the base flag
        d = dart_at[p[v], p[w]]
        return d, 1 if dart_at[p[v], p[u]] == darts.nxt[d] else -1

    too_many = f"automorphism count exceeded cap of {cap}"
    gens: list[Image] = []
    span = {tuple(range(g.vertex_count))}
    reached = {(base, 1)}
    for image, sign in darts.flags(darts.keys[1][base]):
        if (image, sign) in reached:
            continue
        perm = _extend(darts, darts, base, image, sign)
        if perm is not None:
            gens.append(Permutation(perm).image)
            try:
                span = _closure(g.vertex_count, gens, cap=cap)
            except CapExceededError:
                raise CapExceededError(too_many) from None
            reached = set(map(flag, span))
    if len(span) > cap:  # the identity alone, with cap < 1
        raise CapExceededError(too_many)
    grp = from_elements(map(Permutation, span), g.vertex_count)
    return replace(grp, signs=tuple(flag(p.image)[1] for p in grp.elements))


def find_isomorphism(
    g1: PaintedGraph, g2: PaintedGraph, respect_painting: bool = False
) -> Permutation | None:
    """A painted-graph isomorphism g1 -> g2, or None; the same inputs give
    the same map every run.  Raises like :func:`automorphisms`."""
    a, b = _Darts(g1, respect_painting), _Darts(g2, respect_painting)
    if a.shape != b.shape:  # sizes, painted count, sorted face sizes
        return None
    base = a.base()
    for image, sign in b.flags(a.keys[1][base]):
        perm = _extend(a, b, base, image, sign)
        if perm is not None:
            return Permutation(perm)
    return None
