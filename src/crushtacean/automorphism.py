"""Automorphisms and isomorphisms of 3-connected planar graphs.

By Whitney's theorem such a graph has one sphere embedding, up to mirror
image, so an isomorphism is fixed by a flag: the image of one dart and a
sign (+1 keeps the rotations, -1 reverses them; Weinberg 1966).  Both
entry points fix a base dart, try each flag whose invariant matches it
(edge class, end degrees, the sizes of the two faces beside the dart,
swapped for sign -1) and extend it by breadth-first search over the
rotation system, checking every edge and its class, in O(E) steps.  The
automorphism group acts freely on the flags, and only the identity fixes
a flag's three vertices (its dart's ends and the next neighbour of its
tail).  So the group is the orbit of the base flag's vertices under the
maps found, grown by ``groups._grow`` as its Schreier tree (Sims 1970),
and only flags outside that orbit are extended: at most floor(log2 |G|)
succeed.  Those three vertices are the group's base; vertex images are
built only when asked.  The search walks the dart table of the graph's
faces (``graphs.FaceSet``); the edge classes and flag invariants it adds
are kept on the graph, once per painting flag.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import compress, count
from operator import itemgetter

from .errors import CapExceededError
from .graphs import PaintedGraph
from .groups import DEFAULT_CAP, PermGroup, Permutation, _grow


class _Darts:
    """The painting-dependent arrays of one embedded graph, over the dart
    table ``fs`` of its faces: each dart's edge class and flag invariants,
    one int each in radix 2E + 1 (above every degree and face size)."""

    def __init__(self, g: PaintedGraph, respect_painting: bool):
        fs = self.fs = g.embedding.faces
        self.deg = deg = [*map(len, g.incident)]
        self.cls = [*map((g.painted_set if respect_painting else ()).__contains__, fs.edge)]
        radix, rev = 2 * g.edge_count + 1, fs.rev
        deg_of, fsz = [*map(deg.__getitem__, fs.tail)], [*map(fs.size.__getitem__, fs.face)]
        ends = [(c * radix + deg_of[d]) * radix + deg_of[r] for d, (c, r) in enumerate(zip(self.cls, rev))]
        self.keys = {
            1: [(ends[d] * radix + fsz[d]) * radix + fsz[r] for d, r in enumerate(rev)],
            -1: [(ends[d] * radix + fsz[r]) * radix + fsz[d] for d, r in enumerate(rev)],
        }
        self.shape = (g.vertex_count, g.edge_count, sum(self.cls), tuple(sorted(fs.size)))

    @cached_property
    def base(self) -> int:
        """The dart whose invariant the fewest flags share, the first of them."""
        seen = Counter(self.keys[1] + self.keys[-1])
        shared = [*map(seen.__getitem__, self.keys[1])]
        return shared.index(min(shared))

    def flags(self, key: int) -> list[tuple[int, int]]:
        """The flags (dart, sign) whose invariant is key, by dart, sign +1 first."""
        found = [(d, s) for s in (1, -1) for d in compress(count(), map(key.__eq__, self.keys[s]))]
        return sorted(found, key=itemgetter(0))  # stable: sign +1 stays first


def _darts(g: PaintedGraph, respect_painting: bool) -> _Darts:
    """The dart arrays of g, built once per graph and painting flag."""
    if respect_painting not in g.dart_arrays:
        g.dart_arrays[respect_painting] = _Darts(g, respect_painting)
    return g.dart_arrays[respect_painting]


def _extend(a: _Darts, b: _Darts, base: int, image: int, sign: int) -> tuple[int, ...] | None:
    """The vertex map a -> b fixed by the flag, or None if it breaks."""
    a_tail, a_rev, a_nxt, a_cls, a_deg = a.fs.tail, a.fs.rev, a.fs.nxt, a.cls, a.deg
    b_tail, b_rev, b_cls, b_deg = b.fs.tail, b.fs.rev, b.cls, b.deg
    b_step = b.fs.nxt if sign > 0 else b.fs.prv
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
    """The automorphism group of g (painted edges preserved when asked), as
    the orbit of its base, O(E) per map found: the base dart's tail v0, its
    head, and v0's next neighbour in the rotation.  Each element carries the
    sign of its flag, +1 when it keeps the rotations.  Raises NonplanarError
    or PreconditionError unless g is planar and 3-connected, and
    CapExceededError as soon as the orbit holds more than ``cap`` maps."""
    darts = _darts(g, respect_painting)
    base, tail, rev = darts.base, darts.fs.tail, darts.fs.rev
    if cap < 1:
        raise CapExceededError(f"automorphism count exceeded cap of {cap}")
    step, moves, move_signs = {1: darts.fs.nxt, -1: darts.fs.prv}, [], []
    reached = {(tail[base], tail[rev[base]], tail[rev[step[1][base]]]): None}
    for image, sign in darts.flags(darts.keys[1][base]):
        if (tail[image], tail[rev[image]], tail[rev[step[sign][image]]]) not in reached:
            perm = _extend(darts, darts, base, image, sign)
            if perm is not None:
                move_signs.append(sign)
                _grow(reached, moves, Permutation(perm).image, cap)
    tree, signs = tuple(reached.values())[1:], [1]
    for j, k in tree:
        signs.append(move_signs[k] * signs[j])
    return PermGroup(g.vertex_count, next(iter(reached)), tuple(moves), tree, tuple(signs))


def find_isomorphism(
    g1: PaintedGraph, g2: PaintedGraph, respect_painting: bool = False
) -> Permutation | None:
    """A painted-graph isomorphism g1 -> g2, or None; the same inputs give
    the same map every run.  Raises like :func:`automorphisms`."""
    a, b = _darts(g1, respect_painting), _darts(g2, respect_painting)
    if a.shape != b.shape:  # sizes, painted count, sorted face sizes
        return None
    base = a.base
    for image, sign in b.flags(a.keys[1][base]):
        perm = _extend(a, b, base, image, sign)
        if perm is not None:
            return Permutation(perm)
    return None
