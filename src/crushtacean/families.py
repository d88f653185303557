"""Named crushtaceans, symmetry-seed constructors, and cycle expansion.

Three painted families are built directly: the Borromean crushtacean, the
pretzel chain (prism with painted rungs), and the alternating chain whose
painting-preserving symmetry group is always the Klein four-group.  On top
of these, :func:`cycle_expand` blows every vertex of a plane graph up into
a cycle, painting the images of the original edges; iterating it produces
arbitrarily large crushtaceans whose painted symmetries copy the seed's
full symmetry group, which is how :func:`generate_family` manufactures
links with a prescribed orientation-preserving symmetry group.
"""

from __future__ import annotations

from itertools import compress, count
from types import SimpleNamespace
from typing import NamedTuple

from .automorphism import _darts, _extend, automorphisms
from .classify import (
    SCREEN_NOT_SIGNATURE,
    has_universal_region,
    signature_screen,
    validate_crushtacean,
)
from .errors import CatalogMissError, PreconditionError
from .graphs import Edge, PaintedGraph, Rotation, _canon_row, painted_graph
from .groups import GroupId, identify

MAX_VERTICES = 10**5  # the largest graph built: far above the few thousand vertices aimed at


def _require_vertices(count: int) -> None:
    if count > MAX_VERTICES:
        raise PreconditionError(f"the graph would have {count} vertices, more than {MAX_VERTICES}")


def require_expansions(g: PaintedGraph, times: int) -> None:
    """Raise PreconditionError unless ``times`` >= 0 cycle expansions of g
    stay within MAX_VERTICES: each has 2E vertices and 3E edges."""
    if times < 0:
        raise PreconditionError(f"the number of expansions must be at least 0, got {times}")
    edges = g.edge_count
    for _ in range(times):
        if edges == 0:
            break  # nothing to grow: cycle_expand refuses the graph itself
        _require_vertices(2 * edges)
        edges *= 3


# ---------------------------------------------------------------------------
# painted families
# ---------------------------------------------------------------------------


def gamma_borromean() -> PaintedGraph:
    """The 4-vertex crushtacean of the Borromean rings: K4 with a painted
    perfect matching."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return painted_graph(4, edges, painted=[(0, 1), (2, 3)])


def gamma_pretzel(n: int) -> PaintedGraph:
    """Chain of n crossing circles in a cycle: the n-prism with every rung
    painted.  Vertices 0..n-1 are the top cycle, n..2n-1 the bottom."""
    _require_vertices(2 * n)
    if n < 3:
        raise ValueError("pretzel chain needs at least three links")
    edges: list[Edge] = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    rungs = [(i, n + i) for i in range(n)]
    around = [((i + 1) % n, n + i, (i - 1) % n) for i in range(n)]
    around += [(n + (i + 1) % n, n + (i - 1) % n, i) for i in range(n)]
    return _with_rotation(painted_graph(2 * n, edges + rungs, painted=rungs), around)


def _with_rotation(g: PaintedGraph, around) -> PaintedGraph:
    """g carrying the rotation that lists v's neighbours in the order ``around[v]``."""
    index = g.edge_index
    rows = (_canon_row([index[(v, w) if v < w else (w, v)] for w in row]) for v, row in enumerate(around))
    return PaintedGraph(g.vertex_count, g.edges, g.painted, tuple(rows))


def gamma_ochain(n: int) -> PaintedGraph:
    """Chain of n circles closed off by one extra crossing circle.

    Take the n-prism with painted rungs, cut the top and bottom edges of
    one square face, and fuse each side's loose ends into a new vertex;
    the painted edge p0 between the two new vertices is then the unique
    painted edge meeting both triangular faces.  The painting-preserving
    symmetry group is the Klein four-group for every n.

    Layout: top path vertices 0..n-1, bottom path n..2n-1, fused vertices
    x = 2n (left, joining top 0 and bottom n) and y = 2n+1 (right).
    """
    _require_vertices(2 * n + 2)
    if n < 2:
        raise ValueError("chain needs at least two links")
    x, y = 2 * n, 2 * n + 1
    edges: list[Edge] = [(i, i + 1) for i in range(1, n - 1)]  # top path 1..n-1
    edges += [(n - 1, 0)]  # top wrap back to 0
    edges += [(n + i, n + i + 1) for i in range(1, n - 1)]  # bottom path
    edges += [(2 * n - 1, n)]
    edges += [(0, x), (n, x), (1, y), (n + 1, y)]
    rungs = [(i, n + i) for i in range(n)]
    painted = rungs + [(x, y)]
    g = painted_graph(2 * n + 2, edges + painted, painted=painted)
    # the planarity test's rotation, which it gives mirrored at n = 2 (the triangular prism)
    top, bottom = [y, *range(1, n), 0, x], [y, *range(n + 1, 2 * n), n, x]
    around: list = [None] * (2 * n + 2)
    for k in range(1, n + 1):
        around[top[k]] = (top[k - 1], top[k] + n, top[k + 1])
        around[bottom[k]] = (bottom[k] - n, bottom[k - 1], bottom[k + 1])
    around[x], around[y] = (0, n, y), (1, x, n + 1)
    return _with_rotation(g, around if n > 2 else [row[::-1] for row in around])


# ---------------------------------------------------------------------------
# unpainted symmetry seeds
# ---------------------------------------------------------------------------


def wheel(n: int) -> PaintedGraph:
    """Cycle 0..n-1 plus a hub n joined to every rim vertex."""
    _require_vertices(n + 1)
    if n < 3:
        raise ValueError("wheel needs a rim of at least three vertices")
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return painted_graph(n + 1, edges)


def prism(n: int) -> PaintedGraph:
    g = gamma_pretzel(n) if n >= 3 else _reject(n)
    return PaintedGraph(g.vertex_count, g.edges, (), g.rotation)


def _reject(n: int) -> PaintedGraph:
    raise ValueError(f"prism/antiprism parameter must be >= 3, got {n}")


def antiprism(n: int) -> PaintedGraph:
    """Two n-cycles, bottom vertex n+i joined to top i and i+1."""
    _require_vertices(2 * n)
    if n < 3:
        _reject(n)
    edges: list[Edge] = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [((i + 1) % n, n + i) for i in range(n)]
    return painted_graph(2 * n, edges)


def tetrahedron() -> PaintedGraph:
    return painted_graph(4, gamma_borromean().edges)


def cube() -> PaintedGraph:
    return prism(4)


_DODECAHEDRON_LCF = (10, 7, 4, -4, -7, 10, -4, 7, -7, 4) * 2


def dodecahedron() -> PaintedGraph:
    edges = {(i, (i + 1) % 20) for i in range(20)}
    for i, a in enumerate(_DODECAHEDRON_LCF):
        j = (i + a) % 20
        edges.add((min(i, j), max(i, j)))
    return painted_graph(20, sorted(edges))


def _seed_candidates(target: GroupId) -> list[tuple[str, PaintedGraph]]:
    """The catalog seeds that may realize the target, unverified."""
    cands: list[tuple[str, PaintedGraph]] = []
    kind, n = target.kind, target.n
    if kind == "dihedral" and n >= 4:
        cands.append((f"wheel{n}", wheel(n)))
        if n % 2 == 0 and n >= 6:
            m = n // 2
            if m % 2 == 1:
                cands.append((f"prism{m}", prism(m)))
            if m >= 4:
                cands.append((f"antiprism{m}", antiprism(m)))
    elif kind == "dihedral_x_z2" and n % 2 == 0 and n >= 6:
        cands.append((f"prism{n}", prism(n)))
    elif kind == "S4":
        cands.append(("tetrahedron", tetrahedron()))
    elif kind == "S4xZ2":
        cands.extend([("cube", cube()), ("antiprism3", antiprism(3))])
    elif kind == "A5xZ2":
        cands.append(("dodecahedron", dodecahedron()))
    return cands


def seed_catalog(target: GroupId) -> list[tuple[str, PaintedGraph]]:
    """Seeds whose full automorphism group realizes the target; every
    candidate is re-verified through the automorphism engine before being
    returned, so a miss yields an empty list."""
    return [
        (name, g)
        for name, g in _seed_candidates(target)
        if identify(automorphisms(g, respect_painting=False)) == target
    ]


# ---------------------------------------------------------------------------
# cycle expansion
# ---------------------------------------------------------------------------


def cycle_expand(g: PaintedGraph) -> tuple[PaintedGraph, Rotation]:
    """Blow each vertex up into a cycle following its rotation; images of
    the original edges are painted.

    Dart d of the input (see ``FaceSet``) becomes output vertex d, joined
    by a painted edge to ``rev[d]``, the other end of its edge, and by
    cycle edges to ``nxt[d]`` and ``prv[d]``, its rotation neighbours: the
    painted matching and unpainted cycles are the input's map again, read
    by ``expands_to`` for the automorphism search's flag extension.  The
    output carries its rotation, and its embedding is built and checked to
    be 3-connected before it is returned.  Input painting, if any, is
    ignored.  Requires a 3-connected planar input and raises
    PreconditionError otherwise: smaller degrees would create loops or
    parallel edges, and a 2-vertex cut would leave 2-edge cuts.
    """
    fs = g.embedding.faces
    rev, nxt, prv = fs.rev, fs.nxt, fs.prv
    painted = [(d, r) for d, r in enumerate(rev) if d < r]
    out = painted_graph(2 * g.edge_count, painted + list(enumerate(nxt)), painted)
    out = _with_rotation(out, zip(rev, nxt, prv))
    out.embedding  # checked 3-connected, and kept
    return out, out.rotation


def expands_to(seed: PaintedGraph, g: PaintedGraph) -> bool:
    """Is the valid crushtacean g the seed's cycle expansion, up to a
    painted isomorphism?

    g's painted matching and unpainted cycles are read as the seed's map:
    vertex x is a dart, ``g.mate[x]`` its reverse, its neighbour after the
    painted edge in its rotation (before, for a mirror map) its next dart,
    and the face its unpainted edges bound its tail.  If no such face has a
    painted edge, the automorphism search's flag extension (``_extend``)
    matches the seed's map with it from each vertex whose cycle, partner's
    cycle and faces beside the painted edge (swapped for a mirror map) show
    the base dart's end degrees and doubled face sizes.  Sizes are compared
    first; the seed's embedding raises unless it is planar and 3-connected.
    """
    edges, mate = seed.edge_count, g.mate
    if mate is None or (g.vertex_count, g.edge_count) != (2 * edges, 3 * edges):
        return False
    a, t = _darts(seed, False), g.embedding.faces
    base, s, size, face = a.base, a.fs, t.size, t.face
    paint = [*compress(count(), map(g.painted_set.__contains__, t.edge))]  # one per vertex, in order
    cyc = [*map(face.__getitem__, map(t.prv.__getitem__, paint))]  # the face between x's unpainted edges
    if sum(map(size.__getitem__, set(cyc))) != len(cyc):  # one of them has a painted edge as well
        return False
    cycle, side = [*map(size.__getitem__, cyc)], [*map(size.__getitem__, map(face.__getitem__, paint))]
    key = [*zip(cycle, map(cycle.__getitem__, mate), side, map(side.__getitem__, mate))]
    r = s.rev[base]
    ends, beside = (a.deg[s.tail[base]], a.deg[s.tail[r]]), (2 * s.size[s.face[base]], 2 * s.size[s.face[r]])
    for sign, step in ((1, t.nxt), (-1, t.prv)):
        nxt = [*map(t.tail.__getitem__, map(t.rev.__getitem__, map(step.__getitem__, paint)))]
        b = SimpleNamespace(fs=SimpleNamespace(tail=cyc, rev=mate, nxt=nxt), cls=a.cls, deg=size)
        for x in compress(count(), map((*ends, *beside[::sign]).__eq__, key)):
            if _extend(a, b, base, x, 1) is not None:
                return True
    return False


# ---------------------------------------------------------------------------
# family generation
# ---------------------------------------------------------------------------


def _require_family(seed: PaintedGraph, count: int) -> None:
    """Check the family's size."""
    if count < 1:
        raise ValueError("count must be positive")
    require_expansions(seed, count + has_universal_region(seed))


class FamilyMember(NamedTuple):
    """One iterated expansion, with the graph it was expanded from (its
    provenance certificate for the signature screen)."""

    depth: int
    graph: PaintedGraph
    rotation: Rotation
    parent: PaintedGraph
    certified_not_signature: bool


def generate_family(
    seed: PaintedGraph, count: int, *, verify: bool = True
) -> tuple[FamilyMember, ...]:
    """Iterated cycle expansions of the seed whose painted symmetry group
    copies the seed's full symmetry group.

    The first expansion is dropped when the seed has a universal region
    (its screen is inconclusive there), so every returned member carries a
    not-a-signature-link certificate.  With ``verify`` each member is
    re-validated and its painted symmetry group re-identified against the
    seed's.  Raises PreconditionError, before any expansion, when the last
    member would have more than MAX_VERTICES vertices.
    """
    _require_family(seed, count)
    target = identify(automorphisms(seed, respect_painting=False)) if verify else None
    return _members(seed, count, target)


def _members(seed: PaintedGraph, count: int, target: GroupId | None) -> tuple[FamilyMember, ...]:
    """The members of ``generate_family`` once its checks pass, each checked
    against the seed's group ``target`` unless that is None."""
    skip_first = has_universal_region(seed)
    members: list[FamilyMember] = []
    cur = seed
    depth = 0
    while len(members) < count:
        cert = signature_screen(cur) == SCREEN_NOT_SIGNATURE
        nxt, nxt_rot = cycle_expand(cur)
        depth += 1
        if not (depth == 1 and skip_first):
            if target is not None:
                report = validate_crushtacean(nxt)
                if not report.valid:
                    raise RuntimeError(f"expansion invalid: {report.reasons}")
                got = identify(automorphisms(nxt, respect_painting=True))
                if got != target:
                    raise RuntimeError(f"painted symmetry drifted: {got} != {target}")
            members.append(FamilyMember(depth, nxt, nxt_rot, cur, cert))
        cur = nxt
    return tuple(members)


def family_from_target(
    target: GroupId, count: int, *, verify: bool = True
) -> tuple[str, tuple[FamilyMember, ...]]:
    """Expand the first catalog seed realizing the target, the members checked
    against it; every candidate's family size is checked before any search."""
    for _name, seed in _seed_candidates(target):
        _require_family(seed, count)
    seeds = seed_catalog(target)
    if not seeds:
        raise CatalogMissError(f"no catalog seed with symmetry group {target}")
    name, seed = seeds[0]
    return name, _members(seed, count, target if verify else None)
