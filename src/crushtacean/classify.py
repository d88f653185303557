"""Validation and symmetry classification of painted cubic planar graphs.

A crushtacean here is a cubic, planar, 3-connected simple graph on at
least four vertices whose painted edges form a perfect matching.  Such a
graph encodes a flat fully augmented link: painted edges stand for
crossing circles, and the knot circles can be read off by tracing arcs
alongside painted edges through the faces of the embedding.  The
classification report translates combinatorial facts about the graph
(painting-preserving automorphisms, painted counts of 3-edge cuts,
region adjacency) into statements about the orientation-preserving
symmetry group of the encoded link.
"""

from __future__ import annotations

from typing import NamedTuple

from .automorphism import automorphisms
from .errors import NonplanarError, PreconditionError
from .graphs import Edge, PaintedGraph, validate_basic
from .groups import GroupId, PermGroup, identify

# fixed rule identifiers used in report JSON (wire format, golden-file stable)
CIT_MONOMORPHISM = "Thm 1.1"
CIT_DICTIONARY = "Cor 1.2"
CIT_SCREEN = "Lem 5.5"
CIT_BORROMEAN = "Sec 5.1"
CIT_PRETZEL = "Thm 5.2"
CIT_PRETZEL3_COMPLEMENT = "Sec 5.2"
CIT_OCHAIN = "Thm 5.3"

NOTE_NONTRIVIAL_CUTS = (
    "b-prime criterion ranges over non-trivial 3-edge cuts only; vertex stars"
    " (always once-painted) are excluded"
)

SCREEN_NOT_SIGNATURE = "not_signature"
SCREEN_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class CrushtaceanReport(NamedTuple):
    valid: bool
    reasons: tuple[str, ...]


_VERDICT = "_crushtacean_verdict"  # where validate_crushtacean leaves its verdict in vars(g)


def validate_crushtacean(g: PaintedGraph) -> CrushtaceanReport:
    """Full admission check; returns a verdict with machine-stable reasons.

    The verdict is kept on g, as its embedding is, so the stages of a
    report that require a valid graph read it instead of checking again.
    """
    reasons: list[str] = []
    struct = validate_basic(g)
    if struct.vertex_count < 4:
        reasons.append("too_few_vertices")
    if not struct.cubic:
        reasons.append("not_cubic")
    if not struct.connected:
        reasons.append("disconnected")
    elif struct.cubic and struct.vertex_count >= 4:
        try:
            g.embedding  # built once here; every later stage reuses it
        except NonplanarError:
            reasons.append("nonplanar")
        except PreconditionError:
            reasons.append("not_3_connected")
    if g.mate is None:
        reasons.append("painted_not_perfect_matching")
    report = vars(g)[_VERDICT] = CrushtaceanReport(valid=not reasons, reasons=tuple(reasons))
    return report


def _require_valid(g: PaintedGraph) -> None:
    report = vars(g).get(_VERDICT) or validate_crushtacean(g)
    if not report.valid:
        raise PreconditionError(f"not a valid crushtacean: {', '.join(report.reasons)}")


# ---------------------------------------------------------------------------
# knot circles
# ---------------------------------------------------------------------------


class KnotCircle(NamedTuple):
    """A closed alternating walk: arcs[i] -> segments[i] -> arcs[i+1] -> ...

    An arc (painted_edge, face_id) runs beside the painted edge on the given
    face's side; a segment is the unpainted edge carrying the walk to the
    next arc.
    """

    arcs: tuple[tuple[int, int], ...]
    segments: tuple[int, ...]


class KnotStructure(NamedTuple):
    circles: tuple[KnotCircle, ...]
    # one entry per painted edge: (painted_edge_index, (circle_id, circle_id))
    crossing_links: tuple[tuple[int, tuple[int, int]], ...]

    @property
    def knot_circle_count(self) -> int:
        return len(self.circles)

    @property
    def crossing_circle_count(self) -> int:
        return len(self.crossing_links)


def knot_circles(g: PaintedGraph) -> KnotStructure:
    """Trace the knot circles of the encoded link on the faces' dart table.

    Painted dart p is the arc ``(edge[p], face[p])`` beside its edge; its
    ends are the unpainted darts ``prv[p]`` at p's tail and ``nxt[rev[p]]``
    at its head.  A segment carries the walk from unpainted dart t along
    its edge to u = ``rev[t]``, where exactly one of ``nxt[u]`` and
    ``prv[u]`` is painted: the next arc is ``nxt[u]`` or ``rev[prv[u]]``,
    and the walk leaves it by its other end.  Each circle starts at the
    smallest arc not yet traced and leaves it by the end at its smaller
    vertex; crossing circle e links the circles of e's two arcs.
    """
    _require_valid(g)
    fs = g.embedding.faces
    tail, edge, rev, nxt, prv, face = fs.tail, fs.edge, fs.rev, fs.nxt, fs.prv, fs.face
    painted = [g.is_painted(e) for e in edge]
    arcs_in_order = sorted((p for p, pd in enumerate(painted) if pd), key=lambda p: (edge[p], face[p]))
    circle = [-1] * len(edge)  # circle id of each painted dart
    circles: list[KnotCircle] = []
    for start in arcs_in_order:
        if circle[start] >= 0:
            continue
        arcs: list[tuple[int, int]] = []
        segments: list[int] = []
        p, t = start, min(prv[start], nxt[rev[start]], key=tail.__getitem__)
        while circle[p] < 0:
            circle[p] = len(circles)
            arcs.append((edge[p], face[p]))
            segments.append(edge[t])
            u = rev[t]
            p = nxt[u] if painted[nxt[u]] else rev[prv[u]]
            t = nxt[rev[p]] if prv[p] == u else prv[p]  # the end the walk did not come in by
        circles.append(KnotCircle(tuple(arcs), tuple(segments)))
    links = [(edge[p], tuple(sorted((circle[p], circle[rev[p]])))) for p in arcs_in_order[::2]]
    return KnotStructure(tuple(circles), tuple(links))


# ---------------------------------------------------------------------------
# 3-edge cuts and the b-prime criterion
# ---------------------------------------------------------------------------


class EdgeCut(NamedTuple):
    edges: tuple[int, int, int]
    painted_count: int


def three_edge_cuts(g: PaintedGraph) -> tuple[EdgeCut, ...]:
    """All non-trivial 3-edge cuts with their painted counts, ordered by
    their sorted edge triples.

    Requires cubic 3-connected planar input (non-planar input raises
    NonplanarError): the minimal cuts are then the dual's triangles, three
    faces that pairwise share an edge, and the non-trivial ones its
    non-facial triangles.  Face a meets face b along the edge of the dart
    d of a whose reverse lies in b; the two vertex stars through that edge
    add the faces of ``prv[d]`` and ``prv[rev[d]]``, so they are dropped.
    """
    if {*map(len, g.incident)} != {3}:
        raise PreconditionError("three_edge_cuts requires a cubic graph")
    fs = g.embedding.faces
    face, rev, prv, edge = fs.face, fs.rev, fs.prv, fs.edge
    shared = fs.shared  # face -> {neighbour: dart into it}
    triples = []
    for a, row in enumerate(shared):
        for b, d in row.items():
            if b > a:  # the third face c > b, read from the smaller side
                other, stars = shared[b], (face[prv[d]], face[prv[rev[d]]])
                for c in row if len(row) < len(other) else other:
                    if c > b and c in row and c in other and c not in stars:
                        triples.append(tuple(sorted((edge[d], edge[row[c]], edge[other[c]]))))
    triples.sort()
    return tuple([EdgeCut(t, len(g.painted_set.intersection(t))) for t in triples])


class BPrimeVerdict(NamedTuple):
    tag: str  # "b_prime" | "b_composite" | "borromean_special"
    witness: tuple[Edge, ...] | None = None
    note: str | None = None


def classify_bprime(g: PaintedGraph) -> BPrimeVerdict:
    """Decide b-primeness from painted counts of non-trivial 3-edge cuts.

    A once-painted non-trivial cut witnesses b-compositeness; if every
    non-trivial cut is thrice-painted the graph is b-prime.  The Borromean
    crushtacean is neither and is special-cased before the criterion; it is
    the only valid one on 4 vertices, as K4 is the only cubic simple graph
    there and its automorphisms move any perfect matching to any other.
    """
    _require_valid(g)
    if g.vertex_count == 4:
        return BPrimeVerdict("borromean_special")
    for cut in three_edge_cuts(g):
        if cut.painted_count < 3:
            witness = tuple(g.edges[e] for e in cut.edges)
            return BPrimeVerdict("b_composite", witness=witness)
    return BPrimeVerdict("b_prime", note=NOTE_NONTRIVIAL_CUTS)


# ---------------------------------------------------------------------------
# signature screen
# ---------------------------------------------------------------------------


def has_universal_region(g: PaintedGraph) -> bool:
    """Is some face edge-adjacent to every other face?  Two faces of a
    3-connected plane graph share at most one edge, so that is a face with
    one side per other face."""
    fs = g.embedding.faces
    return len(fs) - 1 in fs.face_sizes()


def signature_screen(seed: PaintedGraph) -> str:
    """Screen the link encoded by the seed's cycle expansion.

    No universal region in the seed certifies the expanded link is not a
    signature link; a universal region leaves the question open.
    """
    if has_universal_region(seed):
        return SCREEN_INCONCLUSIVE
    return SCREEN_NOT_SIGNATURE


# ---------------------------------------------------------------------------
# reflection multiplicity and the full report
# ---------------------------------------------------------------------------


class ReflectionMultiplicity(NamedTuple):
    tag: str  # "unique" | "borromean" | "pretzel" | "o_chain"
    n: int | None
    surface_count: int


def detect_reflection_multiplicity(g: PaintedGraph) -> ReflectionMultiplicity:
    """Read the families with several reflection surfaces off the number of
    painted edges on each face; every other crushtacean has exactly one.

    pretzel(n): exactly two faces carry no painted edge, and together they
    hold all 2n vertices.  o-chain(m): some painted edge is the only one on
    both faces beside it, and those faces hold 2m + 2 vertices.

    The rules are exact.  g is 3-connected, so two faces meet in nothing,
    one vertex or one edge.  The one face at a vertex without a painted
    edge lies between its two unpainted edges, so two unpainted faces are
    disjoint; holding all vertices, they leave every other edge painted,
    in the annulus between them.  The o-chain's two faces share only their
    painted edge, so sizes adding to V + 2 means they hold every vertex,
    and every other painted edge lies off both.  A painted chord with both
    ends on one face would cut off vertices with no partner (the innermost
    one would have adjacent ends, a parallel edge), so every chord joins
    the two faces in order: the chain with its painting.
    """
    _require_valid(g)
    v = g.vertex_count
    if v == 4:
        return ReflectionMultiplicity("borromean", None, 3)
    fs = g.embedding.faces
    face, size = fs.face, fs.face_sizes()
    painted = [d for d, e in enumerate(fs.edge) if e in g.painted_set]  # the painted darts
    count = [0] * len(size)  # painted edges on each face
    for d in painted:
        count[face[d]] += 1
    bare = [f for f, k in enumerate(count) if k == 0]
    if len(bare) == 2 and size[bare[0]] + size[bare[1]] == v:
        return ReflectionMultiplicity("pretzel", v // 2, 2)
    for d in painted:
        a, b = face[d], face[fs.rev[d]]
        if count[a] == count[b] == 1 and size[a] + size[b] == v + 2:
            return ReflectionMultiplicity("o_chain", v // 2 - 1, 2)
    return ReflectionMultiplicity("unique", None, 1)


class SymEstimate(NamedTuple):
    status: str  # "exact" | "lower_bound" | "order_only" | "unknown"
    group: GroupId | None = None
    order: int | None = None
    citation: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "group": None if self.group is None else str(self.group),
            "order": self.order,
            "citation": self.citation,
        }


UNKNOWN = SymEstimate("unknown")


class ClassificationReport(NamedTuple):
    crushtacean_valid: bool
    reasons: tuple[str, ...] = ()
    vertices: int = 0
    edges: int = 0
    painted: int = 0
    aut_order: int | None = None
    aut_p_order: int | None = None
    group_id: GroupId | None = None
    b_prime: BPrimeVerdict | None = None
    reflection: ReflectionMultiplicity | None = None
    signature_screen: str | None = None
    sym_plus_link: SymEstimate = UNKNOWN
    sym_plus_complement: SymEstimate = UNKNOWN
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        gid = self.group_id
        return {
            "format": "crushtacean-report/1",
            "crushtacean_valid": self.crushtacean_valid,
            "reasons": list(self.reasons),
            "vertices": self.vertices,
            "edges": self.edges,
            "painted": self.painted,
            "aut_order": self.aut_order,
            "aut_p_order": self.aut_p_order,
            "group_id": None if gid is None else str(gid),
            "group_alias": None if gid is None else gid.geometric_alias(),
            "b_prime": None
            if self.b_prime is None
            else {
                "tag": self.b_prime.tag,
                "witness": None
                if self.b_prime.witness is None
                else [list(e) for e in self.b_prime.witness],
                "note": self.b_prime.note,
            },
            "reflection": None
            if self.reflection is None
            else {
                "tag": self.reflection.tag,
                "n": self.reflection.n,
                "surface_count": self.reflection.surface_count,
            },
            "signature_screen": self.signature_screen,
            "sym_plus_link": self.sym_plus_link.to_json_dict(),
            "sym_plus_complement": self.sym_plus_complement.to_json_dict(),
            "notes": list(self.notes),
        }


def _family_sym_group(n: int) -> GroupId:
    """Shared symmetry-group shape of the chain families at parameter n."""
    if n % 2 == 0:
        return GroupId.dihedral_x_z2(2 * n)
    return GroupId.dihedral(4 * n)


def _painted_group(g: PaintedGraph, aut: PermGroup) -> PermGroup:
    """Aut_p(g), given aut = Aut(g): aut itself when each of its generators
    maps the painted edges onto painted edges (a subgroup that holds every
    generator is the whole group), else the painted search's group.  A map
    keeps the perfect matching ``g.mate`` of a valid g when it commutes with it."""
    mate = g.mate
    if all([*map(mate.__getitem__, m)] == [*map(m.__getitem__, mate)] for m in aut.moves):
        return aut
    return automorphisms(g, respect_painting=True)


def symmetry_report(
    g: PaintedGraph,
    expansion_seed: PaintedGraph | None = None,
) -> ClassificationReport:
    """Classify the orientation-preserving symmetries of the encoded link.

    When g is an iterated-expansion member, passing the graph it was
    expanded from unlocks the not-a-signature-link screen and with it the
    complement determination; without provenance the complement is Unknown
    outside the exceptional families.  g's painted matching and unpainted
    cycles are read as the seed's map (``families.expands_to``), no
    expansion built; a seed that does not match raises PreconditionError.
    The painted group is searched only when a generator of the unpainted
    group moves the painting; otherwise the two groups are one, expanded
    once for its signature.
    """
    check = validate_crushtacean(g)
    if not check.valid:
        return ClassificationReport(
            crushtacean_valid=False,
            reasons=check.reasons,
            vertices=g.vertex_count,
            edges=g.edge_count,
            painted=len(g.painted),
        )

    aut = automorphisms(g, respect_painting=False)
    aut_p = _painted_group(g, aut)
    gid = identify(aut_p)
    bp = classify_bprime(g)
    refl = detect_reflection_multiplicity(g)

    screen = SCREEN_INCONCLUSIVE
    notes: list[str] = []
    if expansion_seed is not None:
        from .families import expands_to

        if not expands_to(expansion_seed, g):
            raise PreconditionError("expansion_seed does not expand to the given graph")
        screen = signature_screen(expansion_seed)
        notes.append("expansion provenance verified against supplied seed")

    if refl.tag == "borromean":
        link = SymEstimate("exact", GroupId.exceptional("S4"), 24, CIT_BORROMEAN)
        comp = SymEstimate("exact", GroupId.exceptional("S4"), 24, CIT_BORROMEAN)
    elif refl.tag == "pretzel":
        n = refl.n or 0
        link = SymEstimate("exact", _family_sym_group(n), 8 * n, CIT_PRETZEL)
        if n >= 4:
            comp = SymEstimate("exact", _family_sym_group(n), 8 * n, CIT_PRETZEL)
        else:
            comp = SymEstimate("order_only", None, 96, CIT_PRETZEL3_COMPLEMENT)
    elif refl.tag == "o_chain":
        n = refl.n or 0
        link = SymEstimate("exact", _family_sym_group(n), 8 * n, CIT_OCHAIN)
        comp = SymEstimate("exact", _family_sym_group(n), 8 * n, CIT_OCHAIN)
    elif bp.tag == "b_prime":
        link = SymEstimate("exact", gid, aut_p.order, CIT_DICTIONARY)
        if screen == SCREEN_NOT_SIGNATURE:
            comp = SymEstimate("exact", gid, aut_p.order, CIT_DICTIONARY)
            notes.append(f"complement transfer via screen ({CIT_SCREEN})")
        else:
            comp = UNKNOWN
    else:
        link = SymEstimate("lower_bound", gid, aut_p.order, CIT_MONOMORPHISM)
        comp = UNKNOWN

    if bp.note:
        notes.append(bp.note)

    return ClassificationReport(
        crushtacean_valid=True,
        reasons=(),
        vertices=g.vertex_count,
        edges=g.edge_count,
        painted=len(g.painted),
        aut_order=aut.order,
        aut_p_order=aut_p.order,
        group_id=gid,
        b_prime=bp,
        reflection=refl,
        signature_screen=screen,
        sym_plus_link=link,
        sym_plus_complement=comp,
        notes=tuple(notes),
    )
