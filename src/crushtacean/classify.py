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

from collections import Counter
from dataclasses import dataclass

from .automorphism import automorphisms, find_isomorphism
from .errors import NonplanarError, PreconditionError
from .graphs import Edge, PaintedGraph, validate_basic
from .groups import GroupId, identify

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


@dataclass(frozen=True)
class CrushtaceanReport:
    valid: bool
    reasons: tuple[str, ...]


_VERDICT = "_crushtacean_verdict"  # where validate_crushtacean leaves its verdict in vars(g)


def _matching_ok(g: PaintedGraph) -> bool:
    ends: set[int] = set()
    for u, v in g.painted_pairs():
        if u in ends or v in ends:
            return False
        ends.add(u)
        ends.add(v)
    return len(ends) == g.vertex_count


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
    if not _matching_ok(g):
        reasons.append("painted_not_perfect_matching")
    report = vars(g)[_VERDICT] = CrushtaceanReport(valid=not reasons, reasons=tuple(reasons))
    return report


def _require_valid(g: PaintedGraph) -> None:
    report = vars(g).get(_VERDICT) or validate_crushtacean(g)
    if not report.valid:
        raise PreconditionError(f"not a valid crushtacean: {', '.join(report.reasons)}")


# ---------------------------------------------------------------------------
# nerve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NerveReport:
    is_triangulation: bool
    one_painted_per_triangle: bool


def nerve_check(g: PaintedGraph) -> NerveReport:
    """Check the planar dual is a sphere triangulation whose triangles each
    cross exactly one painted edge.

    Both are read off the faces of the dual's own embedding: every dual
    face has three sides, and each crosses one painted edge.  The dual is
    simple by construction (building it raises otherwise).
    """
    _require_valid(g)
    dg, _corr = g.embedding.dual
    walks = dg.embedding.faces.faces
    return NerveReport(
        is_triangulation=all(len(walk) == 3 for walk in walks),
        one_painted_per_triangle=all(
            sum(dg.is_painted(e) for _t, _h, e in walk) == 1 for walk in walks
        ),
    )


# ---------------------------------------------------------------------------
# knot circles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnotCircle:
    """A closed alternating walk: arcs[i] -> segments[i] -> arcs[i+1] -> ...

    An arc (painted_edge, face_id) runs beside the painted edge on the given
    face's side; a segment is the unpainted edge carrying the walk to the
    next arc.
    """

    arcs: tuple[tuple[int, int], ...]
    segments: tuple[int, ...]


@dataclass(frozen=True)
class KnotStructure:
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


# ---------------------------------------------------------------------------
# 3-edge cuts and the b-prime criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCut:
    edges: tuple[int, int, int]
    painted_count: int


def three_edge_cuts(g: PaintedGraph) -> tuple[EdgeCut, ...]:
    """All non-trivial 3-edge cuts with their painted counts.

    Requires cubic 3-connected planar input (then every disconnecting
    triple is a minimal cut, and the minimal cuts are the triangles of the
    dual; its facial triangles are the vertex stars); non-planar input
    raises NonplanarError.
    """
    if any(g.degree(v) != 3 for v in range(g.vertex_count)):
        raise PreconditionError("three_edge_cuts requires a cubic graph")
    dg, corr = g.embedding.dual
    primal = {d: p for p, d in enumerate(corr)}
    nbrs = [set(row) for row in dg.adjacency]
    triples = {
        tuple(sorted(primal[d] for d in (ab, dg.edge_index[(a, c)], dg.edge_index[(b, c)])))
        for ab, (a, b) in enumerate(dg.edges)
        for c in nbrs[a] & nbrs[b]
        if c > b
    }
    cuts = []
    for triple in sorted(triples):
        ends = [set(g.edges[e]) for e in triple]
        if ends[0] & ends[1] & ends[2]:
            continue  # vertex star: trivial cut
        painted = sum(1 for e in triple if g.is_painted(e))
        cuts.append(EdgeCut(triple, painted))
    return tuple(cuts)


@dataclass(frozen=True)
class BPrimeVerdict:
    tag: str  # "b_prime" | "b_composite" | "borromean_special"
    witness: tuple[Edge, ...] | None = None
    note: str | None = None


def classify_bprime(g: PaintedGraph) -> BPrimeVerdict:
    """Decide b-primeness from painted counts of non-trivial 3-edge cuts.

    A once-painted non-trivial cut witnesses b-compositeness; if every
    non-trivial cut is thrice-painted the graph is b-prime.  The Borromean
    crushtacean is neither and is special-cased before the criterion.
    """
    _require_valid(g)
    if g.vertex_count == 4 and _is_borromean(g):
        return BPrimeVerdict("borromean_special")
    for cut in three_edge_cuts(g):
        if cut.painted_count < 3:
            witness = tuple(g.edges[e] for e in cut.edges)
            return BPrimeVerdict("b_composite", witness=witness)
    return BPrimeVerdict("b_prime", note=NOTE_NONTRIVIAL_CUTS)


def _is_borromean(g: PaintedGraph) -> bool:
    from .families import gamma_borromean

    return find_isomorphism(g, gamma_borromean(), respect_painting=True) is not None


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


@dataclass(frozen=True)
class ReflectionMultiplicity:
    tag: str  # "unique" | "borromean" | "pretzel" | "o_chain"
    n: int | None
    surface_count: int


def detect_reflection_multiplicity(g: PaintedGraph) -> ReflectionMultiplicity:
    """Match g against the exceptional families with several reflection
    surfaces; everything else has exactly one.

    Face sizes are an isomorphism invariant of a graph with one embedding,
    so a family template is built only when g has its face sizes: n
    squares and two n-gons for the pretzel chain, two triangles, m - 1
    squares and two (m + 2)-gons for the o-chain of m links.
    """
    from .families import gamma_ochain, gamma_pretzel

    _require_valid(g)
    if g.vertex_count == 4 and _is_borromean(g):
        return ReflectionMultiplicity("borromean", None, 3)
    if g.vertex_count % 2 == 0 and g.vertex_count >= 6:
        n = g.vertex_count // 2
        sizes = Counter(g.embedding.faces.face_sizes())
        if sizes == Counter({4: n}) + Counter({n: 2}):
            if find_isomorphism(g, gamma_pretzel(n), True) is not None:
                return ReflectionMultiplicity("pretzel", n, 2)
        if sizes == Counter({3: 2, 4: n - 2}) + Counter({n + 1: 2}):  # m = n - 1 links
            if find_isomorphism(g, gamma_ochain(n - 1), True) is not None:
                return ReflectionMultiplicity("o_chain", n - 1, 2)
    return ReflectionMultiplicity("unique", None, 1)


@dataclass(frozen=True)
class SymEstimate:
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


@dataclass(frozen=True)
class ClassificationReport:
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


def symmetry_report(
    g: PaintedGraph,
    expansion_seed: PaintedGraph | None = None,
) -> ClassificationReport:
    """Classify the orientation-preserving symmetries of the encoded link.

    When g is an iterated-expansion member, passing the graph it was
    expanded from unlocks the not-a-signature-link screen and with it the
    complement determination; without provenance the complement is Unknown
    outside the exceptional families.
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
    aut_p = automorphisms(g, respect_painting=True)
    gid = identify(aut_p)
    bp = classify_bprime(g)
    refl = detect_reflection_multiplicity(g)

    screen = SCREEN_INCONCLUSIVE
    notes: list[str] = []
    if expansion_seed is not None:
        from .families import cycle_expand

        expanded, _rot = cycle_expand(expansion_seed)
        if find_isomorphism(expanded, g, respect_painting=True) is None:
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
