import json
from itertools import permutations

import pytest

from crushtacean import (
    NonplanarError,
    PaintedGraph,
    PermGroup,
    PreconditionError,
    classify,
    classify_bprime,
    cycle_expand,
    detect_reflection_multiplicity,
    dual,
    has_universal_region,
    knot_circles,
    painted_graph,
    parse_graph,
    planar_embed,
    relabel,
    serialize_graph,
    signature_screen,
    symmetry_report,
    three_edge_cuts,
    validate_crushtacean,
)
from crushtacean.families import (
    antiprism,
    cube,
    dodecahedron,
    family_from_target,
    gamma_borromean,
    gamma_ochain,
    gamma_pretzel,
    prism,
    wheel,
)
from crushtacean.groups import GroupId
from helpers import (
    brute_cuts,
    count_planarity_tests,
    dual_nerve,
    enumerated_cuts,
    mirror,
    random_crushtacean,
    random_cubic_planar,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# an 8-vertex crushtacean with a once-painted cut whose painting does not
# match any of the special chain families
ODD_CHAIN_EDGES = [
    (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6),
    (2, 5), (3, 4), (3, 7), (4, 7), (5, 6), (6, 7),
]
ODD_CHAIN_PAINTED = [(0, 2), (1, 3), (4, 7), (5, 6)]


def odd_chain():
    return painted_graph(8, ODD_CHAIN_EDGES, ODD_CHAIN_PAINTED)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_valid_crushtaceans_have_no_reasons(rng):
    for g in [gamma_borromean(), gamma_pretzel(4), gamma_ochain(3), odd_chain()]:
        rep = validate_crushtacean(g)
        assert rep.valid and rep.reasons == ()
    for _ in range(10):
        rep = validate_crushtacean(random_crushtacean(rng, rng.randrange(0, 10)))
        assert rep.valid


def test_reason_nonplanar():
    k33 = painted_graph(6, [(i, j + 3) for i in range(3) for j in range(3)],
                        [(0, 3), (1, 4), (2, 5)])
    rep = validate_crushtacean(k33)
    assert not rep.valid and rep.reasons == ("nonplanar",)


def test_reason_not_3_connected():
    # two K4-minus-an-edge blocks joined by two edges: cubic, planar, 2-connected
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 6), (4, 7), (5, 6), (5, 7), (6, 7), (0, 4), (1, 5)]
    g = painted_graph(8, edges, [(0, 4), (1, 5), (2, 3), (6, 7)])
    rep = validate_crushtacean(g)
    assert rep.reasons == ("not_3_connected",)


def test_reason_disconnected():
    edges = K4_EDGES + [(u + 4, v + 4) for u, v in K4_EDGES]
    g = painted_graph(8, edges, [(0, 1), (2, 3), (4, 5), (6, 7)])
    rep = validate_crushtacean(g)
    assert rep.reasons == ("disconnected",)


def test_reason_not_cubic():
    w = wheel(5)
    g = painted_graph(6, w.edges, [(0, 5), (1, 2), (3, 4)])
    rep = validate_crushtacean(g)
    assert rep.reasons == ("not_cubic",)


def test_reason_too_few_vertices():
    tri = painted_graph(3, [(0, 1), (1, 2), (2, 0)])
    rep = validate_crushtacean(tri)
    assert "too_few_vertices" in rep.reasons


def test_reason_painted_not_perfect_matching():
    assert validate_crushtacean(painted_graph(4, K4_EDGES, [(0, 1)])).reasons == (
        "painted_not_perfect_matching",
    )
    assert validate_crushtacean(painted_graph(4, K4_EDGES, [(0, 1), (1, 2)])).reasons == (
        "painted_not_perfect_matching",
    )
    assert validate_crushtacean(painted_graph(4, K4_EDGES)).reasons == (
        "painted_not_perfect_matching",
    )


# ---------------------------------------------------------------------------
# nerve
# ---------------------------------------------------------------------------


def test_nerve_check_on_valid_graphs(rng):
    """The dual of a crushtacean is a sphere triangulation whose triangles
    each cross one painted edge."""
    graphs = [gamma_borromean(), gamma_pretzel(5), gamma_ochain(4)]
    graphs += [random_crushtacean(rng, rng.randrange(0, 8)) for _ in range(6)]
    for g in graphs:
        assert validate_crushtacean(g).valid
        assert dual_nerve(g) == (True, True)


def test_nerve_check_reads_any_sphere_rotation(rng):
    for _ in range(5):
        g = random_crushtacean(rng, rng.randrange(0, 8))
        assert dual_nerve(PaintedGraph(g.vertex_count, g.edges, g.painted, mirror(planar_embed(g)))) == (True, True)
    # painting two edges at a vertex leaves that dual triangle crossing two
    g = painted_graph(4, K4_EDGES, [(0, 1), (0, 2), (1, 3)])
    dg, _corr = dual(g, g.embedding.rotation)
    crossings = sorted(sum(dg.is_painted(e) for _t, _h, e in w) for w in dg.embedding.faces.faces)
    assert crossings == [1, 1, 2, 2]
    assert dual_nerve(g) == (True, False)


# ---------------------------------------------------------------------------
# knot circles
# ---------------------------------------------------------------------------


def test_borromean_knot_circles():
    ks = knot_circles(gamma_borromean())
    assert ks.knot_circle_count == 1
    assert ks.crossing_circle_count == 2
    # each crossing circle wraps the single knot circle twice
    assert all(pair == (0, 0) for _e, pair in ks.crossing_links)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pretzel_knot_circles(n):
    ks = knot_circles(gamma_pretzel(n))
    assert ks.knot_circle_count == n
    assert all(len(c.arcs) == 2 for c in ks.circles)
    # consecutive rungs link through a shared circle
    for _e, (a, b) in ks.crossing_links:
        assert a != b


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ochain_knot_circles(n):
    ks = knot_circles(gamma_ochain(n))
    assert ks.knot_circle_count == n
    assert ks.crossing_circle_count == n + 1


def test_knot_circle_bookkeeping(rng):
    for _ in range(8):
        g = random_crushtacean(rng, rng.randrange(0, 10))
        ks = knot_circles(g)
        assert sum(len(c.arcs) for c in ks.circles) == 2 * len(g.painted)
        segs = [x for c in ks.circles for x in c.segments]
        assert sorted(segs) == [e for e in range(g.edge_count) if not g.is_painted(e)]


def test_expansion_knot_circles_are_seed_faces(rng):
    """Output vertex d of ``cycle_expand`` is the seed's dart d: each knot
    circle runs around one seed face, its segments (d, nxt[d]) the corners
    of face[rev[d]], and the crossing circle of painted edge (d, rev[d])
    links the circles of the two faces beside the seed's edge[d]."""
    for seed in [wheel(5), prism(4), random_cubic_planar(rng, 6)]:
        fs = seed.embedding.faces
        ex, _ = cycle_expand(seed)
        ks = knot_circles(ex)
        assert ks.knot_circle_count == len(fs)
        assert ks.crossing_circle_count == seed.edge_count
        circle_face = []
        for c in ks.circles:
            darts = [a if fs.nxt[a] == b else b for a, b in (ex.edges[x] for x in c.segments)]
            (f,) = {fs.face[fs.rev[d]] for d in darts}
            circle_face.append(f)
        assert sorted(circle_face) == list(range(len(fs)))
        for e, (a, b) in ks.crossing_links:
            d, _r = ex.edges[e]
            assert tuple(sorted((circle_face[a], circle_face[b]))) == fs.edge_faces[fs.edge[d]]


# ---------------------------------------------------------------------------
# cuts and b-primeness
# ---------------------------------------------------------------------------


def test_cuts_against_brute_force(rng):
    graphs = [gamma_borromean(), gamma_pretzel(3), gamma_pretzel(5), odd_chain()]
    graphs += [gamma_ochain(n) for n in range(2, 9)]
    for _ in range(5):
        graphs.append(random_crushtacean(rng, rng.randrange(0, 6)))
    for g in graphs:
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        mirrored = PaintedGraph(g.vertex_count, g.edges, g.painted, mirror(planar_embed(g)))  # the cuts read either rotation
        for h in (g, mirrored, relabel(g, perm)):
            got = sorted(c.edges for c in three_edge_cuts(h))
            assert got == brute_cuts(h)


def test_cuts_match_the_enumerated_triangles(rng):
    """Dropping the two vertex stars of each dual edge before forming its
    triangles gives the cuts, in the same order, that forming every
    triangle and filtering out the stars gives: on the family members of
    24 to 216 vertices, pretzel chains and o-chains up to 400 vertices and
    random crushtaceans, each as built and relabelled."""
    graphs = [
        m.graph
        for target, count in (("D5", 2), ("D6xZ2", 2), ("S4xZ2", 3), ("A5xZ2", 2))
        for m in family_from_target(GroupId.from_string(target), count, verify=False)[1]
    ]
    graphs += [gamma_pretzel(n) for n in (3, 4, 7, 50, 200)]
    graphs += [gamma_ochain(n) for n in (2, 3, 8, 49, 199)]
    graphs += [random_crushtacean(rng, rng.randrange(0, 60)) for _ in range(20)]
    for g in graphs:
        h = relabel(g, rng.sample(range(g.vertex_count), g.vertex_count))
        for x in (g, h):
            assert three_edge_cuts(x) == enumerated_cuts(x)


def test_cut_painted_parity(rng):
    """Every non-trivial 3-edge cut of a valid crushtacean crosses an odd
    number of painted edges."""
    graphs = [gamma_pretzel(3), gamma_ochain(5), odd_chain()]
    for _ in range(10):
        graphs.append(random_crushtacean(rng, rng.randrange(0, 14)))
    for g in graphs:
        for cut in three_edge_cuts(g):
            assert cut.painted_count in (1, 3)


def test_cuts_require_cubic():
    with pytest.raises(PreconditionError):
        three_edge_cuts(wheel(5))
    k33 = painted_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    with pytest.raises(NonplanarError):
        three_edge_cuts(k33)


@pytest.mark.parametrize("matching", [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]])
def test_every_valid_k4_is_the_borromean_graph(matching):
    """K4 is the only cubic simple graph on 4 vertices and its automorphisms
    move any perfect matching to any other, so every labelling of every
    matching, in either orientation, is reported as the Borromean graph."""
    want = json.dumps(symmetry_report(gamma_borromean()).to_json_dict())
    k4 = painted_graph(4, K4_EDGES, matching)
    for perm in permutations(range(4)):
        g = relabel(k4, perm)
        for h in (g, PaintedGraph(g.vertex_count, g.edges, g.painted, mirror(planar_embed(g)))):
            assert classify_bprime(h).tag == "borromean_special"
            r = detect_reflection_multiplicity(h)
            assert (r.tag, r.n, r.surface_count) == ("borromean", None, 3)
            assert json.dumps(symmetry_report(h).to_json_dict()) == want


def test_bprime_verdicts():
    assert classify_bprime(gamma_borromean()).tag == "borromean_special"
    for n in (3, 4, 6):
        v = classify_bprime(gamma_pretzel(n))
        assert v.tag == "b_prime"
        assert v.note  # records that vertex stars are excluded
    for n in (2, 3, 5):
        v = classify_bprime(gamma_ochain(n))
        assert v.tag == "b_composite"
        assert v.witness is not None and len(v.witness) == 3
    assert classify_bprime(odd_chain()).tag == "b_composite"


def test_ochain_witness_is_the_closing_cut():
    n = 4
    v = classify_bprime(gamma_ochain(n))
    # the once-painted cut: closing painted edge plus the two long chords
    assert set(v.witness) == {(0, n - 1), (n, 2 * n - 1), (2 * n, 2 * n + 1)}


def test_expansions_are_bprime(rng):
    for seed in [wheel(4), prism(5), random_cubic_planar(rng, 5)]:
        ex, _ = cycle_expand(seed)
        assert classify_bprime(ex).tag == "b_prime"


def test_bprime_requires_valid_input():
    with pytest.raises(PreconditionError):
        classify_bprime(painted_graph(4, K4_EDGES))


# ---------------------------------------------------------------------------
# screen and reflection multiplicity
# ---------------------------------------------------------------------------


def test_universal_region():
    assert has_universal_region(gamma_borromean())  # every K4 face touches all others
    assert has_universal_region(wheel(6))  # the outer rim face
    assert not has_universal_region(prism(6))
    assert not has_universal_region(dodecahedron())
    ex, _ = cycle_expand(wheel(6))
    assert not has_universal_region(ex)


def test_signature_screen_values():
    assert signature_screen(wheel(5)) == "inconclusive"
    assert signature_screen(prism(6)) == "not_signature"
    ex, _ = cycle_expand(wheel(5))
    assert signature_screen(ex) == "not_signature"


def test_reflection_multiplicity_branches():
    r = detect_reflection_multiplicity(gamma_borromean())
    assert (r.tag, r.n, r.surface_count) == ("borromean", None, 3)
    r = detect_reflection_multiplicity(gamma_pretzel(5))
    assert (r.tag, r.n, r.surface_count) == ("pretzel", 5, 2)
    r = detect_reflection_multiplicity(gamma_ochain(2))
    assert (r.tag, r.n, r.surface_count) == ("o_chain", 2, 2)
    r = detect_reflection_multiplicity(odd_chain())
    assert (r.tag, r.surface_count) == ("unique", 1)
    ex, _ = cycle_expand(wheel(5))
    assert detect_reflection_multiplicity(ex).tag == "unique"


def test_chains_are_read_at_any_size(monkeypatch):
    """The chains are read off g's own faces, so the bound on the graphs
    ``gen`` and ``family`` build does not limit them."""
    from crushtacean import families

    chains = gamma_ochain(12), gamma_pretzel(12)  # 26 and 24 vertices
    monkeypatch.setattr(families, "MAX_VERTICES", 20)
    for g, want in zip(chains, [("o_chain", 12, 2), ("pretzel", 12, 2)]):
        r = detect_reflection_multiplicity(g)
        assert (r.tag, r.n, r.surface_count) == want
    with pytest.raises(PreconditionError):
        gamma_pretzel(12)


@pytest.mark.parametrize("n", range(3, 10))
def test_reflection_finds_relabelled_chains_in_their_mirror_image(rng, n):
    """A relabelled chain carrying its mirrored rotation is still read as
    its chain."""
    for g, tag, k in ((gamma_pretzel(n), "pretzel", n), (gamma_ochain(n - 1), "o_chain", n - 1)):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        h = relabel(g, perm)
        h, _rot = parse_graph(serialize_graph(h, mirror(planar_embed(h))))
        r = detect_reflection_multiplicity(h)
        assert (r.tag, r.n) == (tag, k)


# ---------------------------------------------------------------------------
# symmetry report
# ---------------------------------------------------------------------------


def test_report_embeds_only_graphs_without_a_rotation(monkeypatch):
    seed = prism(6)
    member, rot = cycle_expand(seed)
    member_text = serialize_graph(member, rot)
    with_rot = serialize_graph(seed, planar_embed(seed))
    calls = count_planarity_tests(monkeypatch)
    for seed_text, want in ((serialize_graph(seed), 1), (with_rot, 0)):
        calls.clear()
        g, _ = parse_graph(member_text)
        s, _ = parse_graph(seed_text)
        assert symmetry_report(g, expansion_seed=s).b_prime.tag == "b_prime"
        assert len(calls) == want


def test_report_reads_the_chains_without_templates(monkeypatch):
    """A pretzel chain or an o-chain that carries its rotation is read off
    its own faces: the report runs no planarity test, no isomorphism
    search, and builds no chain."""
    from crushtacean import automorphism, families
    from crushtacean import classify as classify_module

    chains = [parse_graph(serialize_graph(g, planar_embed(g)))[0] for g in (gamma_pretzel(9), gamma_ochain(8))]
    calls = count_planarity_tests(monkeypatch)
    for module, name in (
        (automorphism, "find_isomorphism"),
        (classify_module, "find_isomorphism"),  # in case it is imported there again
        (families, "gamma_pretzel"),
        (families, "gamma_ochain"),
    ):
        real = getattr(automorphism if name == "find_isomorphism" else module, name)
        spy = lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)  # noqa: E731
        monkeypatch.setattr(module, name, spy, raising=False)
    for g, tag in zip(chains, ("pretzel", "o_chain")):
        assert symmetry_report(g).reflection.tag == tag
    assert calls == []


def test_report_validates_once(monkeypatch):
    """The report's stages read the verdict the report made, and a fresh
    graph is still checked before a stage runs on it."""
    from crushtacean import classify

    calls = []
    real = classify.validate_crushtacean
    monkeypatch.setattr(classify, "validate_crushtacean", lambda g: calls.append(g) or real(g))
    for g in (gamma_pretzel(4), cycle_expand(prism(5))[0]):
        calls.clear()
        assert symmetry_report(g).crushtacean_valid
        assert len(calls) == 1
    calls.clear()
    assert classify_bprime(cycle_expand(prism(5))[0]).tag == "b_prime"
    assert len(calls) == 1
    g = cycle_expand(prism(5))[0]  # the verdict lives in the graph's instance dict
    calls.clear()
    vars(g)[classify._VERDICT] = classify.CrushtaceanReport(False, ("forged",))
    with pytest.raises(PreconditionError, match="not a valid crushtacean: forged"):
        classify._require_valid(g)
    assert calls == []


def test_report_borromean():
    rep = symmetry_report(gamma_borromean())
    assert rep.crushtacean_valid
    assert rep.aut_order == 24 and rep.aut_p_order == 8
    assert str(rep.group_id) == "D4"
    link, comp = rep.sym_plus_link, rep.sym_plus_complement
    assert (link.status, str(link.group), link.order) == ("exact", "S4", 24)
    assert (comp.status, comp.order) == ("exact", 24)
    assert link.order // rep.aut_p_order == 3


@pytest.mark.parametrize("n,group", [(3, "D12"), (4, "D8xZ2"), (5, "D20"), (6, "D12xZ2")])
def test_report_pretzel(n, group):
    rep = symmetry_report(gamma_pretzel(n))
    assert rep.aut_p_order == 4 * n
    link = rep.sym_plus_link
    assert (link.status, str(link.group), link.order) == ("exact", group, 8 * n)
    comp = rep.sym_plus_complement
    if n == 3:
        assert (comp.status, comp.group, comp.order) == ("order_only", None, 96)
    else:
        assert (comp.status, str(comp.group), comp.order) == ("exact", group, 8 * n)


@pytest.mark.parametrize("n,group", [(2, "D4xZ2"), (3, "D12"), (4, "D8xZ2")])
def test_report_ochain(n, group):
    rep = symmetry_report(gamma_ochain(n))
    assert rep.aut_p_order == 4 and str(rep.group_id) == "Z2xZ2"
    link = rep.sym_plus_link
    assert (link.status, str(link.group), link.order) == ("exact", group, 8 * n)
    assert link.order // rep.aut_p_order == 2 * n
    comp = rep.sym_plus_complement
    assert (comp.status, comp.order) == ("exact", 8 * n)


def test_report_bprime_with_certificate():
    seed = prism(6)
    ex, _ = cycle_expand(seed)
    rep = symmetry_report(ex, expansion_seed=seed)
    assert rep.b_prime.tag == "b_prime"
    assert rep.signature_screen == "not_signature"
    link, comp = rep.sym_plus_link, rep.sym_plus_complement
    assert (link.status, str(link.group), link.order) == ("exact", "D6xZ2", 24)
    assert (comp.status, str(comp.group), comp.order) == ("exact", "D6xZ2", 24)


def test_report_bprime_without_certificate():
    seed = wheel(5)  # universal region: screen stays inconclusive
    ex, _ = cycle_expand(seed)
    rep = symmetry_report(ex, expansion_seed=seed)
    assert rep.signature_screen == "inconclusive"
    assert rep.sym_plus_link.status == "exact"
    assert rep.sym_plus_complement.status == "unknown"
    rep2 = symmetry_report(ex)
    assert rep2.sym_plus_complement.status == "unknown"


def test_report_bcomposite_lower_bound():
    rep = symmetry_report(odd_chain())
    assert rep.b_prime.tag == "b_composite"
    link = rep.sym_plus_link
    assert link.status == "lower_bound"
    assert link.order == rep.aut_p_order
    assert rep.sym_plus_complement.status == "unknown"


def test_report_rejects_wrong_provenance():
    ex, _ = cycle_expand(wheel(5))
    with pytest.raises(PreconditionError):
        symmetry_report(ex, expansion_seed=wheel(4))


K33 = painted_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
# K2,4 with its two hubs joined: planar, with 9 edges and a 2-vertex cut
HUBBED_K24 = painted_graph(6, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, 6)])
NOT_3_CONNECTED = "graph is not 3-connected: two faces meet beyond one vertex or edge"
NO_EXPANSION = "expansion_seed does not expand to the given graph"


@pytest.mark.parametrize(
    "seed,member,error,message",
    [
        (K33, prism(3), NonplanarError, "graph is not planar"),
        (HUBBED_K24, prism(3), PreconditionError, NOT_3_CONNECTED),
        (antiprism(3), cube(), PreconditionError, NO_EXPANSION),
        (wheel(6), cube(), PreconditionError, NO_EXPANSION),
    ],
    ids=["nonplanar", "not_3_connected", "antiprism3", "wheel6"],
)
def test_report_refuses_a_seed_of_the_expansion_size(seed, member, error, message):
    """A seed with as many edges as the member's seed is embedded before
    it is matched, so a seed that cannot be embedded raises as the
    embedding does, and one that embeds but does not match raises the
    provenance error."""
    with pytest.raises(error) as exc:
        symmetry_report(cycle_expand(member)[0], expansion_seed=seed)
    assert type(exc.value) is error and str(exc.value) == message


def test_report_checks_the_seed_without_expanding_it(monkeypatch):
    """The seed's darts are mapped onto the member: no expansion is built,
    no isomorphism searched, and only the member's and the seed's faces
    are traced."""
    from crushtacean import automorphism, families, graphs

    calls = []
    for module, name in ((families, "cycle_expand"), (automorphism, "find_isomorphism"), (graphs, "faces")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    expanded = cycle_expand(prism(6))[0]
    member = PaintedGraph(expanded.vertex_count, expanded.edges, expanded.painted)
    seed = prism(6)
    calls.clear()
    assert symmetry_report(member, expansion_seed=seed).signature_screen == "not_signature"
    assert calls == ["faces", "faces"]


def test_report_degenerate_for_invalid_input():
    rep = symmetry_report(painted_graph(4, K4_EDGES, [(0, 1)]))
    assert not rep.crushtacean_valid
    assert rep.reasons == ("painted_not_perfect_matching",)
    assert rep.aut_order is None and rep.group_id is None
    assert rep.sym_plus_link.status == "unknown"


def test_report_json_shape():
    doc = symmetry_report(gamma_pretzel(3)).to_json_dict()
    assert doc["format"] == "crushtacean-report/1"
    assert list(doc) == [
        "format", "crushtacean_valid", "reasons", "vertices", "edges", "painted",
        "aut_order", "aut_p_order", "group_id", "group_alias", "b_prime",
        "reflection", "signature_screen", "sym_plus_link", "sym_plus_complement",
        "notes",
    ]
    assert doc["sym_plus_link"]["citation"] == "Thm 5.2"
    assert doc["sym_plus_complement"]["citation"] == "Sec 5.2"
    json.dumps(doc)  # serializable

    doc = symmetry_report(gamma_borromean()).to_json_dict()
    assert doc["sym_plus_link"]["citation"] == "Sec 5.1"
    doc = symmetry_report(gamma_ochain(2)).to_json_dict()
    assert doc["sym_plus_link"]["citation"] == "Thm 5.3"
    doc = symmetry_report(odd_chain()).to_json_dict()
    assert doc["sym_plus_link"]["citation"] == "Thm 1.1"
    ex, _ = cycle_expand(prism(6))
    doc = symmetry_report(ex).to_json_dict()
    assert doc["sym_plus_link"]["citation"] == "Cor 1.2"


def record_searches(monkeypatch) -> tuple[list, list]:
    """The report's automorphism searches, as (respect_painting, group), and
    the groups whose vertex images it builds, in call order."""
    made, expanded = [], []
    search, images = classify.automorphisms, PermGroup.images

    def recording_search(g, respect_painting=False):
        made.append((respect_painting, search(g, respect_painting)))
        return made[-1][1]

    def recording_images(grp):
        expanded.append(grp)
        return images(grp)

    monkeypatch.setattr(classify, "automorphisms", recording_search)
    monkeypatch.setattr(PermGroup, "images", recording_images)
    return made, expanded


def test_report_searches_once_when_the_generators_keep_the_painting(monkeypatch):
    """On an expansion member every generator of the unpainted group keeps
    the painting, so the painted group is that group: one unpainted search,
    expanded once, for its signature."""
    made, expanded = record_searches(monkeypatch)
    seed = dodecahedron()
    rep = symmetry_report(cycle_expand(seed)[0], expansion_seed=seed)
    assert rep.aut_order == rep.aut_p_order == 120
    ((painted, grp),) = made
    assert not painted
    assert [x is grp for x in expanded] == [True]


def test_report_expands_only_the_painted_group(monkeypatch):
    """When a generator of the unpainted group moves the painting, the
    painted group is searched as well, and only it is expanded, once."""
    made, expanded = record_searches(monkeypatch)
    for g, orders in ((gamma_pretzel(4), (48, 16)), (gamma_borromean(), (24, 8))):
        made.clear()
        expanded.clear()
        rep = symmetry_report(g)
        assert (rep.aut_order, rep.aut_p_order) == orders
        assert [painted for painted, _grp in made] == [False, True]
        assert [x is made[1][1] for x in expanded] == [True]
