"""Property tests of the planarity test, the faces' dart table, the knot
circles, the automorphism engine, the 3-connectivity check, the rotations
files carry, and the report.

Graphs come from the seeded generators in ``helpers``, driven by a
Hypothesis-controlled ``random.Random``, so a failing case shrinks to a
small seed and size.  Examples are derandomized to keep the suite
reproducible.
"""

import json
import random
from collections import Counter
from itertools import islice

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crushtacean import (
    GraphFormatError,
    NonplanarError,
    PaintedGraph,
    Permutation,
    PreconditionError,
    automorphisms,
    cycle_expand,
    faces,
    find_isomorphism,
    groups,
    identify,
    knot_circles,
    painted_graph,
    parse_graph,
    planar_embed,
    relabel,
    serialize_graph,
    signature,
    symmetry_report,
    three_edge_cuts,
    validate_crushtacean,
)
from crushtacean.classify import _painted_group, detect_reflection_multiplicity
from crushtacean.families import (
    antiprism,
    cube,
    dodecahedron,
    expands_to,
    gamma_borromean,
    gamma_ochain,
    gamma_pretzel,
    prism,
    wheel,
)
from crushtacean.graphs import check_3_connected
from helpers import (
    base_fixers,
    bridge_join,
    brute_automorphism_count,
    catalog_identify,
    check_irredundant_generators,
    corner_knot_circles,
    expands_by_isomorphism,
    flip_block,
    four_cycle_check,
    full_signature,
    hung_blocks,
    indexed_cycle_expand,
    mirror,
    nx_graph,
    nx_planar_embed,
    perfect_matchings,
    perm_compose,
    perm_inverse,
    perm_order,
    position_faces,
    random_crushtacean,
    random_cubic_planar,
    random_triangulation,
    scan_automorphisms,
    shuffled_document,
    splice,
    template_reflection,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
RNG = st.randoms(use_true_random=False)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# two K4s sharing vertex 3: planar with a simple dual, but only 1-connected
TWO_K4 = painted_graph(7, K4_EDGES + [(u + 3, v + 3) for u, v in K4_EDGES])
SMALL = {
    "k4": painted_graph(4, K4_EDGES),
    "4-cycle": painted_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "path": painted_graph(4, [(0, 1), (1, 2), (2, 3)]),
}


K5 = painted_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
K33 = painted_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def shuffled(rng, n):
    img = list(range(n))
    rng.shuffle(img)
    return img


@PROPERTY
@given(rng=RNG, kind=st.sampled_from(["crushtacean", "triangulation"]), size=st.integers(0, 6))
def test_orders_match_brute_force(rng, kind, size):
    # at most 10 vertices either way
    g = random_crushtacean(rng, size // 2) if kind == "crushtacean" else random_triangulation(rng, size)
    for painted in (False, True):
        assert automorphisms(g, painted).order == brute_automorphism_count(g, painted)


@PROPERTY
@given(rng=RNG, size=st.integers(0, 20), painted=st.booleans())
def test_relabelling_conjugates_the_group(rng, size, painted):
    g = random_crushtacean(rng, size)
    img = shuffled(rng, g.vertex_count)
    pi = Permutation(tuple(img))
    h = relabel(g, img)
    inv = perm_inverse(pi.image)
    want = sorted(
        Permutation(perm_compose(perm_compose(pi.image, a.image), inv))
        for a in automorphisms(g, painted).elements
    )
    assert list(automorphisms(h, painted).elements) == want

    phi = find_isomorphism(g, h, respect_painting=True)
    assert phi is not None
    h_edges, h_painted = set(h.edges), set(h.painted_pairs())
    for e, (u, v) in enumerate(g.edges):
        image = tuple(sorted((phi(u), phi(v))))
        assert image in h_edges
        assert (image in h_painted) == g.is_painted(e)


NAMED = {
    "prism": prism,
    "antiprism": antiprism,
    "wheel": wheel,
    "pretzel": gamma_pretzel,
    "ochain": gamma_ochain,
}


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", *sorted(NAMED)]),
    n=st.integers(3, 12),
    expanded=st.booleans(),
    painted=st.booleans(),
)
def test_search_matches_the_full_flag_scan(rng, kind, n, expanded, painted):
    """Skipping the flags the maps found so far reach gives the group of
    the full scan: the same sorted elements and signs, and irredundant
    generators."""
    g = random_crushtacean(rng, n) if kind == "crushtacean" else NAMED[kind](n)
    if expanded:
        g = cycle_expand(g)[0]
    g = relabel(g, shuffled(rng, g.vertex_count))
    grp = automorphisms(g, painted)
    assert grp == scan_automorphisms(g, painted)
    check_irredundant_generators(grp)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    rng=RNG,
    kind=st.sampled_from(["prism", "wheel"]),
    n=st.integers(3, 200),
    painted=st.booleans(),
)
@example(rng=random.Random(0), kind="prism", n=200, painted=False)
@example(rng=random.Random(0), kind="wheel", n=200, painted=False)
def test_large_groups_match_the_full_flag_scan(rng, kind, n, painted):
    """The flag orbit gives the full scan's group on prisms and wheels of up
    to 800 automorphisms: the same elements and signs, and irredundant
    generators."""
    g = NAMED[kind](n)
    g = relabel(g, shuffled(rng, g.vertex_count))
    grp = automorphisms(g, painted)
    assert grp == scan_automorphisms(g, painted)
    check_irredundant_generators(grp)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", "prism", "wheel", "antiprism"]),
    n=st.integers(3, 200),
    painted=st.booleans(),
)
@example(rng=random.Random(0), kind="prism", n=200, painted=False)
@example(rng=random.Random(0), kind="wheel", n=200, painted=False)
@example(rng=random.Random(0), kind="antiprism", n=200, painted=False)
def test_signature_matches_the_full_vertex_oracle(rng, kind, n, painted):
    """The orientation split read on the three base vertices equals the one
    read off every element's full vertex images, on relabelled random
    crushtaceans and on prisms, wheels and antiprisms of up to 800
    automorphisms; only the identity fixes the three base vertices."""
    g = random_crushtacean(rng, n // 16) if kind == "crushtacean" else NAMED[kind](n)
    grp = automorphisms(relabel(g, shuffled(rng, g.vertex_count)), painted)
    assert len(set(grp.base)) == 3
    assert base_fixers(grp) == 0
    for x in (p.image for p in grp.elements):
        assert groups._base_order(x, grp.base) == perm_order(x)
    assert signature(grp) == full_signature(grp)


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", *sorted(NAMED)]),
    n=st.integers(3, 12),
    expanded=st.booleans(),
    relabelled=st.booleans(),
)
def test_identify_matches_the_catalog_oracle(rng, kind, n, expanded, relabelled):
    """The type read off the orientation split equals the catalog oracle's
    on the same group, painted and unpainted.  Each sign is that of the
    flag the full scan extended to reach the element, and mirroring the
    rotation changes none."""
    g = random_crushtacean(rng, n) if kind == "crushtacean" else NAMED[kind](n)
    if expanded:
        g = cycle_expand(g)[0]
    if relabelled:
        g = relabel(g, shuffled(rng, g.vertex_count))
    mirrored = PaintedGraph(g.vertex_count, g.edges, g.painted, mirror(g.embedding.rotation))
    for painted in (False, True):
        grp = automorphisms(g, painted)
        assert identify(grp) == catalog_identify(grp)
        signs = dict(zip(grp.elements, grp.signs))
        scan = scan_automorphisms(g, painted)
        assert dict(zip(scan.elements, scan.signs)) == signs
        flipped = automorphisms(mirrored, painted)
        assert dict(zip(flipped.elements, flipped.signs)) == signs


@PROPERTY
@given(rng=RNG, left=st.integers(0, 8), right=st.integers(0, 8))
def test_graphs_that_are_not_3_connected_raise(rng, left, right):
    a, b = random_cubic_planar(rng, left), random_cubic_planar(rng, right)
    spliced = splice(a, b, rng.randrange(a.edge_count), rng.randrange(b.edge_count))
    for g in (relabel(TWO_K4, shuffled(rng, 7)), spliced):
        with pytest.raises(PreconditionError):
            automorphisms(g)
        with pytest.raises(PreconditionError):
            find_isomorphism(g, g)


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["triangulation", "cubic", "spliced"]),
    size=st.integers(0, 12),
    deletions=st.integers(0, 3),
)
@example(rng=random.Random(0), kind="k4", size=0, deletions=0)
@example(rng=random.Random(0), kind="4-cycle", size=0, deletions=0)
@example(rng=random.Random(0), kind="path", size=0, deletions=0)
def test_3_connectivity_agrees_with_flow_oracle(rng, kind, size, deletions):
    if kind in SMALL:
        g = SMALL[kind]
    elif kind == "triangulation":
        g = random_triangulation(rng, size)
    else:
        g = random_cubic_planar(rng, size)
        if kind == "spliced":
            other = random_cubic_planar(rng, rng.randrange(0, 6))
            g = splice(g, other, rng.randrange(g.edge_count), rng.randrange(other.edge_count))
    drop = set(rng.sample(range(g.edge_count), min(deletions, g.edge_count - 1)))
    try:
        g = painted_graph(g.vertex_count, [e for i, e in enumerate(g.edges) if i not in drop])
    except GraphFormatError:
        assume(False)  # a deletion isolated a vertex
    try:
        check_3_connected(g, planar_embed(g))
        ours = True
    except PreconditionError:
        ours = False
    assert ours == (nx.node_connectivity(nx_graph(g)) >= 3)


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["cubic", "spliced", "bridged"]),
    size=st.integers(0, 10),
    mirrored=st.booleans(),
)
@example(rng=random.Random(0), kind="bridged", size=0, mirrored=False)
def test_cubic_3_connectivity_matches_the_oracles(rng, kind, size, mirrored):
    """On a cubic graph the face-table rule raises exactly when networkx's
    node connectivity is below 3, with the four-cycle count's message: a
    bridge leaves a face that is not a cycle, a 2-edge cut two faces that
    share two edges.  Each graph is relabelled, with the
    planarity test's rotation or its mirror, as built and as a parsed file;
    at size 0 the bridged graph is two K4s."""
    g = random_cubic_planar(rng, size)
    if kind != "cubic":
        other = random_cubic_planar(rng, rng.randrange(0, size + 1))
        join = splice if kind == "spliced" else bridge_join
        g = join(g, other, rng.randrange(g.edge_count), rng.randrange(other.edge_count))
    g = relabel(g, shuffled(rng, g.vertex_count))
    rot = mirror(planar_embed(g)) if mirrored else planar_embed(g)
    try:
        four_cycle_check(g, rot)
        want = None
    except PreconditionError as exc:
        want = str(exc)
    assert (want is None) == (nx.node_connectivity(nx_graph(g)) >= 3)
    h, _rot = parse_graph(shuffled_document(g, rot, rng))
    for check in (lambda: check_3_connected(g, rot), lambda: h.embedding):
        try:
            check()
            got = None
        except PreconditionError as exc:
            got = str(exc)
        assert got == want


def report_text(doc: str, seed_doc: str | None = None, witness: bool = True) -> str:
    g, _rot = parse_graph(doc)
    seed = None if seed_doc is None else parse_graph(seed_doc)[0]
    report = symmetry_report(g, expansion_seed=seed).to_json_dict()
    if not witness:
        report["b_prime"]["witness"] = None
    return json.dumps(report, indent=2)


@PROPERTY
@given(rng=RNG, size=st.integers(0, 8), expansion=st.booleans())
def test_report_ignores_the_rotation_and_the_labelling(rng, size, expansion):
    """The b-composite witness names vertices and edges, so it is compared
    only where the labelling stays."""
    if expansion:
        seed = random_cubic_planar(rng, size // 2)
        g, rot = cycle_expand(seed)
        seed_rot = planar_embed(seed)
        seed_rots = [seed_rot, mirror(seed_rot), None]
    else:
        seed, g = None, random_crushtacean(rng, size)
        rot = planar_embed(g)
    rots = [rot, mirror(rot), None]
    seed_docs = [None] * 3 if seed is None else [serialize_graph(seed, r) for r in seed_rots]
    docs = [serialize_graph(g, r) for r in rots]
    want = report_text(docs[0], seed_docs[0])
    for doc, seed_doc in zip(docs, seed_docs[::-1]):
        assert report_text(doc, seed_doc) == want
    want = report_text(docs[0], seed_docs[0], witness=False)
    for r, seed_doc in zip(rots, seed_docs):
        if seed is not None:
            seed_doc = shuffled_document(seed, seed_rots[rng.randrange(3)], rng)
        assert report_text(shuffled_document(g, r, rng), seed_doc, witness=False) == want


def seeds_with_edges(rng, edges: int) -> list:
    """The random cubic seed and triangulation, prism, wheel and antiprism
    with the given number of edges, those that exist."""
    seeds = []
    if edges % 3 == 0:
        seeds += [random_cubic_planar(rng, edges // 3 - 2), random_triangulation(rng, edges // 3 - 2)]
        seeds += [prism(edges // 3)] if edges >= 9 else []
    if edges % 2 == 0:
        seeds.append(wheel(edges // 2))
    if edges % 4 == 0 and edges >= 12:
        seeds.append(antiprism(edges // 4))
    return seeds


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rng=RNG, edges=st.sampled_from([6, 9, 12, 15, 16, 18, 20, 24, 30]), mirrored=st.booleans())
def test_expansion_check_matches_the_isomorphism_oracle(rng, edges, mirrored):
    """``expands_to`` answers as the seed's re-expansion and a painted
    isomorphism search do, on seeds with as many edges, cubic or not, each
    seed as built or carrying its mirrored rotation.  Each seed meets its
    own member relabelled, carrying the expansion's rotation, with that
    rotation mirrored, and without one, and one of these forms of every
    other seed's member."""
    seeds = seeds_with_edges(rng, edges)
    if mirrored:
        seeds = [PaintedGraph(s.vertex_count, s.edges, s.painted, mirror(planar_embed(s))) for s in seeds]
    forms = []
    for s in seeds:
        m, rot = cycle_expand(s)
        forms.append(
            [
                relabel(m, shuffled(rng, m.vertex_count)),
                m,
                PaintedGraph(m.vertex_count, m.edges, m.painted, mirror(rot)),
                PaintedGraph(m.vertex_count, m.edges, m.painted),
            ]
        )
    for i, s in enumerate(seeds):
        for j, members in enumerate(forms):
            for m in members if i == j else [rng.choice(members)]:
                want = expands_by_isomorphism(s, m)
                assert expands_to(s, m) == want and (want or i != j)


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", "triangulation", "spliced", "hung", "two_k4"]),
    size=st.integers(0, 8),
)
def test_validate_agrees_with_and_without_a_rotation(rng, kind, size):
    if kind == "crushtacean":
        g, side = random_crushtacean(rng, size), None
    elif kind == "triangulation":
        g, side = random_triangulation(rng, size), None
    elif kind == "spliced":
        a, b = random_cubic_planar(rng, size // 2), random_cubic_planar(rng, size - size // 2)
        g = splice(a, b, rng.randrange(a.edge_count), rng.randrange(b.edge_count))
        side = set(range(a.vertex_count, g.vertex_count))  # b's half, cut off by two edges
    elif kind == "hung":
        block = rng.choice(["triangle", "diamond"])
        g = hung_blocks(block)
        k = 3 if block == "triangle" else 4
        side = set(range(k * (size % 4), k * (size % 4) + k))  # one block, cut off by two vertices
    else:
        g, side = TWO_K4, {4, 5, 6}  # the second K4, cut off by vertex 3
    rot = planar_embed(g)
    rotations = [rot, mirror(rot)] + ([] if side is None else [flip_block(g, rot, side)])
    want = validate_crushtacean(g)
    for r in rotations:
        h, _r = parse_graph(shuffled_document(g, r, rng))  # parsing checks V - E + F = 2
        assert h.rotation is not None
        assert validate_crushtacean(h) == want
        if kind in ("spliced", "hung", "two_k4"):
            assert {"not_3_connected", "not_cubic"} & set(want.reasons)
            with pytest.raises(PreconditionError):
                check_3_connected(g, r)


@PROPERTY
@given(rng=RNG, size=st.integers(0, 12), with_rotation=st.booleans())
def test_serialize_parse_round_trip(rng, size, with_rotation):
    g = random_crushtacean(rng, size)
    doc = shuffled_document(g, planar_embed(g) if with_rotation else None, rng)
    text = serialize_graph(*parse_graph(doc))
    assert serialize_graph(*parse_graph(text)) == text


@PROPERTY
@given(rng=RNG, size=st.integers(0, 12))
def test_painted_group_divides_the_full_group(rng, size):
    g = random_crushtacean(rng, size)
    assert automorphisms(g).order % automorphisms(g, True).order == 0


@PROPERTY
@given(rng=RNG, size=st.integers(0, 12))
def test_nontrivial_cuts_are_painted_once_or_thrice(rng, size):
    for cut in three_edge_cuts(random_crushtacean(rng, size)):
        assert cut.painted_count in (1, 3)


@PROPERTY
@given(rng=RNG, size=st.integers(0, 6))
def test_expansion_copies_the_seed_group(rng, size):
    seed = random_cubic_planar(rng, size)
    ex, _rot = cycle_expand(seed)
    full, painted = automorphisms(seed), automorphisms(ex, True)
    assert painted.order == full.order
    assert identify(painted) == identify(full)


def painted_group_variants(rng, g) -> list:
    """g as built, relabelled, and carrying its rotation's mirror image."""
    return [
        g,
        relabel(g, shuffled(rng, g.vertex_count)),
        PaintedGraph(g.vertex_count, g.edges, g.painted, mirror(g.embedding.rotation)),
    ]


def check_painted_group(g) -> bool:
    """The report's painted group equals the painted search's, elements,
    signs and type; it is the unpainted group exactly when the two orders
    agree.  True when it is."""
    aut = automorphisms(g)
    grp, want = _painted_group(g, aut), automorphisms(g, respect_painting=True)
    assert grp == want
    assert identify(grp) == identify(want)
    assert (grp is aut) == (aut.order == want.order)
    return grp is aut


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", "cubic", "prism", "wheel", "antiprism"]),
    n=st.integers(3, 8),
    depth=st.integers(1, 2),
)
def test_painted_group_is_the_painted_search(rng, kind, n, depth):
    """Checking the unpainted generators on the painted edges gives the
    painted search's group, on random crushtaceans and on depth-1 and
    depth-2 expansions of random cubic seeds, prisms, wheels and antiprisms."""
    if kind == "crushtacean":
        g = random_crushtacean(rng, 2 * n)
    else:
        g = random_cubic_planar(rng, n) if kind == "cubic" else NAMED[kind](n)
        for _ in range(depth):
            g = cycle_expand(g)[0]
    for h in painted_group_variants(rng, g):
        check_painted_group(h)


def test_painted_group_takes_both_branches_on_the_chains():
    """Pretzel chains 3-12, o-chains 2-10 and the Borromean graph, as built,
    relabelled and mirrored: the unpainted group is kept on most, and the
    painted search runs on pretzel(4), o-chain(2) and the Borromean graph,
    whose painted groups are smaller."""
    rng = random.Random(0)
    chains = {f"pretzel{n}": gamma_pretzel(n) for n in range(3, 13)}
    chains |= {f"ochain{n}": gamma_ochain(n) for n in range(2, 11)}
    chains["borromean"] = gamma_borromean()
    searched = {"pretzel4", "ochain2", "borromean"}
    for name, g in chains.items():
        kept = [check_painted_group(h) for h in painted_group_variants(rng, g)]
        assert kept == [name not in searched] * 3


def reflection_corpus(rng) -> list:
    """Every perfect matching of the prisms 3-8 (the bare pretzel chains,
    the cube among them), of the bare o-chains 2-8 and of random cubic
    polyhedra up to 16 vertices, and the first 30 of the cubic antiprism
    truncations 3-7 (antiprisms are 4-regular; ``cycle_expand`` makes each
    vertex a 4-cycle), each carrying its rotation."""
    bare = [prism(n) for n in range(3, 9)] + [cube()]
    bare += [PaintedGraph(g.vertex_count, g.edges, (), g.rotation) for g in map(gamma_ochain, range(2, 9))]
    bare += [random_cubic_planar(rng, k) for k in range(7) for _ in range(3)]
    capped = [cycle_expand(antiprism(n))[0] for n in range(3, 8)]
    capped = [PaintedGraph(g.vertex_count, g.edges, (), g.rotation) for g in capped]
    corpus = []
    for g, cap in [(g, None) for g in bare] + [(g, 30) for g in capped]:
        rot = g.embedding.rotation
        corpus += [PaintedGraph(g.vertex_count, g.edges, m, rot) for m in islice(perfect_matchings(g), cap)]
    return corpus


def test_chains_are_read_off_the_painting_as_the_templates_match():
    """The painted-edge count of each face finds the pretzel chains and the
    o-chains the face-size gate and template isomorphism search find, on
    every painting of the corpus as built, relabelled, and relabelled with
    its rotation mirrored; the corpus meets both chains, ``unique``, and
    the Borromean graph (K4, the smallest random polyhedron)."""
    rng = random.Random(0)
    tags = Counter()
    for g in reflection_corpus(rng):
        h = relabel(g, shuffled(rng, g.vertex_count))
        for x in (g, h, PaintedGraph(h.vertex_count, h.edges, h.painted, mirror(h.embedding.rotation))):
            want = template_reflection(x)
            assert detect_reflection_multiplicity(x) == want
            tags[want.tag] += 1
    assert set(tags) == {"borromean", "pretzel", "o_chain", "unique"}


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", "prism", "wheel", "antiprism"]),
    n=st.integers(3, 12),
)
def test_dart_table_matches_the_position_dict_oracles(rng, kind, n):
    """The dart table of ``faces`` traces the faces the position-dict
    tracer does, in the same order, and ``cycle_expand`` over it builds
    what the index-dict expansion builds, on a relabelled graph's rotation
    and on its mirror image."""
    g = random_crushtacean(rng, n) if kind == "crushtacean" else NAMED[kind](n)
    g = relabel(g, shuffled(rng, g.vertex_count))
    for rot in (planar_embed(g), mirror(planar_embed(g))):
        h = PaintedGraph(g.vertex_count, g.edges, g.painted, rot)
        fs = faces(h, rot)
        walks, sides = position_faces(h, rot)
        assert fs.faces == walks and fs.edge_faces == sides
        assert cycle_expand(h) == indexed_cycle_expand(h)
        tail, edge, rev, nxt, prv, face = fs.tail, fs.edge, fs.rev, fs.nxt, fs.prv, fs.face
        assert sorted(zip(tail, edge)) == sorted((v, e) for v, row in enumerate(rot) for e in row)
        for d in range(len(tail)):
            assert rev[d] != d and rev[rev[d]] == d and edge[rev[d]] == edge[d]
            row = rot[tail[d]]
            assert (tail[nxt[d]], edge[nxt[d]]) == (tail[d], row[(row.index(edge[d]) + 1) % len(row)])
            assert prv[nxt[d]] == d
            assert (tail[d], tail[rev[d]], edge[d]) in fs.faces[face[d]]


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["crushtacean", "pretzel", "ochain", "depth 1", "depth 2"]),
    seed=st.sampled_from(["cubic", "prism", "wheel", "antiprism"]),
    n=st.integers(3, 12),
)
def test_knot_circles_match_the_corner_tracer(rng, kind, seed, n):
    """The orbit walk on the dart table finds the circles, arcs, segments
    and crossing links the corner-dict tracer finds, in the same order, on
    random crushtaceans, chains and the expansions of a seed, each as
    given, relabelled, and with the relabelled rotation mirrored."""
    if kind == "crushtacean":
        g = random_crushtacean(rng, n)
    elif kind in NAMED:
        g = NAMED[kind](n)
    else:
        g = random_cubic_planar(rng, n) if seed == "cubic" else NAMED[seed](n)
        for _ in range(int(kind[-1])):
            g, _rot = cycle_expand(g)
    h = relabel(g, shuffled(rng, g.vertex_count))
    for x in (g, h, PaintedGraph(h.vertex_count, h.edges, h.painted, mirror(h.embedding.rotation))):
        assert knot_circles(x) == corner_knot_circles(x)


def planarity_input(rng, kind: str, size: int):
    """A connected graph of the given kind, planar or not."""
    n = size + 3
    if kind in ("connected", "grown"):
        order = shuffled(rng, n)
        edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        rng.shuffle(pairs)
        if kind == "connected":  # a spanning tree plus up to 2n chords
            return painted_graph(n, sorted(edges | set(pairs[: rng.randrange(2 * n + 1)])))
        h = nx_graph(painted_graph(n, sorted(edges)))
        for u, v in pairs[: rng.randrange(len(pairs) + 1)]:  # keep the ones that stay planar
            h.add_edge(u, v)
            if not nx.check_planarity(h)[0]:
                h.remove_edge(u, v)
        return painted_graph(n, [tuple(sorted(e)) for e in h.edges])
    if kind == "subdivided":
        base = K5 if rng.random() < 0.5 else K33
        edges, n = list(base.edges), base.vertex_count
        for _ in range(size):
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, n), (n, v)]
            n += 1
        return relabel(painted_graph(n, edges), shuffled(rng, n))
    if kind == "family":
        k = size % 6 + 3
        makers = [prism, wheel, gamma_pretzel, lambda k: gamma_ochain(k - 1), lambda k: cube()]
        makers += [lambda k: dodecahedron(), lambda k: cycle_expand(prism(k))[0]]
        g = rng.choice(makers)(k)
        return relabel(g, shuffled(rng, g.vertex_count))
    return random_crushtacean(rng, size)


def embed_outcome(embed, g):
    try:
        return embed(g)
    except (NonplanarError, PreconditionError) as exc:
        return type(exc).__name__


@PROPERTY
@given(
    rng=RNG,
    kind=st.sampled_from(["connected", "grown", "subdivided", "family", "crushtacean"]),
    size=st.integers(0, 12),
)
def test_planarity_test_matches_networkx(rng, kind, size):
    """The left-right test gives networkx's verdict and, on planar
    graphs, its rotation rows, which describe a sphere embedding."""
    g = planarity_input(rng, kind, size)
    ours = embed_outcome(planar_embed, g)
    assert ours == embed_outcome(nx_planar_embed, g)
    if not isinstance(ours, str):
        assert g.vertex_count - g.edge_count + len(faces(g, ours)) == 2
