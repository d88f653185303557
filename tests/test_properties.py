"""Property tests of the planarity test, the automorphism engine, the
3-connectivity check, the rotations files carry, and the report.

Graphs come from the seeded generators in ``helpers``, driven by a
Hypothesis-controlled ``random.Random``, so a failing case shrinks to a
small seed and size.  Examples are derandomized to keep the suite
reproducible.
"""

import json
import random

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crushtacean import (
    GraphFormatError,
    NonplanarError,
    Permutation,
    PreconditionError,
    automorphisms,
    cycle_expand,
    faces,
    find_isomorphism,
    identify,
    painted_graph,
    parse_graph,
    planar_embed,
    relabel,
    serialize_graph,
    symmetry_report,
    three_edge_cuts,
    validate_crushtacean,
)
from crushtacean.families import cube, dodecahedron, gamma_ochain, gamma_pretzel, prism, wheel
from crushtacean.graphs import check_3_connected
from helpers import (
    brute_automorphism_count,
    flip_block,
    hung_blocks,
    mirror,
    nx_graph,
    nx_planar_embed,
    random_crushtacean,
    random_cubic_planar,
    random_triangulation,
    shuffled_document,
    splice,
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
    want = sorted(pi * a * pi.inverse() for a in automorphisms(g, painted).elements)
    assert list(automorphisms(h, painted).elements) == want

    phi = find_isomorphism(g, h, respect_painting=True)
    assert phi is not None
    h_edges, h_painted = set(h.edges), set(h.painted_pairs())
    for e, (u, v) in enumerate(g.edges):
        image = tuple(sorted((phi(u), phi(v))))
        assert image in h_edges
        assert (image in h_painted) == g.is_painted(e)


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
