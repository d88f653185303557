"""Property tests of the automorphism engine and the 3-connectivity check.

Graphs come from the seeded generators in ``helpers``, driven by a
Hypothesis-controlled ``random.Random``, so a failing case shrinks to a
small seed and size.  Examples are derandomized to keep the suite
reproducible.
"""

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crushtacean import (
    GraphFormatError,
    Permutation,
    PreconditionError,
    automorphisms,
    find_isomorphism,
    painted_graph,
    planar_embed,
    relabel,
)
from crushtacean.graphs import check_3_connected
from helpers import (
    brute_automorphism_count,
    nx_graph,
    random_crushtacean,
    random_cubic_planar,
    random_triangulation,
    splice,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
RNG = st.randoms(use_true_random=False)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# two K4s sharing vertex 3: planar with a simple dual, but only 1-connected
TWO_K4 = painted_graph(7, K4_EDGES + [(u + 3, v + 3) for u, v in K4_EDGES])


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
def test_3_connectivity_agrees_with_flow_oracle(rng, kind, size, deletions):
    if kind == "triangulation":
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
