import pytest

from crushtacean import (
    CapExceededError,
    automorphisms,
    find_isomorphism,
    painted_graph,
    relabel,
)
from crushtacean.families import (
    cube,
    cycle_expand,
    dodecahedron,
    gamma_borromean,
    gamma_ochain,
    gamma_pretzel,
    prism,
    wheel,
)
from helpers import brute_automorphism_count, close_tuples, random_crushtacean, random_triangulation


def is_automorphism(g, p):
    edge_set = set(g.edges)
    painted = {g.edges[e] for e in g.painted}
    for u, v in g.edges:
        a, b = p.image[u], p.image[v]
        img = (a, b) if a < b else (b, a)
        if img not in edge_set:
            return False
    for u, v in painted:
        a, b = p.image[u], p.image[v]
        img = (a, b) if a < b else (b, a)
        if img not in painted:
            return False
    return True


def test_k4_counts_match_brute_force():
    g = gamma_borromean()
    assert automorphisms(g).order == brute_automorphism_count(g) == 24
    assert (
        automorphisms(g, respect_painting=True).order
        == brute_automorphism_count(g, respect_painting=True)
        == 8
    )


@pytest.mark.parametrize("n", [3, 4])
def test_prism_counts_match_brute_force(n):
    g = prism(n)
    assert automorphisms(g).order == brute_automorphism_count(g)
    p = gamma_pretzel(n)
    assert (
        automorphisms(p, respect_painting=True).order
        == brute_automorphism_count(p, respect_painting=True)
        == 4 * n
    )


def test_random_graphs_match_brute_force(rng):
    for _ in range(8):
        t = random_triangulation(rng, rng.randrange(0, 4))  # at most 7 vertices
        assert automorphisms(t).order == brute_automorphism_count(t)
    for _ in range(6):
        g = random_crushtacean(rng, rng.randrange(0, 3))  # at most 8 vertices
        assert automorphisms(g).order == brute_automorphism_count(g)
        assert (
            automorphisms(g, respect_painting=True).order
            == brute_automorphism_count(g, respect_painting=True)
        )


def test_every_returned_element_is_an_automorphism(rng):
    g = random_crushtacean(rng, 5)
    grp = automorphisms(g, respect_painting=True)
    for p in grp.elements:
        assert is_automorphism(g, p)
    # closed under composition and inverse (spot check through set identity)
    elems = set(grp.elements)
    some = list(elems)[: min(8, len(elems))]
    for a in some:
        assert a.inverse() in elems
        for b in some:
            assert a * b in elems


def test_generators_deterministic():
    g = gamma_pretzel(5)
    a = automorphisms(g, respect_painting=True)
    b = automorphisms(g, respect_painting=True)
    assert a.generators == b.generators
    assert a.elements == b.elements


GREEDY_CASES = {
    "borromean": gamma_borromean,  # the painting cuts S4 down to D4
    "dodecahedron": dodecahedron,
    "cube": cube,
    "prism7": lambda: prism(7),
    "pretzel6": lambda: gamma_pretzel(6),
    "ochain4": lambda: gamma_ochain(4),
    "wheel5_expanded": lambda: cycle_expand(wheel(5))[0],
}


@pytest.mark.parametrize("painted", [False, True], ids=["unpainted", "painted"])
@pytest.mark.parametrize("name", sorted(GREEDY_CASES))
def test_generators_are_the_greedy_choice(name, painted):
    """The generators `aut` prints: each element, in sorted order, that the
    ones chosen before it do not generate."""
    grp = automorphisms(GREEDY_CASES[name](), respect_painting=painted)
    greedy: list[tuple] = []
    span = {tuple(range(grp.degree))}
    for x in sorted(p.image for p in grp.elements):
        if x not in span:
            greedy.append(x)
            span = close_tuples(greedy)
    assert len(span) == grp.order
    assert [p.image for p in grp.generators] == greedy


def test_find_isomorphism_roundtrip(rng):
    g = random_crushtacean(rng, 6)
    img = list(range(g.vertex_count))
    rng.shuffle(img)
    h = relabel(g, img)
    phi = find_isomorphism(g, h, respect_painting=True)
    assert phi is not None
    painted_h = {h.edges[e] for e in h.painted}
    for u, v in g.edges:
        a, b = phi.image[u], phi.image[v]
        assert (min(a, b), max(a, b)) in set(h.edges)
    for e in g.painted:
        u, v = g.edges[e]
        a, b = phi.image[u], phi.image[v]
        assert (min(a, b), max(a, b)) in painted_h


def test_find_isomorphism_negative_cases():
    assert find_isomorphism(wheel(5), wheel(6)) is None
    assert find_isomorphism(prism(4), wheel(7)) is None  # same vertex count
    # same underlying graph, incompatible paintings
    assert find_isomorphism(gamma_pretzel(3), gamma_ochain(2), respect_painting=True) is None
    # ignoring the painting they are the same 3-prism
    assert find_isomorphism(gamma_pretzel(3), gamma_ochain(2)) is not None


def test_painting_respected_only_when_asked():
    g = gamma_borromean()
    unpainted = painted_graph(4, g.edges)
    assert find_isomorphism(g, unpainted, respect_painting=True) is None
    assert find_isomorphism(g, unpainted) is not None


def test_cap_exceeded():
    with pytest.raises(CapExceededError):
        automorphisms(prism(6), cap=5)
