import pytest

from crushtacean import (
    CatalogMissError,
    GroupId,
    PreconditionError,
    automorphisms,
    cycle_expand,
    faces,
    family_from_target,
    generate_family,
    identify,
    PaintedGraph,
    painted_graph,
    planar_embed,
    seed_catalog,
    serialize_graph,
    validate_crushtacean,
)
from crushtacean import families
from crushtacean.families import (
    MAX_VERTICES,
    antiprism,
    cube,
    dodecahedron,
    gamma_borromean,
    gamma_ochain,
    gamma_pretzel,
    prism,
    require_expansions,
    tetrahedron,
    wheel,
)
from helpers import count_planarity_tests, random_cubic_planar


def test_gamma_borromean_shape():
    g = gamma_borromean()
    assert g.vertex_count == 4 and g.edge_count == 6 and len(g.painted) == 2
    assert validate_crushtacean(g).valid


@pytest.mark.parametrize("n", [3, 4, 7])
def test_gamma_pretzel_shape(n):
    g = gamma_pretzel(n)
    assert g.vertex_count == 2 * n and g.edge_count == 3 * n
    assert len(g.painted) == n
    # every painted edge is a rung between the two cycles
    for e in g.painted:
        u, v = g.edges[e]
        assert v == u + n
    assert validate_crushtacean(g).valid


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_gamma_ochain_shape(n):
    g = gamma_ochain(n)
    assert g.vertex_count == 2 * n + 2
    assert g.edge_count == 3 * (n + 1)
    assert len(g.painted) == n + 1
    assert validate_crushtacean(g).valid
    grp = automorphisms(g, respect_painting=True)
    assert grp.order == 4
    assert identify(grp) == GroupId.klein()


@pytest.mark.parametrize("make,low", [(gamma_pretzel, 3), (gamma_ochain, 2)])
def test_chains_carry_the_planarity_tests_rotation(make, low):
    """Each chain is built with the rotation the planarity test gives it,
    so ``gen`` prints the rows it printed when it embedded the chain."""
    for n in [*range(low, 40), 100, 1001]:
        g = make(n)
        assert g.rotation == planar_embed(g)


def test_family_parameter_bounds():
    with pytest.raises(ValueError):
        gamma_pretzel(2)
    with pytest.raises(ValueError):
        gamma_ochain(1)
    with pytest.raises(ValueError):
        wheel(2)
    with pytest.raises(ValueError):
        prism(2)
    with pytest.raises(ValueError):
        antiprism(2)


def test_vertex_bound_is_exact():
    assert wheel(MAX_VERTICES - 1).vertex_count == MAX_VERTICES
    with pytest.raises(PreconditionError, match=f"would have {MAX_VERTICES + 1} vertices"):
        wheel(MAX_VERTICES)
    require_expansions(prism(5555), 2)  # 2 * 3 * 16,665 = 99,990 vertices
    with pytest.raises(PreconditionError, match="would have 100008 vertices"):
        require_expansions(prism(5556), 2)
    with pytest.raises(PreconditionError, match="would have 131220 vertices"):
        generate_family(wheel(5), 8)  # depths 2-9: the first expansion is skipped
    with pytest.raises(PreconditionError, match="at least 0"):
        require_expansions(cube(), -1)


def test_require_expansions_returns_on_an_edgeless_graph():
    """painted_graph refuses edgeless graphs, but one built directly must not
    keep the count check looping: nothing grows, so it returns at once and
    cycle_expand gives the verdict."""
    require_expansions(PaintedGraph(1, (), ()), 10**12)


def test_prism_carries_the_planarity_test_rotation(monkeypatch):
    """prism(n) keeps the pretzel chain's rotation, whose rows are the ones
    the left-right planarity test gives the unpainted prism."""
    calls = count_planarity_tests(monkeypatch)
    for n in range(3, 41):
        g = prism(n)
        text = serialize_graph(g, g.embedding.rotation)
        assert calls == [] and g.painted == ()
        bare = painted_graph(2 * n, g.edges)
        assert text == serialize_graph(bare, planar_embed(bare))


def test_seed_constructors():
    assert wheel(6).vertex_count == 7
    assert wheel(6).degree(6) == 6
    assert prism(5).vertex_count == 10
    assert antiprism(4).vertex_count == 8
    assert all(antiprism(4).degree(v) == 4 for v in range(8))
    assert tetrahedron().edge_count == 6
    assert cube().vertex_count == 8
    d = dodecahedron()
    assert d.vertex_count == 20 and d.edge_count == 30
    assert all(d.degree(v) == 3 for v in range(20))
    fs = faces(d, planar_embed(d))
    assert sorted(fs.face_sizes()) == [5] * 12
    assert automorphisms(d).order == 120


def test_seed_catalog_hits():
    assert [n for n, _ in seed_catalog(GroupId.dihedral(5))] == ["wheel5"]
    assert [n for n, _ in seed_catalog(GroupId.dihedral(6))] == ["wheel6", "prism3"]
    assert [n for n, _ in seed_catalog(GroupId.dihedral(8))] == ["wheel8", "antiprism4"]
    assert [n for n, _ in seed_catalog(GroupId.dihedral_x_z2(6))] == ["prism6"]
    assert [n for n, _ in seed_catalog(GroupId.from_string("S4"))] == ["tetrahedron"]
    assert [n for n, _ in seed_catalog(GroupId.from_string("S4xZ2"))] == ["cube", "antiprism3"]
    assert [n for n, _ in seed_catalog(GroupId.from_string("A5xZ2"))] == ["dodecahedron"]
    # every hit really has the requested symmetry group
    for target in [GroupId.dihedral(7), GroupId.dihedral_x_z2(8), GroupId.from_string("S4")]:
        for _name, g in seed_catalog(target):
            assert identify(automorphisms(g)) == target


def test_seed_catalog_misses():
    assert seed_catalog(GroupId.cyclic(5)) == []
    assert seed_catalog(GroupId.dihedral(3)) == []
    assert seed_catalog(GroupId.from_string("A4")) == []
    assert seed_catalog(GroupId.klein()) == []


def test_expansion_sizes(rng):
    for seed in [wheel(4), prism(3), cube(), random_cubic_planar(rng, 6)]:
        ex, rot = cycle_expand(seed)
        assert ex.vertex_count == 2 * seed.edge_count
        assert ex.edge_count == 3 * seed.edge_count
        assert len(ex.painted) == seed.edge_count
        assert validate_crushtacean(ex).valid
        # the returned rotation is a sphere embedding
        assert len(faces(ex, rot).faces) == ex.edge_count - ex.vertex_count + 2


def test_expansion_copies_seed_symmetries(rng):
    for seed in [wheel(5), prism(3), antiprism(4), random_cubic_planar(rng, 4)]:
        full = automorphisms(seed)
        ex, _ = cycle_expand(seed)
        painted = automorphisms(ex, respect_painting=True)
        assert painted.order == full.order
        assert identify(painted) == identify(full)


def test_expansion_deterministic_and_ignores_painting():
    a, rot_a = cycle_expand(gamma_pretzel(3))
    b, rot_b = cycle_expand(prism(3))
    assert serialize_graph(a, rot_a) == serialize_graph(b, rot_b)
    c, rot_c = cycle_expand(prism(3))
    assert serialize_graph(b, rot_b) == serialize_graph(c, rot_c)


def test_expansion_requires_min_degree_three():
    tri = painted_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionError):
        cycle_expand(tri)


def test_generate_family_skips_uncertified_first_step():
    members = generate_family(wheel(5), 2)
    assert [m.depth for m in members] == [2, 3]
    assert [m.graph.vertex_count for m in members] == [60, 180]
    assert all(m.certified_not_signature for m in members)
    painted = [len(m.graph.painted) for m in members]
    assert painted == sorted(painted) and painted[0] < painted[1]


def test_generate_family_keeps_certified_first_step():
    members = generate_family(prism(6), 2)
    assert [m.depth for m in members] == [1, 2]
    assert all(m.certified_not_signature for m in members)
    assert members[0].parent == prism(6)


def test_generate_family_member_reports():
    from crushtacean import symmetry_report

    (member,) = generate_family(prism(6), 1)
    rep = symmetry_report(member.graph, expansion_seed=member.parent)
    assert rep.sym_plus_complement.status == "exact"
    assert str(rep.sym_plus_complement.group) == "D6xZ2"


def test_family_from_target():
    name, members = family_from_target(GroupId.dihedral(6), 1)
    assert name == "wheel6"
    assert members[0].depth == 2  # wheels carry a universal region
    assert identify(automorphisms(members[0].graph, respect_painting=True)) == GroupId.dihedral(6)


def test_family_from_target_verifies_through_seed_catalog(monkeypatch):
    calls = []

    def counted(target):
        calls.append(target)
        return seed_catalog(target)

    monkeypatch.setattr(families, "seed_catalog", counted)
    assert family_from_target(GroupId.dihedral(5), 1)[0] == "wheel5"
    assert calls == [GroupId.dihedral(5)]


@pytest.mark.parametrize("target, count", [(GroupId.dihedral(5), 1), (GroupId.dihedral(6), 2)])
def test_family_from_target_searches_each_group_once(target, count, monkeypatch):
    """One unpainted search per candidate seed, in seed_catalog, and one
    painted search per member; the seed's group is not searched again."""
    calls = []

    def counted(g, respect_painting=False):
        calls.append(respect_painting)
        return automorphisms(g, respect_painting)

    monkeypatch.setattr(families, "automorphisms", counted)
    _name, members = family_from_target(target, count)
    assert len(members) == count
    assert calls == [False] * len(families._seed_candidates(target)) + [True] * count


def test_family_from_target_miss():
    with pytest.raises(CatalogMissError):
        family_from_target(GroupId.cyclic(7), 1)


def test_generate_family_rejects_bad_count():
    with pytest.raises(ValueError):
        generate_family(prism(6), 0)
    for count in (0, -2):
        with pytest.raises(ValueError, match="count must be positive"):
            family_from_target(GroupId.dihedral(5), count)
