import json

import networkx as nx
import pytest

from crushtacean import (
    GraphFormatError,
    InvalidRotationError,
    NonplanarError,
    PreconditionError,
    dual,
    faces,
    painted_graph,
    parse_graph,
    planar_embed,
    relabel,
    serialize_graph,
    validate_basic,
)
from crushtacean.graphs import check_rotation
from helpers import nx_graph, random_crushtacean, random_cubic_planar, random_triangulation, splice

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4(painted=()):
    return painted_graph(4, K4_EDGES, painted)


def test_factory_canonicalizes_edges():
    g = painted_graph(4, [(3, 2), (1, 0), (2, 0), (3, 1), (2, 1), (3, 0)], [(3, 2)])
    assert g.edges == tuple(sorted(K4_EDGES))
    assert g.edges[g.painted[0]] == (2, 3)
    assert g.is_painted(g.edge_index[(2, 3)])
    assert not g.is_painted(g.edge_index[(0, 1)])


def test_factory_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        painted_graph(3, [(0, 0), (0, 1), (1, 2)])  # loop
    with pytest.raises(GraphFormatError):
        painted_graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate edge
    with pytest.raises(GraphFormatError):
        painted_graph(3, [(0, 1), (1, 3)])  # endpoint out of range
    with pytest.raises(GraphFormatError):
        painted_graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    with pytest.raises(GraphFormatError):
        painted_graph(0, [])
    with pytest.raises(GraphFormatError):
        k4(painted=[(0, 1), (0, 1)])  # painted twice
    with pytest.raises(GraphFormatError):
        painted_graph(4, K4_EDGES[:5], [(2, 3)])  # painted pair is not an edge


def test_degree_and_lookups():
    g = k4([(0, 1)])
    assert [g.degree(v) for v in range(4)] == [3, 3, 3, 3]
    assert g.other_end(g.edge_index[(1, 3)], 1) == 3
    assert g.other_end(g.edge_index[(1, 3)], 3) == 1
    assert g.painted_pairs() == ((0, 1),)
    assert g.edge_count == 6


def test_relabel_preserves_structure():
    g = painted_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3)], [(1, 2)])
    h = relabel(g, [4, 3, 2, 1, 0])
    assert nx.is_isomorphic(nx_graph(g), nx_graph(h))
    assert h.is_painted(h.edge_index[(2, 3)])  # image of (1, 2)


def test_validate_basic_flags():
    rep = validate_basic(k4())
    assert rep.connected and rep.cubic
    path = painted_graph(3, [(0, 1), (1, 2)])
    rep = validate_basic(path)
    assert rep.connected and not rep.cubic
    assert (rep.degree_min, rep.degree_max) == (1, 2)
    two_parts = painted_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not validate_basic(two_parts).connected


def test_serialize_is_canonical_and_round_trips():
    g = k4([(2, 3), (0, 1)])
    s = serialize_graph(g)
    g2, rot = parse_graph(s)
    assert rot is None
    assert g2 == g
    assert serialize_graph(g2) == s
    # scrambled edge order in the input normalizes to the same bytes
    doc = json.loads(s)
    doc["edges"] = [[3, 2], [1, 0], [2, 0], [3, 1], [2, 1], [3, 0]]
    doc["painted"] = [0, 1]  # (2,3) and (0,1) in the scrambled order
    g3, _ = parse_graph(json.dumps(doc))
    assert serialize_graph(g3) == s


def test_serialize_with_rotation_round_trips():
    g = k4()
    rot = planar_embed(g)
    s = serialize_graph(g, rot)
    g2, rot2 = parse_graph(s)
    assert g2 == g and rot2 == rot
    assert serialize_graph(g2, rot2) == s


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("format"),
        lambda d: d.update(format="painted-graph/0"),
        lambda d: d.pop("edges"),
        lambda d: d.update(vertices="four"),
        lambda d: d["edges"].append([0, 0]),
        lambda d: d.update(painted=[99]),
        lambda d: d.update(rotation=[[0, 1], [0, 3], [1, 4], [2, 5]]),
        lambda d: d.update(rotation="no"),
        lambda d: d["rotation"][0].reverse(),  # K4 on the torus
        lambda d: d.update(vertices=float("inf")),  # JSON Infinity
        lambda d: d["rotation"][0].append(float("inf")),
        lambda d: d.update(vertices=2**62),  # more vertices than 2 per edge: rejected unallocated
        lambda d: d.update(vertices=2**64),
    ],
)
def test_parse_rejects_mangled_documents(mangle):
    doc = json.loads(serialize_graph(k4([(0, 1)]), planar_embed(k4())))
    mangle(doc)
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(doc))


def test_parse_rejects_non_json_and_non_object():
    deep = "[" * 100000 + "]" * 100000  # deeper than the decoder can recurse
    for text in ["{nope", "[1,2]", deep, deep.encode(), b"\x80{}"]:
        with pytest.raises(GraphFormatError):
            parse_graph(text)


def test_planar_embed_k4_faces():
    g = k4()
    rot = planar_embed(g)
    fs = faces(g, rot)
    assert sorted(fs.face_sizes()) == [3, 3, 3, 3]
    # each edge lies on exactly two distinct faces
    for e in range(g.edge_count):
        a, b = fs.edge_faces[e]
        assert a != b


def test_planar_embed_rejects_nonplanar():
    k5 = painted_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(NonplanarError):
        planar_embed(k5)
    k33 = painted_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    with pytest.raises(NonplanarError):
        planar_embed(k33)


def test_planar_embed_requires_connected():
    g = painted_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(PreconditionError):
        planar_embed(g)


def test_planar_embed_is_not_recursive():
    """Each pass of the planarity test keeps its own stack: the DFS of a
    4,000-vertex prism is a path far deeper than the recursion limit."""
    from crushtacean.families import prism

    g = prism(2000)
    assert g.vertex_count - g.edge_count + len(faces(g, planar_embed(g))) == 2


def test_euler_formula_on_random_graphs(rng):
    for _ in range(25):
        g = random_cubic_planar(rng, rng.randrange(0, 15))
        rot = planar_embed(g)
        fs = faces(g, rot)
        assert len(fs.faces) == g.edge_count - g.vertex_count + 2
        # every dart appears in exactly one face walk
        assert sum(fs.face_sizes()) == 2 * g.edge_count


def test_check_rotation_rejects_mismatch():
    g = k4()
    rot = planar_embed(g)
    bad = (rot[0],) + rot[:3]
    with pytest.raises(InvalidRotationError):
        check_rotation(g, bad)
    with pytest.raises(InvalidRotationError):
        check_rotation(g, (rot[0][:2],) + rot[1:])


def test_prism_faces():
    g = painted_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    fs = faces(g, planar_embed(g))
    assert sorted(fs.face_sizes()) == [3, 3, 4, 4, 4]


def test_dual_of_k4_is_k4():
    g = k4([(0, 1)])
    d, corr = dual(g, planar_embed(g))
    assert nx.is_isomorphic(nx_graph(d), nx_graph(k4()))
    assert len(corr) == 6
    # the painted primal edge maps to the painted dual edge
    assert d.painted == (corr[g.painted[0]],)


def test_dual_involution_up_to_isomorphism(rng):
    from crushtacean import find_isomorphism

    for _ in range(10):
        g = random_crushtacean(rng, rng.randrange(0, 10))
        d1, _ = dual(g, planar_embed(g))
        d2, _ = dual(d1, planar_embed(d1))
        assert find_isomorphism(g, d2, respect_painting=True) is not None


def test_dual_rejects_bridges():
    # two triangles joined by a bridge: the bridge edge has the same face
    # on both sides
    g = painted_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    with pytest.raises(PreconditionError):
        dual(g, planar_embed(g))


def test_faces_deterministic():
    g = k4([(1, 2)])
    rot = planar_embed(g)
    assert faces(g, rot).faces == faces(g, rot).faces
    assert planar_embed(g) == rot


def test_rotation_rides_along_without_changing_the_value():
    g = k4([(0, 1), (2, 3)])
    h, rot = parse_graph(serialize_graph(g, planar_embed(g)))
    assert h.rotation == rot
    assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
    assert serialize_graph(h) == serialize_graph(g)
    assert h.embedding is h.embedding  # built once, then cached
    assert h.embedding.rotation == rot
    assert sorted(h.embedding.faces.face_sizes()) == [3, 3, 3, 3]


def test_embedding_rejects_a_carried_rotation_of_a_2_connected_graph(rng):
    a, b = random_cubic_planar(rng, 2), random_cubic_planar(rng, 3)
    g = splice(a, b)
    h, _rot = parse_graph(serialize_graph(g, planar_embed(g)))
    with pytest.raises(PreconditionError):
        h.embedding


def test_dual_carries_a_sphere_rotation(rng):
    for _ in range(10):
        g = random_crushtacean(rng, rng.randrange(0, 10))
        d, corr = dual(g, planar_embed(g))
        stars = sorted(tuple(sorted(corr[e] for e in g.incident[v])) for v in range(g.vertex_count))
        assert sorted(tuple(sorted(e for _t, _h, e in w)) for w in d.embedding.faces.faces) == stars
