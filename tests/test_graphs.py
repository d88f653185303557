import json

import networkx as nx
import pytest

from crushtacean import (
    GraphFormatError,
    InvalidRotationError,
    NonplanarError,
    PaintedGraph,
    PreconditionError,
    dual,
    faces,
    painted_graph,
    parse_graph,
    planar_embed,
    relabel,
    serialize_graph,
    symmetry_report,
    validate_basic,
)
from crushtacean import graphs
from crushtacean.families import cycle_expand, prism
from crushtacean.graphs import check_rotation
from crushtacean.render import tutte_layout
from helpers import (
    mirror,
    nx_graph,
    position_faces,
    random_crushtacean,
    random_cubic_planar,
    random_triangulation,
    splice,
)

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
        # numbers that int() would coerce into another graph: only JSON integers pass
        lambda d: d["edges"].__setitem__(0, [0, 1.7]),
        lambda d: d["edges"][0].append(3),
        lambda d: d.update(vertices="4"),
        lambda d: d.update(painted=[0.9, 5]),
        lambda d: d.update(painted=[False, 5]),
        lambda d: d["rotation"][0].__setitem__(0, 0.0),
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
    mirrored = PaintedGraph(g.vertex_count, g.edges, g.painted, mirror(rot))
    assert mirrored == h and hash(mirrored) == hash((g.vertex_count, g.edges, g.painted))
    assert repr(mirrored) == f"PaintedGraph(vertex_count=4, edges={g.edges!r}, painted=(0, 5))"
    assert h != k4([(0, 1)]) and h != (g.vertex_count, g.edges, g.painted)  # a graph is no tuple
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


def test_a_parsed_rotation_is_traced_once(rng, monkeypatch):
    """The faces traced for a file's V - E + F = 2 check serve the
    embedding too, whether or not the graph turns out 3-connected."""
    good = random_crushtacean(rng, 6)
    bad = splice(random_cubic_planar(rng, 2), random_cubic_planar(rng, 3))
    docs = [serialize_graph(g, planar_embed(g)) for g in (good, bad)]
    traced = []
    real_faces = graphs.faces
    monkeypatch.setattr(graphs, "faces", lambda g, rot: traced.append(rot) or real_faces(g, rot))
    h, rot = parse_graph(docs[0])
    assert len(h.embedding.faces) == 2 + good.edge_count - good.vertex_count
    assert traced == [rot]
    h, bad_rot = parse_graph(docs[1])  # a sphere rotation, but of a 2-connected graph
    with pytest.raises(PreconditionError):
        h.embedding
    assert traced == [rot, bad_rot]


def test_a_parsed_rotation_is_checked_once(rng, monkeypatch):
    """A file's rotation is checked against the graph once, as its faces
    are traced, and a rotation that does not match keeps its message."""
    doc = json.loads(serialize_graph(k4([(0, 1)]), planar_embed(k4())))
    short_row, few_rows = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    short_row["rotation"][1].pop()
    few_rows["rotation"].pop()
    prefix = "rotation does not match graph: "
    for bad, why in (
        (short_row, "rotation at vertex 1 does not list its incident edges"),
        (few_rows, "rotation has wrong number of vertices"),
    ):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(json.dumps(bad))
        assert str(info.value) == prefix + why
    checked = []
    real = graphs.check_rotation
    monkeypatch.setattr(graphs, "check_rotation", lambda g, rot: checked.append(rot) or real(g, rot))
    for g in (k4([(0, 1)]), random_crushtacean(rng, 6)):
        text = serialize_graph(g, planar_embed(g))
        checked.clear()
        h, rot = parse_graph(text)
        assert h.embedding.rotation == rot
        assert checked == [rot]


def test_serialize_checks_only_a_rotation_the_graph_has_not_checked(monkeypatch):
    """The rotation of a built embedding was checked as it was built, so
    serializing with it checks nothing; any other rotation is checked, and
    one that does not fit the graph still raises."""
    checked = []
    real = graphs.check_rotation
    monkeypatch.setattr(graphs, "check_rotation", lambda g, rot: checked.append(rot) or real(g, rot))
    g = cycle_expand(prism(5))[0]
    own = g.embedding.rotation
    checked.clear()
    text = serialize_graph(g, own)
    assert checked == [] and parse_graph(text)[1] == own
    unbuilt = PaintedGraph(g.vertex_count, g.edges, g.painted, own)  # no embedding yet
    copy = tuple(row for row in own)  # equal, but not the embedding's own
    for h, rot in ((g, mirror(own)), (g, copy), (unbuilt, own)):
        checked.clear()
        serialize_graph(h, rot)
        assert checked == [rot]
    assert serialize_graph(g, copy) == text
    for rot in ((own[1], own[0]) + own[2:], own[:-1], prism(5).embedding.rotation):
        with pytest.raises(InvalidRotationError):
            serialize_graph(g, rot)


# k4([(0, 1), (2, 3)]) carries the rotation [[0, 2, 1], [0, 3, 4], [1, 5, 3], [2, 4, 5]]
MALFORMED_ROTATIONS = [
    ([[0, 2, 1], [-1, 3, 4], [1, 5, 3], [2, 4, 5]], "rotation does not match graph: -1"),
    ([[0, 2, 1], [0, 3, 4], [1, 6, 3], [2, 4, 5]], "rotation does not match graph: 6"),
    ([[0, 2, 1], [0, 0, 4], [1, 5, 3], [2, 4, 5]], "vertex 1"),  # an edge listed twice
    ([[0, 2, 1], [0, 3, 4], [1, 5], [2, 4, 5]], "vertex 2"),  # a short row
    ([[0, 2, 1], [0, 3, 4], [1, 5, 3, 5], [2, 4, 5]], "vertex 2"),  # a long row
    ([[0, 5, 1], [0, 3, 4], [1, 5, 3], [2, 4, 5]], "vertex 0"),  # an edge not at the vertex
    ([[0, 2, 1], [0, 3, 4], [1, 5, 3]], "rotation does not match graph: rotation has wrong number of vertices"),
    ([[0, 2, 1], [1.0, 3, 4], [1, 5, 3], [2, 4, 5]], "malformed rotation: edge positions must be JSON integers"),
    ([[0, 2, 1], ["3", 3, 4], [1, 5, 3], [2, 4, 5]], "malformed rotation: edge positions must be JSON integers"),
    ([[0, 2, 1], [0, 3, 4], [1, 5, 3], 5], "malformed rotation: 'int' object is not iterable"),
]


def test_malformed_rotations_keep_their_messages():
    doc = json.loads(serialize_graph(k4([(0, 1), (2, 3)])))
    for rows, message in MALFORMED_ROTATIONS:
        if message.startswith("vertex"):
            message = f"rotation does not match graph: rotation at {message} does not list its incident edges"
        with pytest.raises(GraphFormatError) as info:
            parse_graph(json.dumps({**doc, "rotation": rows}))
        assert str(info.value) == message


def test_a_report_counts_the_components_once(rng, monkeypatch):
    """A parsed file's Euler check, its validation, the planarity test and
    the 3-connectivity check read one component count, with a rotation
    and without."""
    g = random_crushtacean(rng, 6)
    texts = [serialize_graph(g, planar_embed(g)), serialize_graph(g)]
    counted = []
    real = graphs._component_count
    monkeypatch.setattr(graphs, "_component_count", lambda h: counted.append(h) or real(h))
    for text in texts:
        counted.clear()
        h, _rot = parse_graph(text)
        assert symmetry_report(h).crushtacean_valid
        assert len(counted) == 1 and counted[0] is h


def test_a_report_builds_no_face_walk(monkeypatch):
    """The report of a parsed member, with a seed that carries no rotation,
    reads the faces' dart table only; the dual and the layout read walks
    equal to the reference tracer's."""
    seed = prism(5)
    member, rot = cycle_expand(seed)
    member_text, seed_text = serialize_graph(member, rot), serialize_graph(seed)
    walks = {}  # id of each face set whose walks are read -> the walks
    real = graphs.FaceSet.faces.func
    monkeypatch.setattr(graphs.FaceSet, "faces", property(lambda fs: walks.setdefault(id(fs), real(fs))))
    h, h_rot = parse_graph(member_text)
    report = symmetry_report(h, expansion_seed=parse_graph(seed_text)[0])
    assert report.sym_plus_complement.status == "exact" and walks == {}
    dual(h, h_rot)
    tutte_layout(h)
    assert len(walks) == 2 and all(w == position_faces(h, h_rot)[0] for w in walks.values())


def test_dual_carries_a_sphere_rotation(rng):
    for _ in range(10):
        g = random_crushtacean(rng, rng.randrange(0, 10))
        d, corr = dual(g, planar_embed(g))
        stars = sorted(tuple(sorted(corr[e] for e in g.incident[v])) for v in range(g.vertex_count))
        assert sorted(tuple(sorted(e for _t, _h, e in w)) for w in d.embedding.faces.faces) == stars
