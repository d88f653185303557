import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from crushtacean import cycle_expand
from crushtacean.families import antiprism, cube, dodecahedron, gamma_borromean, gamma_pretzel, prism, wheel
from crushtacean.render import to_dot, to_svg, tutte_layout
from helpers import numpy_tutte_layout, random_crushtacean, random_cubic_planar

SVG_NS = "{http://www.w3.org/2000/svg}"


def segments_cross(p1, p2, p3, p4, eps=1e-9):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    )


def test_layout_is_barycentric():
    g = cube()
    layout = tutte_layout(g)
    fs = g.embedding.faces
    sizes = fs.face_sizes()
    outer = max(range(len(sizes)), key=lambda f: (sizes[f], -f))
    boundary = {d[0] for d in fs.faces[outer]}
    for v in range(g.vertex_count):
        if v in boundary:
            x, y = layout[v]
            assert abs(x * x + y * y - 1.0) < 1e-9  # pinned to the unit circle
        else:
            nbrs = [g.other_end(e, v) for e in g.incident[v]]
            ax = sum(layout[u][0] for u in nbrs) / len(nbrs)
            ay = sum(layout[u][1] for u in nbrs) / len(nbrs)
            assert abs(layout[v][0] - ax) < 1e-8
            assert abs(layout[v][1] - ay) < 1e-8


def off_average(g, layout) -> float:
    """How far the worst vertex off the outer face lies from the average
    of its neighbours."""
    fs = g.embedding.faces
    sizes = fs.face_sizes()
    outer = max(range(len(sizes)), key=lambda f: (sizes[f], -f))
    boundary = {d[0] for d in fs.faces[outer]}
    worst = 0.0
    for v in range(g.vertex_count):
        if v not in boundary:
            nbrs = g.adjacency[v]
            for k in (0, 1):
                worst = max(worst, abs(layout[v][k] - sum(layout[u][k] for u in nbrs) / len(nbrs)))
    return worst


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rng=st.randoms(use_true_random=False),
    kind=st.sampled_from(["crushtacean", "prism", "antiprism", "wheel", "expansion"]),
    size=st.integers(0, 40),
)
def test_sparse_layout_matches_the_dense_solve(rng, kind, size):
    if kind == "crushtacean":
        g = random_crushtacean(rng, size)
    elif kind == "expansion":
        g, _rot = cycle_expand(random_cubic_planar(rng, size // 2))
    else:
        g = {"prism": prism, "antiprism": antiprism, "wheel": wheel}[kind](size + 3)
    layout = tutte_layout(g)
    want = numpy_tutte_layout(g)
    assert max(abs(p[k] - q[k]) for p, q in zip(layout, want) for k in (0, 1)) < 1e-9
    assert off_average(g, layout) < 1e-8


def test_layout_of_a_4000_vertex_prism():
    """A dense solve would need a 2,000 x 2,000 matrix for the inner ring."""
    g = prism(2000)
    assert off_average(g, tutte_layout(g)) < 1e-8


def test_layout_has_no_edge_crossings(rng):
    graphs = [gamma_borromean(), cube(), wheel(5), gamma_pretzel(5), dodecahedron(),
              random_crushtacean(rng, 8)]
    for g in graphs:
        layout = tutte_layout(g)
        for i in range(g.edge_count):
            for j in range(i + 1, g.edge_count):
                a, b = g.edges[i]
                c, d = g.edges[j]
                if {a, b} & {c, d}:
                    continue
                assert not segments_cross(layout[a], layout[b], layout[c], layout[d]), (
                    g.edges[i],
                    g.edges[j],
                )


def test_svg_is_valid_xml_with_all_elements():
    g = gamma_pretzel(4)
    doc = to_svg(g)
    root = ET.fromstring(doc)
    assert root.tag == f"{SVG_NS}svg"
    lines = root.findall(f"{SVG_NS}line")
    assert len(lines) == g.edge_count
    heavy = [ln for ln in lines if ln.get("stroke-width") == "3.5"]
    assert len(heavy) == len(g.painted)
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == g.vertex_count
    labels = root.findall(f"{SVG_NS}text")
    assert len(labels) == g.vertex_count


def test_svg_deterministic():
    g = gamma_borromean()
    assert to_svg(g) == to_svg(g)


def test_dot_output():
    g = gamma_borromean()
    doc = to_dot(g)
    assert doc.startswith("graph crushtacean {")
    assert doc.count(" -- ") == g.edge_count
    assert doc.count("painted=true") == len(g.painted)
    assert doc.rstrip().endswith("}")
