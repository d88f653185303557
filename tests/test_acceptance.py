"""End-to-end acceptance checks.

One test per criterion; each prints a single ``[accept NN] PASS/FAIL``
line (visible with ``pytest -s``) and the test names double as the
checklist under ``pytest -v``.  These tests re-derive every headline
number through public API calls and independent oracles rather than
trusting intermediate modules.
"""

from itertools import combinations

import networkx as nx

from crushtacean import (
    GroupId,
    PreconditionError,
    automorphisms,
    classify_bprime,
    cycle_expand,
    dual,
    family_from_target,
    find_isomorphism,
    identify,
    knot_circles,
    painted_graph,
    planar_embed,
    symmetry_report,
    three_edge_cuts,
    validate_crushtacean,
)
from crushtacean.graphs import check_3_connected
from crushtacean.families import (
    antiprism,
    cube,
    dodecahedron,
    gamma_borromean,
    gamma_ochain,
    gamma_pretzel,
    prism,
    tetrahedron,
    wheel,
)
from helpers import (
    candidate_tags,
    catalog_identify,
    dual_nerve,
    nx_graph,
    perm_order,
    random_crushtacean,
    random_cubic_planar,
    realize,
    splice,
)


def verdict(num: int, label: str, problems: list, detail: str) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"[accept {num:02d}] {status} {label}: {detail}")
    assert not problems, f"{label}: {problems}"


def chain_link_group(n: int) -> str:
    """Expected symmetry group of the length-n chain-family links."""
    return f"D{4 * n}" if n % 2 else f"D{2 * n}xZ2"


def test_acceptance_01_borromean_rings_profile():
    g = gamma_borromean()
    problems = []
    aut = automorphisms(g, respect_painting=False)
    aut_p = automorphisms(g, respect_painting=True)
    if aut.order != 24:
        problems.append(f"aut order {aut.order} != 24")
    if aut_p.order != 8 or str(identify(aut_p)) != "D4":
        problems.append(f"painted aut {identify(aut_p)} of order {aut_p.order}")
    rep = symmetry_report(g)
    link, comp = rep.sym_plus_link, rep.sym_plus_complement
    for name, est in [("link", link), ("complement", comp)]:
        if (est.status, str(est.group), est.order) != ("exact", "S4", 24):
            problems.append(f"{name} estimate {est}")
    if link.order // rep.aut_p_order != 3:
        problems.append("painted automorphisms are not index 3 in the link group")
    if rep.reflection.surface_count != 3:
        problems.append(f"{rep.reflection.surface_count} reflection surfaces")
    if rep.b_prime.tag != "borromean_special":
        problems.append(f"b-prime tag {rep.b_prime.tag}")
    ks = knot_circles(g)
    if ks.knot_circle_count != 1 or ks.crossing_circle_count != 2:
        problems.append(f"{ks.knot_circle_count} knot / {ks.crossing_circle_count} crossing circles")
    if any(pair != (0, 0) for _e, pair in ks.crossing_links):
        problems.append("a crossing circle fails to link the knot circle twice")
    verdict(1, "borromean rings", problems,
            "aut 24, painted D4 (index 3 in S4), links S4/S4, 3 surfaces, "
            "1 knot + 2 crossing circles")


def test_acceptance_02_pretzel_chain_symmetry_table():
    problems = []
    for n in range(3, 9):
        g = gamma_pretzel(n)
        aut_p = automorphisms(g, respect_painting=True)
        if aut_p.order != 4 * n:
            problems.append(f"n={n}: painted aut order {aut_p.order} != {4 * n}")
        rep = symmetry_report(g)
        link = rep.sym_plus_link
        if (link.status, str(link.group), link.order) != ("exact", chain_link_group(n), 8 * n):
            problems.append(f"n={n}: link estimate {link}")
        if link.order != 2 * rep.aut_p_order:
            problems.append(f"n={n}: link group is not an index-2 extension")
        comp = rep.sym_plus_complement
        if n == 3:
            if (comp.status, comp.group, comp.order) != ("order_only", None, 96):
                problems.append(f"n=3: complement estimate {comp}")
        elif comp != link:
            problems.append(f"n={n}: complement estimate {comp} != link estimate")
    if automorphisms(prism(4), respect_painting=False).order != 48:
        problems.append("unpainted cube automorphism count != 48")
    verdict(2, "pretzel chains n=3..8", problems,
            "painted aut 4n, links 8n (D(4n) odd / D(2n)xZ2 even), "
            "complement order 96 at n=3 and exact beyond")


def test_acceptance_03_alternating_chain_symmetry_table():
    problems = []
    for n in range(2, 7):
        g = gamma_ochain(n)
        if g.vertex_count != 2 * n + 2 or len(g.painted) != n + 1:
            problems.append(f"n={n}: {g.vertex_count} vertices / {len(g.painted)} painted")
        aut_p = automorphisms(g, respect_painting=True)
        if aut_p.order != 4 or str(identify(aut_p)) != "Z2xZ2":
            problems.append(f"n={n}: painted aut {identify(aut_p)} of order {aut_p.order}")
        if classify_bprime(g).tag != "b_composite":
            problems.append(f"n={n}: not flagged b-composite")
        rep = symmetry_report(g)
        link, comp = rep.sym_plus_link, rep.sym_plus_complement
        if (link.status, str(link.group), link.order) != ("exact", chain_link_group(n), 8 * n):
            problems.append(f"n={n}: link estimate {link}")
        if link.order // rep.aut_p_order != 2 * n:
            problems.append(f"n={n}: expected index 2n, got {link.order // rep.aut_p_order}")
        if comp != link:
            problems.append(f"n={n}: complement estimate {comp} != link estimate")
    g2 = symmetry_report(gamma_ochain(2)).sym_plus_link
    if (str(g2.group), g2.order) != ("D4xZ2", 16):
        problems.append(f"n=2 link group {g2.group} of order {g2.order}")
    verdict(3, "alternating chains n=2..6", problems,
            "Klein painted symmetries, b-composite, links 8n at index 2n, "
            "complements exact, n=2 gives D4xZ2 of order 16")


def test_acceptance_04_wheel_expansion_counts():
    e, _rot = cycle_expand(wheel(5))
    problems = []
    if (e.vertex_count, e.edge_count, len(e.painted)) != (20, 30, 10):
        problems.append(f"size {(e.vertex_count, e.edge_count, len(e.painted))}")
    if not validate_crushtacean(e).valid:
        problems.append("expansion is not a valid crushtacean")
    ks = knot_circles(e)
    if ks.knot_circle_count != 6:
        problems.append(f"{ks.knot_circle_count} knot circles != 6")
    if ks.crossing_circle_count != 10:
        problems.append(f"{ks.crossing_circle_count} crossing circles != 10")
    if classify_bprime(e).tag != "b_prime":
        problems.append("expansion not b-prime")
    verdict(4, "five-wheel expansion", problems,
            "20 vertices / 30 edges / 10 painted, 6 knot circles, "
            "10 crossing circles, b-prime")


def test_acceptance_05_expansion_copies_seed_symmetry():
    seeds = [(f"wheel{n}", wheel(n)) for n in range(4, 9)]
    seeds += [(f"prism{n}", prism(n)) for n in range(3, 9)]
    seeds += [(f"antiprism{n}", antiprism(n)) for n in range(3, 7)]
    seeds += [("tetrahedron", tetrahedron()), ("cube", cube()),
              ("dodecahedron", dodecahedron())]
    problems = []
    for name, seed in seeds:
        want = identify(automorphisms(seed, respect_painting=False))
        expanded, _rot = cycle_expand(seed)
        got_group = automorphisms(expanded, respect_painting=True)
        got = identify(got_group)
        if got != want or got_group.order != want.order:
            problems.append(f"{name}: {got} (order {got_group.order}) != {want}")
    verdict(5, "symmetry copying", problems,
            f"painted symmetries of {len(seeds)} expansions match each "
            "seed's full symmetry group")


def test_acceptance_06_family_pipeline_hits_targets():
    targets = {
        "D5": ("wheel5", [(2, 60), (3, 180), (4, 540)]),
        "D6xZ2": ("prism6", [(1, 36), (2, 108), (3, 324)]),
        "S4xZ2": ("cube", [(1, 24), (2, 72), (3, 216)]),
        "A5xZ2": ("dodecahedron", [(1, 60), (2, 180), (3, 540)]),
    }
    problems = []
    for text, (want_seed, shape) in targets.items():
        target = GroupId.from_string(text)
        seed_name, members = family_from_target(target, 3, verify=False)
        if seed_name != want_seed:
            problems.append(f"{text}: seed {seed_name} != {want_seed}")
        if [(m.depth, m.graph.vertex_count) for m in members] != shape:
            problems.append(f"{text}: member shapes {[(m.depth, m.graph.vertex_count) for m in members]}")
        painted_counts = [len(m.graph.painted) for m in members]
        if painted_counts != sorted(set(painted_counts)):
            problems.append(f"{text}: painted counts {painted_counts} not strictly increasing")
        if not all(m.certified_not_signature for m in members):
            problems.append(f"{text}: a member lacks the not-a-signature certificate")
        for m in members:
            if not validate_crushtacean(m.graph).valid:
                problems.append(f"{text}: invalid member at depth {m.depth}")
            got = identify(automorphisms(m.graph, respect_painting=True))
            if got != target:
                problems.append(f"{text}: depth {m.depth} painted group {got}")
    verdict(6, "family pipeline", problems,
            "targets D5, D6xZ2, S4xZ2 and A5xZ2 each yield 3 certified "
            "members up to 540 vertices with the requested painted group")


def test_acceptance_07_cut_painting_parity(rng):
    corpus = [gamma_borromean()]
    corpus += [gamma_pretzel(n) for n in range(3, 7)]
    corpus += [gamma_ochain(n) for n in range(2, 6)]
    corpus += [cycle_expand(s)[0] for s in (tetrahedron(), wheel(5), prism(4))]
    corpus += [random_crushtacean(rng, rng.randrange(0, 12)) for _ in range(10)]
    problems = []
    total = 0
    for g in corpus:
        for cut in three_edge_cuts(g):
            total += 1
            if cut.painted_count not in (1, 3):
                problems.append(f"cut {cut.edges} painted {cut.painted_count}")
    verdict(7, "cut painting parity", problems,
            f"every one of {total} non-trivial 3-edge cuts across "
            f"{len(corpus)} crushtaceans is once- or thrice-painted")


def test_acceptance_08_independent_oracle_crosschecks(rng):
    problems = []

    # (a) the catalog oracle's identification, and an order histogram
    # computed with the plain-tuple permutation helpers (a separate code
    # path end to end); orders with a single catalog tag have no same-order
    # pair to confuse
    pair_count = 0
    for order in range(1, 241):
        groups = [(tag, realize(tag)) for tag in candidate_tags(order)]
        for tag, grp in groups:
            if catalog_identify(grp) != tag:
                problems.append(f"identify round-trip failed for {tag}")
        if len(groups) < 2:
            continue
        rows = [
            (tag, sorted(perm_order(p.image) for p in grp.elements))
            for tag, grp in groups
        ]
        for (t1, h1), (t2, h2) in combinations(rows, 2):
            pair_count += 1
            if h1 == h2:
                problems.append(f"histogram collision {t1} vs {t2}")

    # (b) connectivity checker vs the networkx flow-based oracle
    graphs = [random_cubic_planar(rng, rng.randrange(0, 12)) for _ in range(40)]
    graphs += [
        splice(random_cubic_planar(rng, rng.randrange(0, 6)),
               random_cubic_planar(rng, rng.randrange(0, 6)))
        for _ in range(10)
    ]
    for g in graphs:
        kappa = nx.node_connectivity(nx_graph(g))
        try:
            check_3_connected(g, planar_embed(g))
            ours = True
        except PreconditionError:
            ours = False
        if ours != (kappa >= 3):
            problems.append(f"3-connectivity disagreement (flow says {kappa})")

    # (c) taking the planar dual twice returns the painted graph
    for _ in range(10):
        g = random_crushtacean(rng, rng.randrange(0, 10))
        d1, _ = dual(g, planar_embed(g))
        d2, _ = dual(d1, planar_embed(d1))
        if find_isomorphism(g, d2, respect_painting=True) is None:
            problems.append("dual of dual lost the painted isomorphism type")
    verdict(8, "independent oracles", problems,
            f"catalog identification distinguishes all {pair_count} same-order "
            "tag pairs up to order 240; connectivity matches the flow oracle "
            "on 50 graphs; dual is an involution on 10 crushtaceans")


def test_acceptance_09_validation_gauntlet(rng):
    problems = []

    good = [gamma_borromean(), gamma_pretzel(3), gamma_pretzel(4),
            gamma_ochain(2), gamma_ochain(3), cycle_expand(wheel(5))[0]]
    good += [random_crushtacean(rng, rng.randrange(0, 10)) for _ in range(5)]
    for g in good:
        rep = validate_crushtacean(g)
        nerve = dual_nerve(g)
        if not rep.valid or nerve != (True, True):
            problems.append(f"nerve check failed on a valid crushtacean: {rep.reasons}, {nerve}")

    k33 = painted_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    petersen = painted_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                             + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
                             + [(i, i + 5) for i in range(5)])
    heawood = painted_graph(14, [(i, (i + 1) % 14) for i in range(14)]
                            + [(i, (i + 5) % 14) for i in range(0, 14, 2)])
    k4 = gamma_borromean().edges
    two_k4 = painted_graph(8, list(k4) + [(u + 4, v + 4) for u, v in k4])
    k4_and_prism = painted_graph(10, list(k4)
                                 + [(u + 4, v + 4) for u, v in prism(3).edges])
    two_prisms = painted_graph(12, list(prism(3).edges)
                               + [(u + 6, v + 6) for u, v in prism(3).edges])
    k5 = painted_graph(5, list(combinations(range(5), 2)))
    triangle = painted_graph(3, [(0, 1), (1, 2), (0, 2)])
    single_edge = painted_graph(2, [(0, 1)])
    p3 = gamma_pretzel(3)

    bad = [(k33, "nonplanar"), (petersen, "nonplanar"), (heawood, "nonplanar")]
    bad += [
        (splice(random_cubic_planar(rng, rng.randrange(0, 8)),
                random_cubic_planar(rng, rng.randrange(0, 8))),
         "not_3_connected")
        for _ in range(5)
    ]
    bad += [(two_k4, "disconnected"), (k4_and_prism, "disconnected"),
            (two_prisms, "disconnected")]
    bad += [(wheel(n), "not_cubic") for n in (4, 5, 6)]
    bad += [(k5, "not_cubic")]
    bad += [(triangle, "too_few_vertices"), (single_edge, "too_few_vertices")]
    bad += [
        (painted_graph(6, p3.edges, painted=[(0, 3)]),
         "painted_not_perfect_matching"),
        (painted_graph(8, gamma_pretzel(4).edges),
         "painted_not_perfect_matching"),
        (painted_graph(4, k4, painted=[(0, 1)]),
         "painted_not_perfect_matching"),
    ]
    assert len(bad) >= 20
    for g, reason in bad:
        rep = validate_crushtacean(g)
        if rep.valid:
            problems.append(f"mutation accepted despite expected {reason}")
        elif reason not in rep.reasons:
            problems.append(f"expected {reason}, got {rep.reasons}")
    verdict(9, "validation gauntlet", problems,
            f"nerve check passes on {len(good)} valid crushtaceans; all "
            f"{len(bad)} mutations rejected with the expected reason")
