"""Reference checker for the benchmark; runs outside the timed phase.

Nothing here imports crushtacean.  Expected answers come from:

- closed forms written from the README and the mathematics of the named
  graphs (prism, antiprism, wheel, chain families, Borromean profile, the
  solids and their cycle expansions);
- networkx oracles: VF2 automorphism counts on small graphs, planarity and
  node connectivity, checked on the program's input and output text;
- the README exit-code contract (0, 1, 2, 3; a traceback always fails);
- for classify-large, digests of each member's `crushtacean-report/1` JSON
  recorded at the commit that introduced the benchmark
  (``reference/classify_large.json``).

Every check returns a list of problems; an empty list means the answer is
right.  A check never raises: an unexpected error becomes a problem.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

REFERENCE = Path(__file__).parent / "reference" / "classify_large.json"

# VF2 cost grows with |Aut| times the graph size, and explodes around a
# high-degree hub (3 s for the 15-wheel); past these sizes graphs are checked
# by closed form and by verifying the returned generators instead.
VF2_MAX_CUBIC = 32
VF2_MAX_ANY = 12

EXIT_CODES = (0, 1, 2, 3)
README_REASONS = (
    "too_few_vertices",
    "not_cubic",
    "disconnected",
    "nonplanar",
    "not_3_connected",
    "painted_not_perfect_matching",
)
_EXCEPTIONAL = {"A4": 12, "S4": 24, "A5": 60, "A4xZ2": 24, "S4xZ2": 48, "A5xZ2": 120}


def guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a checker bug or an unreadable answer is a failure
        return [f"checker error: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# graphs from painted-graph/1 text
# ---------------------------------------------------------------------------


class Doc:
    """A painted-graph/1 document read without the program under test."""

    def __init__(self, text: str) -> None:
        d = json.loads(text)
        self.n = d["vertices"]
        self.edges = [tuple(e) for e in d["edges"]]
        self.painted = {frozenset(self.edges[i]) for i in d["painted"]}
        self.rotation = d.get("rotation")
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for u, v in self.edges:
            g.add_edge(u, v, p=frozenset((u, v)) in self.painted)
        self.g = g

    @property
    def has_painting(self) -> bool:
        return bool(self.painted)

    @property
    def vf2_cheap(self) -> bool:
        cubic = all(deg <= 3 for _v, deg in self.g.degree())
        return self.n <= (VF2_MAX_CUBIC if cubic else VF2_MAX_ANY)


@lru_cache(maxsize=None)
def doc(text: str) -> Doc:
    return Doc(text)


@lru_cache(maxsize=None)
def vf2_count(text: str, painted: bool) -> int:
    g = doc(text).g
    match = (lambda a, b: a["p"] == b["p"]) if painted else None
    return sum(1 for _ in GraphMatcher(g, g, edge_match=match).isomorphisms_iter())


@lru_cache(maxsize=None)
def reasons(text: str) -> tuple[str, ...]:
    """Admission reasons by the README definitions, in README order."""
    d = doc(text)
    g = d.g
    out = set()
    cubic = all(deg == 3 for _v, deg in g.degree())
    connected = nx.is_connected(g)
    if d.n < 4:
        out.add("too_few_vertices")
    if not cubic:
        out.add("not_cubic")
    if not connected:
        out.add("disconnected")
    elif cubic and d.n >= 4:
        if not nx.check_planarity(g)[0]:
            out.add("nonplanar")
        elif nx.node_connectivity(g) < 3:
            out.add("not_3_connected")
    ends = [v for e in d.painted for v in e]
    if len(ends) != len(set(ends)) or len(ends) != d.n:
        out.add("painted_not_perfect_matching")
    return tuple(r for r in README_REASONS if r in out)


def sphere_faces_ok(d: Doc) -> bool:
    """The rotation lists each vertex's edges and traces V - E + 2 faces."""
    rot = d.rotation
    if rot is None or len(rot) != d.n:
        return False
    nxt = {}
    for v, row in enumerate(rot):
        if sorted(row) != sorted(i for i, e in enumerate(d.edges) if v in e):
            return False
        for k, e in enumerate(row):
            nxt[(v, e)] = row[(k + 1) % len(row)]
    seen, faces = set(), 0
    for e, (a, b) in enumerate(d.edges):
        for tail in (a, b):
            if (tail, e) in seen:
                continue
            faces += 1
            u, x = tail, e
            while (u, x) not in seen:
                seen.add((u, x))
                p, q = d.edges[x]
                w = q if u == p else p
                u, x = w, nxt[(w, x)]
    return faces == len(d.edges) - d.n + 2


# ---------------------------------------------------------------------------
# group closed forms
# ---------------------------------------------------------------------------


def tag_order(tag: str) -> int | None:
    """Order of a catalog tag string as the README writes them."""
    if tag in _EXCEPTIONAL:
        return _EXCEPTIONAL[tag]
    if tag == "Z2xZ2":
        return 4
    m = re.fullmatch(r"([ZD])(\d+)(xZ2)?", tag)
    if m is None:
        return None
    k = int(m.group(2)) * (2 if m.group(1) == "D" else 1)
    return 2 * k if m.group(3) else k


def dihedral_x_z2(n: int) -> str:
    """D_n x Z2 under the catalog's folding: D(2n) when n is odd."""
    return f"D{2 * n}" if n % 2 else f"D{n}xZ2"


def solid_group(kind: str, n: int | None) -> str:
    """Full automorphism group of an unpainted seed graph."""
    if kind == "tetrahedron" or (kind == "wheel" and n == 3):
        return "S4"
    if kind == "cube" or (kind in ("prism", "gamma_pretzel") and n == 4):
        return "S4xZ2"
    if kind == "antiprism" and n == 3:  # the octahedron
        return "S4xZ2"
    if kind == "dodecahedron":
        return "A5xZ2"
    if kind in ("prism", "gamma_pretzel"):
        return dihedral_x_z2(n)  # n = 3 gives D6, the order-12 group
    if kind == "antiprism":
        return f"D{2 * n}"
    if kind == "wheel":
        return f"D{n}"
    raise ValueError(f"no closed form for {kind}")


def painted_group(meta: dict) -> str | None:
    """Closed-form Aut_p of a painted input, when one is known."""
    kind, n = meta.get("kind", meta.get("family")), meta.get("n")
    if kind == "gamma_pretzel" or kind == "pretzel":
        return "D4xZ2" if n == 4 else dihedral_x_z2(n)
    if kind == "borromean":
        return "D4"
    if kind == "expansion":  # expansion copies the seed's group
        return solid_group(meta["seed"], n)
    if kind in ("prism", "antiprism", "wheel", "tetrahedron", "cube", "dodecahedron"):
        return solid_group(kind, n)  # unpainted: Aut_p = Aut
    return None


def full_group(meta: dict) -> str | None:
    kind, n = meta.get("kind", meta.get("family")), meta.get("n")
    if kind in ("gamma_pretzel", "pretzel"):
        return solid_group("prism", n)
    if kind == "borromean":
        return "S4"
    return painted_group(meta)


def chain_graph(kind: str, n: int) -> nx.Graph:
    """The pretzel chain (n-prism, rungs painted) or the alternating chain
    (cut the top and bottom edge of one square face of that prism, fuse each
    side's loose ends into a new vertex, paint the edge joining the two)."""
    if kind == "pretzel":
        top = [(i, (i + 1) % n) for i in range(n)]
    else:  # the top n-cycle without its edge 0-1 (for n = 2, one of two)
        top = [(i, i + 1) for i in range(1, n - 1)] + [(n - 1, 0)]
    g = nx.Graph()
    g.add_edges_from(top + [(n + u, n + v) for u, v in top], p=False)
    g.add_edges_from(((i, n + i) for i in range(n)), p=True)
    if kind == "ochain":
        x, y = 2 * n, 2 * n + 1
        g.add_edges_from([(0, x), (n, x), (1, y), (n + 1, y)], p=False)
        g.add_edge(x, y, p=True)
    return g


def chain_kind(text: str) -> tuple[str, int] | None:
    """Which chain family a painted graph belongs to, if any."""
    d = doc(text)
    for kind, n in (("pretzel", d.n // 2), ("ochain", d.n // 2 - 1)):
        if n < (3 if kind == "pretzel" else 2) or d.n % 2:
            continue
        c = chain_graph(kind, n)
        if nx.could_be_isomorphic(d.g, c) and nx.is_isomorphic(
            d.g, c, edge_match=lambda a, b: a["p"] == b["p"]
        ):
            return kind, n
    return None


def chain_group(n: int) -> str:
    """Link symmetry group of either chain family at n: order 8n."""
    return f"D{4 * n}" if n % 2 else f"D{2 * n}xZ2"


def check_generators(d: Doc, gens: list, painted: bool, order: int) -> list[str]:
    """Each generator preserves the edges (and painting); together they
    generate a group of the claimed order."""
    edges = {frozenset(e) for e in d.edges}
    for p in gens:
        if sorted(p) != list(range(d.n)):
            return ["a generator is not a permutation"]
        for u, v in d.edges:
            image = frozenset((p[u], p[v]))
            if image not in edges:
                return ["a generator does not preserve the edges"]
            if painted and (frozenset((u, v)) in d.painted) != (image in d.painted):
                return ["a generator does not preserve the painting"]
    ident = tuple(range(d.n))
    seen, frontier = {ident}, [ident]
    while frontier and len(seen) <= order:
        nxt = []
        for x in frontier:
            for p in gens:
                y = tuple(p[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(seen) != order:
        return [f"generators give a group of order {len(seen)}, answer says {order}"]
    return []


def check_group(text: str, meta: dict, painted: bool, order: int, tag: str | None) -> list[str]:
    """The order (and catalog tag, when given) of Aut or Aut_p of a graph."""
    problems = []
    want = painted_group(meta) if painted else full_group(meta)
    if tag is not None:
        if tag_order(tag) != order:
            problems.append(f"group_id {tag} does not have order {order}")
        if want is not None and tag != want:
            problems.append(f"group_id {tag}, expected {want}")
    if want is not None and tag_order(want) != order:
        problems.append(f"order {order}, expected {tag_order(want)}")
    d = doc(text)
    if d.vf2_cheap:
        count = vf2_count(text, painted and d.has_painting)
        if count != order:
            problems.append(f"order {order}, VF2 counts {count}")
    return problems


# ---------------------------------------------------------------------------
# classify-large and aut-symmetric (in-process answers)
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_classify_large(op: dict, answer: dict, reference: dict) -> list[str]:
    if "error" in answer:
        return ["traceback: " + answer["error"].strip().splitlines()[-1]]
    problems = []
    want = reference.get(op["id"])
    if want is None:
        problems.append(f"no recorded digest for {op['id']}")
    elif answer["digest"] != want:
        problems.append("report JSON differs from the recorded digest")
    r, target = answer["report"], op["target"]
    if r["aut_p_order"] != tag_order(target) or r["group_id"] != target:
        problems.append(f"painted group {r['group_id']}/{r['aut_p_order']}, expected {target}")
    if r["b_prime"]["tag"] != "b_prime" or r["signature_screen"] != "not_signature":
        problems.append("family member not b-prime with a not-signature certificate")
    for key in ("sym_plus_link", "sym_plus_complement"):
        est = r[key]
        if (est["status"], est["group"], est["order"]) != ("exact", target, tag_order(target)):
            problems.append(f"{key} {est}, expected exact {target}")
    return problems


def check_aut(doc_in: dict, op: dict, answer: dict) -> list[str]:
    if "error" in answer:
        return ["traceback: " + answer["error"].strip().splitlines()[-1]]
    text = doc_in["graphs"][op["graph"]]
    meta = doc_in["meta"][op["graph"]]
    problems = check_group(text, meta, op["painted"], answer["order"], answer["group_id"])
    return problems + check_generators(doc(text), answer["generators"], op["painted"], answer["order"])


# ---------------------------------------------------------------------------
# cli-mixed (one subprocess per request)
# ---------------------------------------------------------------------------


def check_request(argv: list[str], res: dict, files: dict, meta: dict, outdir: Path) -> list[str]:
    """res holds the request's exit code, stdout and stderr."""
    code, out, err = res["code"], res["stdout"], res["stderr"]
    if "Traceback (most recent call last)" in err:
        return ["traceback: " + err.strip().splitlines()[-1]]
    if code not in EXIT_CODES:
        return [f"exit code {code} is outside the README contract"]
    cmd = argv[0]
    if cmd in ("gen", "family"):
        return _CHECKS[cmd](argv, code, out, outdir)
    name = argv[1]
    if meta[name]["kind"] == "malformed":
        ok = code == 2 and err.startswith("error:") and not out
        return [] if ok else [f"malformed input: exit {code}, expected 2 with a message"]
    return _CHECKS[cmd](argv, code, out, files, meta)


def _validate(argv, code, out, files, meta):
    want = list(reasons(files[argv[1]]))
    got = json.loads(out)
    if got != {"valid": not want, "reasons": want} or code != (1 if want else 0):
        return [f"validate gave {got} exit {code}, expected reasons {want}"]
    return []


def _classify(argv, code, out, files, meta):
    name = argv[1]
    text, m = files[name], meta[name]
    want = list(reasons(text))
    r = json.loads(out)
    if code != (1 if want else 0) or r["crushtacean_valid"] != (not want) or r["reasons"] != want:
        return [f"classify verdict {r['crushtacean_valid']} {r['reasons']} exit {code}, expected {want}"]
    d = doc(text)
    sizes = (r["vertices"], r["edges"], r["painted"])
    if sizes != (d.n, len(d.edges), len(d.painted)):
        return [f"sizes {sizes} do not match the input"]
    if want:
        return []
    problems = check_group(text, m, False, r["aut_order"], None)
    problems += check_group(text, m, True, r["aut_p_order"], r["group_id"])
    link, comp = r["sym_plus_link"], r["sym_plus_complement"]
    kind, n = m["kind"], m.get("n")
    if kind == "random":  # a small random crushtacean can be a chain
        kind, n = chain_kind(text) or (kind, n)
    if kind in ("pretzel", "ochain"):
        if (r["reflection"]["tag"], r["reflection"]["surface_count"]) != ({"pretzel": "pretzel", "ochain": "o_chain"}[kind], 2):
            problems.append(f"reflection {r['reflection']}, expected the {kind} family")
        if (link["status"], link["group"], link["order"]) != ("exact", chain_group(n), 8 * n):
            problems.append(f"link {link}, expected exact {chain_group(n)}")
        if kind == "pretzel" and n == 3:
            if (comp["status"], comp["order"]) != ("order_only", 96):
                problems.append(f"complement {comp}, expected order 96")
        elif (comp["status"], comp["group"], comp["order"]) != ("exact", chain_group(n), 8 * n):
            problems.append(f"complement {comp}, expected exact {chain_group(n)}")
    elif kind == "borromean":
        want_est = {"status": "exact", "group": "S4", "order": 24}
        for est in (link, comp):
            if {k: est[k] for k in want_est} != want_est:
                problems.append(f"Borromean estimate {est}, expected exact S4")
        if r["b_prime"]["tag"] != "borromean_special" or r["reflection"]["surface_count"] != 3:
            problems.append("Borromean profile not recognized")
    elif kind == "expansion":
        g = solid_group(m["seed"], n)
        if r["b_prime"]["tag"] != "b_prime" or (link["status"], link["group"]) != ("exact", g):
            problems.append(f"expansion of {m['seed']}: link {link}, expected exact {g}")
        if "--seed" in argv:
            if r["signature_screen"] != "not_signature" or (comp["status"], comp["group"]) != ("exact", g):
                problems.append(f"with provenance: screen {r['signature_screen']}, complement {comp}")
        elif comp["status"] != "unknown":
            problems.append(f"without provenance the complement is {comp}, expected unknown")
    elif link["order"] != r["aut_p_order"]:
        problems.append(f"link order {link['order']} differs from |Aut_p| {r['aut_p_order']}")
    return problems


def _aut(argv, code, out, files, meta):
    name, painted = argv[1], "--painted" in argv
    r = json.loads(out)
    if code != 0 or r["painted"] != painted:
        return [f"aut exit {code}, painted flag {r.get('painted')}"]
    problems = check_group(files[name], meta[name], painted, r["order"], r["group_id"])
    return problems + check_generators(doc(files[name]), r["generators"], painted, r["order"])


def crushtacean_problems(text: str, what: str) -> list[str]:
    bad = reasons(text)
    if bad:
        return [f"{what} is not a crushtacean: {list(bad)}"]
    if not sphere_faces_ok(doc(text)):
        return [f"{what} rotation is not a sphere embedding"]
    return []


def _expand(argv, code, out, files, meta):
    if code != 0:
        return [f"expand exit {code}"]
    d_in = doc(files[argv[1]])
    edges = len(d_in.edges)
    n_out = 2 * edges
    for _ in range(int(argv[argv.index("-n") + 1]) - 1):
        edges, n_out = 3 * edges, 6 * edges
    d = doc(out)
    if (d.n, len(d.edges), len(d.painted)) != (n_out, 3 * n_out // 2, n_out // 2):
        return [f"expansion has {d.n} vertices, expected {n_out}"]
    return crushtacean_problems(out, "expansion")


_GEN_SIZES = {  # name -> (vertices, edges, painted) as functions of n
    "borromean": lambda n: (4, 6, 2),
    "tetrahedron": lambda n: (4, 6, 0),
    "cube": lambda n: (8, 12, 0),
    "dodecahedron": lambda n: (20, 30, 0),
    "pretzel": lambda n: (2 * n, 3 * n, n),
    "ochain": lambda n: (2 * n + 2, 3 * n + 3, n + 1),
    "wheel": lambda n: (n + 1, 2 * n, 0),
    "prism": lambda n: (2 * n, 3 * n, 0),
    "antiprism": lambda n: (2 * n, 4 * n, 0),
}


def _gen(argv, code, out, outdir):
    if code != 0:
        return [f"gen exit {code}"]
    name = argv[1]
    n = int(argv[2]) if len(argv) > 2 else None
    d = doc(out)
    want = _GEN_SIZES[name](n)
    if (d.n, len(d.edges), len(d.painted)) != want:
        return [f"gen {name} sizes {(d.n, len(d.edges), len(d.painted))}, expected {want}"]
    if name in ("borromean", "pretzel", "ochain"):
        return crushtacean_problems(out, f"gen {name}")
    if not nx.check_planarity(d.g)[0] or not sphere_faces_ok(d):
        return [f"gen {name} is not a sphere embedding"]
    return []


def _family(argv, code, out, outdir):
    if code != 0:
        return [f"family exit {code}"]
    target = argv[argv.index("--group") + 1]
    manifest = json.loads(out)
    if manifest["group"] != target or manifest["count"] != 1 or len(manifest["members"]) != 1:
        return [f"family manifest {manifest['group']} x{manifest['count']}, expected {target} x1"]
    row = manifest["members"][0]
    text = (outdir / argv[argv.index("--out") + 1] / row["file"]).read_text()
    d = doc(text)
    if (d.n, len(d.edges), len(d.painted)) != (row["vertices"], row["edges"], row["painted"]):
        return ["family member file does not match its manifest row"]
    problems = crushtacean_problems(text, "family member")
    if not problems and d.vf2_cheap and vf2_count(text, True) != tag_order(target):
        problems.append(f"family member Aut_p has order {vf2_count(text, True)}, target {target}")
    return problems


def _render(argv, code, out, files, meta):
    if code != 0:
        return [f"render exit {code}"]
    d = doc(files[argv[1]])
    if "--dot" in argv:
        ok = out.startswith("graph ") and out.count(" -- ") == len(d.edges)
    else:
        ok = (
            out.startswith("<?xml")
            and out.count("<line ") == len(d.edges)
            and out.count("<circle ") == d.n
            and "nan" not in out
        )
    return [] if ok else ["drawing does not show every vertex and edge"]


_CHECKS = {
    "validate": _validate,
    "classify": _classify,
    "aut": _aut,
    "expand": _expand,
    "gen": _gen,
    "family": _family,
    "render": _render,
}


def check_probe(argv: list[str], res: dict, outdir: Path) -> list[str]:
    """A known-bad input must end in a typed error (exit 2, no traceback) or
    in output that is a crushtacean."""
    code, out, err = res["code"], res["stdout"], res["stderr"]
    if "Traceback (most recent call last)" in err:
        return ["traceback: " + err.strip().splitlines()[-1]]
    if code == 2 and err.startswith("error:"):
        return []
    if code != 0:
        return [f"exit {code}"]
    if argv[0] == "expand":
        return crushtacean_problems(out, "expansion")
    manifest = json.loads(out)
    problems = []
    for row in manifest["members"]:
        text = (outdir / argv[argv.index("--out") + 1] / row["file"]).read_text()
        problems += crushtacean_problems(text, "family member")
    return problems
