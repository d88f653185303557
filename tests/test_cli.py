import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from crushtacean import cycle_expand, painted_graph, parse_graph, planar_embed, serialize_graph
from crushtacean.cli import main
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
from helpers import hung_blocks

SRC = Path(__file__).resolve().parents[1] / "src"
DEEP = "[" * 100000 + "]" * 100000  # nested deeper than the JSON decoder can recurse
NOT_UTF8 = b"\x80{}"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_graph(tmp_path, name, g, rot=None):
    p = tmp_path / name
    p.write_text(serialize_graph(g, rot))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    path = write_graph(tmp_path, "b.json", gamma_borromean())
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out) == {"valid": True, "reasons": []}


def test_validate_invalid_exit_code(tmp_path, capsys):
    g = painted_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [(0, 1)])
    path = write_graph(tmp_path, "bad_matching.json", g)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert json.loads(out)["reasons"] == ["painted_not_perfect_matching"]


def test_validate_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{ not json")
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("data", [DEEP.encode(), NOT_UTF8], ids=["deep", "not_utf8"])
def test_undecodable_document_exits_two(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for argv in (["validate"], ["aut"], ["classify"], ["expand"], ["render"]):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON") and err.count("\n") == 1


def test_huge_vertex_count_exits_two(tmp_path, capsys):
    doc = json.loads(serialize_graph(gamma_borromean()))
    doc["vertices"] = 2**62  # rejected before a list of that many entries is asked for
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["aut"], ["classify"], ["expand"], ["render"]):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: isolated vertex") and err.count("\n") == 1


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nope.json")
    assert code == 2
    assert "error:" in err


def test_aut_reports_group(tmp_path, capsys):
    path = write_graph(tmp_path, "b.json", gamma_borromean())
    code, out, _ = run(capsys, "aut", path, "--painted")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8
    assert doc["group_id"] == "D4"
    assert doc["painted"] is True
    assert len(doc["generators"]) >= 1


def test_aut_cap_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.json", gamma_pretzel(3))
    code, _, err = run(capsys, "aut", path, "--cap", "5")
    assert code == 3
    assert "cap" in err


def test_aut_cap_message(tmp_path, capsys):
    path = write_graph(tmp_path, "prism6.json", prism(6))
    code, out, err = run(capsys, "aut", path, "--cap", "5")
    assert (code, out, err) == (3, "", "error: automorphism count exceeded cap of 5\n")


def test_classify_single_file(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.json", gamma_pretzel(5))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["group_id"] == "D10"
    assert doc["sym_plus_link"]["order"] == 40


def test_classify_invalid_exits_one(tmp_path, capsys):
    g = painted_graph(6, [(i, j + 3) for i in range(3) for j in range(3)],
                      [(0, 3), (1, 4), (2, 5)])
    path = write_graph(tmp_path, "k33.json", g)
    code, out, _ = run(capsys, "classify", path)
    assert code == 1
    assert json.loads(out)["reasons"] == ["nonplanar"]


def test_classify_with_seed(tmp_path, capsys):
    seed_path = write_graph(tmp_path, "w5.json", wheel(5))
    code, out, _ = run(capsys, "expand", seed_path, "-o", str(tmp_path / "ex.json"))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(tmp_path / "ex.json"), "--seed", seed_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["sym_plus_link"] == {
        "status": "exact", "group": "D5", "order": 10, "citation": "Cor 1.2",
    }
    assert "provenance verified" in " ".join(doc["notes"])


def test_classify_directory_deterministic(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_graph(corpus, "a_borromean.json", gamma_borromean())
    write_graph(corpus, "b_pretzel3.json", gamma_pretzel(3))
    (corpus / "notes.txt").write_text("ignored")
    (corpus / "nested.json").mkdir()  # a directory, not a graph: skipped
    code, first, _ = run(capsys, "classify", str(corpus))
    assert code == 0
    code, second, _ = run(capsys, "classify", str(corpus))
    assert first == second
    rows = json.loads(first)
    assert [r["file"] for r in rows] == ["a_borromean.json", "b_pretzel3.json"]
    assert rows[0]["report"]["group_id"] == "D4"


def test_classify_family_directory(tmp_path, capsys):
    outdir = tmp_path / "d"
    code, _, _ = run(capsys, "family", "--group", "D5", "--count", "2", "--out", str(outdir))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(outdir))
    assert code == 0
    rows = json.loads(out)  # index.json, a crushtacean-family/1 manifest, is skipped
    assert [r["file"] for r in rows] == ["member_01.json", "member_02.json"]
    assert all(r["report"]["group_id"] == "D5" for r in rows)


def test_classify_directory_error_row(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_graph(corpus, "a_borromean.json", gamma_borromean())
    text = serialize_graph(gamma_pretzel(4))
    (corpus / "b_truncated.json").write_text(text[: len(text) // 2])
    (corpus / "c_not_utf8.json").write_bytes(NOT_UTF8)
    (corpus / "d_deep.json").write_text(DEEP)
    code, out, _ = run(capsys, "classify", str(corpus))
    assert code == 2
    good, *bad = json.loads(out)
    assert good["report"]["crushtacean_valid"] is True
    assert [row["file"] for row in bad] == ["b_truncated.json", "c_not_utf8.json", "d_deep.json"]
    assert all(set(row) == {"file", "error"} for row in bad)


def test_classify_with_rotations_never_loads_networkx(tmp_path):
    """The planarity test is the package's own: no command loads
    networkx, whether or not its input carries a rotation."""
    seed = prism(5)
    member, rot = cycle_expand(seed)
    seed_path = write_graph(tmp_path, "seed.json", seed, planar_embed(seed))
    member_path = write_graph(tmp_path, "member.json", member, rot)
    bare_seed = write_graph(tmp_path, "bare_seed.json", seed)
    bare_member = write_graph(tmp_path, "bare_member.json", member)
    out = str(tmp_path / "out")
    runs = [
        ["classify", member_path, "--seed", seed_path],
        ["classify", bare_member, "--seed", bare_seed],
        ["validate", bare_member],
        ["aut", bare_member, "--painted"],
        ["expand", bare_seed, "-o", out + ".json"],
        ["gen", "prism", "6", "-o", out + ".json"],
        ["family", "--seed", bare_seed, "--count", "1", "--out", out],
        ["family", "--group", "D5", "--count", "1", "--out", out],
        ["render", bare_member, "-o", out + ".svg"],
    ]
    script = (
        "import sys, crushtacean.cli\n"
        f"codes = [crushtacean.cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, 'networkx' in sys.modules, file=sys.stderr)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    decoder, text, reports = json.JSONDecoder(), proc.stdout, []
    for _ in range(2):  # the two classify reports come first
        report, end = decoder.raw_decode(text)
        reports.append(report["signature_screen"])
        text = text[end:].lstrip()
    assert reports == ["not_signature"] * 2
    assert proc.stderr == f"{[0] * len(runs)} False\n"


def test_expand_counts(tmp_path, capsys):
    path = write_graph(tmp_path, "w4.json", wheel(4))
    code, out, _ = run(capsys, "expand", path, "-n", "2")
    assert code == 0
    g, rot = parse_graph(out)
    assert g.vertex_count == 2 * (3 * 8)  # W4 has 8 edges; first step has 24
    assert rot is not None


def test_gen_and_parameter_errors(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "ochain", "3")
    assert code == 0
    g, rot = parse_graph(out)
    assert g.vertex_count == 8 and len(g.painted) == 4

    code, _, err = run(capsys, "gen", "pretzel")
    assert code == 2 and "parameter" in err
    code, _, err = run(capsys, "gen", "cube", "4")
    assert code == 2
    code, _, err = run(capsys, "gen", "pretzel", "2")
    assert code == 2


# the smallest parameters whose graph passes the bound of 10**5 vertices
OVERSIZED = {
    "gen wheel": (["gen", "wheel", "100000"], 100001),
    "gen prism": (["gen", "prism", "50001"], 100002),
    "gen antiprism": (["gen", "antiprism", "50001"], 100002),
    "gen pretzel": (["gen", "pretzel", "50001"], 100002),
    "gen ochain": (["gen", "ochain", "50000"], 100002),
    # the 8334-wheel's second expansion (its first is skipped) has 12 * 8334
    "family group": (["family", "--group", "D8334", "--count", "1", "--out", "fam"], 100008),
    "family count": (["family", "--group", "D5", "--count", "8", "--out", "fam"], 131220),
    # 5556-prism: 16,668 edges, then 50,004 edges and 100,008 vertices
    "expand": (["expand", "prism5556.json", "-n", "2"], 100008),
}


def run_capped(tmp_path, argv, limit=1 << 30) -> subprocess.CompletedProcess:
    """The CLI in a child limited to ``limit`` bytes (1 GiB) of address
    space, so that a build too large for it fails the test instead of
    exhausting memory."""
    script = (
        f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        f"import crushtacean.cli; raise SystemExit(crushtacean.cli.main({argv!r}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_parameters_exit_two(tmp_path, case):
    """Refused before anything that large is built."""
    from crushtacean.families import MAX_VERTICES

    argv, vertices = OVERSIZED[case]
    assert MAX_VERTICES == 10**5 < vertices
    if case == "expand":
        write_graph(tmp_path, argv[1], prism(5556))
    proc = run_capped(tmp_path, argv)
    want = f"error: the graph would have {vertices} vertices, more than {MAX_VERTICES}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)


def test_gen_wheel_with_a_wide_hub(tmp_path):
    """The 3-connectivity check of the embedding takes O(E) space whatever
    the degrees: the 20000-wheel's hub meets 20000 faces (2 * 10**8 pairs
    of them)."""
    proc = run_capped(tmp_path, ["gen", "wheel", "20000", "-o", "w.json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    g, _rot = parse_graph((tmp_path / "w.json").read_text())
    assert g.degree(20000) == 20000


@pytest.mark.parametrize("command, make", [("aut", prism), ("classify", gamma_pretzel)])
def test_large_groups_fit_in_128_mib(tmp_path, command, make):
    """The 8000 automorphisms of the 2000-prism and the 8000 painted ones
    of the 2000-link pretzel chain are read with a few vertex images alive
    at once, not half of them."""
    path = write_graph(tmp_path, "g.json", make(2000))
    proc = run_capped(tmp_path, [command, path], limit=128 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["group_id"] == "D2000xZ2"
    assert doc["order" if command == "aut" else "aut_p_order"] == 8000


def test_memory_error_exits_two(tmp_path, capsys, monkeypatch):
    """Running out of memory is one error line and exit 2, not a traceback
    with exit 1, which means a negative verdict."""

    def exhausted(*_args, **_kwargs):
        raise MemoryError

    path = write_graph(tmp_path, "b.json", gamma_borromean())
    monkeypatch.setattr("crushtacean.cli.automorphisms", exhausted)
    code, out, err = run(capsys, "aut", path)
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_classify_refuses_a_seed_of_the_wrong_size_before_expanding_it(tmp_path):
    """A seed's expansion has 2E vertices and 3E edges; the sizes are
    compared first, so a seed far larger than the graph is never expanded
    (this 200,000-vertex prism's expansion would not fit in 1 GiB)."""
    n = 100000
    rim = [(i, (i + 1) % n) for i in range(n)]
    edges = rim + [(n + u, n + v) for u, v in rim] + [(i, n + i) for i in range(n)]
    write_graph(tmp_path, "seed.json", painted_graph(2 * n, edges))
    write_graph(tmp_path, "b.json", gamma_borromean())
    proc = run_capped(tmp_path, ["classify", "b.json", "--seed", "seed.json"])
    want = "error: expansion_seed does not expand to the given graph\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)


@pytest.mark.parametrize(
    "seed,member,message",
    [
        (painted_graph(6, [(i, j + 3) for i in range(3) for j in range(3)]), prism(3), "graph is not planar"),
        (
            painted_graph(6, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, 6)]),  # K2,4, hubs joined
            prism(3),
            "graph is not 3-connected: two faces meet beyond one vertex or edge",
        ),
        (antiprism(3), cube(), "expansion_seed does not expand to the given graph"),
        (wheel(6), cube(), "expansion_seed does not expand to the given graph"),
    ],
    ids=["nonplanar", "not_3_connected", "antiprism3", "wheel6"],
)
def test_classify_refuses_a_seed_of_the_expansion_size(tmp_path, capsys, seed, member, message):
    """A seed with as many edges as the member's seed exits 2 with one
    error line, whether it cannot be embedded or does not match."""
    seed_path = write_graph(tmp_path, "seed.json", seed)
    path = write_graph(tmp_path, "member.json", *cycle_expand(member))
    code, out, err = run(capsys, "classify", path, "--seed", seed_path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_expand_edgeless_graph_with_a_huge_count_exits_two(tmp_path):
    (tmp_path / "one.json").write_text(
        '{"format": "painted-graph/1", "vertices": 1, "edges": [], "painted": []}'
    )
    proc = run_capped(tmp_path, ["expand", "one.json", "-n", str(10**12)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")


def test_expand_count_below_zero_exits_two(tmp_path, capsys):
    path = write_graph(tmp_path, "w4.json", wheel(4))
    code, out, err = run(capsys, "expand", path, "-n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: the number of expansions must be at least 0, got -1\n"
    code, out, _ = run(capsys, "expand", path, "-n", "0")
    assert code == 0 and parse_graph(out)[0] == wheel(4)


def test_gen_reads_back(capsys):
    for name, param in [("borromean", None), ("wheel", 6), ("dodecahedron", None)]:
        argv = ["gen", name] + ([str(param)] if param else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        g, rot = parse_graph(out)
        assert rot is not None


def test_family_writes_members_and_manifest(tmp_path, capsys):
    outdir = tmp_path / "fam"
    code, out, _ = run(capsys, "family", "--group", "D5", "--count", "1",
                       "--out", str(outdir))
    assert code == 0
    manifest = json.loads((outdir / "index.json").read_text())
    assert manifest == json.loads(out)
    assert manifest["seed"] == "wheel5"
    assert manifest["group"] == "D5"
    (row,) = manifest["members"]
    assert row["certified_not_signature"] is True
    g, rot = parse_graph((outdir / row["file"]).read_text())
    assert g.vertex_count == row["vertices"]
    assert rot is not None


def test_family_catalog_miss(tmp_path, capsys):
    code, _, err = run(capsys, "family", "--group", "Z9", "--count", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "no catalog seed" in err


def test_family_from_seed_file(tmp_path, capsys):
    path = write_graph(tmp_path, "prism6.json", gamma_pretzel(6))
    outdir = tmp_path / "fam6"
    code, out, _ = run(capsys, "family", "--seed", path, "--count", "1",
                       "--out", str(outdir))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["group"] == "D6xZ2"
    assert manifest["members"][0]["depth"] == 1


def test_commands_run_without_numpy(tmp_path):
    """numpy is a test oracle, not a runtime dependency: with its import
    blocked, drawing, classifying and building still succeed."""
    member, rot = cycle_expand(prism(5))
    member_path = write_graph(tmp_path, "member.json", member, rot)
    bare_member = write_graph(tmp_path, "bare_member.json", member)
    out = str(tmp_path / "out")
    runs = [
        ["render", bare_member, "-o", out + ".svg"],
        ["render", member_path, "--dot", "-o", out + ".dot"],
        ["classify", member_path],
        ["aut", bare_member, "--painted"],
        ["family", "--group", "D5", "--count", "1", "--out", out],
    ]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any later import of numpy raises ImportError\n"
        "import crushtacean.cli\n"
        f"print([crushtacean.cli.main(argv) for argv in {runs!r}], file=sys.stderr)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{[0] * len(runs)}\n"
    assert Path(out + ".svg").read_text().count("<line ") == member.edge_count


def test_render_svg_and_dot(tmp_path, capsys):
    path = write_graph(tmp_path, "b.json", gamma_borromean())
    svg_path = tmp_path / "b.svg"
    code, _, _ = run(capsys, "render", path, "-o", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<?xml")
    code, out, _ = run(capsys, "render", path, "--dot")
    assert code == 0
    assert out.startswith("graph crushtacean {")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(gamma_borromean())))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_non_sphere_rotation_exits_two(tmp_path, capsys):
    g = gamma_borromean()
    doc = json.loads(serialize_graph(g, planar_embed(g)))
    doc["rotation"][0].reverse()  # K4 on the torus: two faces instead of four
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(doc))
    for argv in (["expand", str(path)], ["render", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


@pytest.mark.parametrize("block", ["triangle", "diamond"])
def test_seed_not_3_connected_exits_two(tmp_path, capsys, block):
    path = write_graph(tmp_path, f"hung_{block}.json", hung_blocks(block))
    for argv in (
        ["expand", path],
        ["family", "--seed", path, "--count", "1", "--out", str(tmp_path / "fam")],
        ["render", path],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


JUNK = [None, True, "0", 1.5, -1, 10**6, [], {}, [0], [0, 1, 2]]


def mutate(rng, doc: dict, kind: int) -> None:
    """Mutation ``kind`` of a painted-graph/1 document, in place: 0-4 the
    vertex count and the edges, 5-6 the painting, 7-9 the rotation, 10-11
    whole fields (kept last, since they may remove what the others read)."""
    if kind == 10:
        del doc[rng.choice(sorted(doc))]
        return
    if kind == 11:
        doc[rng.choice(sorted(doc))] = rng.choice(JUNK)
        return
    edges, painted, rows = doc["edges"], doc["painted"], doc["rotation"]
    i, j, v = rng.randrange(len(edges)), rng.randrange(len(edges)), rng.randrange(len(rows))
    if kind == 0:
        doc["vertices"] += rng.choice((-2, -1, 1, 2))
    elif kind == 1:  # trade an end of two edges
        edges[i][0], edges[j][1] = edges[j][1], edges[i][0]
    elif kind == 2:
        del edges[i]
    elif kind == 3:  # a repeated edge, or one between two ends already in use
        edges.append(list(edges[i]) if rng.random() < 0.5 else [edges[i][0], edges[j][1]])
    elif kind == 4:
        edges[i] = rng.choice(JUNK)
    elif kind == 5 and painted and rng.random() < 0.5:  # drop a painted edge
        del painted[rng.randrange(len(painted))]
    elif kind == 5:  # paint another
        painted.append(i)
    elif kind == 6:
        painted.append(rng.choice([*painted[:1], len(edges), *JUNK]))
    elif kind == 7:
        rows[v].reverse()
    elif kind == 8:
        rows[v][rng.randrange(len(rows[v]))] = rng.choice([i, *JUNK])
    else:  # trade two rows, or lose one
        w = rng.randrange(len(rows))
        rows[v], rows[w] = rows[w], rows[v]
        if rng.random() < 0.5:
            del rows[v]


def mutated_documents(seed: int, count: int) -> list[str]:
    """``count`` seeded documents: chains, solids and expansions, each with
    its rotation, under none, one or two mutations."""
    graphs = [gamma_borromean(), tetrahedron(), cube(), dodecahedron(), wheel(5), prism(5), antiprism(4)]
    graphs += [gamma_pretzel(4), gamma_pretzel(5), gamma_ochain(2), gamma_ochain(4)]
    graphs += [cycle_expand(g)[0] for g in (tetrahedron(), prism(3), wheel(4))]
    bases = [serialize_graph(g, g.embedding.rotation) for g in graphs]
    rng, docs = random.Random(seed), []
    for _ in range(count):
        doc = json.loads(rng.choice(bases))
        for kind in sorted(rng.sample(range(12), rng.choice((0, 1, 1, 2)))):
            mutate(rng, doc, kind)
        docs.append(json.dumps(doc))
    return docs


CONTRACT_COMMANDS = (["validate"], ["aut"], ["aut", "--painted"], ["classify"], ["expand"], ["render"])


def test_mutated_documents_keep_the_exit_code_contract(capsys, monkeypatch):
    """Every input ends in an answer (exit 0), a negative verdict (exit 1,
    from validate and classify only) or one error line (exit 2): never in
    an exception out of ``main``."""
    problems, codes = [], Counter()
    for n, text in enumerate(mutated_documents(8, 200)):
        for argv in CONTRACT_COMMANDS:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            try:
                code, _out, err = run(capsys, *argv, "-")
            except (Exception, SystemExit) as exc:  # anything that escapes is the failure
                problems.append((n, argv, f"raised {exc!r}"))
                continue
            codes[code] += 1
            ok = code in (0, 2) or (code == 1 and argv[0] in ("validate", "classify"))
            if not ok or (code == 2 and not (err.startswith("error: ") and err.count("\n") == 1)):
                problems.append((n, argv, code, err))
    assert problems == []
    assert codes[0] and codes[1] and codes[2]  # the corpus reaches every outcome
