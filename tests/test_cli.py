import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crushtacean import cycle_expand, parse_graph, planar_embed, serialize_graph
from crushtacean.cli import main
from crushtacean.families import gamma_borromean, gamma_pretzel, prism, wheel
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
    from crushtacean import painted_graph

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


def test_classify_single_file(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.json", gamma_pretzel(5))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["group_id"] == "D10"
    assert doc["sym_plus_link"]["order"] == 40


def test_classify_invalid_exits_one(tmp_path, capsys):
    from crushtacean import painted_graph

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
