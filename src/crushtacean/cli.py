"""Command-line front end.

Exit codes: 0 success, 1 validation verdict false, 2 unusable input
(parse errors, IO failures, unknown catalog targets, bad parameters, out
of memory), 3 search cap exceeded.  Results go to stdout as JSON (or
SVG/DOT for render); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .automorphism import automorphisms
from .classify import symmetry_report, validate_crushtacean
from .errors import CapExceededError, CrushtaceanError, GraphFormatError
from .families import (
    antiprism,
    cube,
    cycle_expand,
    dodecahedron,
    family_from_target,
    gamma_borromean,
    gamma_ochain,
    gamma_pretzel,
    generate_family,
    prism,
    require_expansions,
    tetrahedron,
    wheel,
)
from .graphs import GRAPH_FORMAT, PaintedGraph, Rotation, parse_graph, serialize_graph
from .groups import DEFAULT_CAP, GroupId, identify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_graph(path: str) -> tuple[PaintedGraph, Rotation | None]:
    data = sys.stdin.read() if path == "-" else Path(path).read_bytes()
    return parse_graph(data)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _print_json(doc: object) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    g, _rot = _read_graph(args.graph)
    report = validate_crushtacean(g)
    _print_json({"valid": report.valid, "reasons": list(report.reasons)})
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_aut(args: argparse.Namespace) -> int:
    g, _rot = _read_graph(args.graph)
    grp = automorphisms(g, respect_painting=args.painted, cap=args.cap)
    gid = identify(grp)
    _print_json(
        {
            "painted": args.painted,
            "order": grp.order,
            "group_id": str(gid),
            "group_alias": gid.geometric_alias(),
            "generators": [list(p.image) for p in grp.generators],
        }
    )
    return EXIT_OK


def _corpus_row(f: Path) -> dict | None:
    """A corpus file's report row, an error row when it does not parse, or
    None for JSON in another format (such as a family's index.json)."""
    data = f.read_bytes()
    try:
        g, _rot = parse_graph(data)
    except GraphFormatError as exc:
        try:
            fmt = json.loads(data).get("format")
        except (ValueError, RecursionError, AttributeError):
            fmt = None
        if isinstance(fmt, str) and fmt != GRAPH_FORMAT:
            return None
        return {"file": f.name, "error": str(exc)}
    return {"file": f.name, "report": symmetry_report(g).to_json_dict()}


def cmd_classify(args: argparse.Namespace) -> int:
    path = Path(args.graph)
    if path.is_dir():
        if args.seed is not None:
            raise CrushtaceanError("--seed applies to a single graph, not a corpus")
        files = sorted(p for p in path.iterdir() if p.suffix == ".json" and p.is_file())
        rows = [row for row in map(_corpus_row, files) if row is not None]
        _print_json(rows)
        return EXIT_INPUT if any("error" in row for row in rows) else EXIT_OK
    g, _rot = _read_graph(args.graph)
    seed = None
    if args.seed is not None:
        seed, _srot = _read_graph(args.seed)
    report = symmetry_report(g, expansion_seed=seed)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.crushtacean_valid else EXIT_INVALID


def cmd_expand(args: argparse.Namespace) -> int:
    g, rot = _read_graph(args.graph)
    require_expansions(g, args.count)
    for _ in range(args.count):
        g, rot = cycle_expand(g)
    _emit(serialize_graph(g, rot), args.out)
    return EXIT_OK


_GENERATORS = {
    "borromean": (gamma_borromean, False),
    "pretzel": (gamma_pretzel, True),
    "ochain": (gamma_ochain, True),
    "wheel": (wheel, True),
    "prism": (prism, True),
    "antiprism": (antiprism, True),
    "tetrahedron": (tetrahedron, False),
    "cube": (cube, False),
    "dodecahedron": (dodecahedron, False),
}


def cmd_gen(args: argparse.Namespace) -> int:
    make, wants_param = _GENERATORS[args.name]
    if wants_param and args.param is None:
        raise CrushtaceanError(f"generator '{args.name}' requires a size parameter")
    if not wants_param and args.param is not None:
        raise CrushtaceanError(f"generator '{args.name}' takes no parameter")
    g = make(args.param) if wants_param else make()
    _emit(serialize_graph(g, g.embedding.rotation), args.out)
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    if args.group is not None:
        target = GroupId.from_string(args.group)
        seed_name, members = family_from_target(target, args.count)
        group_str = str(target)
    else:
        seed, _rot = _read_graph(args.seed)
        seed_name = args.seed
        members = generate_family(seed, args.count)
        group_str = str(identify(automorphisms(seed)))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, m in enumerate(members):
        fname = f"member_{i + 1:02d}.json"
        (outdir / fname).write_text(serialize_graph(m.graph, m.rotation) + "\n")
        rows.append(
            {
                "file": fname,
                "depth": m.depth,
                "vertices": m.graph.vertex_count,
                "edges": m.graph.edge_count,
                "painted": len(m.graph.painted),
                "certified_not_signature": m.certified_not_signature,
            }
        )
    manifest = {
        "format": "crushtacean-family/1",
        "seed": seed_name,
        "group": group_str,
        "count": args.count,
        "members": rows,
    }
    (outdir / "index.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _print_json(manifest)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    from .render import to_dot, to_svg

    g, _rot = _read_graph(args.graph)
    text = to_dot(g) if args.dot else to_svg(g)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crushtacean",
        description="Painted cubic planar graphs and the symmetries of the links they encode.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="full admission check for a painted graph")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("aut", help="automorphism group (order, identified type, generators)")
    p.add_argument("graph")
    p.add_argument("--painted", action="store_true", help="restrict to painting-preserving maps")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="most automorphisms to enumerate")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("classify", help="symmetry classification report (file or corpus directory)")
    p.add_argument("graph", help="graph JSON file, - for stdin, or a directory of .json files")
    p.add_argument("--seed", help="graph this one was cycle-expanded from (enables the screen)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("expand", help="cycle expansion (each vertex blown up into a cycle)")
    p.add_argument("graph")
    p.add_argument("-n", "--count", type=int, default=1, help="number of iterations")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("gen", help="build a named graph")
    p.add_argument("name", choices=sorted(_GENERATORS))
    p.add_argument("param", nargs="?", type=int, help="size parameter where applicable")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("family", help="iterated expansions with a prescribed symmetry group")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--group", help="target group id, e.g. D5 or S4xZ2")
    grp.add_argument("--seed", help="seed graph JSON file")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("render", help="SVG (or DOT) drawing")
    p.add_argument("graph")
    p.add_argument("-o", "--out")
    p.add_argument("--dot", action="store_true", help="emit graphviz DOT instead of SVG")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CrushtaceanError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
