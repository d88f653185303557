"""Child processes of the benchmark; each starts in a fresh interpreter.

  child.py setup WORKLOAD SEED OUT [SPANS]   import crushtacean, build inputs
  child.py run WORKLOAD INPUTS OUT [SPANS]   one round of in-process ops
  child.py cli SPANS ARG...                  one traced CLI request

With SPANS the child records spans (see spans.py) and writes them there.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from time import perf_counter


def setup(workload: str, seed: str, out: str, spans_path: str | None) -> None:
    import crushtacean  # noqa: F401  (import time is part of set-up)

    rec = _recorder(spans_path)
    import inputs

    doc = inputs.build(workload, int(seed))
    with open(out, "w") as fh:
        json.dump(doc, fh)
    if rec is not None:
        rec.dump(spans_path, "setup")


def run(workload: str, inputs_path: str, out: str, spans_path: str | None) -> None:
    import crushtacean

    with open(inputs_path) as fh:
        doc = json.load(fh)
    rec = _recorder(spans_path)
    op = _OPS[workload]
    answers, latencies = [], []
    start = perf_counter()
    for item in doc["ops"]:
        t0 = perf_counter()
        try:
            answer = op(crushtacean, doc, item)
        except Exception:  # one failed op must not end the round
            answer = {"error": traceback.format_exc()}
        latencies.append(perf_counter() - t0)
        answers.append(answer)
    wall = perf_counter() - start
    if rec is not None:
        rec.dump(spans_path, "run")
    for a in answers:
        if "report_json" in a:
            a["digest"] = hashlib.sha256(a.pop("report_json").encode()).hexdigest()
    with open(out, "w") as fh:
        json.dump({"wall_s": wall, "latency_s": latencies, "answers": answers}, fh)


def _classify_op(crushtacean, doc, item) -> dict:
    g, _rot = crushtacean.parse_graph(item["graph"])
    parent, _prot = crushtacean.parse_graph(item["parent"])
    report = crushtacean.symmetry_report(g, expansion_seed=parent).to_json_dict()
    return {"report": report, "report_json": json.dumps(report, indent=2)}


def _aut_op(crushtacean, doc, item) -> dict:
    g, _rot = crushtacean.parse_graph(doc["graphs"][item["graph"]])
    grp = crushtacean.automorphisms(g, respect_painting=item["painted"])
    gid = crushtacean.identify(grp)
    return {
        "order": grp.order,
        "group_id": str(gid),
        "generators": [list(p.image) for p in grp.generators],
    }


_OPS = {"classify-large": _classify_op, "aut-symmetric": _aut_op}


def cli(spans_path: str, argv: list[str]) -> None:
    from spans import Recorder

    rec = Recorder()
    idx = rec.open("cli.import")
    import crushtacean.cli

    rec.close(idx)
    rec.install()
    idx = rec.open("cli.main")
    try:
        code = crushtacean.cli.main(argv)
    finally:
        rec.close(idx)
        rec.dump(spans_path, "run")
    raise SystemExit(code)


def _recorder(spans_path: str | None):
    if spans_path is None:
        return None
    from spans import Recorder

    rec = Recorder()
    rec.install()
    return rec


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], rest[1], rest[2], rest[3] if len(rest) > 3 else None)
    elif mode == "run":
        run(rest[0], rest[1], rest[2], rest[3] if len(rest) > 3 else None)
    elif mode == "cli":
        cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
