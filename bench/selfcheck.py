"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py

Run from the checkout root.  It runs every workload on a tiny slice, with
and without tracing, and expects every answer to check out; then it
corrupts answers and forces tracebacks, in-process and in a CLI child, and
expects the checker to flag each one.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import run

SEED = 7


def slice_result(workload: str, trace: int, limit: int) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload]
    argv += ["--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--limit", str(limit)]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{workload} slice exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def prepared(workload: str, limit: int) -> run.Workload:
    wl = run.Workload(workload, SEED, limit)
    inputs, _wall, _ = run.setup(workload, SEED, wl.work, "selfcheck", traced=False)
    wl.take_inputs(inputs)
    return wl


def flagged(wl: run.Workload, rnd: dict, index: int) -> bool:
    return bool(wl.check(rnd)[index])


def main() -> int:
    errors = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            errors.append(what)

    for workload, limit in (("classify-large", 2), ("aut-symmetric", 6), ("cli-mixed", 6)):
        for trace in (0, 1):
            r = slice_result(workload, trace, limit)
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0, f"{workload} slice, trace {trace}")

    wl = prepared("classify-large", 2)
    rnd = wl.round(0, "selfcheck", traced=False)
    expect(not flagged(wl, rnd, 0), "classify-large answer passes")
    bad = copy.deepcopy(rnd)
    bad["answers"][0]["digest"] = "0" * 64
    expect(flagged(wl, bad, 0), "classify-large: a changed report digest is flagged")
    bad = copy.deepcopy(rnd)
    bad["answers"][0]["report"]["aut_p_order"] += 1
    expect(flagged(wl, bad, 0), "classify-large: a wrong group order is flagged")

    wl = prepared("aut-symmetric", 4)
    rnd = wl.round(0, "selfcheck", traced=False)
    expect(not any(wl.check(rnd)), "aut-symmetric answers pass")
    bad = copy.deepcopy(rnd)
    bad["answers"][1]["order"] *= 2
    expect(flagged(wl, bad, 1), "aut-symmetric: a wrong order is flagged")
    bad = copy.deepcopy(rnd)
    bad["answers"][2]["generators"] = bad["answers"][2]["generators"][:1]
    expect(flagged(wl, bad, 2), "aut-symmetric: a missing generator is flagged")
    wl.inputs["graphs"][wl.inputs["ops"][3]["graph"]] = '{"format": "painted-graph/1"'
    rnd = wl.round(0, "selfcheck_tb", traced=False)
    expect(flagged(wl, rnd, 3), "aut-symmetric: a forced traceback in the worker is flagged")

    wl = prepared("cli-mixed", 6)
    files, meta = wl.inputs["files"], wl.inputs["meta"]
    built = {n: m["defect"] for n, m in meta.items() if m.get("defect") in run.check.README_REASONS}
    expect(
        all(run.check.reasons(files[n]) == (d,) for n, d in built.items()),
        "cli-mixed: the oracle finds exactly the defect each invalid input was built with",
    )
    chains = {n: (m["kind"], m["n"]) for n, m in meta.items() if m["kind"] in ("pretzel", "ochain")}
    expect(
        all(run.check.chain_kind(files[n]) == want for n, want in chains.items()),
        "cli-mixed: the checker recognizes both chain families from their text",
    )
    rnd = wl.round(0, "selfcheck", traced=False)
    expect(not any(wl.check(rnd)), "cli-mixed answers pass")
    i = next(k for k, a in enumerate(rnd["answers"]) if a["stdout"].startswith("{"))
    bad = copy.deepcopy(rnd)
    doc = json.loads(bad["answers"][i]["stdout"])
    for key, val in doc.items():  # flip every verdict, bump every count
        if isinstance(val, bool):
            doc[key] = not val
        elif isinstance(val, int):
            doc[key] = val + 1
    bad["answers"][i]["stdout"] = json.dumps(doc)
    expect(flagged(wl, bad, i), "cli-mixed: a corrupted answer is flagged")
    bad = copy.deepcopy(rnd)
    bad["answers"][i]["code"] = 7
    expect(flagged(wl, bad, i), "cli-mixed: an exit code outside the contract is flagged")
    crash = run.spawn([sys.executable, "-c", "raise AssertionError('forced')"], wl.clidir, wl.clidir / "crash")
    bad = copy.deepcopy(rnd)
    bad["answers"][i] = crash
    problems = wl.check(bad)[i]
    expect(bool(problems) and problems[0].startswith("traceback"), "cli-mixed: a child that dies in a traceback is flagged")
    print(f"{len(errors)} self-check failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
