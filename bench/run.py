"""crushtacean benchmark: one workload per invocation, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program under test is the
checkout's ``src/``.  Workloads (see README.md beside this file):

  classify-large  parse + symmetry_report over family members, 24-216 vertices
  aut-symmetric   automorphisms + identify on highly symmetric graphs
  cli-mixed       100 CLI requests, each a fresh ``python -m crushtacean.cli``

Every run starts each child in a fresh interpreter.  Set-up (import, input
generation, serialization) runs ``SETUP_REPEATS`` times and reports the
median.  The timed phase repeats whole rounds of a fixed amount of work,
each in fresh interpreters, for ``--seconds``: it starts no round that would
end after that.  An operation's latency is the least of its repeats and
run_s the least round time (medians for classify-large, whose repeats are
different relabellings; see ``Workload.repeat_stat``).  Answers are checked
after the timed phase.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one untraced and one traced round.  The line before it is a
detail record: environment, sample counts, failures and, for cli-mixed, the
known-defect probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = str(BENCH / "child.py")
WORKLOADS = ("classify-large", "aut-symmetric", "cli-mixed")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# per-layer stage times always exercised on every workload (traced set-up
# included); the other stages can read 0 s and appear in the detail record
LAYER_TIMES = (
    "graphs.parse",
    "graphs.serialize",
    "graphs.embed",
    "graphs.faces",
    "families.expand",
    "automorphism.aut",
    "automorphism.aut_p",
    "groups.close",
    "groups.signature",
    "groups.identify",
)


def spawn(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to completion; its wall time and peak RSS come back
    with its exit code and output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "stdout": out_path.read_text(errors="replace"),
        "stderr": err_path.read_text(errors="replace"),
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def setup(workload: str, seed: int, work: Path, tag: str, traced: bool) -> tuple[dict, float, dict | None]:
    out = work / f"setup_{tag}_inputs.json"
    argv = [sys.executable, CHILD, "setup", workload, str(seed), str(out)]
    span_file = work / f"setup_{tag}_spans.json"
    if traced:
        argv.append(str(span_file))
    res = spawn(argv, work, work / f"setup_{tag}")
    if res["code"] != 0:
        raise BenchError(f"set-up failed with exit {res['code']}:\n{res['stderr']}")
    dump = json.loads(span_file.read_text()) if traced else None
    return json.loads(out.read_text()), res["wall_s"], dump


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------


def in_process_round(workload: str, inputs: dict, work: Path, tag: str, traced: bool) -> dict:
    inputs_path = work / f"round_{tag}_inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    out = work / f"round_{tag}_answers.json"
    span_file = work / f"round_{tag}_spans.json"
    argv = [sys.executable, CHILD, "run", workload, str(inputs_path), str(out)]
    if traced:
        argv.append(str(span_file))
    res = spawn(argv, work, work / f"round_{tag}")
    if res["code"] != 0:
        raise BenchError(f"round worker failed with exit {res['code']}:\n{res['stderr']}")
    doc = json.loads(out.read_text())
    return {
        "wall_s": doc["wall_s"],
        "latency_s": doc["latency_s"],
        "answers": doc["answers"],
        "rss_mb": res["rss_mb"],
        "spans": [json.loads(span_file.read_text())] if traced else [],
    }


def cli_round(requests: list, clidir: Path, tag: str, traced: bool) -> dict:
    results, dumps = [], []
    start = perf_counter()
    for i, argv in enumerate(requests):
        if traced:
            span_file = clidir / f"req_{tag}_{i}_spans.json"
            cmd = [sys.executable, CHILD, "cli", str(span_file), *argv]
        else:
            cmd = [sys.executable, "-m", "crushtacean.cli", *argv]
        results.append(spawn(cmd, clidir, clidir / f"req_{tag}_{i}"))
        if traced and span_file.exists():
            dumps.append(json.loads(span_file.read_text()))
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "latency_s": [r["wall_s"] for r in results],
        "answers": results,
        "rss_mb": max(r["rss_mb"] for r in results),
        "spans": dumps,
    }


class Workload:
    def __init__(self, name: str, seed: int, limit: int | None) -> None:
        self.name = name
        self.seed = seed
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.clidir = self.work / "cli"
        self.limit = limit
        self.inputs: dict = {}

    def take_inputs(self, inputs: dict) -> None:
        self.inputs = inputs
        if self.name == "cli-mixed":
            self.clidir.mkdir(exist_ok=True)
            for name, text in inputs["files"].items():
                (self.clidir / name).write_text(text)

    def round_count(self) -> int:
        """Distinct rounds: classify-large has one per relabelling pass."""
        return self.inputs.get("passes", 1)

    def items(self, index: int) -> list:
        """The operations of round `index`: requests for cli-mixed, else
        ops; classify-large cycles through its passes.  Position k of a
        round is the same operation (member, graph or request) in every
        round."""
        if self.name == "cli-mixed":
            items = self.inputs["requests"]
        else:
            k = index % self.round_count()
            items = [op for op in self.inputs["ops"] if op.get("pass", 0) == k]
        return items if self.limit is None else items[: self.limit]

    def repeat_stat(self):
        """How repeats of one operation, or of one round, are summed up.

        The host only ever slows a repeat down, so the least of identical
        repeats is the steadiest figure.  classify-large repeats a member
        under a different relabelling each round, and a relabelling can
        change the work by half: there the median over the relabellings is
        taken instead."""
        return statistics.median if self.round_count() > 1 else min

    def round(self, index: int, tag: str, traced: bool) -> dict:
        items = self.items(index)
        if self.name == "cli-mixed":
            rnd = cli_round(items, self.clidir, tag, traced)
        else:
            rnd = in_process_round(self.name, dict(self.inputs, ops=items), self.work, tag, traced)
        rnd["items"] = items
        return rnd

    def check(self, rnd: dict) -> list[list[str]]:
        """Problems per operation of one round (empty list = correct)."""
        pairs = list(zip(rnd["items"], rnd["answers"]))
        if self.name == "classify-large":
            ref = check.load_reference()
            return [check.guarded(check.check_classify_large, op, a, ref) for op, a in pairs]
        if self.name == "aut-symmetric":
            return [check.guarded(check.check_aut, self.inputs, op, a) for op, a in pairs]
        files, meta = self.inputs["files"], self.inputs["meta"]
        return [
            check.guarded(check.check_request, argv, res, files, meta, self.clidir)
            for argv, res in pairs
        ]

    def probe(self) -> dict | None:
        """cli-mixed only: run the known-defect inputs, untimed."""
        if self.name != "cli-mixed":
            return None
        rows = []
        for i, argv in enumerate(self.inputs["probe"]):
            res = spawn([sys.executable, "-m", "crushtacean.cli", *argv], self.clidir, self.clidir / f"probe_{i}")
            problems = check.guarded(check.check_probe, argv, res, self.clidir)
            rows.append({"argv": argv, "exit": res["code"], "problems": problems})
        return {
            "attempted": len(rows),
            "failed": sum(1 for r in rows if r["problems"]),
            "requests": rows,
        }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "networkx": version("networkx"),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def label(item) -> str:
    return item["id"] if isinstance(item, dict) else " ".join(item)


def failure_summary(wl: Workload, rounds: list[dict]) -> tuple[int, int, list[str]]:
    attempted, failed, first = 0, 0, []
    for rnd in rounds:
        for item, problems in zip(rnd["items"], wl.check(rnd)):
            attempted += 1
            if problems:
                failed += 1
                if len(first) < 10:
                    first.append(f"{label(item)}: {'; '.join(problems)}")
    return attempted, failed, first


def timed_rounds(wl: Workload, seconds: float) -> list[dict]:
    """Rounds until the next one, as long as the median round so far, would
    end after `seconds`; at least one."""
    rounds, took = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(wl.round(len(rounds), str(len(rounds)), traced=False))
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > seconds:
            return rounds


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    setup_walls = []
    first_text = None
    for i in range(SETUP_REPEATS):
        inputs, wall, _ = setup(wl.name, wl.seed, wl.work, str(i), traced=False)
        setup_walls.append(wall)
        text = json.dumps(inputs, sort_keys=True)
        if first_text is None:
            first_text = text
            wl.take_inputs(inputs)
        elif text != first_text:
            raise BenchError("set-up is not deterministic for this seed")

    rounds = timed_rounds(wl, seconds)
    attempted, failed, first = failure_summary(wl, rounds)
    # An operation's latency is `stat` of its repeats (position k of every
    # round), run_s is `stat` of the round times, and the percentiles are
    # taken over the operations.
    stat = wl.repeat_stat()
    repeats: dict[int, list[float]] = {}
    for r in rounds:
        for k, lat in enumerate(r["latency_s"]):
            repeats.setdefault(k, []).append(lat)
    latency = [stat(v) for v in repeats.values()]
    ops = len(latency)
    metrics = {
        "run_s": metric(stat([r["wall_s"] for r in rounds]), "s"),
        "op_p50_s": metric(statistics.median(latency), "s"),
        "op_p90_s": metric(statistics.quantiles(latency, n=10)[8], "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in rounds), "MB"),
        "setup_s": metric(statistics.median(setup_walls), "s"),
    }
    detail = {
        "samples": {
            "setup_s": len(setup_walls),
            "run_s": f"{stat.__name__} of {len(rounds)} rounds",
            "op_p50_s": f"{ops} ops, each the {stat.__name__} of {len(rounds)} repeats",
            "op_p90_s": f"{ops} ops, each the {stat.__name__} of {len(rounds)} repeats",
            "peak_rss_mb": len(rounds) if wl.name != "cli-mixed" else len(rounds) * ops,
        },
        "setup_s_all": setup_walls,
        "run_s_all": [r["wall_s"] for r in rounds],
        "op_latency_s": {f"{k}:{label(item)}": lat for k, (item, lat) in enumerate(zip(rounds[0]["items"], latency))},
    }
    return {"attempted": attempted, "failed": failed, "first_failures": first}, {"metrics": metrics, **detail}


def per_layer(wl: Workload) -> tuple[dict, dict]:
    inputs, _wall, setup_dump = setup(wl.name, wl.seed, wl.work, "traced", traced=True)
    wl.take_inputs(inputs)
    plain = wl.round(0, "plain", traced=False)
    traced = wl.round(0, "traced", traced=True)
    attempted, failed, first = failure_summary(wl, [plain, traced])

    summary = spans.summarize([setup_dump] + traced["spans"])
    calls = summary["calls"]["setup"] + summary["calls"]["run"]
    self_s = summary["self_s"]["setup"] + summary["self_s"]["run"]
    run_calls, run_self = summary["calls"]["run"], summary["self_s"]["run"]
    counters = summary["counters"]["run"]
    in_report = summary["in_report"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    reports = run_calls["classify.report"]
    metrics = {}
    for stage in spans.STAGE_NAMES:
        metrics[f"{stage}.calls"] = metric(calls[stage], "count")
    for stage in LAYER_TIMES:
        metrics[f"{stage}.self_s"] = metric(self_s[stage], "s")
    metrics.update(
        {
            "graphs.embed.per_report": metric(ratio(in_report["graphs.embed"], reports), "calls/report"),
            "classify.validate.per_report": metric(ratio(in_report["classify.validate"], reports), "calls/report"),
            "automorphism.iso.per_report": metric(ratio(in_report["automorphism.iso"], reports), "calls/report"),
            "automorphism.iso.hit_ratio": metric(ratio(counters["automorphism.iso.hits"], run_calls["automorphism.iso"]), "ratio"),
            "automorphism.elements": metric(counters["automorphism.elements"], "count"),
            "groups.identify.unrecognized": metric(counters["groups.identify.unrecognized"], "count"),
            "cli.import.share": metric(ratio(run_self["cli.import"], sum(traced["latency_s"])), "ratio"),
            "trace.overhead": metric(traced["wall_s"] / plain["wall_s"] - 1.0, "ratio"),
            "trace.coverage": metric(sum(run_self.values()) / traced["wall_s"], "ratio"),
        }
    )
    stages = {
        s: {"calls": calls[s], "self_s": self_s[s], "run_calls": run_calls[s], "run_self_s": run_self[s]}
        for s in spans.STAGE_NAMES
    }
    detail = {
        "samples": {"rounds": 2, "ops_per_round": len(traced["latency_s"]), "reports": reports},
        "run_s_untraced": plain["wall_s"],
        "run_s_traced": traced["wall_s"],
        "stages": stages,
    }
    return {"attempted": attempted, "failed": failed, "first_failures": first}, {"metrics": metrics, **detail}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, help="only the first N operations (harness self-check)")
    args = p.parse_args(argv)

    if not (SRC / "crushtacean" / "__init__.py").is_file():
        print(f"error: no crushtacean sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    wl = Workload(args.workload, args.seed, args.limit)
    try:
        if args.trace:
            outcome, result = per_layer(wl)
        else:
            outcome, result = end_to_end(wl, args.seconds)
        probe = wl.probe()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result.pop("metrics")
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "env": environment(args.seed),
        "fail_ratio": {
            "value": outcome["failed"] / outcome["attempted"],
            "failed": outcome["failed"],
            "attempted": outcome["attempted"],
        },
        "first_failures": outcome["first_failures"],
        "known_defect_probe": probe,
        **result,
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
