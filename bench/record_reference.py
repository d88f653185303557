"""Record the classify-large reference digests.

    python3 bench/record_reference.py SEED [SEED ...]

Runs every classify-large pass (every member under every relabelling) per
seed and writes the sha256 of each member's `crushtacean-report/1` JSON to
``reference/classify_large.json``.
The report is label-independent for these b-prime members, so every seed
must give the same digests; the script refuses to write otherwise.  The
file holds the answers of the commit that introduced the benchmark; run
this again only when a change to the report is intended.
"""

from __future__ import annotations

import json
import sys

import check
import run


def main(seeds: list[int]) -> int:
    digests: dict[str, str] = {}
    for seed in seeds:
        wl = run.Workload("classify-large", seed, None)
        inputs, _wall, _ = run.setup(wl.name, seed, wl.work, "ref", traced=False)
        wl.take_inputs(inputs)
        for i in range(wl.round_count()):
            rnd = wl.round(i, "ref", traced=False)
            for op, answer in zip(rnd["items"], rnd["answers"]):
                if "error" in answer:
                    print(f"seed {seed} {op['id']}: {answer['error']}", file=sys.stderr)
                    return 1
                if digests.setdefault(op["id"], answer["digest"]) != answer["digest"]:
                    print(f"seed {seed} {op['id']}: report depends on the labelling", file=sys.stderr)
                    return 1
            print(f"seed {seed} pass {i}: {len(rnd['answers'])} reports, {rnd['wall_s']:.1f} s", file=sys.stderr)
    check.REFERENCE.parent.mkdir(exist_ok=True)
    check.REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0]))
