"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public functions of each crushtacean module in every
module that looks them up (``crushtacean.classify.planar_embed`` as well as
``crushtacean.graphs.planar_embed``), so calls between layers nest the way
they run.  Spans stay in memory and are written out once, at the end of the
process.  Modules imported later (``render`` is imported lazily by the CLI)
are wrapped as they load.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# stage name -> (defining module, function); automorphisms() splits into
# automorphism.aut and automorphism.aut_p by its respect_painting argument.
STAGES = {
    "graphs.parse": ("crushtacean.graphs", "parse_graph"),
    "graphs.serialize": ("crushtacean.graphs", "serialize_graph"),
    "graphs.embed": ("crushtacean.graphs", "planar_embed"),
    "graphs.faces": ("crushtacean.graphs", "faces"),
    "graphs.dual": ("crushtacean.graphs", "dual"),
    "graphs.validate_basic": ("crushtacean.graphs", "validate_basic"),
    "classify.validate": ("crushtacean.classify", "validate_crushtacean"),
    "classify.cuts": ("crushtacean.classify", "three_edge_cuts"),
    "classify.bprime": ("crushtacean.classify", "classify_bprime"),
    "classify.reflection": ("crushtacean.classify", "detect_reflection_multiplicity"),
    "classify.knots": ("crushtacean.classify", "knot_circles"),
    "classify.screen": ("crushtacean.classify", "signature_screen"),
    "classify.report": ("crushtacean.classify", "symmetry_report"),
    "automorphism.aut": ("crushtacean.automorphism", "automorphisms"),
    "automorphism.iso": ("crushtacean.automorphism", "find_isomorphism"),
    "groups.close": ("crushtacean.groups", "close"),
    "groups.signature": ("crushtacean.groups", "signature"),
    "groups.identify": ("crushtacean.groups", "identify"),
    "families.expand": ("crushtacean.families", "cycle_expand"),
    "families.generate": ("crushtacean.families", "generate_family"),
    "families.seed_catalog": ("crushtacean.families", "seed_catalog"),
    "render.layout": ("crushtacean.render", "tutte_layout"),
    "render.svg": ("crushtacean.render", "to_svg"),
}

# every stage a summary reports, in order; cli.* spans are opened by the
# traced CLI child around the import and around main()
STAGE_NAMES = (
    list(STAGES)[:14] + ["automorphism.aut_p"] + list(STAGES)[14:] + ["cli.import", "cli.main"]
)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, stage: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = stage
            if stage == "automorphism.aut":
                painted = args[1] if len(args) > 1 else kwargs.get("respect_painting", False)
                name = "automorphism.aut_p" if painted else stage
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if stage == "automorphism.aut":
                rec.counters["automorphism.elements"] += result.order
            elif stage == "automorphism.iso":
                rec.counters["automorphism.iso.hits"] += result is not None
            elif stage == "groups.identify":
                rec.counters["groups.identify.unrecognized"] += result.kind == "unrecognized"
            return result

        wrapper.bench_stage = stage
        return wrapper

    def install(self) -> None:
        """Wrap every loaded crushtacean module now, and the rest on import."""
        self.patch()
        sys.meta_path.insert(0, _PatchOnLoad(self))

    def patch(self) -> None:
        for stage, (modname, attr) in STAGES.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            fn = getattr(mod, attr)
            if not hasattr(fn, "bench_stage"):
                self._wrappers[id(fn)] = self._wrap(stage, fn)
        for name, mod in list(sys.modules.items()):
            if name != "crushtacean" and not name.startswith("crushtacean."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str, phase: str) -> None:
        with open(path, "w") as fh:
            json.dump({"phase": phase, "spans": self.spans, "counters": self.counters}, fh)


class _PatchOnLoad(importlib.abc.MetaPathFinder):
    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("crushtacean."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        load = spec.loader.exec_module

        def exec_module(module):
            load(module)
            self.rec.patch()

        spec.loader.exec_module = exec_module
        return spec


def summarize(dumps: list[dict]) -> dict:
    """Per-stage calls and self time per phase, the calls made inside a
    classify.report span, and the summed counters."""
    calls: dict = defaultdict(Counter)
    self_s: dict = defaultdict(Counter)
    in_report: Counter = Counter()
    counters: dict = defaultdict(Counter)
    for d in dumps:
        phase, spans = d["phase"], d["spans"]
        child = [0.0] * len(spans)
        under = [False] * len(spans)  # has a classify.report ancestor
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                under[i] = under[parent] or spans[parent][0] == "classify.report"
                if end is not None:
                    child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(spans):
            if end is None:
                continue  # a process that died inside a span
            calls[phase][name] += 1
            self_s[phase][name] += (end - start) - child[i]
            if under[i] and phase == "run":
                in_report[name] += 1
        counters[phase].update(d["counters"])
    return {"calls": calls, "self_s": self_s, "in_report": in_report, "counters": counters}
