"""Outside tracer: per-layer spans and counts without touching treeperm.

`Tracer.install` wraps every public function of each layer module and
every public method of each public class defined there, then rebinds
the wrapped functions in every `treeperm.*` namespace that imported
them by name (for example `reduce_generators` in `groups`, `lattice`
and `subgroups` as well as in `bsgs`).  Each call records one span
(id, parent, job id, function, start, end); the layer is the function's
module.  Spans live in compact arrays and are written out by `dump`
after the run.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("perms", "bsgs", "groups", "subgroups", "series", "portraits", "wreath",
          "treeball", "localact", "lattice", "criteria", "cli")

# Trivial accessors: their time accrues to the caller.
SKIP = {("Permutation", "__call__"), ("Permutation", "degree"), ("Permutation", "__eq__"),
        ("Permutation", "__hash__"), ("Permutation", "__lt__")}
# Dunder methods that do real work and are traced like public methods.
TRACED_DUNDERS = ("__init__", "__mul__", "__pow__")

# Function groups behind the named per-layer metrics (layer, qualified name).
BUILD = {("bsgs", "StabilizerChain.from_generators"), ("bsgs", "StabilizerChain.add_generator"),
         ("bsgs", "reduce_generators")}
SIFT = {("bsgs", "StabilizerChain.contains")}
INCLUSIVE = {
    "groups.intersection_s": ("groups", "PermGroup.intersection"),
    "groups.centralizer_s": ("groups", "PermGroup.centralizer"),
    "groups.normal_core_s": ("groups", "PermGroup.normal_core"),
    "series.sylow_s": ("series", "sylow_subgroup"),
    "criteria.oracle_s": ("criteria", "oracle_facts"),
    "localact.sample_s": ("localact", "random_ball_automorphism"),
    "cli.emit_s": ("cli", "emit"),
}
CALLS = {
    "bsgs.chain_builds": ("bsgs", "StabilizerChain.__init__"),
    "bsgs.contains_calls": ("bsgs", "StabilizerChain.contains"),
    "bsgs.add_generator_calls": ("bsgs", "StabilizerChain.add_generator"),
    "perms.mul_calls": ("perms", "Permutation.__mul__"),
    "perms.validated_constructs": ("perms", "Permutation.__init__"),
    "perms.order_calls": ("perms", "Permutation.order"),
    "subgroups.enumerations": ("subgroups", "enumerate_subgroups_up_to_conjugacy"),
    "localact.samples": ("localact", "random_ball_automorphism"),
    "lattice.pairs_checked": ("lattice", "lattice_check_pair"),
    "lattice.rist_calls": ("lattice", "rist"),
    "portraits.flatten_calls": ("portraits", "flatten"),
    "wreath.towers_built": ("wreath", "wreath_tower"),
}


class Tracer:
    """Span recorder for one worker process; install once, read after the run."""

    def __init__(self) -> None:
        self.functions: list[tuple[str, str]] = []      # (layer, qualified name)
        self.parent = array("i")
        self.func = array("H")
        self.job = array("H")
        self.start = array("d")
        self.end = array("d")
        self.job_id = 0
        self._stack = [-1]
        # counts read from call arguments or results at the layer boundary
        self.counts = {"bsgs.add_generator_grew": 0, "groups.elements_enumerated": 0,
                       "localact.graft_leaves": 0, "lattice.portrait_count_pairs": 0}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"treeperm.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, name)
                    replaced[id(obj)] = wrapped
                    setattr(mod, name, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind from-imported names everywhere in the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "treeperm" or mod_name.startswith("treeperm.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if (cls.__name__, attr) in SKIP:
                continue
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, layer, qual)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, layer, qual))

    def _wrap(self, fn, layer: str, qual: str):
        fidx = len(self.functions)
        self.functions.append((layer, qual))
        parent, func, job, start, end = self.parent, self.func, self.job, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        before, after = self._hooks(layer, qual)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(start)
            parent.append(stack[-1])
            func.append(fidx)
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _hooks(self, layer: str, qual: str):
        counts = self.counts

        def bump(key: str, by: int = 1) -> None:
            counts[key] += by

        if (layer, qual) == ("bsgs", "StabilizerChain.add_generator"):
            return None, lambda grew: bump("bsgs.add_generator_grew", bool(grew))
        if (layer, qual) == ("groups", "PermGroup.elements"):
            # fresh only when the group has no cached element list yet
            return (lambda args: bump("groups.elements_enumerated",
                                      getattr(args[0], "_elements", None) is None)), None
        if (layer, qual) == ("groups", "closure_elements"):
            return (lambda args: bump("groups.elements_enumerated")), None
        if (layer, qual) in {("localact", "ball_stabilizer_group"),
                             ("localact", "edge_ball_group")}:
            return None, lambda bg: bump("localact.graft_leaves", bg.enumerated_count)
        if (layer, qual) == ("lattice", "lattice_check_pair"):
            return None, lambda pc: bump("lattice.portrait_count_pairs",
                                         pc.intersection_method == "portrait-count")
        return None, None

    # -- analysis --------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def metrics(self) -> dict[str, float]:
        """Every named per-layer metric (without trace.overhead_s)."""
        index = {f: i for i, f in enumerate(self.functions)}
        inclusive_of = {index[f]: [] for f in INCLUSIVE.values() if f in index}
        self_t = self.self_times()
        nfunc = len(self.functions)
        fself = [0.0] * nfunc
        fcalls = [0] * nfunc
        for i, f in enumerate(self.func):
            fself[f] += self_t[i]
            fcalls[f] += 1
            if f in inclusive_of:
                inclusive_of[f].append(i)
        out: dict[str, float] = {}
        for layer in LAYERS:
            idx = [i for i, (lay, _) in enumerate(self.functions) if lay == layer]
            out[f"{layer}.self_s"] = sum(fself[i] for i in idx)
            out[f"{layer}.calls"] = sum(fcalls[i] for i in idx)
        out["bsgs.build_self_s"] = sum(fself[index[f]] for f in BUILD if f in index)
        out["bsgs.sift_self_s"] = sum(fself[index[f]] for f in SIFT if f in index)
        for name, f in CALLS.items():
            out[name] = fcalls[index[f]] if f in index else 0
        for name, f in INCLUSIVE.items():
            out[name] = self._inclusive(index[f], inclusive_of[index[f]]) if f in index else 0.0
        adds = out["bsgs.add_generator_calls"]
        out["bsgs.grow_ratio"] = self.counts["bsgs.add_generator_grew"] / adds if adds else 0.0
        out["groups.elements_enumerated"] = self.counts["groups.elements_enumerated"]
        out["localact.graft_leaves"] = self.counts["localact.graft_leaves"]
        pairs = out["lattice.pairs_checked"]
        out["lattice.portrait_count_share"] = (
            self.counts["lattice.portrait_count_pairs"] / pairs if pairs else 0.0)
        return out

    def _inclusive(self, fidx: int, spans: list[int]) -> float:
        """Total time inside the outermost calls of one function (recursion counted once)."""
        total = 0.0
        func, parent = self.func, self.parent
        for i in spans:
            p = parent[i]
            while p >= 0 and func[p] != fidx:
                p = parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def dump(self, path: Path) -> None:
        """Write spans: one JSON header line, then the raw column arrays."""
        header = {"functions": [f"{lay}:{q}" for lay, q in self.functions],
                  "spans": len(self.start),
                  "columns": [["parent", "i"], ["func", "H"], ["job", "H"],
                              ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.parent, self.func, self.job, self.start, self.end):
                col.tofile(fh)
