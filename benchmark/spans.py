"""Spans around amalgsep's public functions, recorded from outside the library.

``Tracer.install`` wraps every public module-level function of the traced
modules, both on its own module and wherever another amalgsep module
imported it by name. Each call records a span (function, start, end,
parent span) in flat arrays kept in memory; ``write`` stores them when
the run ends. Self time is a span's duration minus the time its child
spans cover, summed per function and per layer (module).

Distinct-argument counts use the argument's content, never its ``id``,
so two runs with the same seed report identical ratios.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("fingrp", "freegrp", "amalgam", "compat", "catalog", "engine", "cli")
# The five constructors behind every catalog table.
TABLE_BUILDERS = ("cyclic_group", "dihedral_group", "metacyclic_group",
                  "symmetric_group", "direct_product")


def _table_digest(group) -> str:
    return hashlib.blake2b(repr(group.table).encode(), digest_size=12).hexdigest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.distinct: dict[str, set] = {"fingrp.enumerate_normal_subgroups": set(),
                                         "freegrp.kernel_key": set()}
        self.p_hits = 0
        self._digests: dict[int, tuple[object, str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- argument fingerprints ------------------------------------------

    def _digest(self, group) -> str:
        hit = self._digests.get(id(group))
        if hit is None or hit[0] is not group:
            hit = (group, _table_digest(group))   # keeps the group alive
            self._digests[id(group)] = hit
        return hit[1]

    def _note_args(self, name: str, args, result) -> None:
        if name == "fingrp.enumerate_normal_subgroups":
            self.distinct[name].add(self._digest(args[0]))
        elif name == "freegrp.kernel_key":
            u = args[0]
            self.distinct[name].add((self._digest(u.target), u.images))
        elif name == "compat.is_p_compatible" and result is not None:
            self.p_hits += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        tracer = self
        noted = name in self.distinct or name == "compat.is_p_compatible"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer.fn)
            tracer.fn.append(idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                tracer.stack.pop()
                tracer.calls[name] += 1
            if noted:
                tracer._note_args(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"amalgsep.{m}") for m in LAYERS}
        modules["__init__"] = importlib.import_module("amalgsep")
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per function name."""
        n = len(self.fn)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.fn[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def summary(self) -> dict:
        """Counters that can be summed over processes: calls, self time,
        distinct-argument sets (as digests) and certified p-compatibilities."""
        return {
            "calls": dict(self.calls),
            "self_s": self.self_times(),
            "distinct": {k: sorted(repr(x) for x in v) for k, v in self.distinct.items()},
            "p_hits": self.p_hits,
            "spans": len(self.fn),
        }

    def write(self, path: str) -> None:
        """Spans to ``path``: a JSON header naming the functions, then the
        four parallel arrays (fn and parent as int32, start and end as
        float64 seconds) in native byte order."""
        header = json.dumps({"names": self.names, "spans": len(self.fn),
                             "arrays": ["fn", "parent", "start", "end"]})
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)


def wrapper_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds, measured on a function that does nothing."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def merge(summaries: list[dict]) -> dict:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    distinct: dict[str, set] = {}
    p_hits = 0
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["distinct"].items():
            distinct.setdefault(k, set()).update(v)
        p_hits += s["p_hits"]
    return {"calls": calls, "self_s": self_s, "spans": sum(s["spans"] for s in summaries),
            "distinct": {k: len(v) for k, v in distinct.items()}, "p_hits": p_hits}


def per_layer_metrics(m: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from a merged summary."""
    calls, self_s = m["calls"], m["self_s"]

    def c(name):
        return float(calls.get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                      if k.startswith(layer + ".")), "s")
    ens = "fingrp.enumerate_normal_subgroups"
    kk = "freegrp.kernel_key"
    ipc = "compat.is_p_compatible"
    out[f"{ens}.calls"] = (c(ens), "count")
    out[f"{ens}.distinct_ratio"] = (ratio(m["distinct"].get(ens, 0), c(ens)), "ratio")
    out[f"{ipc}.calls"] = (c(ipc), "count")
    out[f"{ipc}.hit_ratio"] = (ratio(m["p_hits"], c(ipc)), "ratio")
    out["fingrp.construct_group.calls"] = (c("fingrp.construct_group"), "count")
    out["fingrp.construct_group.self_s"] = (self_s.get("fingrp.construct_group", 0.0), "s")
    for name in ("fingrp.subgroup_generated", "fingrp.quotient_with_projection",
                 kk, "freegrp.kernels_equal", "compat.build_free_quotient_amalgam",
                 "compat.build_quotient_amalgam", "compat.presentation_residually_p",
                 "amalgam.normalize", "amalgam.multiply", "amalgam.cyclic_member",
                 "engine.find_length_preserving_pair", "engine.free_reduced_form",
                 "cli.validate_document"):
        out[f"{name}.calls"] = (c(name), "count")
    out[f"{kk}.distinct_ratio"] = (ratio(m["distinct"].get(kk, 0), c(kk)), "ratio")
    for name in ("compat.enumerate_free_compatible_classes",
                 "engine.separate_from_cyclic", "cli.validate_document"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["catalog.tables_built"] = (sum(c(f"catalog.{b}") for b in TABLE_BUILDERS), "count")
    return out
