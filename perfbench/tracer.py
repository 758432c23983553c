"""Spans around the public functions of skewbrace, installed from outside.

Every function a module lists in __all__ (every public function defined in
the module when it has no __all__), and every function of the module that
the package re-exports, is replaced by a wrapper in each
skewbrace namespace that binds the same function object, so cross-module
calls such as substructure -> groups.subgroups are attributed to the layer
that owns the function.  Spans stay in flat arrays in memory and are
written out once the pass ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
import types
from array import array

MODULES = ("groups", "braces", "substructure", "series", "classify",
           "census", "ybe", "fixtures", "cli")

# Functions whose result length is recorded, for substructure.ideal_yield.
SIZED = frozenset({"groups.subgroups", "substructure.all_ideals"})


def _public_functions(mod, package) -> list:
    """Functions defined in mod that its __all__ lists (every public name when
    it has none) or that the package namespace re-exports."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    candidates = [getattr(mod, n) for n in names] + list(vars(package).values())
    found = {id(obj): obj for obj in candidates
             if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__}
    return sorted(found.values(), key=lambda fn: fn.__name__)


class Tracer:
    """Span store for one pass: name, start, end, parent and op of each call."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self.name = array("l")
        self.parent = array("l")
        self.opid = array("l")
        self.start = array("q")
        self.end = array("q")
        self.size = array("l")
        self._stack: list[int] = []

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        sized = qualname in SIZED
        name, parent, opid = self.name, self.parent, self.opid
        start, end, size, stack = self.start, self.end, self.size, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            opid.append(self.op)
            end.append(0)
            size.append(-1)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sized:
                size[idx] = len(result)
            return result

        return traced

    def install(self, package: str = "skewbrace") -> int:
        """Wrap the public functions of MODULES; returns how many were wrapped."""
        wrappers = {}
        root = importlib.import_module(package)
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for fn in _public_functions(mod, root):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{fn.__name__}"))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        return len(wrappers)

    def write(self, path) -> None:
        """Spans as gzip TSV: index, op, parent, name, start_ns, end_ns."""
        base = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.opid[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i] - base}\t"
                         f"{self.end[i] - base}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, total_s, self_s and hit_ratio, and per-module self_s.

        total_s counts only spans with no enclosing span of the same function;
        self_s is a span's duration minus its direct children's; a call whose
        span has no child span counts as a hit (a cached value was returned).
        """
        count = len(self.name)
        child_ns = [0] * count
        has_child = bytearray(count)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
                has_child[p] = 1
        k = len(self.names)
        calls, total, own, hits = [0] * k, [0] * k, [0] * k, [0] * k
        for i in range(count):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            own[nid] += dur - child_ns[i]
            hits[nid] += not has_child[i]
            p = parent[i]
            while p >= 0 and name[p] != nid:
                p = parent[p]
            if p < 0:
                total[nid] += dur
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0)
        for nid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = calls[nid]
            out[f"{qual}.total_s"] = total[nid] / 1e9
            out[f"{qual}.self_s"] = own[nid] / 1e9
            out[f"{qual}.hit_ratio"] = hits[nid] / calls[nid] if calls[nid] else 0.0
            module_self[qual.split(".", 1)[0]] += own[nid]
        for short, ns in module_self.items():
            out[f"{short}.self_s"] = ns / 1e9
        ids = {qual: nid for nid, qual in enumerate(self.names)}
        ideal_id = ids.get("substructure.all_ideals", -1)
        subgroup_id = ids.get("groups.subgroups", -1)
        ideals = subgroups = 0
        for i in range(count):
            if self.size[i] < 0:
                continue
            if name[i] == ideal_id and has_child[i]:
                ideals += self.size[i]
            elif name[i] == subgroup_id:
                subgroups += self.size[i]
        out["substructure.ideal_yield"] = ideals / subgroups if subgroups else 0.0
        return out
