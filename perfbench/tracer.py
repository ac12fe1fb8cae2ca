"""Spans around oblique's public functions, installed from the benchmark.

``install`` replaces every public module-level function of the traced
modules, plus a few named methods, with a wrapper that records a span:
name, start, end, parent and report id. Self time is a span's duration
minus the time its child spans cover. Hot leaf spans (the permutation
kernel, chain membership and element enumeration) are only aggregated;
the rest are also kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

MODULES = ("perm", "group", "hom", "lattice", "fusion", "towers", "groupspec", "cli", "arith")

# functions whose span name is not "<module>.<function>"
RENAMED = {
    ("groupspec", "parse_spec"): "groupspec.parse_build",
    ("groupspec", "build_group"): "groupspec.parse_build",
    ("towers", "cyclic_tower"): "towers.build",
    ("towers", "wreath_tower"): "towers.build",
    ("towers", "fitting_degenerate_tower"): "towers.build",
}

# (module, class, method) -> span name
METHODS = {
    ("perm", "Permutation", "__init__"): "perm.new",
    ("perm", "Permutation", "__mul__"): "perm.mul",
    ("perm", "Permutation", "inv"): "perm.inv",
    ("perm", "Permutation", "conj"): "perm.conj",
    ("group", "StabilizerChain", "__init__"): "group.chain.build",
    ("group", "StabilizerChain", "contains"): "group.chain.contains",
    ("group", "StabilizerChain", "element_tuples"): "group.chain.elements",
    ("hom", "GroupHom", "__init__"): "hom.certify",
    ("hom", "GroupHom", "kernel"): "hom.kernel",
    ("hom", "GroupHom", "preimage_group"): "hom.preimage_group",
    ("lattice", "NormalLattice", "meet_all"): "lattice.meet_all",
}

SYMPY_METHODS = ("sylow_subgroup", "centralizer", "subgroup_search")

# aggregated only: called too often to keep every span
LEAVES = {"perm.new", "perm.mul", "perm.inv", "perm.conj", "group.chain.contains", "group.chain.elements"}

# spans whose nested calls to themselves are folded into the outer span
FOLDED = {"backend.sympy", "groupspec.parse_build"}

SPAN_LIMIT = 300_000


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, child seconds, span index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.report_id = -1
        self._lattices = set()

    def wrap(self, name, fn, observe=None):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        keep = name not in LEAVES
        folded = name in FOLDED
        tracer = self

        def wrapper(*args, **kwargs):
            if folded and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = -1
            if keep:
                if len(spans) < SPAN_LIMIT:
                    index = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped += 1
            parent = stack[-1] if stack else None
            # children of an aggregated-only span hang off its nearest kept ancestor
            frame = [name, 0.0, index if keep else (parent[2] if parent else -1)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent[2] if parent else -1, tracer.report_id)
            if observe is not None:
                observe(args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters read at the layer boundaries --------------------------------

    def _chain_built(self, args, result, parent):
        self.counts["group.chain.build.degree_sum"] += args[1]
        if parent is not None and parent[0] == "group.normal_closure":
            self.counts["group.normal_closure.child_chains"] += 1

    def _contains(self, args, result, parent):
        self.counts["group.chain.contains.true"] += bool(result)

    def _elements(self, args, result, parent):
        self.counts["group.chain.elements.enumerated"] += len(result)

    def _lattice(self, args, result, parent):
        if id(result) not in self._lattices:
            self._lattices.add(id(result))
            self.counts["lattice.normal_lattice.members"] += len(result)

    def install(self, oblique):
        """Wrap oblique's public functions in place, in every module that
        imported them, and the sympy backend methods oblique calls."""
        import importlib

        observers = {
            "group.chain.build": self._chain_built,
            "group.chain.contains": self._contains,
            "group.chain.elements": self._elements,
            "lattice.normal_lattice": self._lattice,
        }
        modules = {m: importlib.import_module(f"oblique.{m}") for m in MODULES}
        replaced = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = RENAMED.get((short, attr), f"{short}.{attr}")
                replaced[id(fn)] = (fn, self.wrap(name, fn, observers.get(name)))
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[short], cls_name)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], observers.get(name)))
        from sympy.combinatorics import PermutationGroup

        for attr in SYMPY_METHODS:
            setattr(PermutationGroup, attr, self.wrap("backend.sympy", getattr(PermutationGroup, attr)))
        for mod in [oblique, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def metrics(self, names):
        """``.calls`` and ``.self_s`` per span name, plus the derived counters."""
        out = {}
        for name in names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        builds = self.calls["group.chain.build"]
        contains = self.calls["group.chain.contains"]
        closures = self.calls["group.normal_closure"]
        c = self.counts
        out["group.chain.build.mean_degree"] = (c["group.chain.build.degree_sum"] / builds if builds else 0.0, "points")
        out["group.chain.contains.hit_ratio"] = (c["group.chain.contains.true"] / contains if contains else 0.0, "ratio")
        out["group.chain.elements.enumerated"] = (int(c["group.chain.elements.enumerated"]), "count")
        out["group.normal_closure.chains_per_call"] = (
            c["group.normal_closure.child_chains"] / closures if closures else 0.0,
            "count",
        )
        out["lattice.normal_lattice.members"] = (int(c["lattice.normal_lattice.members"]), "count")
        return out

    def top_self(self, k=10):
        total = sum(self.self_s.values()) or 1.0
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:k]
        return [(name, s, s / total) for name, s in ranked]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "report"], "dropped": self.dropped}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
