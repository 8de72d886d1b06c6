"""Spans around imeasure's public functions, installed from outside the package.

A traced run replaces each listed function or method at every place it is
bound: the defining module, every imeasure module that imported it by name,
and the package namespace.  A function bound in only one place would
otherwise skip its span whenever it is called through another name.

Each span records its name, start, end, parent span, op id and op class.
Self time is a span's duration minus the time its child spans cover.
`component_count` runs hundreds of thousands of times per op, so its spans
are summed as they close instead of being kept one record each; their time
still counts as child time of the span that called them.  Functions whose
metric is a call count are only counted, so their time stays in the caller.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (module, attribute path, kind): the public functions and methods each layer
# metric is read from.
TARGETS = (
    ("measures", "entropy_vector", SPAN),
    ("measures", "Distribution.marginal", COUNT),
    ("measures", "Distribution.from_json", SPAN),
    ("measures", "mu_from_entropy", SPAN),
    ("measures", "entropy_from_mu", SPAN),
    ("measures", "check_mrf", SPAN),
    ("measures", "vanishing_atoms", SPAN),
    ("measures", "atom_measure_from_distribution", SPAN),
    ("measures", "EntropyVector.from_json", SPAN),
    ("measures", "EntropyVector.to_json", SPAN),
    ("measures", "IMeasureVector.to_json", SPAN),
    ("graphs", "Graph.component_count", LEAF),
    ("graphs", "Graph.__init__", COUNT),
    ("atoms", "image_of_graph", SPAN),
    ("atoms", "recover_graph", SPAN),
    ("atoms", "type_of_atom", COUNT),
    ("atoms", "AtomSet.to_json", SPAN),
    ("atoms", "AtomSet.from_json", SPAN),
    ("subfield", "smallest_graph", SPAN),
    ("subfield", "subfield_graph", SPAN),
    ("subfield", "equals_induced", SPAN),
    ("subfield", "subtree_condition", SPAN),
    ("diagram", "build_plan", SPAN),
    ("diagram", "elimination_sequence", SPAN),
    ("diagram", "export_plan", SPAN),
    ("cli", "main", SPAN),
)
JSON_TARGETS = ("loads", "dumps")

COMPONENT_COUNT = "graphs.Graph.component_count"


def _package_modules(pkg):
    prefix = pkg.__name__ + "."
    return [pkg] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m]


def _raw(owner, attr: str):
    """The attribute as stored, so a classmethod is seen as a classmethod."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Patches:
    """Replaced bindings, restored in reverse order by `undo`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, pkg, module: str, path: str, factory) -> None:
        """Replace one target at its definition and at every by-name import of it."""
        owner = getattr(pkg, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = _raw(owner, attr)
        if isinstance(owner, type):
            is_classmethod = isinstance(raw, classmethod)
            wrapped = factory(raw.__func__ if is_classmethod else raw)
            self.set(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            return
        wrapped = factory(raw)
        for mod in _package_modules(pkg):
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self.set(mod, name, wrapped)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one traced pass.

    Set `op_id` and `group` (the op's class) before each op and call
    `end_op` after it.
    """

    def __init__(self):
        self.op_id = 0
        self.group = ""
        self.spans: list[tuple] = []  # (op, group, span, parent, name, start, end, leaf child seconds)
        self.leaf_self: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.memo_repeats = 0
        self.unparented_leaf_s = 0.0  # leaf time spent outside any open span
        self._stack: list[list] = []  # open spans: [span id, leaf child seconds]
        self._next_id = 1
        self._masks: dict[int, tuple[object, set]] = {}

    def end_op(self) -> None:
        """Forget per-instance mask sets; graphs do not outlive their op."""
        self._masks.clear()

    def _span(self, name: str, fn):
        stack, clock, spans, calls = self._stack, time.perf_counter, self.spans, self.calls

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                calls[self.group, name] += 1
                spans.append((self.op_id, self.group, sid, parent, name, t0, t1, frame[1]))

        return traced

    def _leaf(self, name: str, fn):
        stack, clock, leaf_self, calls = self._stack, time.perf_counter, self.leaf_self, self.calls

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                if stack:
                    stack[-1][1] += dur
                else:
                    self.unparented_leaf_s += dur
                leaf_self[self.group, name] += dur
                calls[self.group, name] += 1

        return timed

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[self.group, name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_masks(self, fn):
        """Count calls on a mask the same graph instance was already asked about."""
        masks = self._masks

        def counted(g, removed=0, *rest):
            entry = masks.get(id(g))
            if entry is None:
                entry = masks[id(g)] = (g, set())  # holding g keeps its id unique
            key = removed if isinstance(removed, int) else frozenset(removed)
            if key in entry[1]:
                self.memo_repeats += 1
            else:
                entry[1].add(key)
            return fn(g, removed, *rest)

        return counted

    def install(self, pkg) -> Patches:
        patches = Patches()
        make = {SPAN: self._span, LEAF: self._leaf, COUNT: self._count}
        for module, path, kind in TARGETS:
            name = f"{module}.{path}"
            if name == COMPONENT_COUNT:
                factory = lambda fn, name=name: self._leaf(name, self._count_masks(fn))
            else:
                factory = lambda fn, name=name, kind=kind: make[kind](name, fn)
            patches.wrap(pkg, module, path, factory)
        for attr in JSON_TARGETS:
            patches.set(json, attr, self._span(f"json.{attr}", getattr(json, attr)))
        return patches

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (op class, span name): duration minus the children's cover."""
        out: dict[tuple[str, str], float] = defaultdict(float, self.leaf_self)
        child: dict[int, float] = defaultdict(float)
        for op, group, sid, parent, name, t0, t1, leaf in self.spans:
            if parent:
                child[parent] += t1 - t0
        for op, group, sid, parent, name, t0, t1, leaf in self.spans:
            out[group, name] += (t1 - t0) - child[sid] - leaf
        return out

    def top_level_s(self) -> float:
        """Time attributed to some layer: spans with no parent, and leaf calls made outside any span."""
        spans = sum(t1 - t0 for op, group, sid, parent, name, t0, t1, _ in self.spans if not parent)
        return spans + self.unparented_leaf_s

    def ops_calling(self, name: str) -> set[int]:
        return {op for op, group, sid, parent, span, t0, t1, _ in self.spans if span == name}


def entropy_peak_bytes(pkg, calls) -> int:
    """Largest tracemalloc peak of one entropy_vector call while running `calls`.

    Tracing starts and stops around each entropy_vector call, so the rest of
    the op runs at full speed.
    """
    peak = 0

    def factory(fn):
        def measured(*args, **kwargs):
            nonlocal peak
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    patches = Patches()
    patches.wrap(pkg, "measures", "entropy_vector", factory)
    try:
        for fn in calls:
            fn()
    finally:
        patches.undo()
    return peak
