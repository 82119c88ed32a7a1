"""Span tracer for the benchmark's traced run.

The tracer wraps public monocat functions from outside the package.  A
function imported by name into another module (``enumerate`` binds
``is_mono``, ``is_iso_reps`` and ``is_indecomposable``; ``rep.is_iso_reps``
calls the global ``find_iso_reps``) is replaced in every module namespace that
binds the original object, so each call goes through one wrapper.

Spans (name, start, end, parent, item) are kept in memory in flat arrays and
written out by :meth:`Tracer.write`.  A layer's self time is the span's
duration minus the time covered by its child spans; nesting is strict in a
single thread, so the covered time is the sum of the direct children's
durations.  Hot arithmetic entry points are counted without spans.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional

from monocat.decompose import BudgetExceeded

# -- hooks: derive layer counters from a call's arguments and result ---------------------


def _iso_add(tracer, args, kwargs, result):
    classifier = args[0]
    if result:
        tracer.bump("enumerate.classifier_new")
    tracer.raise_max("enumerate.bucket_max", max(map(len, classifier.buckets.values())))


def _classes(tracer, args, kwargs, report):
    tracer.bump("enumerate.classes", len(report.classes))


def _find_iso(tracer, args, kwargs, result):
    found, _, certificate = result
    tracer.bump(f"rep.find_iso_reps.{certificate}")
    if found:
        tracer.bump("rep.find_iso_reps.found")


def _hom_slots(tracer, args, kwargs, result):
    tracer.bump("rep.hom_reps.slots", len(args[0].slots))


def _truthy(tracer, args, kwargs, result):
    if result:
        tracer.bump("decompose.is_indecomposable.true")


def _splits(tracer, args, kwargs, result):
    if result is not None:
        tracer.bump("decompose.fitting_split.splits")


def _rows(tracer, args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    tracer.bump("exact.solve_hom_system.rows", len(rows))


def _lattice(tracer, args, kwargs, result):
    tracer.bump("concrete.lattice_size", len(result))


# (module, attribute path, metric prefix, hook deriving extra counters or None)
SPANNED = [
    ("monocat.enumerate", "rep_fingerprint", "enumerate.rep_fingerprint", None),
    ("monocat.enumerate", "IsoClassifier.add", "enumerate.IsoClassifier.add", _iso_add),
    ("monocat.enumerate", "enumerate_bounded", "enumerate.enumerate_bounded", _classes),
    ("monocat.rep", "find_iso_reps", "rep.find_iso_reps", _find_iso),
    ("monocat.rep", "is_mono", "rep.is_mono", None),
    ("monocat.rep", "RepHomSpace.__init__", "rep.hom_reps", _hom_slots),
    ("monocat.rep", "f_shriek", "rep.f_shriek", None),
    ("monocat.decompose", "is_indecomposable", "decompose.is_indecomposable", _truthy),
    ("monocat.decompose", "decompose", "decompose.decompose", None),
    ("monocat.decompose", "fitting_split", "decompose.fitting_split", _splits),
    ("monocat.exact", "kernel", "exact.kernel", None),
    ("monocat.exact", "cokernel", "exact.cokernel", None),
    ("monocat.exact", "image", "exact.image", None),
    ("monocat.exact", "solve_left", "exact.solve_left", None),
    ("monocat.exact", "solve_right", "exact.solve_right", None),
    ("monocat.exact", "solve_hom_system", "exact.solve_hom_system", _rows),
    ("monocat.exact", "snf_free", "exact.snf_free", None),
    ("monocat.mimo", "mimo", "mimo.mimo", None),
    ("monocat.mimo", "stable_reduce", "mimo.stable_reduce", None),
    ("monocat.mimo", "mimo_from_stable", "mimo.mimo_from_stable", None),
    ("monocat.mimo", "transfer", "mimo.transfer", None),
    ("monocat.mimo", "strip_injective_summands", "mimo.strip_injective_summands", None),
    ("monocat.serialmod", "hom_space", "serialmod.hom_space", None),
    ("monocat.serialmod", "mor_compose", "serialmod.mor_compose", None),
    ("monocat.serialmod", "direct_sum", "serialmod.direct_sum", None),
    ("monocat.concrete", "ConcreteModule.submodules", "concrete.ConcreteModule.submodules",
     _lattice),
    ("monocat.io", "representation_to_json", "io.representation_to_json", None),
    ("monocat.io", "representation_from_json", "io.representation_from_json", None),
]

# Counted without spans: (module, attribute path, counter name, wrapper kind or None)
COUNTED = [
    ("monocat.enumerate", "_linear_mono_candidates", "enumerate.candidates", "generator"),
    ("monocat.enumerate", "_generic_candidates", "enumerate.candidates", "generator"),
    ("monocat.rep", "ResidueSpace.__init__", "rep.ResidueSpace.calls", "residue_rank"),
    ("monocat.decompose", "_residue_witness", "decompose.residue_witness.calls", "budget"),
    ("monocat.base", "ChainBase.compose_coeff", "base.compose_coeff.calls", None),
    ("monocat.base", "Rad2NakBase.compose_coeff", "base.compose_coeff.calls", None),
    ("monocat.base", "StableBase.compose_coeff", "base.compose_coeff.calls", None),
    ("monocat.chainring", "ChainRingElem.__add__", "chainring.elem_ops", None),
    ("monocat.chainring", "ChainRingElem.__sub__", "chainring.elem_ops", None),
    ("monocat.chainring", "ChainRingElem.__mul__", "chainring.elem_ops", None),
    ("monocat.chainring", "ChainRingElem.__neg__", "chainring.elem_ops", None),
    ("monocat.quiver", "Quiver.paths", "quiver.paths.calls", None),
]

# Counters fed by hooks, reported as they are (max for *_max, else totals).
HOOK_COUNTERS = [
    "enumerate.classifier_new", "enumerate.bucket_max", "enumerate.classes",
    "rep.find_iso_reps.exhaustive", "rep.find_iso_reps.sampled", "rep.find_iso_reps.found",
    "rep.residue_rank_max", "rep.hom_reps.slots",
    "decompose.is_indecomposable.true", "decompose.fitting_split.splits",
    "decompose.budget_exceeded", "exact.solve_hom_system.rows", "concrete.lattice_size",
]

ITEM_SPAN = "bench.item"


class Tracer:
    """In-memory spans and counters; one instance per traced pass."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counts: Dict[str, int] = {}
        self.item = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item: int) -> int:
        self.item = item
        return self.open(self.name_id(ITEM_SPAN))

    def self_times(self) -> Dict[str, tuple]:
        """name -> (calls, self seconds), self time = duration minus the
        durations of direct child spans."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += self.span_end[i] - self.span_start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path: str, meta: dict):
        """Write every span as gzipped JSON columns."""
        doc = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "item": self.span_item.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
            "counts": self.counts,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)

    # -- counters ----------------------------------------------------------------------

    def bump(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    def raise_max(self, key: str, value: int):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- installing wrappers -----------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every listed function; ``extra_modules`` are non-monocat
        namespaces (the benchmark's own) that also bind them by name."""
        for modname, path, name, hook in SPANNED:
            self._patch(modname, path, self._spanned(name, hook), extra_modules)
        for modname, path, name, hook in COUNTED:
            self._patch(modname, path, self._counted(name, hook), extra_modules)
        for key in HOOK_COUNTERS:
            self.counts.setdefault(key, 0)
        for _, _, name, _ in COUNTED:
            self.counts.setdefault(name, 0)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modname: str, path: str, factory: Callable, extra_modules):
        module = sys.modules[modname]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, factory(original))
            return
        original = getattr(module, path)
        wrapped = factory(original)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "monocat" or n.startswith("monocat.")]
        for ns in namespaces + list(extra_modules):
            if ns.__dict__.get(path) is original:
                self._patches.append((ns, path, original))
                setattr(ns, path, wrapped)

    def _spanned(self, name: str, hook: Optional[Callable]):
        tracer = self
        nid = self.name_id(name)

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            return wrapper
        return factory

    def _counted(self, name: str, hook: Optional[str]):
        counts = self.counts
        tracer = self

        def factory(fn):
            if hook == "generator":
                @functools.wraps(fn)
                def gen_wrapper(*args, **kwargs):
                    for x in fn(*args, **kwargs):
                        counts[name] += 1
                        yield x
                return gen_wrapper
            if hook == "residue_rank":
                @functools.wraps(fn)
                def init_wrapper(obj, *args, **kwargs):
                    counts[name] += 1
                    fn(obj, *args, **kwargs)
                    tracer.raise_max("rep.residue_rank_max", obj.rank)
                return init_wrapper
            if hook == "budget":
                @functools.wraps(fn)
                def budget_wrapper(*args, **kwargs):
                    counts[name] += 1
                    try:
                        return fn(*args, **kwargs)
                    except BudgetExceeded:
                        tracer.bump("decompose.budget_exceeded")
                        raise
                return budget_wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return factory




def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metric values of one traced pass (see PER_LAYER)."""
    times = tracer.self_times()
    out: Dict[str, float] = {}
    for _, _, name, _ in SPANNED:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for key in HOOK_COUNTERS + [name for _, _, name, _ in COUNTED]:
        out[key] = tracer.counts.get(key, 0)
    calls = out["decompose.fitting_split.calls"]
    out["decompose.fitting_split.split_ratio"] = (
        out["decompose.fitting_split.splits"] / calls if calls else 0.0)
    return out
