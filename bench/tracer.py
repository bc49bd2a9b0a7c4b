"""Spans and counters recorded from outside heckedual, by wrapping its
public functions at the layer boundaries.

A span is (name, start, end, parent), where parent is the index of the
enclosing span or -1.  Spans stay in memory until the traced process
writes them out.  Leaf helpers (``dot``, ``vec_add``, ``Laurent`` methods
other than the product) are not wrapped: they run millions of times per
pass and a span each would swamp the work it measures.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# span name -> (module, attribute path) of what it wraps
SPANS = {
    "lattice.ga_mul": ("lattice", "GroupAlgebraElement.__mul__"),
    "lattice.ga_sub": ("lattice", "GroupAlgebraElement.__sub__"),
    "lattice.ga_exact_div": ("lattice", "GroupAlgebraElement.exact_div"),
    "lattice.ga_apply_map": ("lattice", "GroupAlgebraElement.apply_map"),
    "rootdatum.weyl_group": ("rootdatum", "weyl_group"),
    "rootdatum.dominant_below": ("rootdatum", "dominant_below"),
    "dualdata.langlands_dual_data": ("dualdata", "langlands_dual_data"),
    "satake.image_extended": ("satake", "satake_image_extended"),
    "satake.image": ("satake", "satake_image"),
    "satake.structure_polynomials": ("satake", "structure_polynomials"),
    "satake.tree_structure_constants": ("satake", "tree_structure_constants"),
    "rfunc.make_parameter": ("rfunc", "make_parameter"),
    "rfunc.local_rfactor": ("rfunc", "local_rfactor"),
    "rfunc.evaluate": ("rfunc", "RFactor.evaluate"),
    "rfunc.split_by_sqrt": ("rfunc", "split_by_sqrt"),
    "rfunc.epsilon_twist": ("rfunc", "epsilon_twist"),
}
# counted without a span: far too many calls for one each
COUNTED = {"lattice.laurent_mul": ("lattice", "Laurent.__mul__")}
CALLBACK = "(trace)"  # pseudo-span covering the tracer's own bookkeeping


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # targets the package no longer has

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result, *args) runs outside every span's
        self time, as a pseudo-span child of the caller."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(result, *args)
                spans.append((CALLBACK, end, clock(), parent))
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "missing": self.missing},
                      handle)


def install(tracer: Tracer) -> None:
    """Wrap every SPANS and COUNTED target; names not found go to tracer.missing."""
    mods = {m: importlib.import_module("heckedual." + m)
            for m in ("lattice", "rootdatum", "dualdata", "satake", "rfunc", "cli")}
    namespaces = list(mods.values()) + [importlib.import_module("heckedual")]
    counts = tracer.counts
    dominant_below = mods["rootdatum"].dominant_below
    seen_images = set()

    def ga_terms(result, *args):
        counts["lattice.ga_mul.terms_out"] += len(result.support())

    def points(result, *args):
        counts["rootdatum.dominant_below.points"] += len(result)

    def image(result, dd, lam):
        key = (dd.base, tuple(lam))
        if key not in seen_images:
            seen_images.add(key)
            counts["satake.image.distinct"] += 1
            counts["satake.image.terms"] += len(result.poly.support())

    def peel(result, dd, lam, mu):
        top = tuple(a + b for a, b in zip(lam, mu))
        counts["satake.peel.visited"] += len(dominant_below(dd.base, top))
        counts["satake.peel.hits"] += len(result.coeffs)

    after = {"lattice.ga_mul": ga_terms, "rootdatum.dominant_below": points,
             "satake.image": image, "satake.structure_polynomials": peel}
    for table in (SPANS, COUNTED):
        for name, (module, path) in table.items():
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                tracer.missing.append(name)
                continue
            if table is SPANS:
                wrapped = tracer.span(name, original, after.get(name))
            else:
                wrapped = tracer.counted(name, original)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            # a function is bound by name in every module importing it
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    setattr(ns, attr, wrapped)


def layer_totals(spans) -> tuple[Counter, Counter]:
    """Calls and self time per span name; self time is the duration minus
    the part covered by direct child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, start, end, _), inner in zip(spans, covered):
        if name != CALLBACK:
            calls[name] += 1
            self_s[name] += end - start - inner
    return calls, self_s
