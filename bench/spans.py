"""Spans around the public functions of each relalg layer.

The tracer wraps each listed function in every module namespace that holds
it, found by identity through ``sys.modules``.  Wrapping only the defining
module would miss callers that imported the name, and the package attribute
``relalg.search`` is the function, not the submodule, so the namespaces are
found by scanning rather than by attribute paths.

Spans stay in memory.  Each records its layer, start, end, the index of the
span that caused it, and the unit of work it belongs to (an operation or a
set-up); ``summary`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
import time

# public relalg name -> layer metric prefix
LAYERS = {
    "search": "search",
    "boolean_guided_search": "search",
    "canonical_form": "algebra.canonical_form",
    "automorphism_count": "algebra.automorphism_count",
    "find_isomorphism": "algebra.find_isomorphism",
    "check_validity": "terms.check_validity",
    "parse_sentence": "terms.parse_sentence",
    "status_vector": "axioms.status_vector",
    "satisfies": "axioms.satisfies",
    "build_model": "catalog.build_model",
}


class Tracer:
    def __init__(self, package):
        self.spans: list = []      # (layer, start, end, parent, unit)
        self.results: list = []    # (unit, nodes, classes) per search call
        self.unit = None
        self._stack: list[int] = []
        self._patches = []         # (namespace, name, original, wrapper)
        originals = {}
        for name, layer in LAYERS.items():
            fn = getattr(package, name, None)
            if not callable(fn):
                raise RuntimeError(f"relalg has no public function {name!r} to trace")
            originals[id(fn)] = (fn, self._wrap(layer, fn))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((namespace, key) + originals[id(value)])

    def _wrap(self, layer, fn):
        spans, stack, results = self.spans, self._stack, self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.unit)
            if layer == "search":
                results.append((self.unit, out.nodes_explored, out.iso_class_count))
            return out
        return traced

    def install(self):
        for namespace, key, _, wrapper in self._patches:
            namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, original, _ in self._patches:
            namespace[key] = original

    def summary(self, phase: str, scales: dict) -> dict:
        """Per-layer totals over the units of one phase ("op" or "setup"):
        layer -> [calls, self seconds], plus search leaves, nodes, classes.
        Each span's self time is multiplied by ``scales[unit]``."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {layer: [0, 0.0] for layer in set(LAYERS.values())}
        leaves = 0
        for index, (layer, start, end, parent, unit) in enumerate(self.spans):
            if unit is None or unit[0] != phase:
                continue
            layers[layer][0] += 1
            layers[layer][1] += (end - start - child_time[index]) * scales[unit]
            if (layer == "algebra.canonical_form" and parent >= 0 and
                    self.spans[parent][0] == "search"):
                leaves += 1
        nodes = sum(n for unit, n, _ in self.results if unit and unit[0] == phase)
        classes = sum(c for unit, _, c in self.results if unit and unit[0] == phase)
        return {"layers": layers, "leaves": leaves, "nodes": nodes, "classes": classes}
