"""Spans around momangle's public functions, recorded from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper everywhere the package holds the original: the defining module,
every module that imported it by name (``hochster``, ``products``,
``classify``, ``cellular``, ``cli``) and the package ``__init__``.
Spans (function, start, end, parent span, request id) stay in memory
until ``write``.  A function's self time is its span time minus the time
of the wrapped calls made inside it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# (layer module, function) pairs; metrics are named "<layer>.<function>.*".
TRACED = (
    ("complexes", "SimplicialComplex.full_subcomplex"),
    ("linalg", "reduced_homology"),
    ("linalg", "homology_profile"),
    ("linalg", "int_invariant_factors"),
    ("linalg", "int_rank"),
    ("linalg", "rank_mod_p"),
    ("linalg", "cocycle_basis"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("hochster", "hochster_table"),
    ("products", "tor_basis"),
    ("products", "multiply"),
    ("products", "cochain_class_coords"),
    ("products", "product_table"),
    ("products", "is_cup_golod"),
    ("cellular", "rk_chain_complex"),
    ("cellular", "rk_betti"),
    ("classify", "is_minimally_non_golod"),
    ("classify", "is_gorenstein_star"),
    ("classify", "recognize_connected_sum"),
    ("classify", "verify_theorem_1_1"),
    ("classify", "verify_theorem_1_2"),
    ("classify", "verify_theorem_4_2"),
    ("cli", "main"),
)

# Counters taken from return values, keyed by the function that returns them.
_OBSERVED = {
    "linalg.cocycle_basis": ("linalg.cocycle_basis.useful", lambda r: len(r) > 0),
    "products.multiply": ("products.multiply.nonzero", lambda r: not r.is_zero),
    "hochster.hochster_table": ("hochster.subsets_nonzero", lambda r: len(r.subsets)),
    "cellular.rk_chain_complex": ("cellular.rk_chain_complex.cells", lambda r: sum(r.dims)),
}


def _label(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rpartition('.')[2]}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, attr in TRACED:
        label = _label(layer, attr)
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units["linalg.reduced_homology.hit_ratio"] = "1"
    units["linalg.cocycle_basis.useful_ratio"] = "1"
    units["hochster.subsets_nonzero"] = "count"
    units["products.multiply.nonzero_ratio"] = "1"
    units["cellular.rk_chain_complex.cells"] = "count"
    units["trace.overhead_ratio"] = "1"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        # (label index, start, end, parent span index or -1, request id)
        self.spans: list[tuple | None] = []
        self.request = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._reduced_homology = None
        self._cache_before = None

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "momangle" or name.startswith("momangle.")
        ]
        for layer, attr in TRACED:
            owner = importlib.import_module(f"momangle.{layer}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, fn_name)
            label = _label(layer, attr)
            wrapper = self._wrap(label, original)
            setattr(owner, fn_name, wrapper)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
            if label == "linalg.reduced_homology":
                self._reduced_homology = original
        self._cache_before = self._reduced_homology.cache_info()

    def _wrap(self, label: str, fn):
        index = len(self.labels)
        self.labels.append(label)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter, measure = _OBSERVED.get(label, (None, None))

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.request)
            if counter is not None:
                counts[counter] += measure(result)
            return result

        return traced

    def reduced_homology_calls(self) -> tuple[int, int]:
        """(wrapped calls, cache hits + misses) since install; equal when no
        call went around the wrapper."""
        index = self.labels.index("linalg.reduced_homology")
        wrapped = sum(1 for span in self.spans if span[0] == index)
        now = self._reduced_homology.cache_info()
        cached = (now.hits + now.misses) - (
            self._cache_before.hits + self._cache_before.misses
        )
        return wrapped, cached

    def metrics(self) -> dict[str, float]:
        n = len(self.labels)
        calls = [0] * n
        self_s = [0.0] * n
        inside = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                inside[parent] += end - start
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - inside[slot]
        out: dict[str, float] = {}
        for index, label in enumerate(self.labels):
            out[f"{label}.calls"] = calls[index]
            out[f"{label}.self_s"] = self_s[index]
        now = self._reduced_homology.cache_info()
        hits = now.hits - self._cache_before.hits
        misses = now.misses - self._cache_before.misses
        by_label = dict(zip(self.labels, calls))
        c = self.counts
        out["linalg.reduced_homology.hit_ratio"] = _ratio(hits, hits + misses)
        out["linalg.cocycle_basis.useful_ratio"] = _ratio(
            c["linalg.cocycle_basis.useful"], by_label["linalg.cocycle_basis"]
        )
        out["hochster.subsets_nonzero"] = c["hochster.subsets_nonzero"]
        out["products.multiply.nonzero_ratio"] = _ratio(
            c["products.multiply.nonzero"], by_label["products.multiply"]
        )
        out["cellular.rk_chain_complex.cells"] = c["cellular.rk_chain_complex.cells"]
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: function,start,end,parent,request."""
        with gzip.open(path, "wt") as fh:
            fh.write("function,start,end,parent,request\n")
            for index, start, end, parent, request in self.spans:
                fh.write(f"{self.labels[index]},{start:.9f},{end:.9f},{parent},{request}\n")
