"""Span tracing of the layers, from outside the program.

Each traced function is wrapped once, and the wrapper is installed in every
``transverse`` module namespace that holds the original, because a module
that did ``from .fpcore import rref`` calls its own binding.  ``Subspace`` is
counted through its ``__post_init__``, which every constructor path runs.

Spans stay in memory as four parallel arrays (name id, start, end, parent
index) and are written out once, when the traced pass ends.  A span's self
time is its duration minus the durations of its direct children; spans of
one thread nest, so the children never overlap.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute) of every traced function, named <module>.<function>.
TRACED = (
    ("fpcore", "rref"),
    ("fpcore", "rref_kernel"),
    ("fpcore", "all_subspaces"),
    ("bilinear", "is_bilinear"),
    ("bilinear", "ann"),
    ("bilinear", "orth"),
    ("bilinear", "closure"),
    ("pairsets", "transversality_violation"),
    ("pairsets", "dir_sum"),
    ("pairsets", "projections"),
    ("constructions", "build_P_sigma"),
    ("constructions", "build_P_xi"),
    ("projgeom", "recognize_projective"),
    ("explorer", "exhaustive_subset_sweep"),
    ("explorer", "classify_hyperplane_fibers"),
    ("explorer", "search_sigma"),
    ("explorer", "verify_collineation_lemma"),
    ("explorer", "fundamental_sweep"),
    ("explorer", "xi_line_sweep"),
    ("cli", "run"),
    ("cli", "read_set"),
    ("cli", "write_document"),
    ("cli", "content_digest"),
)

# lru_cache tables whose hit ratio is reported, as (metric prefix, module, attribute).
CACHES = (
    ("bilinear.coords_table", "bilinear", "_coords_table"),
    ("pairsets.mask_to_subspace", "pairsets", "mask_to_subspace"),
    ("pairsets.subspace_mask", "pairsets", "subspace_mask"),
    ("projgeom.line_structure", "projgeom", "line_structure"),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        # distinct (W1, W2, ann) of is_bilinear verdicts, for repeat_share
        self.verdict_keys: set = set()

    def wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded transverse module."""
        modules = [m for k, m in sys.modules.items()
                   if k == "transverse" or k.startswith("transverse.")]
        for module, attr in TRACED:
            original = getattr(sys.modules[f"transverse.{module}"], attr)
            on_result = self._record_verdict if attr == "is_bilinear" else None
            wrapper = self.wrap(f"{module}.{attr}", original, on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        subspace = sys.modules["transverse.fpcore"].Subspace
        subspace.__post_init__ = self.wrap("fpcore.Subspace", subspace.__post_init__)

    def _record_verdict(self, verdict) -> None:
        self.verdict_keys.add((verdict.w1, verdict.w2, verdict.ann))

    def summary(self) -> dict:
        """Per traced name: calls and self seconds; plus repeat_share and the
        cache hit ratios, as flat metric names."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = [0.0] * n
        for i in range(n):
            q = parent[i]
            if q >= 0:
                child[q] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        verdicts = out["bilinear.is_bilinear.calls"]
        out["bilinear.is_bilinear.repeat_share"] = (
            1.0 - len(self.verdict_keys) / verdicts if verdicts else 0.0)
        for prefix, module, attr in CACHES:
            info = getattr(sys.modules[f"transverse.{module}"], attr).cache_info()
            lookups = info.hits + info.misses
            out[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["spans"] = n
        return out

    def write(self, path: str) -> None:
        """The spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "H"], ["start", "d"], ["end", "d"], ["parent", "l"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)
