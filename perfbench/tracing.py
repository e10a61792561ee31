"""Spans around calls into weilpoly's public functions, from outside.

Each traced function is replaced, in every weilpoly module that holds it
under some name, by a wrapper that records a span (layer, start, end,
parent span, op).  weilpoly's own code is not changed; a caller that looks
the name up at call time, or imported it by name, reaches the wrapper.
Spans stay in memory; a layer's self time is its span's duration minus
the spans directly beneath it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute); a dotted attribute is a method
LAYERS = (
    ("bounds12.corollary_bounds", "bounds12", "corollary_bounds"),
    ("bounds12.lemma_quantities", "bounds12", "lemma_quantities"),
    ("bounds12.compare", "bounds12", "CertifiedReal.compare"),
    ("sturm.isolate_real_roots", "sturm", "isolate_real_roots"),
    ("sturm.refine_interval", "sturm", "refine_interval"),
    ("sturm.sturm_chain", "sturm", "sturm_chain"),
    ("intervals.eval_poly_interval", "intervals", "eval_poly_interval"),
    ("quadreal.interval", "quadreal", "QuadReal.interval"),
    ("weil.is_weil", "weil", "is_weil"),
    ("factorint.factor_over_integers", "factorint", "factor_over_integers"),
    ("fpoly.factor", "fpoly", "factor"),
    ("hensel.hensel_lift_multi", "hensel", "hensel_lift_multi"),
    ("padic.qp_factor_profile", "padic", "qp_factor_profile"),
    ("newton.polygon_case_id", "newton", "polygon_case_id"),
    ("classify7.classify", "classify7", "classify"),
    ("census.cross_check", "census", "cross_check"),
    ("cli.main", "cli", "main"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, op]
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for _, mod_name, _ in LAYERS:
            importlib.import_module("weilpoly." + mod_name)
        modules = [m for name, m in list(sys.modules.items()) if name == "weilpoly" or name.startswith("weilpoly.")]
        for layer, mod_name, attr in LAYERS:
            module = sys.modules["weilpoly." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(layer, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(layer, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def layer_totals(spans, op_scale=None) -> dict[str, dict]:
    """Per layer: number of calls and self time in seconds, each span's
    time multiplied by op_scale[its op] when given."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {layer: {"calls": 0, "self_s": 0.0} for layer, _, _ in LAYERS}
    for i, (layer, start, end, _, op) in enumerate(spans):
        out[layer]["calls"] += 1
        out[layer]["self_s"] += (end - start - child_time[i]) * (op_scale[op] if op_scale else 1.0)
    return out
