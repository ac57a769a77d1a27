"""Per-layer tracing installed from outside the program.

:class:`Tracer` replaces the public entry points of each ``laxweyl`` module
with timing wrappers.  Several modules import functions by name (``lax``
imports ``christoffel_weyl``, the package re-exports everything), so a
function is replaced under every name any loaded ``laxweyl`` module binds
it to, and methods are replaced on their classes.  ``uninstall`` restores
the originals.

Every wrapped call adds to its key's call count and inclusive time, and to
its layer's self time (its duration minus the time of wrapped calls made
inside it).  Coarse spans (name, document, start, end, parent) are kept in
memory for the entry points a document's checks call directly, and written
as JSON when the run ends; the fine-grained calls (``Expr`` operators,
total derivatives, reductions, linear algebra) are only aggregated, since
there are millions of them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

# (module, attribute, layer, key) of each wrapped function; key None means
# the call only counts towards its layer
FUNCTIONS = [
    ("dsl", "parse_document", "dsl", "dsl.parse"),
    ("linalg", "rref", "linalg", None),
    ("linalg", "rank", "linalg", None),
    ("linalg", "nullspace", "linalg", None),
    ("linalg", "solve", "linalg", None),
    ("linalg", "solve_unique", "linalg", None),
    ("linalg", "determinant", "linalg", None),
    ("linalg", "minor", "linalg", None),
    ("linalg", "adjugate", "linalg", None),
    ("linalg", "invert", "linalg", None),
    ("linalg", "mat_mul", "linalg", None),
    ("linalg", "mat_vec", "linalg", None),
    ("conformal", "matrix_symbol", "conformal", None),
    ("conformal", "characteristic_polynomial", "conformal", None),
    ("conformal", "theta_decompose", "conformal", None),
    ("conformal", "characteristic_quadric", "conformal", None),
    ("conformal", "invert_to_metric", "conformal", None),
    ("conformal", "conformal_metric", "conformal", "conformal.metric"),
    ("conformal", "conformal_equal", "conformal", "conformal.equal"),
    ("weyl", "christoffel_levi_civita", "weyl.curvature", None),
    ("weyl", "christoffel_weyl", "weyl.curvature", None),
    ("weyl", "riemann_tensor", "weyl.curvature", None),
    ("weyl", "ricci_tensor", "weyl.curvature", None),
    ("weyl", "weyl_curvature_tensor", "weyl.curvature", None),
    ("weyl", "dual_on_second_pair", "weyl.curvature", None),
    ("weyl", "ew_residual", "weyl", "weyl.ew_residual"),
    ("weyl", "sd_residual", "weyl", "weyl.sd_residual"),
    ("weyl", "solve_weyl_form", "weyl", "weyl.solve_form"),
    ("lax", "verify_lax", "lax", "lax.verify"),
    ("lax", "characteristic_check", "lax", "lax.characteristic"),
    ("lax", "conic_oracle", "lax", "lax.conic"),
    ("lax", "monge_invariant", "lax", "lax.monge"),
    ("lax", "recover_metric", "lax", "lax.recover_metric"),
    ("lax", "congruence_from_vectors", "lax", None),
]

# (module, class, method, layer, key)
METHODS = [
    ("expr", "Expr", "__add__", "expr", "expr.op"),
    ("expr", "Expr", "__sub__", "expr", "expr.op"),
    ("expr", "Expr", "__rsub__", "expr", "expr.op"),
    ("expr", "Expr", "__mul__", "expr", "expr.op"),
    ("expr", "Expr", "__truediv__", "expr", "expr.op"),
    ("expr", "Expr", "__rtruediv__", "expr", "expr.op"),
    ("expr", "Expr", "__neg__", "expr", "expr.op"),
    ("expr", "Expr", "__pow__", "expr", "expr.op"),
    ("jets", "Coordinates", "total_derivative", "jets", "jets.total_derivative"),
    ("ideal", "SolvedSystem", "reduce", "ideal.reduce", "ideal.reduce"),
    ("ideal", "SolvedSystem", "prolonged_nf", "ideal.prolong", "ideal.prolong"),
    ("conformal", "Quadric", "to_metric", "conformal", None),
    ("conformal", "Metric", "inverse_matrix", "conformal", None),
    ("conformal", "Metric", "determinant", "conformal", None),
    ("lax", "LaxPair", "apply_x", "lax", None),
    ("lax", "LaxPair", "apply_y", "lax", None),
    ("lax", "LaxPair", "horizontal_residuals", "lax", None),
    ("lax", "LaxPair", "vertical_residual", "lax", None),
    ("lax", "LaxPair", "residuals", "lax", None),
    ("lax", "LaxPair", "is_normal", "lax", None),
]

# entry points that get a coarse span
SPANNED = {"dsl.parse", "conformal.metric", "conformal.equal",
           "weyl.ew_residual", "weyl.sd_residual", "weyl.solve_form",
           "lax.verify", "lax.characteristic", "lax.conic", "lax.monge",
           "lax.recover_metric"}

# per-layer metrics: name -> (unit, how to compute from totals)
LAYER_METRICS = [
    ("dsl.parse_s", "s/doc"), ("dsl.parse_calls", "count/doc"),
    ("dsl.bytes", "bytes/doc"),
    ("expr.ops", "count/doc"), ("expr.self_s", "s/doc"),
    ("expr.sumden_ops", "count/doc"), ("expr.sumden_self_s", "s/doc"),
    ("expr.result_terms", "count/doc"),
    ("jets.total_derivative_calls", "count/doc"),
    ("jets.total_derivative_self_s", "s/doc"),
    ("ideal.reduce_calls", "count/doc"), ("ideal.reduce_self_s", "s/doc"),
    ("ideal.prolong_calls", "count/doc"), ("ideal.prolong_self_s", "s/doc"),
    ("linalg.calls", "count/doc"), ("linalg.self_s", "s/doc"),
    ("conformal.calls", "count/doc"), ("conformal.self_s", "s/doc"),
    ("weyl.solve_form_s", "s/doc"), ("weyl.ew_residual_s", "s/doc"),
    ("weyl.sd_residual_s", "s/doc"), ("weyl.curvature_self_s", "s/doc"),
    ("lax.verify_s", "s/doc"), ("lax.raw_residual_terms", "count/doc"),
    ("lax.characteristic_s", "s/doc"), ("lax.conic_s", "s/doc"),
    ("lax.recover_metric_s", "s/doc"), ("lax.self_s", "s/doc"),
    ("trace.overhead_s", "s/doc"),
]


def _terms(e) -> int:
    return len(e.num) + len(e.den)


class Tracer:
    """Timing wrappers around ``laxweyl``'s public entry points."""

    def __init__(self, package):
        self.package = package
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.key_self: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []
        self.doc = -1                        # number of the current document
        self._stack: List[list] = []        # [child_time, span index]
        self._restore: List[tuple] = []

    # -- installation ---------------------------------------------------------

    def _modules(self):
        name = self.package.__name__
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == name or k.startswith(name + "."))]

    def install(self) -> None:
        modules = self._modules()
        pkg = self.package.__name__
        for module, attr, layer, key in FUNCTIONS:
            original = getattr(sys.modules["%s.%s" % (pkg, module)], attr)
            wrapper = self._wrap(original, layer, key)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, original))
                        setattr(m, name, wrapper)
        for module, cls_name, method, layer, key in METHODS:
            cls = getattr(sys.modules["%s.%s" % (pkg, module)], cls_name)
            original = cls.__dict__[method]
            wrapper = self._wrap(original, layer, key)
            for name, value in list(cls.__dict__.items()):
                if value is original:          # aliases such as __radd__
                    self._restore.append((cls, name, original))
                    setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: Optional[str]):
        clock, stack = time.perf_counter, self._stack
        calls, inclusive = self.calls, self.inclusive
        layer_self, key_self = self.layer_self, self.key_self
        counters, spans = self.counters, self.spans
        spanned = key in SPANNED
        is_op = key == "expr.op"
        expr_cls = None
        if is_op:
            expr_cls = sys.modules[self.package.__name__ + ".expr"].Expr

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if spanned:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([key, self.doc, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                layer_self[layer] += own
                if spanned:
                    spans[frame[1]][2:4] = [start, end]
                if key is not None:
                    calls[key] += 1
                    inclusive[key] += duration
                    key_self[key] += own
                calls["layer:" + layer] += 1
            if is_op and isinstance(result, expr_cls):
                counters["expr.result_terms"] += _terms(result)
                if len(result.den) > 1 or any(
                        isinstance(a, expr_cls) and len(a.den) > 1
                        for a in args):
                    counters["expr.sumden_ops"] += 1
                    counters["expr.sumden_self_s"] += own
            elif key == "dsl.parse":
                counters["dsl.bytes"] += len(args[0].encode("utf-8"))
            elif key == "lax.verify":
                counters["lax.raw_residual_terms"] += sum(
                    _terms(e) for e in result.raw.values())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def metrics(self, docs: int, overhead_s: float) -> Dict[str, float]:
        """Per-document per-layer metrics over ``docs`` traced documents;
        ``overhead_s`` is the measured tracing cost per document."""
        c, inc, ctr = self.calls, self.inclusive, self.counters
        own = self.layer_self
        linalg_calls = c["layer:linalg"]
        conformal_calls = c["layer:conformal"]
        totals = {
            "dsl.parse_s": inc["dsl.parse"],
            "dsl.parse_calls": c["dsl.parse"],
            "dsl.bytes": ctr["dsl.bytes"],
            "expr.ops": c["expr.op"],
            "expr.self_s": own["expr"],
            "expr.sumden_ops": ctr["expr.sumden_ops"],
            "expr.sumden_self_s": ctr["expr.sumden_self_s"],
            "expr.result_terms": ctr["expr.result_terms"],
            "jets.total_derivative_calls": c["jets.total_derivative"],
            "jets.total_derivative_self_s": own["jets"],
            "ideal.reduce_calls": c["ideal.reduce"],
            "ideal.reduce_self_s": own["ideal.reduce"],
            "ideal.prolong_calls": c["ideal.prolong"],
            "ideal.prolong_self_s": own["ideal.prolong"],
            "linalg.calls": linalg_calls,
            "linalg.self_s": own["linalg"],
            "conformal.calls": conformal_calls,
            "conformal.self_s": own["conformal"],
            "weyl.solve_form_s": inc["weyl.solve_form"],
            "weyl.ew_residual_s": inc["weyl.ew_residual"],
            "weyl.sd_residual_s": inc["weyl.sd_residual"],
            "weyl.curvature_self_s": own["weyl.curvature"],
            "lax.verify_s": inc["lax.verify"],
            "lax.raw_residual_terms": ctr["lax.raw_residual_terms"],
            "lax.characteristic_s": inc["lax.characteristic"],
            "lax.conic_s": inc["lax.conic"] + inc["lax.monge"],
            "lax.recover_metric_s": inc["lax.recover_metric"],
            "lax.self_s": own["lax"],
            "trace.overhead_s": overhead_s * docs,
        }
        return {name: totals[name] / max(docs, 1) for name, _ in LAYER_METRICS}

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Spans and totals as JSON (times in seconds from the first span)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        payload = dict(meta)
        payload["spans"] = [
            {"name": n, "doc": d, "start": s - t0, "end": e - t0, "parent": p}
            for n, d, s, e, p in self.spans]
        payload["calls"] = dict(self.calls)
        payload["inclusive_s"] = dict(self.inclusive)
        payload["layer_self_s"] = dict(self.layer_self)
        payload["key_self_s"] = dict(self.key_self)
        payload["counters"] = dict(self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
