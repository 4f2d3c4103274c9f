"""Span tracing of mqds's public entry points, installed from outside.

`Tracer.install` replaces each traced function or method with a wrapper
and rebinds every module attribute in the mqds package that holds the
original (``star`` is imported by name into models, verify, cli and the
package, for example), so calls made through any of those names are seen.
`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent span, op id); spans stay in memory and
are written out once, after the pass.  A span's self time is its duration
minus the time its child spans cover.  Some boundaries only count (term
pairs, dropped terms, bytes written); those counters carry no span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.stack: List[int] = []
        self.op = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[object, str, object]] = []
        self._in_grid = 0

    # -- wrappers -----------------------------------------------------------
    def _spanned(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn: Callable, after: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every mqds module attribute holding `original` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mqds" or mod_name.startswith("mqds.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_function(self, module, attr: str, name: str, after=None, span=True) -> None:
        original = getattr(module, attr)
        wrapper = self._spanned(name, original, after) if span else self._counted(original, after)
        self._rebind(original, wrapper)

    def _wrap_method(self, cls, attr: str, name: str, after=None, span=True) -> None:
        original = getattr(cls, attr)
        wrapper = self._spanned(name, original, after) if span else self._counted(original, after)
        self._set(cls, attr, wrapper)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        import mqds.cli  # noqa: F401 - loads every submodule
        mods = sys.modules
        poly, gp, alg = mods["mqds.poly"], mods["mqds.gausspoly"], mods["mqds.algebra"]
        st, models, verify, cli = mods["mqds.star"], mods["mqds.models"], mods["mqds.verify"], mods["mqds.cli"]
        counts, maxima = self.counts, self.maxima

        def mul_after(args, kwargs, result):
            counts["poly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            if len(result.terms) > maxima["poly.mul.max_terms"]:
                maxima["poly.mul.max_terms"] = len(result.terms)

        def pruned_after(args, kwargs, result):
            counts["poly.pruned.dropped_terms"] += len(args[0].terms) - len(result.terms)

        self._wrap_method(poly.Poly, "mul", "poly.mul", mul_after)
        self._wrap_method(poly.Poly, "pruned", "poly.pruned", pruned_after, span=False)

        self._wrap_method(gp.CompositionContext, "compose", "gausspoly.compose")
        self._wrap_method(gp.CompositionContext, "__init__", "gausspoly.ctx.build")
        self._wrap_function(gp, "moments_poly", "gausspoly.moments")
        self._wrap_function(gp, "moments_scalar", "gausspoly.moments")
        self._wrap_function(gp, "integrate_poly_exp", "gausspoly.integrate")
        cache = getattr(gp, "_CTX_CACHE", None)
        lookup = gp.composition_context

        def lookup_counted(*args, **kwargs):
            before = len(cache) if cache is not None else 0
            result = lookup(*args, **kwargs)
            if cache is not None and len(cache) < before:
                counts["gausspoly.ctx.evictions"] += 1
            return result

        lookup_counted.__wrapped__ = lookup
        self._rebind(lookup, self._spanned("gausspoly.ctx.lookup", lookup_counted))

        def pair_counter(name):
            def after(args, kwargs, result):
                counts[name] += 1
            return after

        self._wrap_function(st, "star", "star.star")
        self._wrap_function(st, "_series_term_pair", "star.pairs.series",
                            pair_counter("star.pairs.series"), span=False)
        self._wrap_function(st, "_compose_term_pair", "star.pairs.compose",
                            pair_counter("star.pairs.compose"), span=False)
        self._wrap_function(st, "quadrature_star_oracle", "star.oracle")

        QG = alg.QGFunction
        evaluate = QG.evaluate
        evaluate_spanned = self._spanned("algebra.evaluate", evaluate)

        def evaluate_any(*args, **kwargs):
            # per-point calls inside evaluate_grid count but carry no span:
            # their time stays in the grid evaluator's self time
            if self._in_grid:
                counts["algebra.evaluate.calls"] += 1
                return evaluate(*args, **kwargs)
            return evaluate_spanned(*args, **kwargs)

        evaluate_any.__wrapped__ = evaluate
        self._set(QG, "evaluate", evaluate_any)

        evaluate_grid = QG.evaluate_grid

        def evaluate_grid_marked(*args, **kwargs):
            self._in_grid += 1
            try:
                return evaluate_grid(*args, **kwargs)
            finally:
                self._in_grid -= 1

        def grid_after(args, kwargs, result):
            counts["algebra.evaluate_grid.points"] += len(result)

        evaluate_grid_marked.__wrapped__ = evaluate_grid
        self._set(QG, "evaluate_grid", self._spanned("algebra.evaluate_grid", evaluate_grid_marked,
                                                     grid_after))
        self._wrap_method(QG, "__init__", "algebra.construct")

        for attr in ("oscillator_wigner", "oscillator_wigner_ladder", "toy_resonant",
                     "toy_resonant_ladder", "dho_f", "dho_g"):
            self._wrap_function(models, attr, "models.build")

        def run_all_after(args, kwargs, report):
            for entry in report.entries:
                counts[f"verify.check.{entry.name}.s"] += entry.wall_time

        self._wrap_function(verify, "run_all", "verify.run_all", run_all_after)
        self._wrap_function(cli, "main", "cli.main")

        def emit_after(args, kwargs, result):
            counts["cli.bytes_out"] += len(args[0].encode())

        self._wrap_function(cli, "_emit", "cli.emit", emit_after, span=False)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    # -- results ----------------------------------------------------------------
    def layer_totals(self) -> Dict[str, float]:
        """Calls and self seconds per span name, plus the counters."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
        for key, value in self.counts.items():
            out[key] += value
        out.update(self.maxima)
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
