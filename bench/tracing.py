"""Spans around the public functions of every gbzeta module, installed from outside.

The library is not edited: `Tracer.install` rebinds each public function in
every module namespace that binds it (so `series.to_mpf` and
`quadrature.to_mpf` both go through the wrapper of `bigfloat.to_mpf`) and
each public method on the library's classes. Every wrapped call records a
span (operation id, span id, parent span, name, start, end, self time); a
few functions also add counts read from their arguments. Spans stay in
memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

# module names under gbzeta; `checks` is left out on purpose: it is not a
# workload, and cross-checks are expected to move into it
LAYERS = ("bernoulli", "polyrat", "zeta_even", "periodic", "quadrature",
          "series", "bigfloat", "cli")

# dunder methods that are part of a layer's public surface
_PUBLIC_DUNDERS = ("__call__",)


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    if not mod.startswith("gbzeta."):
        return None
    short = mod.split(".", 1)[1]
    return short if short in LAYERS else None


def _bound_args(sig, args, kwargs):
    try:
        ba = sig.bind(*args, **kwargs)
    except TypeError:
        return None  # the call itself is malformed and will raise
    ba.apply_defaults()
    return ba.arguments


def _index_getter(fn):
    """Reader of the `n`/`nmax` argument of a bernoulli function, or None."""
    params = list(inspect.signature(fn).parameters)
    for pname in ("n", "nmax"):
        if pname in params:
            pos = params.index(pname)
            return lambda args, kwargs: args[pos] if len(args) > pos else kwargs.get(pname)
    return None


class Tracer:
    """In-memory span store with per-function aggregates and argument counts."""

    def __init__(self, scratch_dir=None):
        self.scratch_dir = scratch_dir  # where child processes leave their spans
        self.children: dict = {}  # op id -> import_s, main_s of its child process
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self.op_id: int | None = None
        self._installed: list[tuple] = []
        self._sup_norm_keys: set = set()

    # -- recording -------------------------------------------------------

    def _counter(self, name: str, fn):
        """Argument counter for `name`, or None when its arguments are not counted."""
        hook = _ARG_COUNTERS.get(name)
        if hook is not None:
            sig = inspect.signature(fn)

            def count(args, kwargs):
                bound = _bound_args(sig, args, kwargs)
                if bound is not None:
                    hook(self, bound)

            return count
        get_index = _index_getter(fn) if name.startswith("bernoulli.") else None
        if get_index is None:
            return None
        counts = self.counts

        def max_index(args, kwargs):
            idx = get_index(args, kwargs)
            if isinstance(idx, int) and idx > counts["bernoulli.max_index"]:
                counts["bernoulli.max_index"] = idx

        return max_index

    def wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((tracer.op_id, sid, parent, name, t0, t1, dur - frame[1]))

        traced.__wrapped_by_bench__ = True
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        if self._installed:
            return
        pkg = importlib.import_module("gbzeta")
        modules = [pkg] + [importlib.import_module(f"gbzeta.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        classes = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and _layer_of(obj):
                    classes[id(obj)] = obj
                    continue
                if not inspect.isfunction(obj) or getattr(obj, "__wrapped_by_bench__", False):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, w)
        for cls in classes.values():
            layer = _layer_of(cls)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                    continue
                if isinstance(obj, (classmethod, staticmethod)):
                    kind, fn = type(obj), obj.__func__
                elif inspect.isfunction(obj):
                    kind, fn = None, obj
                else:
                    continue
                w = self.wrap(f"{layer}.{cls.__name__}.{fn.__name__}", fn)
                self._installed.append((cls, attr, obj))
                setattr(cls, attr, kind(w) if kind else w)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._installed):
            setattr(owner, attr, obj)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self, scale) -> dict:
        """{name: [calls, total_s, self_s]}, each span's times multiplied by scale[op]."""
        agg: dict[str, list] = {}
        for op, _, _, name, t0, t1, self_s in self.spans:
            row = agg.get(name)
            if row is None:
                row = agg[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += (t1 - t0) * scale[op]
            row[2] += self_s * scale[op]
        return agg

    def covered_time(self) -> dict:
        """{op id: time spent inside top-level spans}."""
        covered: dict = defaultdict(float)
        for op, _, parent, _, t0, t1, _ in self.spans:
            if parent is None:
                covered[op] += t1 - t0
        return covered

    def export(self) -> dict:
        """Spans and counts as JSON-ready data, for a child process to hand back."""
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge_child(self, path) -> None:
        """Add the spans and counts a child process wrote to `path` to the current op."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(path)
        base = self._next_id
        for _, sid, parent, name, t0, t1, self_s in child["spans"]:
            self.spans.append((self.op_id, base + sid,
                               None if parent is None else base + parent, name, t0, t1, self_s))
            self._next_id = max(self._next_id, base + sid)
        for key, v in child["counts"].items():
            if key == "bernoulli.max_index":
                self.counts[key] = max(self.counts[key], v)
            else:
                self.counts[key] += v
        self.children[self.op_id] = {k: child[k] for k in ("import_s", "main_s")}

    def dump(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["op", "span", "parent", "name", "t0", "t1", "self_s"]) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _count_remainder_cells(tr, a):
    tr.counts["series.remainder_R.cells"] += a["q2"] - a["q1"]


def _count_em_composite(tr, a):
    tr.counts["quadrature.cells"] += a["n_sub"]


def _count_em_unit(tr, a):
    tr.counts["quadrature.cells"] += 1


def _count_fourier(tr, a):
    tr.counts["periodic.coeffs_computed"] += a["K"]


def _count_sigma_tilde(tr, a):
    tr.counts["series.sigma_tilde.terms"] += a["r"]


def _count_sup_norm(tr, a):
    key = (a["m"], a["r"], a["prec"])
    if key in tr._sup_norm_keys:
        tr.counts["quadrature.sup_norm.repeats"] += 1
    tr._sup_norm_keys.add(key)


_ARG_COUNTERS = {
    "series.remainder_R": _count_remainder_cells,
    "quadrature.em_composite": _count_em_composite,
    "quadrature.em_unit": _count_em_unit,
    "periodic.fourier_coeffs": _count_fourier,
    "series.sigma_tilde": _count_sigma_tilde,
    "quadrature.sup_norm": _count_sup_norm,
}
