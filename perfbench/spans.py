"""In-memory span tracer that measures mahlerlat's layers from outside.

`Tracer.install` wraps the public functions of each library module (the
layers) and rebinds every alias of them in every loaded ``mahlerlat``
module, because the modules import each other's functions with
``from .x import y``.  `Tracer.remove` puts every original back.  Spans live
in memory as plain lists and are written out only when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("intpoly", "roots", "mahler", "salem", "fields", "lattice", "adjoint", "cli")

# Spans whose name is not "<layer>.<function>".  gcd(f, f*) and the exact
# division after it are one step of the circle/inside counts.
RENAMED = {
    "intpoly.poly_gcd": "intpoly.gcd",
    "intpoly.exact_div": "intpoly.gcd",
    "intpoly.irreducibility_report": "intpoly.irreducibility",
    "intpoly.IntPoly.squarefree_decomposition": "intpoly.squarefree",
    "intpoly.IntPoly.graeffe": "intpoly.graeffe",
}
# Methods traced as layer calls; other IntPoly methods are ring arithmetic.
METHODS = {"intpoly": ("IntPoly", ("squarefree_decomposition", "graeffe"))}
# Spans whose return value the per-layer metrics read.
KEEP_RESULT = {"mahler.kronecker_test", "lattice.dirichlet_c", "salem.search_box"}

# Span record fields.
NAME, START, END, PARENT, OP, FAILED, ARG, RESULT = range(8)
MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, False, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False,
                   args[0] if args else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[RESULT] = result
            return result

        setattr(traced, MARK, fn)
        return traced

    # -- installing and removing wrappers --------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = [importlib.import_module(f"mahlerlat.{layer}") for layer in LAYERS]
        modules = _library_modules()
        for layer, mod in zip(LAYERS, layers):
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(RENAMED.get(name, name), obj)
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, alias, wrapper)
            cls_name, methods = METHODS.get(layer, (None, ()))
            for meth in methods:
                cls = getattr(mod, cls_name)
                name = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self._wrap(RENAMED.get(name, name), vars(cls)[meth]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        assert_unwrapped()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover.  Spans on one
        thread nest, so the children of a span are disjoint."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def nesting_errors(self) -> int:
        """Spans that lie outside their parent or in another op."""
        bad = 0
        for rec in self.spans:
            if rec[PARENT] >= 0:
                parent = self.spans[rec[PARENT]]
                if rec[START] < parent[START] or rec[END] > parent[END] or rec[OP] != parent[OP]:
                    bad += 1
        return bad

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, op, failed."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as handle:
            for rec in self.spans:
                handle.write(json.dumps([rec[NAME], round(rec[START] - t0, 7),
                                         round(rec[END] - t0, 7), rec[PARENT], rec[OP],
                                         rec[FAILED]]))
                handle.write("\n")


def _library_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mahlerlat" or name.startswith("mahlerlat."))]


def assert_unwrapped() -> None:
    """Raise if any traced wrapper is still bound anywhere in the library."""
    for mod in _library_modules():
        holders = [mod] + [v for v in vars(mod).values()
                           if inspect.isclass(v) and v.__module__.startswith("mahlerlat")]
        for holder in holders:
            for attr, value in vars(holder).items():
                if callable(value) and hasattr(value, MARK):
                    raise RuntimeError(f"tracing wrapper left on {holder.__name__}.{attr}")
