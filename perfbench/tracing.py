"""Span tracing of the rggembed layers from outside the package.

``Tracer`` wraps every public module-level function and every public method
of every public class defined in the traced modules.  ``install`` binds the
wrappers wherever the package bound the originals (so ``embed.split_tree``,
imported by name, is traced too); ``uninstall`` puts the originals back, so
an untraced trial runs the unmodified program.

A span is ``[scope, name, parent, start, end, info]``: ``scope`` is the id
the benchmark gives the request in flight (a trial index, or ``"setup"``),
``parent`` the index of the enclosing span and ``info`` the counts observed
at that boundary.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

LAYERS = ("geometry", "rgg", "trees", "decompose", "embed", "harness")

# Counts recorded where the work happens, from the value a span returns.
OBSERVERS = {
    "decompose.split_tree": lambda res: {"parts_k": res.k},
    "embed.embed_tree": lambda res: {"placed": int((res.map >= 0).sum()), "n": len(res.map)},
    "rgg.GeometricGraph.edges": lambda res: {"edges": len(res)},
    "rgg.hop_diameter": lambda res: {"exact": bool(res.exact)},
}

# Spans inside which the tracemalloc peak is recorded, in bytes, while
# ``measure_memory`` is set.  tracemalloc slows every allocation (it doubles
# the edge build), so timed spans are recorded with it off.
MEMORY_SPANS = frozenset({"rgg.GeometricGraph.adjacency"})


class Tracer:
    def __init__(self, package: str = "rggembed"):
        self.spans: list[list] = []
        self.scope = None
        self.measure_memory = False
        self._stack: list[int] = []
        self._installed = False
        namespaces = [m for n, m in sys.modules.items()
                      if n == package or n.startswith(package + ".")]
        # (owner, attribute, original, wrapper) for every binding to replace
        self._patches: list[tuple[object, str, object, object]] = []
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    self._patches += [(ns, attr, obj, wrapper) for ns in namespaces
                                      if vars(ns).get(attr) is obj]
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth}"
                        if meth.startswith("_"):
                            continue
                        if inspect.isfunction(raw):
                            self._patches.append((obj, meth, raw, self._wrap(name, raw)))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            wrapper = type(raw)(self._wrap(name, raw.__func__))
                            self._patches.append((obj, meth, raw, wrapper))
        if not self._patches:
            raise RuntimeError(f"no public functions found in {package}")

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_tm = memory and self.measure_memory and not tracemalloc.is_tracing()
            if own_tm:
                tracemalloc.start()
            span = [self.scope, name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                if own_tm:
                    span[5] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if observe is not None:
                span[5] = {**(span[5] or {}), **observe(result)}
            return result

        return traced

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._installed = False

    def self_times(self):
        """Yield (scope, name, self seconds, info) for every closed span."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (scope, name, _, start, end, info) in enumerate(self.spans):
            yield scope, name, end - start - child[i], info
