"""Spans around calls into surfcalc's public functions, installed from
outside the package.

`install` replaces every public function of the layer modules, in every
surfcalc module that holds a reference to it (so `criteria.effective_
combinations` is wrapped as well as `lattice.effective_combinations`), plus
the few methods the per-layer metrics name.  Each call records a span:
name, parent span, query id, start and end.  A generator's span covers
each resumption, so its self time excludes the consumer's work.  Spans
stay in flat arrays in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

LAYERS = ("lattice", "criteria", "seshadri", "positivity", "bundles", "blowup",
          "qdivisor", "surface_io", "report", "cli")
METHODS = (("lattice", "IntersectionLattice", ("pair", "inertia")),
           ("report", "CertificateReport", ("render", "to_json")))
# spans whose enclosing search owns the combinations a generator yields
SEARCH_OWNERS = ("criteria.", "seshadri.")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.query_id = -1
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def search_owner(self) -> str | None:
        """Module prefix of the innermost criteria/seshadri span open now."""
        for i in reversed(self.stack):
            name = self.names[self.name_of[i]]
            for prefix in SEARCH_OWNERS:
                if name.startswith(prefix):
                    return prefix[:-1]
        return None

    def summary(self, queries=None) -> dict:
        """Per span name: calls, total and self seconds, durations.  With
        `queries`, only spans of those query ids count."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            if queries is not None and self.query[i] not in queries:
                continue
            dur = self.end[i] - self.start[i]
            s = out.setdefault(self.names[self.name_of[i]],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
            s["durations"].append(dur)
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: id, parent, query, name,
        start, end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tquery\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.query[i]}\t"
                         f"{self.names[self.name_of[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n")


def _run_hook(tracer, hook, args, kwargs, result):
    """Counters must never change the answer: a hook that no longer fits a
    changed signature is counted and skipped."""
    try:
        hook(tracer, args, kwargs, result)
    except Exception:                  # reported through the counter
        tracer.count("bench.hook_errors")


def _wrap_function(tracer, fn, name, hook):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if hook is not None:
            _run_hook(tracer, hook, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(tracer, fn, name, hook):
    nid = tracer.name_id(name)
    yielded = name + ".yielded"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            _run_hook(tracer, hook, args, kwargs, None)
        gen = fn(*args, **kwargs)
        while True:
            i = tracer.begin(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.finish(i)
            tracer.count(yielded)
            owner = tracer.search_owner()
            if owner is not None:
                tracer.count(owner + ".visited")
            yield item

    return wrapper


def install(tracer: Tracer, modules: dict, hooks: dict | None = None):
    """Wrap the layers' public functions and named methods; returns a
    function that puts the originals back.  `modules` maps dotted module
    names (surfcalc.*) to loaded modules; `hooks` maps span names to
    callables (tracer, args, kwargs, result) run after each call."""
    hooks = hooks or {}
    layer_modules = {f"surfcalc.{layer}" for layer in LAYERS}
    wrapped: dict = {}
    undo = []

    def wrapper_for(fn, name):
        if fn not in wrapped:
            make = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_function
            wrapped[fn] = make(tracer, fn, name, hooks.get(name))
        return wrapped[fn]

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ not in layer_modules):
                continue
            name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
            undo.append((mod, attr, obj))
            setattr(mod, attr, wrapper_for(obj, name))
    for layer, cls_name, methods in METHODS:
        cls = getattr(modules.get(f"surfcalc.{layer}"), cls_name, None)
        for meth in methods:
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:           # gone in a refactor: metric unobserved
                continue
            undo.append((cls, meth, original))
            setattr(cls, meth, wrapper_for(original, f"{layer}.{meth}"))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
