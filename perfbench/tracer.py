"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of every query-path module of
`horoindex` (plus a few hot methods) and puts each wrapper at every namespace
that binds the original object, because modules import each other's
functions by name (`from .polytopes import hull`) and a wrapper installed
only at the defining module would miss those inner calls.  `uninstall()`
puts every original back.

Each wrapped call is a span.  Spans nest on a stack; a span's self time is
its duration minus the time covered by its child spans, so self times add up
to the time inside the outermost spans without double counting.  Only aggregates (calls,
self time, counters) are kept, per span name, so memory stays flat however
many spans a run makes.

Counters that a ratio needs are taken where the work happens, in hooks that
run after the wrapped call returns.  Hook time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

# Modules on the query path.  `finite_sets` is not on any workload's path and
# is left unwrapped; `rationals` is wrapped, but its real cost is operator
# calls on rationals, which show up as self time of the callers.
LAYERS = ("cli", "serialization", "spaces", "polarization", "gelfand_tsetlin",
          "weyl", "polynomials", "polytopes", "lattices", "linalg", "rationals")

# Methods wrapped in addition to module-level functions: (module, class, name).
METHODS = (
    ("polytopes", "Polytope", "contains"),
    ("lattices", "AffineLattice", "coordinates"),
    ("lattices", "AffineLattice", "contains"),
    ("lattices", "AffineLattice", "point_at"),
    ("lattices", "AffineLattice", "direction_contains"),
    ("lattices", "AffineLattice", "direction_sublattice"),
    ("polynomials", "Polynomial", "__call__"),
    ("polynomials", "Polynomial", "compose_affine"),
)

def _public_functions(module):
    """(name, object) of the public functions a module defines itself."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            out.append((name, obj))
    return out


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, package="horoindex"):
        self.package = package
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)
        self._stack = []  # frames: [name, start, child time]
        self._paused = [False]
        self._restore = []  # (owner, key, original, setter)
        self._cached = {}  # name -> (lru-cached function, cache_info at install)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"{self.package}.{name}")
                   for name in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
                if isinstance(fn, functools._lru_cache_wrapper):
                    self._cached[f"{layer}.{name}"] = (fn, fn.cache_info())
        # every binding site in the package (the package namespace and
        # module-level dispatch tables included)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                self._rebind(vars(module), attr, value, wrappers)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        self._rebind(value, key, item, wrappers)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original, setattr))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def _rebind(self, namespace, key, value, wrappers):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            self._restore.append((namespace, key, value, dict.__setitem__))
            namespace[key] = hit[1]

    def uninstall(self):
        for owner, key, original, put in reversed(self._restore):
            put(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, stat = self._stack, self.stats[name]
        paused = self._paused
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat.calls += 1
                stat.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                paused[0] = True
                try:
                    hook(tracer, args, result)
                finally:
                    paused[0] = False
                if stack:
                    stack[-1][2] += clock() - end
            return result

        return wrapper

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- results --------------------------------------------------------------

    def cache_lookups(self, name):
        """(hits, lookups) of an lru-cached function since install()."""
        fn, base = self._cached[name]
        info = fn.cache_info()
        hits, misses = info.hits - base.hits, info.misses - base.misses
        return hits, hits + misses


# -- hooks: counters measured where the work happens --------------------------

def _hull(tracer, args, result):
    tracer.counters["polytopes.hull.points_in"] += len(args[0])  # callers pass lists
    tracer.counters["polytopes.hull.vertices_out"] += len(result.vertices)


def _newton_lift(tracer, args, result):
    tracer.counters["gelfand_tsetlin.newton_lift.points_out"] += len(result.vertices)


def _triangulation(tracer, args, result):
    tracer.counters["polytopes.triangulation.simplices"] += len(result)


def _polarize(tracer, args, result):
    tracer.counters["polarization.subset_sums"] += 2 ** len(args[1]) - 1


def _measure(tracer, args, result):
    if tracer.inside("polarization.polarize"):
        tracer.counters["polarization.useful"] += 1


def _lattice_points(tracer, args, result):
    poly, lattice = args[0], args[1]
    coords = [lattice.coordinates(v) for v in poly.vertices]
    candidates = 1
    for j in range(lattice.rank):
        vals = [c[j] for c in coords]
        candidates *= max(0, math.floor(max(vals)) - math.ceil(min(vals)) + 1)
    tracer.counters["polytopes.lattice_points.candidates"] += candidates
    tracer.counters["polytopes.lattice_points.points"] += len(result)


_HOOKS = {
    "polytopes.hull": _hull,
    "gelfand_tsetlin.newton_lift": _newton_lift,
    "polytopes.triangulation": _triangulation,
    "polarization.polarize": _polarize,
    "polytopes.volume": _measure,
    "polynomials.integrate": _measure,
    "polytopes.lattice_points": _lattice_points,
}
