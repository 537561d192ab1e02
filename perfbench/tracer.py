"""Spans and counters around the public functions of the `moufang` modules.

The tracer lives outside the program: `install()` replaces functions and
methods in the already imported modules with thin wrappers, including every
name another module bound with `from ... import`.  Nothing under `src/`
knows about it.

Two kinds of wrapper:

* span: records calls, total time, self time (total minus the time of its
  direct child spans) and, per layer, busy time (time with at least one span
  of that layer open).  The layer of a span is the module that defines the
  function.
* counter: counts calls and adds no timing.  Used on the hot scalar paths
  (field scalar operations, half-integer conversions) and on `Perm`
  products, which run millions of times at a few microseconds each.

Aggregates stay in memory and are returned by `Tracer.report()`.
"""

import functools
import time
import weakref

LAYERS = ("cli", "fields", "composition", "paige", "loops", "permgrp",
          "orthogonal", "triality", "cayley")

# Public module-level helpers called per element, tens of thousands of times
# per command line at microseconds each.  They get call counters instead of
# spans, so their time stays with the caller (the Zorn product, for dot3 and
# cross3).
COUNT_ONLY = {"composition.dot3", "composition.cross3", "orthogonal.norm_coords"}

# Methods of public classes: timed like functions (METHOD_SPANS), or counted
# into the named counter (METHOD_COUNTERS).
METHOD_SPANS = {
    "composition": {"ZornMatrix": ["__mul__"]},
    "cayley": {"ClassicalOctonion": ["__mul__"]},
    "paige": {"ZornEngine": ["mul"]},
    "loops": {"FiniteLoop": ["__init__", "ldiv", "rdiv"]},
    "permgrp": {"PermGroup": ["order", "contains", "base", "random_element",
                              "elements"]},
    "triality": {"LoopNet3": ["__init__"], "TrialityNet3": ["__init__"]},
}
METHOD_COUNTERS = {
    "fields": {"GF": [(m, "fields.scalar_ops") for m in
                      ("add", "sub", "mul", "neg", "inv", "div", "is_zero",
                       "is_square")],
               "HalfInteger": [("from_fraction", "fields.halfint_conversions"),
                               ("to_fraction", "fields.halfint_conversions")]},
    "permgrp": {"Perm": [("__mul__", "permgrp.perm_products")]},
}


class Tracer:
    """In-memory aggregates of spans and counters for one process."""

    def __init__(self):
        self.stack = []     # child-time accumulator of each open span
        self.stats = {}     # span name -> [calls, total_s, self_s]
        self.depth = {layer: [0] for layer in LAYERS}
        self.busy = {layer: [0.0] for layer in LAYERS}
        self.cells = {}     # counter name -> list of one-int cells
        self.extra = {}     # derived accumulators, see the hooks below
        self.chained = weakref.WeakSet()  # groups whose chain was timed

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn as a span; after(result, args, dt) runs on return."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer = name.split(".", 1)[0]
        depth = self.depth[layer]
        busy = self.busy[layer]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[0] -= 1
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if not depth[0]:
                    busy[0] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result, args, dt)
            return result
        wrapper.__perfbench__ = name
        return wrapper

    def counter(self, name, fn):
        cell = [0]
        self.cells.setdefault(name, []).append(cell)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        wrapper.__perfbench__ = name
        return wrapper

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    # -- hooks for derived per-layer metrics --------------------------------

    def hook(self, name):
        """The after-return hook for span `name`, or None."""
        if name == "paige.ZornEngine.mul":
            return lambda res, args, dt: self.add("paige.engine_rows",
                                                  int(res.size // 8))
        if name == "loops.FiniteLoop.__init__":
            def table_cells(res, args, dt):
                loop = args[0]
                if getattr(loop, "table", None) is not None:
                    self.add("loops.table_cells", int(loop.n) ** 2)
            return table_cells
        if name in ("loops.find_isomorphism", "loops.automorphisms"):
            return lambda res, args, dt: self.add(
                "loops.iso_maps", 0 if res is None else
                (len(res) if isinstance(res, list) else 1))
        if name == "loops.automorphism_count":
            return lambda res, args, dt: self.add("loops.iso_maps", int(res))
        if name in ("permgrp.PermGroup.order", "permgrp.PermGroup.contains",
                    "permgrp.PermGroup.base"):
            return self._chain_hook()
        if name == "permgrp.PermGroup.elements":
            return lambda res, args, dt: self.add("permgrp.elements_listed",
                                                  len(res))
        if name == "triality.triality_check":
            def checked(res, args, dt):
                details = res[1]
                self.add("triality.identity_checked",
                         int(details.get("identity_checked", 0)))
                self.add("triality.pairs_checked",
                         int(details.get("pairs_checked", 0)))
            return checked
        return None

    def _chain_hook(self):
        def chain(res, args, dt):
            group = args[0]
            if group in self.chained:
                return
            self.chained.add(group)
            self.add("permgrp.chain_s", dt)
            self.add("permgrp.gens_in", len(getattr(group, "gens", ())))
            base = getattr(type(group), "base", None)
            if base is not None:
                # the unwrapped method, so the lookup records no span
                self.add("permgrp.base_len",
                         len(getattr(base, "__wrapped__", base)(group)))
        return chain

    # -- results ------------------------------------------------------------

    def report(self):
        return {
            "spans": {k: list(v) for k, v in self.stats.items()},
            "busy": {k: v[0] for k, v in self.busy.items()},
            "counts": {k: sum(c[0] for c in cells)
                       for k, cells in self.cells.items()},
            "extra": dict(self.extra),
        }


def install(tracer):
    """Wrap the moufang modules in place; returns the wrapped names."""
    import importlib
    import moufang
    mods = {layer: importlib.import_module("moufang." + layer) for layer in LAYERS}
    namespaces = list(mods.values()) + [moufang]
    wrapped = []
    for layer, mod in mods.items():
        for key, value in list(vars(mod).items()):
            if key.startswith("_") or not callable(value) or isinstance(value, type):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            name = "%s.%s" % (layer, key)
            if name in COUNT_ONLY:
                replacement = tracer.counter(name, value)
            else:
                replacement = tracer.span(name, value, tracer.hook(name))
            # every module that bound the function with `from ... import`
            for ns in namespaces:
                for other, bound in list(vars(ns).items()):
                    if bound is value:
                        setattr(ns, other, replacement)
            wrapped.append(name)
    for layer, classes in METHOD_SPANS.items():
        for cls_name, methods in classes.items():
            for meth in methods:
                name = "%s.%s.%s" % (layer, cls_name, meth)
                if _wrap_method(getattr(mods[layer], cls_name, None), meth,
                                lambda fn: tracer.span(name, fn, tracer.hook(name))):
                    wrapped.append(name)
    for layer, classes in METHOD_COUNTERS.items():
        for cls_name, methods in classes.items():
            for meth, counter in methods:
                if _wrap_method(getattr(mods[layer], cls_name, None), meth,
                                lambda fn: tracer.counter(counter, fn)):
                    wrapped.append("%s.%s.%s" % (layer, cls_name, meth))
    return wrapped


def _wrap_method(cls, meth, make):
    """Replace cls.meth by make(function), keeping its descriptor kind;
    False when the class or method does not exist."""
    attr = None if cls is None else cls.__dict__.get(meth)
    if attr is None:
        return False
    if isinstance(attr, property):
        setattr(cls, meth, property(make(attr.fget), attr.fset, attr.fdel,
                                    attr.__doc__))
    elif isinstance(attr, classmethod):
        setattr(cls, meth, classmethod(make(attr.__func__)))
    elif isinstance(attr, staticmethod):
        setattr(cls, meth, staticmethod(make(attr.__func__)))
    else:
        setattr(cls, meth, make(attr))
    return True
