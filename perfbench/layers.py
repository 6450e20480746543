"""Per-layer tracing of the monoheight package from outside it.

``Tracer.install()`` wraps the public functions and public methods of each
layer module and rebinds every name in every ``monoheight`` namespace that
refers to one of them, so package re-exports and ``from .x import f`` copies
are traced too.  Inside ``with tracer.recording():`` a wrapper pushes a frame
on one stack; when it returns, its self time is its duration minus the time
of the spans nested directly in it.  Outside, wrappers only pass the call
through.  ``uninstall()`` puts every original back.

Modules outside ``LAYERS`` (``quadratic``, ``polys``, ``scalars``, ...) are
leaf arithmetic: they are not wrapped, so their time lands in the self time
of the layer that called them.  Calls to sympy made from ``matrices`` and
``rationals`` are counted, not timed.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "systems", "heights", "baker", "jordan", "matrices", "points",
          "logforms", "precision", "rationals", "kernels")

# sympy entry points whose calls from SYMPY_CALLERS are counted.
SYMPY_FUNCTIONS = ("factor_list", "gcd", "resultant", "factorint", "isprime")
SYMPY_POLY_METHODS = ("all_roots",)
SYMPY_CALLERS = ("monoheight.matrices", "monoheight.rationals")


def _distinct_first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _distinct_log_enclosure(args, kwargs):
    return tuple(args) + tuple(sorted(kwargs.items()))


# Span name -> key of its input, for the distinct-input counts.
DISTINCT = {
    "precision.log_enclosure": _distinct_log_enclosure,
    "matrices.modulus_profile": _distinct_first,
    "jordan.limit_matrix_B": _distinct_first,
}

# (parent span, child span) pairs whose direct nesting is counted.
EDGES = {
    ("logforms.LogLinear.sign", "logforms.LogLinear.enclosure"),
    ("systems.growth_table", "matrices.spectral_radius"),
}


def _words_of_growth_table(args, kwargs):
    """Words a growth_table call enumerates: sum of k^n for n = 1..n_max."""
    system = args[0] if args else kwargs["F"]
    n_max = args[1] if len(args) > 1 else kwargs.get("n_max", 12)
    k = len(getattr(system, "matrices", system))
    return sum(k**n for n in range(1, n_max + 1))


class Tracer:
    """Span stack, self times and counters for one traced process."""

    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)  # span name -> calls
        self.self_s = defaultdict(float)  # span name -> self seconds
        self.layer_of = {}  # span name -> layer
        self.distinct = defaultdict(set)  # span name -> distinct input keys
        self.edges = defaultdict(int)  # (parent, child) -> direct nestings
        self.counts = defaultdict(int)  # free-form counters
        self.covered_s = 0.0  # time inside some top-level span
        self._active = [False]
        self._undo = []

    @contextmanager
    def recording(self):
        self._active[0] = True
        try:
            yield self
        finally:
            self._active[0] = False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, layer, fn):
        stack = self.stack
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s
        distinct_key = DISTINCT.get(name)
        distinct = self.distinct[name] if distinct_key is not None else None
        parents = {p for p, c in EDGES if c == name}
        edges = self.edges
        counts = self.counts
        words = _words_of_growth_table if name == "systems.growth_table" else None
        self.layer_of[name] = layer
        tracer = self
        active = self._active

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            calls[name] += 1
            if distinct_key is not None:
                distinct.add(distinct_key(args, kwargs))
            if parents and stack and stack[-1][0] in parents:
                edges[(stack[-1][0], name)] += 1
            if words is not None:
                counts["systems.words_enumerated"] += words(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.covered_s += duration

        return functools.wraps(fn)(wrapper)

    def _count_sympy(self, fname, fn):
        counts = self.counts
        active = self._active

        def counted(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if active[0] and caller in SYMPY_CALLERS:
                counts[f"{caller.rsplit('.', 1)[1]}.sympy.{fname}"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer and count sympy calls; returns self."""
        importlib.import_module("monoheight.cli")
        package = sys.modules["monoheight"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "monoheight" or n.startswith("monoheight.")) and m is not None]
        replace = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = getattr(package, layer)
            for fname, obj in vars(mod).items():
                if fname.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
                elif (inspect.isfunction(obj) or inspect.isbuiltin(obj)) and self._owned(mod, obj):
                    replace.setdefault(id(obj), self._wrap(f"{layer}.{fname}", layer, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and callable(obj):
                    self._set(mod, attr, replace[id(obj)])
        import sympy

        for fname in SYMPY_FUNCTIONS:
            self._set(sympy, fname, self._count_sympy(fname, getattr(sympy, fname)))
        for fname in SYMPY_POLY_METHODS:
            self._set(sympy.Poly, fname, self._count_sympy(fname, sympy.Poly.__dict__[fname]))
        return self

    @staticmethod
    def _owned(mod, fn):
        """Defined in the layer module or in a private implementation module."""
        origin = getattr(fn, "__module__", None) or ""
        return origin == mod.__name__ or origin.startswith("monoheight._")

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, layer, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, layer, obj))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """layer -> (calls, self seconds)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, n in self.calls.items():
            out[self.layer_of[name]][0] += n
            out[self.layer_of[name]][1] += self.self_s[name]
        return out

    def snapshot(self):
        """Plain-data copy of everything recorded, for the parent process."""
        return {
            "layers": self.layer_totals(),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
        }
