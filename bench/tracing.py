"""Per-layer spans and counters, installed around the library from outside.

``Tracer.install`` replaces the public functions of ``finite``,
``relations``, ``byleen``, ``infinite`` and ``cli`` (and the methods in
``METHODS``) by ``setattr`` on their module or class.  The library resolves
module globals at call time, so calls between its own functions are traced
too.  Each call records a span (id, name, start, end, parent id, job index);
a layer's self time is its spans' duration minus the time their child spans
cover.  Size counters are read from arguments and return values at the
layer boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("finite", "relations", "byleen", "infinite", "cli")

# (module, class, attribute) -> layer name
METHODS = {
    ("byleen", "TwoTransitiveMatrix", "find_column"): "byleen.TwoTransitiveMatrix.find_column",
    ("byleen", "TwoTransitiveMatrix", "find_row"): "byleen.TwoTransitiveMatrix.find_row",
    ("infinite", "CoInjection", "__post_init__"): "infinite.CoInjection.init",
}

# Public functions called about 1e5 times or more in one pass of some
# workload.  They stay unwrapped, so their time counts as their caller's.
LEFT_OUT = frozenset({
    "finite.relabel",           # ~84k a pass: 24 per canonical_form at order 4
    "infinite.bicyclic_mul",    # ~84k a pass in the bicyclic suite
    "infinite.bicyclic_leq",    # ~6.3M a pass: the 49^4 compatibility sweep
})

# Not caught: call sites that resolve a name bound with ``from ... import``
# never see a wrapper set on the defining module.  In the library that is
# only byleen's ``identity_index`` (from .finite), called by
# TwoTransitiveMatrix.__init__.


def _index_bits(args, letter):
    bits = letter.n.bit_length()
    return {"index_bits_sum": bits, "index_bits_max": bits}


def _witness(args, out):
    pairs, _failing, strategy = out
    return {"pairs": len(pairs), strategy: 1}


# layer -> f(args, result) -> {quantity: amount}; quantities ending in
# "_max" keep the maximum, all others are summed.
SIZES = {
    "finite.validate_cayley": lambda args, s: {"triples": s.order ** 3},
    "finite.enumerate_semigroups": lambda args, s: {"tables": 1},
    "relations.brute_force_is_dsc":
        lambda args, out: {"subsets": 2 ** (args[0].order ** 2 - args[0].order)},
    "relations.witness_non_dsc": _witness,
    "relations.axiom_report": lambda args, out: {"pairs": len(args[1])},
    "byleen.reduce": lambda args, nf: {"letters": len(args[1])},
    "byleen.TwoTransitiveMatrix.find_column": _index_bits,
    "byleen.TwoTransitiveMatrix.find_row": _index_bits,
    "byleen.span_witness": lambda args, expr: {"factors": len(expr.factors)},
    "infinite.co_compose":
        lambda args, f: {"progressions": len(f.complement.progressions)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent id, job)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.sizes: dict = {}          # "<layer>.<quantity>" -> amount
        self.job = None
        self._stack: list[list] = []   # [id, name, parent id, start, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, parent, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = time.perf_counter()
        sid, name, parent, start, child = self._stack.pop()
        took = end - start
        self.self_s[name] += took - child
        if self._stack:
            self._stack[-1][4] += took
        self.spans.append((sid, name, start, end, parent, self.job))

    def _count(self, name, amounts):
        for quantity, amount in amounts.items():
            key = f"{name}.{quantity}"
            if quantity.endswith("_max"):
                self.sizes[key] = max(self.sizes.get(key, amount), amount)
            else:
                self.sizes[key] = self.sizes.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn):
        sizer = SIZES.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[name] += 1
                with contextlib.closing(fn(*args, **kwargs)) as gen:
                    while True:
                        self._enter(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._exit()
                        if sizer:
                            self._count(name, sizer(args, item))
                        yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if sizer:
                self._count(name, sizer(args, out))
            return out
        return traced

    def _replace(self, owner, attr, name):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"sgdsc.{short}")
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in LEFT_OUT):
                    self._replace(mod, attr, name)
        for (short, cls, attr), name in METHODS.items():
            owner = getattr(importlib.import_module(f"sgdsc.{short}"), cls)
            self._replace(owner, attr, name)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layers(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "sizes": self.sizes}


def layer_metric(layers, name):
    """Value of a per-layer metric "<layer>.<quantity>"; 0 if never seen."""
    layer, quantity = name.rsplit(".", 1)
    if quantity in ("calls", "self_s"):
        return layers[quantity].get(layer, 0)
    return layers["sizes"].get(name, 0)
