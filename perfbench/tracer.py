"""Spans around ``cutloc``'s public functions, installed from outside.

``cutloc`` modules bind each other's functions with ``from .x import y``, so
wrapping a function means rebinding every ``cutloc.*`` module attribute that
refers to it, and the class attribute for a method.  ``Tracer`` does that on
``install`` and puts every original back on ``uninstall``.

A span records name, parent, start and end, whether an exception passed
through it, and work counts derived from the call's arguments or result.
A direct recursive call (``render_json`` calling itself) folds into the
outer span.  No ``cutloc`` source file is touched.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "cutloc"

# Module -> functions wrapped besides the module's public ``__all__``
# functions.  ``cli`` exports only ``main``; its subcommands and renderer
# are the CLI layer's own work.  ``refine_on_arcs`` is used by ``distfield``
# but missing from ``projector.__all__``.
EXTRA_FUNCTIONS = {
    "cli": ("render_json", "cmd_report", "cmd_verify", "cmd_mk", "cmd_web"),
    "projector": ("refine_on_arcs",),
}

# Module -> (class, method) pairs wrapped on the class.
METHODS = {
    "boundary": (("BoundaryCurve", "__init__"),),
    "projector": (("CurveProjector", "__init__"),
                  ("CurveProjector", "project")),
}

# The layers, as ``cutloc`` module names.  ``fields`` and ``errors`` hold no
# work worth a span; ``arcs`` has classes only, whose per-point methods are
# too fine-grained to wrap (their work shows inside ``from_spec``,
# ``BoundaryCurve.__init__`` and ``refine_on_arcs``).
MODULES = ("cli", "shapes", "boundary", "cutlocus", "projector",
           "_kernels", "distfield", "integrals", "quadrature", "mk",
           "symmetry", "web")


def layer_of(module):
    """Metric prefix of a module (metric names may not start with '_')."""
    return module.lstrip("_")


def _rows(points):
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _pairs(queries, sites):
    return _rows(queries) * _rows(sites)


# Span name -> counts from (bound arguments, result).
COUNTERS = {
    "kernels.nearest_site":
        lambda a, r: {"pairs": _pairs(a["queries"], a["sites"])},
    "kernels.nearest_site_gap":
        lambda a, r: {"pairs": _pairs(a["queries"], a["sites"])},
    "kernels.winding_number":
        lambda a, r: {"pairs": _pairs(a["queries"], a["polygon"])},
    "distfield.build_distance_field":
        lambda a, r: {"cells": int(r.grid.nx * r.grid.ny)},
    "projector.CurveProjector.project":
        lambda a, r: {"queries": _rows(a["points"])},
    "projector.refine_on_arcs":
        lambda a, r: {"rows": _rows(a["points"])},
    "quadrature.golden_min_vec":
        lambda a, r: {"rows": int(np.size(a["lo"]))},
    "cutlocus.cut_table":
        lambda a, r: {"samples": len(r)},
}

# Span name -> argument whose callable is wrapped to count the nodes it is
# evaluated on.
NODE_COUNTED = {"quadrature.simpson_doubling_vec": "f"}


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ install

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        import cutloc.cli  # noqa: F401  (loads every layer module)
        wrappers = {}
        for module in MODULES:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))
                     and getattr(mod, n).__module__ == mod.__name__]
            names += EXTRA_FUNCTIONS.get(module, ())
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(
                    f"{layer_of(module)}.{name}", fn))
            for cls_name, meth in METHODS.get(module, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(
                    f"{layer_of(module)}.{cls_name}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def patches(self):
        """(owner, attribute, original) for every rebinding in force."""
        return list(self._patches)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -------------------------------------------------------------- spans

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        counter = COUNTERS.get(name)
        node_arg = NODE_COUNTED.get(name)
        sig = inspect.signature(fn) if (counter or node_arg) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {"id": len(spans),
                    "parent": stack[-1]["id"] if stack else None,
                    "name": name, "counts": {}, "error": None}
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if node_arg is not None:
                    bound.arguments[node_arg] = _node_counter(
                        span, bound.arguments[node_arg])
                    args, kwargs = bound.args, bound.kwargs
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span["error"] = type(e).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound.apply_defaults()
                span["counts"].update(counter(bound.arguments, result))
            return result

        wrapper._perfbench_span = name
        return wrapper


def _node_counter(span, f):
    counts = span["counts"]
    counts.setdefault("nodes", 0)

    def counted(t):
        counts["nodes"] += int(np.size(t))
        return f(t)

    return counted


# ---------------------------------------------------------------- summary

def summarize(spans):
    """Per span name: calls, total_s, self_s, errors and summed counts.

    Self time is the span's duration minus the time its child spans cover;
    children of one span run one after another, so that is the sum of
    their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        d = s["end"] - s["start"]
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["total_s"] += d
        agg["self_s"] += d - covered[s["id"]]
        agg["errors"] += s["error"] is not None
        for k, v in s["counts"].items():
            agg[k] = agg.get(k, 0) + v
    return out


def layer_self_s(spans, layer):
    """Self time of every span of one layer."""
    summary = summarize(spans)
    return sum(v["self_s"] for k, v in summary.items()
               if k.startswith(layer + "."))


def pairs_per_sample(spans):
    """Nearest-site pairs scanned inside cut tables per table sample."""
    by_id = {s["id"]: s for s in spans}
    pairs = 0
    samples = 0
    for s in spans:
        if s["name"] == "cutlocus.cut_table":
            samples += s["counts"].get("samples", 0)
        elif s["name"] == "kernels.nearest_site":
            p = s["parent"]
            while p is not None and by_id[p]["name"] != "cutlocus.cut_table":
                p = by_id[p]["parent"]
            if p is not None:
                pairs += s["counts"]["pairs"]
    return pairs / samples if samples else 0.0
