"""Span tracing of the symdefect package from outside it.

:class:`Tracer` replaces each public function of the package's modules by a
timing wrapper at every module attribute through which a caller looks it up
(``symdefect.problems.fft``, ``symdefect.control.magnus4_defect``,
``symdefect.cli.reference_solve``, ...), and the public methods of problem
instances the benchmark built by instance attributes. Nothing under
``src/`` changes, and :meth:`Tracer.restore` puts every original back.

Each call is a span with a name such as ``linalg.fft``, a start, an end and
the span that was open when it started (its parent). A span's self time is
its duration minus the durations of its child spans. Spans of the ``linalg``
and ``problems`` layers are hot leaves (about two million calls on the
scalar oracle), so they are only aggregated per (name, parent); spans of the
other layers are also kept one by one.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

MODULES = ("linalg", "problems", "schemes", "defects", "control", "cli")
HOT_LAYERS = ("linalg", "problems")

# Attributes derived from a call's arguments or result: name -> function of
# (bound arguments, result) giving {stat: increment}.
_EXTRA = {
    "control.corrected_run": lambda args, result: {"steps": args["steps"]},
    "control.adaptive_integrate": lambda args, result: {
        "trials": len(result[1]),
        "rejected": sum(1 for rec in result[1] if not rec.accepted),
    },
}


class Tracer:
    """Wraps package callables, records spans, and restores the originals."""

    def __init__(self):
        self._replaced = []  # (owner, attribute, original, owner had it)
        self._stack = []  # open frames: [name, span index or None, child time]
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.aggregate = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra = defaultdict(float)  # "name.stat" -> sum
        self.spans = []  # (name, start, end, parent span index or None)

    # -- installing and removing wrappers ------------------------------------

    def install(self, *problems):
        """Wrap the package's public functions and the problems' methods."""
        modules = [sys.modules[f"symdefect.{name}"] for name in MODULES]
        modules.append(sys.modules["symdefect"])
        for mod_name in MODULES:
            module = sys.modules[f"symdefect.{mod_name}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for site in modules:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            self._replace(site, site_attr, wrapper)
        for problem in problems:
            for attr in dir(type(problem)):
                if attr.startswith("_"):
                    continue
                if not inspect.isfunction(getattr(type(problem), attr)):
                    continue
                wrapper = self._wrap(f"problems.{attr}", getattr(problem, attr))
                self._replace(problem, attr, wrapper)

    def _replace(self, owner, attr, wrapper):
        # a problem's methods live on its class: the wrapper becomes an
        # instance attribute, which restore() deletes again
        had_attr = attr in vars(owner)
        self._replaced.append((owner, attr, vars(owner).get(attr), had_attr))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every attribute :meth:`install` replaced."""
        while self._replaced:
            owner, attr, original, had_attr = self._replaced.pop()
            if had_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, name, fn):
        keep_spans = not name.startswith(HOT_LAYERS)
        extra = _EXTRA.get(name)
        signature = inspect.signature(fn) if extra else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = None
            if keep_spans:
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                entry = self.aggregate[(name, parent[0] if parent else None)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if keep_spans:
                    self.spans[index] = (name, start, end, parent[1] if parent else None)
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for stat, value in extra(bound.arguments, result).items():
                    self.extra[f"{name}.{stat}"] += value
            return result

        return wrapper

    # -- summaries --------------------------------------------------------------

    def by_name(self):
        """name -> {"calls", "total_s", "self_s"} summed over parents.

        No traced function of the package calls itself, directly or through
        others, so summed durations do not count any time twice.
        """
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, _parent), (calls, total, self_time) in self.aggregate.items():
            entry = out[name]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += self_time
        return dict(out)

    def durations(self, name):
        """Durations in seconds of the kept spans of one name."""
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]
