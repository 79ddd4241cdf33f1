"""Outside-in span tracer for the indpoly benchmark.

Layers are timed from outside the package: each traced public function is
replaced, at every module-global name that refers to it, by a wrapper that
opens a span around the call.  Nothing under ``src/`` changes.  Because the
package modules call each other through module globals (``cli`` calls
``count_is_of_size``, ``isp.count_is_of_size`` calls ``isp_coeffs``, ...),
rebinding those globals puts a span around every call between layers.

A span's self time is its duration minus the time of its direct children.
The benchmark opens a root span per job, so over a job the self times of
all spans (layers, counting and the root itself) add up to the job's wall
time exactly.

A layer whose function no longer exists is recorded as absent, not an
error: its metrics read 0 and its name is listed in ``absent``.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

ROOT = "job"
COUNTING = "trace.counting"


@dataclass(frozen=True)
class Layer:
    """One traced function: ``owner`` is a module name, or a module name and
    a class name joined by ``:`` for a method.  ``counts`` maps the call's
    (args, result) to size counters; it runs under the counting span, never
    inside the layer's own span."""

    span: str
    owner: str
    attr: str
    counts: Callable | None = None


@dataclass
class SpanStats:
    self_s: float = 0.0
    calls: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Collects self time, call counts and size counters per span name."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [start, child_seconds]
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _enter(self):
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> float:
        end = time.perf_counter()
        start, child = self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.self_s += duration - child
        st.calls += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def run_job(self, fn, *args):
        """Run one job under the root span; returns (result, seconds)."""
        self._enter()
        try:
            result = fn(*args)
        finally:
            duration = self._exit(ROOT)
        return result, duration

    def _count(self, layer: Layer, args, result):
        self._enter()
        try:
            counters = self.stats[layer.span].counters
            for key, value in layer.counts(args, result).items():
                counters[key] = counters.get(key, 0) + value
        finally:
            self._exit(COUNTING)

    def _wrap(self, layer: Layer, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(layer.span)
            if layer.counts is not None:
                tracer._count(layer, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self, layers):
        """Wrap every layer's function at each module global that refers
        to it (and on its class, for methods)."""
        for layer in layers:
            module_name, _, class_name = layer.owner.partition(":")
            module = sys.modules.get(module_name)
            holder = module
            if holder is not None and class_name:
                holder = getattr(module, class_name, None)
            original = getattr(holder, layer.attr, None) if holder is not None else None
            if original is None:
                self.absent.append(layer.span)
                continue
            wrapper = self._wrap(layer, original)
            if class_name:
                setattr(holder, layer.attr, wrapper)
                self._undo.append((holder, layer.attr, original))
            else:
                self._undo.extend(rebind_everywhere(original, wrapper))

    def uninstall(self):
        restore(self._undo)
        self._undo.clear()


def rebind_everywhere(original, replacement) -> list:
    """Replace ``original`` by ``replacement`` at every module global of the
    indpoly package; returns undo records for ``restore``."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "indpoly" or name.startswith("indpoly.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo):
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)
