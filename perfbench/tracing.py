"""Spans and counts recorded around the benchmark's calls into the library.

The benchmark reaches every public function of a layer through the
namespace that ``layer_api`` builds.  Untraced, that namespace holds the
library's own functions, so an untraced run pays nothing.  Traced, each
function is wrapped in a span named ``<layer>.<function>``.  The benchmark
adds spans of its own (``bench.*``) around phases such as a height sweep or
one similarity measure on one candidate, so that a library span has a
parent and a measure's time can be read off one span.

Spans stay in memory in flat arrays (name, start, end, parent index), which
the garbage collector need not scan, and are written out once, when the run
ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("scene_sim", "raster", "geometry", "intersection", "accuracy", "similarity")

_NULL = nullcontext()


class NullTracer:
    """Stand-in used by untraced runs: records nothing."""

    recording = False

    def span(self, name):
        return _NULL

    def count(self, name, n=1):
        pass


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, -1 at the top
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.recording = False

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.recording:
            self.counts[name] += n

    def wrap(self, name: str, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def self_times(self) -> list[float]:
        """Duration of each span less the time its direct children cover."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                out[parent] -= end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start
                for n, start, end in zip(self.names, self.starts, self.ends) if n == name]

    def top_level_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(end - start for start, end, parent
                   in zip(self.starts, self.ends, self.parents) if parent < 0)

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, own in zip(self.names, self.self_times()):
            totals[name.split(".", 1)[0]] += own
        return dict(totals)

    def write(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "start_s": list(self.starts),
            "end_s": list(self.ends),
            "parent": list(self.parents),
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")


def public_functions(module) -> dict:
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
    }


def layer_api(tracer) -> SimpleNamespace:
    """One namespace per layer holding its public functions, traced or not."""
    layers = {}
    for layer in LAYERS:
        fns = public_functions(importlib.import_module(f"sarstereo.{layer}"))
        if isinstance(tracer, Tracer):
            fns = {n: tracer.wrap(f"{layer}.{n}", f) for n, f in fns.items()}
        layers[layer] = SimpleNamespace(**fns)
    return SimpleNamespace(**layers)
