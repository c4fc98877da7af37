"""Per-layer tracing of canonlab, done from outside the package.

The tracer wraps the public functions of each layer module and records one
span per call, in memory.  A layer's self time is its spans' durations minus
the time their child spans cover.

``canon`` and ``cli`` bind names with ``from ... import``, so a wrapper is
installed in every canonlab module whose namespace holds the original
function, not only in the module that defines it.  ``kernel.*`` is looked up
as a module attribute at call time, so patching ``kernel`` covers it.
``enumerate_linear_extensions`` returns a generator that does its work
lazily; each step of that generator is a span of its own.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from time import perf_counter

# The layer modules, one per package module with work in it.  ``config``
# and ``errors`` hold no measurable work.
LAYERS = ("cli", "canon", "polys", "linext", "poset", "kernel")

# Span keys finer than the layer, for the functions the metrics name.
SPECIAL_KEYS = {
    ("kernel", "descent_histograms"): "kernel.hist",
    ("kernel", "count_extensions"): "kernel.count",
    ("linext", "enumerate_linear_extensions"): "linext.enum",
    ("poset", "poset_from_json"): "poset.load",
}


def _span_key(layer: str, name: str) -> str:
    key = SPECIAL_KEYS.get((layer, name))
    if key is not None:
        return key
    return "poset.build" if layer == "poset" else layer


class Tracer:
    """Spans of traced calls, kept in memory.

    A span is ``[key, start, end, parent]``, where ``parent`` is the index
    of the span open when it began, or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.lanes = 0  # labelings passed to kernel.descent_histograms
        self.yielded = 0  # extensions produced by enumerate_linear_extensions

    def _enter(self, key: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([key, perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def _wrap(self, key: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if key == "kernel.hist":
                labelings = args[1] if len(args) > 1 else kwargs["labelings"]
                tracer.lanes += len(labelings)
            idx = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if key == "linext.enum":
                return _TracedSteps(tracer, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every canonlab module for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"canonlab.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(_span_key(layer, name), obj)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "canonlab" and not modname.startswith("canonlab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    patched.append((module, name, obj))
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span key: (number of spans, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (key, start, end, _), covered in zip(self.spans, child):
            calls, total = out.get(key, (0, 0.0))
            out[key] = (calls + 1, total + (end - start) - covered)
        return out


class _TracedSteps:
    """Iterator wrapper timing each step of a lazy extension stream."""

    def __init__(self, tracer: Tracer, it):
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer._enter("linext.enum.step")
        try:
            item = next(self._it)
        finally:
            self._tracer._exit(idx)
        self._tracer.yielded += 1
        return item
