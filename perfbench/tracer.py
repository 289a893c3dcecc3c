"""Span tracer that wraps igcsim's public functions from outside the package.

Targets are named ``"module:qualname"`` and resolved when the tracer is
installed.  A target that no longer exists is reported as absent, with zero
calls, instead of failing: later changes may delete or move functions.
Each wrapped call appends one span (name, parent span, start, end) to flat
in-memory arrays; an operation is the root span the harness opens, so all
spans between two roots share that operation's id.  Spans are summarised
and written out after the run, never while it is measured.

Counted targets (``numpy.linalg:inv``) get a bare call counter and no span,
so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

HARNESS = "harness.operation"


def _resolve(spec: str):
    """(owner, attribute, raw descriptor) for ``"module:qualname"``, or None."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


def _rewrap(raw, wrap):
    """Apply ``wrap`` to the function behind a plain, class or static method."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


def span_name(spec: str) -> str:
    """Display name of a target: its module without the package, then its qualname."""
    module_name, _, qualname = spec.partition(":")
    return f"{module_name.rpartition('.')[2]}.{qualname}"


class Tracer:
    """In-memory span recorder around named functions.

    ``errors`` names exception classes whose raises are counted per layer
    (module), once, at the innermost wrapped function they leave.
    """

    def __init__(self, targets, counted=(), errors=()):
        self.targets = tuple(targets)
        self.counted = tuple(counted)
        self.names = [HARNESS] + [span_name(t) for t in self.targets]
        self.layers = ["harness"] + [name.partition(".")[0] for name in self.names[1:]]
        self.error_types = tuple(r[2] for r in map(_resolve, errors) if r is not None)
        self.absent = []
        self.starts, self.ends = array("d"), array("d")
        self.name_ids, self.parents = array("i"), array("i")
        self.op_first_span = []
        self.op_counters = []  # per operation: counted calls, errors per layer
        self._stack = [-1]
        self._calls = dict.fromkeys(self.counted, 0)
        self._errors = {}
        self._patches = []
        self._root = self._span(lambda call: call(), 0)

    def _span(self, fn, name_id):
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        stack, clock, errors = self._stack, time.perf_counter, self._errors
        error_types, layer = self.error_types, self.layers[name_id]

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_types as exc:
                if not getattr(exc, "_traced_layer", None):
                    exc._traced_layer = layer
                    errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _counter(self, fn, spec):
        calls = self._calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[spec] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target that resolves; record the others as absent."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        wrappers = [(spec, functools.partial(self._span, name_id=i + 1))
                    for i, spec in enumerate(self.targets)]
        wrappers += [(spec, functools.partial(self._counter, spec=spec)) for spec in self.counted]
        for spec, wrap in wrappers:
            resolved = _resolve(spec)
            if resolved is None:
                self.absent.append(spec)
                continue
            owner, attribute, raw = resolved
            setattr(owner, attribute, _rewrap(raw, wrap))
            self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches = []

    def operation(self, call):
        """Run ``call()`` as one traced operation under a harness root span."""
        self.op_first_span.append(len(self.starts))
        for key in self._calls:
            self._calls[key] = 0
        self._errors.clear()
        try:
            return self._root(call)
        finally:
            self.op_counters.append((dict(self._calls), dict(self._errors)))

    def _arrays(self):
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        names = np.frombuffer(self.name_ids, dtype=np.intc)
        parents = np.frombuffer(self.parents, dtype=np.intc)
        return start, end, names, parents

    def summaries(self) -> list[dict]:
        """Per operation: calls, self_s and total_s per span name, self_s per
        layer, span count, counted calls and errors per layer.

        A span's self time is its duration minus its children's durations;
        calls are single-threaded, so children never overlap.
        """
        start, end, names, parents = self._arrays()
        duration = end - start
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        self_time = duration - covered
        bounds = self.op_first_span + [len(duration)]
        size = len(self.names)
        out = []
        for (lo, hi), (calls, errors) in zip(zip(bounds, bounds[1:]), self.op_counters):
            ids = names[lo:hi]
            self_s = np.bincount(ids, weights=self_time[lo:hi], minlength=size)
            layer_self = {}
            for layer, value in zip(self.layers, self_s):
                layer_self[layer] = layer_self.get(layer, 0.0) + float(value)
            out.append({
                "calls": dict(zip(self.names, np.bincount(ids, minlength=size).tolist())),
                "self_s": dict(zip(self.names, self_s.tolist())),
                "total_s": dict(zip(self.names, np.bincount(
                    ids, weights=duration[lo:hi], minlength=size).tolist())),
                "layer_self_s": layer_self,
                "spans": hi - lo,
                "counted": calls,
                "errors": errors,
            })
        return out

    def write(self, path: Path) -> None:
        """Write every span with its operation id."""
        start, end, names, parents = self._arrays()
        op = np.zeros(len(start), dtype=np.intc)
        for first in self.op_first_span[1:]:
            op[first:] += 1
        np.savez(path, span_names=np.array(self.names), op=op, name=names,
                 parent=parents, start=start, end=end)
