"""Spans and counters recorded from outside the graphcodes package.

The tracer wraps every public function of the package's layer modules and
rebinds the wrapper in every namespace that holds the original (modules bind
names at import: ``rs`` holds its own ``solve``, ``verify`` its own
``rref``).  Each call becomes a span with a name, start, end and parent.
Self time (a span's duration minus its child spans) and call counts are
aggregated as spans close, so they stay exact even when the stored span log
is capped.  Field arithmetic is counted only, never spanned: a span per
``GF.mul`` would cost more than the multiplication.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graph", "bounds", "construct", "linalg", "polys", "rs", "verify", "cli")
FIELD_OPS = ("mul", "add", "inv", "pow")
MAX_STORED_SPANS = 100_000


class Tracer:
    """In-memory span log plus self-time and count aggregates.

    Wrappers record only while ``active`` is true, so the benchmark can pause
    recording around its own correctness checks.
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.dropped = 0
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.names: set = set()  # every function wrapped or counted
        self.active = False
        self._stack: list = []  # [span index or -1, start, child seconds, name]
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        start = perf_counter()
        if len(self.spans) < MAX_STORED_SPANS:
            idx = len(self.spans)
            self.spans.append([name, start, start, parent])
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, start, 0.0, name]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        name = frame[3]
        self.self_s[name] += duration - frame[2]
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if frame[0] >= 0:
            self.spans[frame[0]][2] = end

    @contextmanager
    def span(self, name: str):
        """Span around the benchmark's own code (ops, set-up)."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._leave(frame)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        if name == "field.inv":
            def counted(gf, a):
                if self.active:
                    calls[name] += 1
                return fn(gf, a)
        else:
            def counted(gf, a, b):
                if self.active:
                    calls[name] += 1
                return fn(gf, a, b)

        return counted

    # -- installation ------------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Wrap the package's public layer functions and count field ops."""
        from graphcodes.field import GF

        modules = {layer: importlib.import_module("graphcodes." + layer)
                   for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "graphcodes"
                                            or name.startswith("graphcodes."))]
        namespaces += list(extra_namespaces)
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
                self.names.add(name)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, obj))
        for op in FIELD_OPS:
            orig = GF.__dict__[op]
            setattr(GF, op, self._count("field." + op, orig))
            self.names.add("field." + op)
            self._undo.append((GF, op, orig))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._undo):
            setattr(ns, attr, obj)
        self._undo.clear()
        self.active = False

    # -- results -----------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self seconds summed per layer (first component of the span name)."""
        out: defaultdict = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)

    def write(self, path) -> None:
        """Write the span log once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "dropped": self.dropped}, fh)
