"""Spans around hsgen's public functions, installed from outside the package.

While a ``Tracer`` is active, every module of the ``hsgen`` package that
binds one of the target functions - its defining module or one that
imported it by name - sees a wrapper instead.  The wrapper records a span
(name, start, end, parent span, thread) and an optional ``observe`` hook
attaches facts taken from the call's arguments and result.  A target the
package no longer defines is listed in ``absent``; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager wrapping ``{module: {function: observe or None}}``."""

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack = threading.local()
        self._patches: list[tuple] = []

    def _parents(self) -> list:
        if not hasattr(self._stack, "ids"):
            self._stack.ids = []
        return self._stack.ids

    def _open(self, name: str) -> int:
        parents = self._parents()
        span = Span(name, 0.0, parent=parents[-1] if parents else None,
                    thread=threading.get_ident())
        self.spans.append(span)
        idx = len(self.spans) - 1
        parents.append(idx)
        span.start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._parents().pop()
        return span

    @contextmanager
    def region(self, name: str):
        """A span opened by the caller rather than by a wrapped function."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, label: str, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if observe is not None:
                span.info.update(observe(args, kwargs, result))
            return result

        return wrapper

    def __enter__(self):
        package = [m for name, m in list(sys.modules.items())
                   if name == "hsgen" or name.startswith("hsgen.")]
        for modname, funcs in self.targets.items():
            short = modname.rsplit(".", 1)[-1]
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.extend(f"{short}.{f}" for f in funcs)
                continue
            for fname, observe in funcs.items():
                orig = getattr(module, fname, None)
                if not callable(orig):
                    self.absent.append(f"{short}.{fname}")
                    continue
                wrapper = self._wrap(f"{short}.{fname}", orig, observe)
                for mod in package:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        return False

    # -- accounting -------------------------------------------------------

    def child_seconds(self) -> list:
        """Per span, the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        return covered

    def under(self, span: Span, name: str) -> bool:
        """True if a span called ``name`` encloses ``span``."""
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def named(self, name: str, outside: str | None = None) -> list:
        return [s for s in self.spans
                if s.name == name and (outside is None or not self.under(s, outside))]

    def inclusive(self, name: str, outside: str | None = None) -> float:
        return sum(s.seconds for s in self.named(name, outside))

    def self_seconds(self, name: str) -> float:
        covered = self.child_seconds()
        return sum(s.seconds - covered[i] for i, s in enumerate(self.spans) if s.name == name)

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def write_chrome_trace(self, path) -> None:
        """Spans as Chrome trace events (Perfetto, chrome://tracing)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
             "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6, "args": s.info}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "absent": self.absent}, fh)
