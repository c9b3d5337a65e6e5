"""Host-side spans recorded by the benchmark's own files.

A :class:`HostTrace` keeps spans in memory (name, start, end, parent,
workload, block) and writes them as JSONL when the traced run ends.
Spans wrap the benchmark's calls *into* the program — set-up, the timed
region, each simulated client loop, each layer microbenchmark — so the
program itself is not instrumented.  A disabled trace (the end-to-end
run) hands out one shared no-op span.

Two ways to open a span:

* ``with trace.span("setup"):`` — nested synchronous code; the parent is
  whatever ``with`` block is open;
* ``sp = trace.start("client.3", parent=region)`` … ``sp.end()`` — for
  simulated client loops, which interleave as generators and therefore
  overlap without nesting.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

__all__ = ["HostTrace", "HostSpan"]


class HostSpan:
    """One host-time interval (seconds on ``time.perf_counter``)."""

    __slots__ = ("trace", "span_id", "name", "parent", "start", "end_s",
                 "attrs")

    def __init__(self, trace: "HostTrace", span_id: int, name: str,
                 parent: Optional[int], attrs: Dict[str, object]):
        self.trace = trace
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end_s: Optional[float] = None

    def end(self) -> None:
        if self.end_s is None:
            self.end_s = time.perf_counter()

    def __enter__(self) -> "HostSpan":
        self.trace._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.end()
        self.trace._stack.pop()

    def as_dict(self) -> Dict[str, object]:
        d = {"id": self.span_id, "name": self.name, "parent": self.parent,
             "start_s": self.start, "end_s": self.end_s,
             "duration_s": None if self.end_s is None
             else self.end_s - self.start}
        d.update(self.attrs)
        return d


class _NullSpan:
    span_id = None

    def end(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = _NullSpan()


class HostTrace:
    """In-memory span recorder; :meth:`write` dumps JSONL."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[HostSpan] = []
        self._stack: List[HostSpan] = []
        #: attributes stamped on every span opened from now on
        self.context: Dict[str, object] = {}

    def start(self, name: str, parent=None, **attrs):
        """Open a span without entering it (explicit ``parent`` span, or
        the innermost open ``with`` block when omitted)."""
        if not self.enabled:
            return _NULL
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = HostSpan(self, len(self.spans) + 1, name,
                        getattr(parent, "span_id", None),
                        {**self.context, **attrs})
        self.spans.append(span)
        return span

    #: ``with trace.span(name):`` — same object, entered by the caller
    span = start

    def wrap(self, name: str, generator, parent=None):
        """A simulated process's generator, run inside a span; the
        generator itself, unwrapped, when the trace is disabled."""
        if not self.enabled:
            return generator
        return self._spanned(name, generator, parent)

    def _spanned(self, name: str, generator, parent):
        span = self.start(name, parent=parent)
        try:
            return (yield from generator)
        finally:
            span.end()

    def write(self, path) -> int:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        return len(self.spans)
