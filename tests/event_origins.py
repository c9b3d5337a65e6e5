"""Where every kernel event comes from: an attributing scheduler.

:class:`OriginEnvironment` tags each event, when it is scheduled, with the
``src/repro`` line that scheduled it — the first frame outside ``sim/``
(plus the ``sim/resources.py`` function it went through, e.g.
``fabric/nic.py:171 transmit via put_nowait``) — and counts it under that
origin when it fires; a ``Condition``, which the kernel fires on its own
behalf, is charged to the ``any_of`` / ``all_of`` call that built it.  It lives in the test tree only, in the
``tests/heap_oracle.py`` mould: production code has no hook for it.  It
plugs in by overriding what the kernel inlines (``timeout``'s recycled
fast path, ``Event.succeed``'s append onto the current-instant deques,
``run``'s firing loop); tests hand it to model code with
``monkeypatch.setattr("repro.cluster.Environment", OriginEnvironment)``.

    python tests/event_origins.py r1                  # one experiment
    python tests/event_origins.py pwc_sweep --top 15  # one perf/ block

prints events (per op, for a perf workload's timed region) by package and
the top-N origins.
"""

from __future__ import annotations

import re
import sys
from collections import Counter, deque
from pathlib import Path

import repro
from repro.sim.core import (NORMAL, AllOf, AnyOf, Environment, Event, Process,
                            SimulationError, Timeout)

_ROOT = str(Path(repro.__file__).resolve().parent) + "/"


def _rel(filename: str):
    """Path below ``src/repro``, or None for a file outside it."""
    return filename[len(_ROOT):] if filename.startswith(_ROOT) else None


def _origin(event: Event) -> str:
    """``pkg/file.py:line function`` of whoever scheduled ``event``."""
    if isinstance(event, Process):
        # a process ending is scheduled from the kernel's resume loop:
        # charge it to the generator that returned
        code = event._generator.gi_code
        rel = _rel(code.co_filename) or f"(driver) {Path(code.co_filename).name}"
        return f"{rel}:{code.co_firstlineno} {code.co_name} (process end)"
    # a Condition is fired by the kernel, from a callback of whichever
    # event completed it: charge it to whoever asked for it
    return getattr(event, "asked_at", None) or _site(sys._getframe(2))


def _site(frame) -> str:
    """The first model line at or above ``frame``."""
    via = kernel = driver = None
    while frame is not None:
        code = frame.f_code
        rel = _rel(code.co_filename)
        if rel is None:
            if driver is None and code.co_filename != __file__:
                driver = (f"(driver) {Path(code.co_filename).name}:"
                          f"{frame.f_lineno} {code.co_name}")
        elif not rel.startswith("sim/"):
            return f"{rel}:{frame.f_lineno} {code.co_name}" + (
                f" via {via}" if via else "")
        else:
            if rel == "sim/resources.py":
                via = code.co_name
            kernel = kernel or f"{rel}:{frame.f_lineno} {code.co_name}"
        frame = frame.f_back
    # no model frame: a driver outside src/repro scheduled it, or the
    # kernel did on its own behalf (a Signal's alarm)
    return driver or kernel


def _asked(cls):
    """``cls`` (AnyOf / AllOf) under its own name, with room for the
    ``any_of`` / ``all_of`` call site."""
    return type(cls.__name__, (cls,), {"__slots__": ("asked_at",)})


_AnyOf, _AllOf = _asked(AnyOf), _asked(AllOf)


class _TaggedDeque(deque):
    """A current-instant deque that attributes what is appended to it."""

    __slots__ = ("tag",)

    def append(self, event: Event) -> None:
        self.tag(event)
        deque.append(self, event)


class SteppedEnvironment(Environment):
    """The plain kernel fired one ``step()`` at a time, logging each
    firing as ``(instant, event type)`` — the reference the attributing
    subclass is compared against."""

    def __init__(self):
        super().__init__()
        self.log: list = []

    def _fired(self, event: Event) -> None:
        self.log.append((self._now, type(event).__name__))

    def step(self) -> None:
        if not self._cur[0] and not self._cur[1]:
            if not self._advance_bucket():
                raise SimulationError("step() on empty event queue")
        self._fired(self._cur[0][0] if self._cur[0] else self._cur[1][0])
        super().step()

    def run(self, until=None):
        if isinstance(until, Event):
            while not until._processed:
                if self.peek() is None:
                    raise SimulationError(
                        "event queue drained before the awaited event fired")
                self.step()
            if until._ok:
                return until._value
            raise until._value
        deadline = None if until is None else int(until)
        if deadline is not None and deadline < self._now:
            raise SimulationError("run(until=...) deadline is in the past")
        while True:
            nxt = self.peek()
            if nxt is None or (deadline is not None and nxt > deadline):
                break
            self.step()
        if deadline is not None:
            self._now = deadline
        return None


class OriginEnvironment(SteppedEnvironment):
    #: origin -> events fired, over every instance (a block may build
    #: several clusters)
    fired: Counter = Counter()

    def __init__(self):
        super().__init__()
        self._origins: dict = {}  # id(scheduled event) -> origin
        self._cur = (_TaggedDeque(), _TaggedDeque())
        for lane in self._cur:
            lane.tag = self._tag

    def _tag(self, event: Event) -> None:
        self._origins[id(event)] = _origin(event)

    def _fired(self, event: Event) -> None:
        super()._fired(event)
        OriginEnvironment.fired[self._origins.pop(id(event))] += 1

    def timeout(self, delay: int, value=None) -> Timeout:
        return Timeout(self, int(delay), value)  # no freelist, no inlining

    def any_of(self, events):
        return self._condition(_AnyOf, events)

    def all_of(self, events):
        return self._condition(_AllOf, events)

    def _condition(self, cls, events):
        # tagged before __init__ runs: a condition over events that have
        # already fired is scheduled from inside it
        cond = cls.__new__(cls)
        cond.asked_at = _site(sys._getframe(2))
        cond.__init__(self, events)
        return cond

    def _schedule(self, event: Event, delay: int, priority: int = NORMAL):
        if delay:  # delay 0 lands on a tagged deque
            self._tag(event)
        super()._schedule(event, delay, priority)

    def unschedule(self, event: Event, when: int) -> None:
        super().unschedule(event, when)
        del self._origins[id(event)]


def report(fired: Counter, ops: int = 0, top: int = 20) -> str:
    """Events by package and the ``top`` origins; per op when ``ops``."""
    total = sum(fired.values())
    per = (lambda n: f"{n / ops:9.3f}/op") if ops else (lambda n: f"{n:9d}")
    lines = [f"{total} events" + (f", {ops} ops, {total / ops:.3f} events/op"
                                  if ops else "")]
    by_pkg: Counter = Counter()
    for origin, n in fired.items():
        # "fabric/link.py:202 ..." -> fabric; "cluster.py:113 ..." -> cluster
        by_pkg["(driver)" if origin.startswith("(")
               else re.split(r"/|\.py", origin, maxsplit=1)[0]] += n
    lines.append("by package:")
    for pkg, n in by_pkg.most_common():
        lines.append(f"  {per(n)}  {n / total:6.1%}  {pkg}")
    lines.append(f"top {top} origins:")
    for origin, n in fired.most_common(top):
        lines.append(f"  {per(n)}  {n / total:6.1%}  {origin}")
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    import repro.cluster

    parser = argparse.ArgumentParser(prog="tests/event_origins.py")
    parser.add_argument("what", help="an experiment id (r1..r23) or a "
                                     "perf workload name (pwc_sweep, ...)")
    parser.add_argument("--seed", type=int, default=7001,
                        help="block seed of a perf workload")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)

    repro.cluster.Environment = OriginEnvironment
    from repro.bench.experiments import ALL
    if args.what in ALL:
        ALL[args.what].run(quick=True)
        print(report(OriginEnvironment.fired, top=args.top))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perf.trace import HostTrace
    from perf.workloads import WORKLOADS
    trace = HostTrace(enabled=False)
    block = WORKLOADS[args.what](args.seed, args.scale, spans=False,
                                 trace=trace)
    OriginEnvironment.fired.clear()  # count the timed region only
    with trace.span("timed_region") as region:
        block.run(region)
    fired = Counter(OriginEnvironment.fired)
    result = block.finish()
    if result.errors:
        print("verification failed:", result.errors, file=sys.stderr)
        return 1
    print(report(fired, ops=result.completed, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
