"""Completion queues and work completions."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..sim.core import Environment, Event
from ..sim.resources import Signal
from .enums import WCOpcode, WCStatus
from .errors import QueueFullError

__all__ = ["WorkCompletion", "CompletionQueue"]

#: shared result for polls of an empty CQ (callers only iterate it)
_EMPTY_POLL: tuple = ()


@dataclass(frozen=True)
class WorkCompletion:
    """One completion-queue entry."""

    wr_id: int
    opcode: WCOpcode
    status: WCStatus = WCStatus.SUCCESS
    byte_len: int = 0
    imm: Optional[int] = None
    #: source rank for receive-side completions
    src_rank: int = -1
    #: local qp number the completion belongs to
    qp_num: int = -1

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS


class CompletionQueue:
    """Bounded FIFO of :class:`WorkCompletion`.

    ``poll`` is a plain (zero-time) function; the *caller* charges per-CQE
    reap cost (``NicParams.cqe_poll_ns``) on its own clock, which is where
    that CPU time is spent on real systems.  Every push rings
    ``doorbell``; an endpoint that polls several sources points their
    doorbells at its own one :class:`~repro.sim.resources.Signal`.
    ``wait_nonempty`` returns an event for blocking-style helpers.
    """

    def __init__(self, env: Environment, capacity: int = 4096):
        if capacity <= 0:
            raise QueueFullError("CQ capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._entries: Deque[WorkCompletion] = deque()
        self.doorbell = Signal(env)
        self.overruns = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, wc: WorkCompletion) -> None:
        if len(self._entries) >= self.capacity:
            self.overruns += 1
            raise QueueFullError(
                f"CQ overrun (capacity {self.capacity}); middleware must "
                "drain completions faster or size the CQ to its queue depths")
        self._entries.append(wc)
        self.doorbell.fire()

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Reap up to ``max_entries`` completions (possibly empty)."""
        entries = self._entries
        if not entries:
            # hot path: almost every progress pass polls an empty CQ —
            # hand back a shared immutable empty so no list is allocated
            return _EMPTY_POLL
        out: List[WorkCompletion] = []
        while entries and len(out) < max_entries:
            out.append(entries.popleft())
        return out

    def wait_nonempty(self) -> Event:
        """Event that fires when the CQ has (or gets) an entry."""
        if not self._entries:
            return self.doorbell.wait()
        ev = Event(self.env)
        ev.succeed()
        return ev
