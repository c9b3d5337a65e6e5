"""Request tracking for Photon's request-based (non-PWC) operations.

``photon_post_os_put``-style calls return a request id; ``photon_wait``
and ``photon_test`` observe it.  The table also backs the rendezvous
send path, whose requests complete when the peer's FIN entry arrives.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict

from ..sim.core import SimulationError

__all__ = ["RequestState", "PhotonRequest", "RequestTable"]


class RequestState(enum.Enum):
    PENDING = "pending"
    COMPLETED = "completed"
    #: the underlying fabric gave up (transport retries exhausted)
    FAILED = "failed"
    FREED = "freed"


class PhotonRequest:
    """One in-flight operation."""

    __slots__ = ("rid", "peer", "state", "on_settle", "span")

    def __init__(self, rid: int, peer: int):
        self.rid = rid
        self.peer = peer
        self.state = RequestState.PENDING
        #: fired exactly once when the request turns terminal (completed
        #: or failed) — resource cleanup hook (rcache release)
        self.on_settle = None
        #: open op-latency span (None when span recording is disabled)
        self.span = None

    @property
    def failed(self) -> bool:
        return self.state is RequestState.FAILED

    @property
    def settled(self) -> bool:
        """Terminal either way — what blocking waits should poll for."""
        return self.state in (RequestState.COMPLETED, RequestState.FAILED)


class RequestTable:
    """Id → request map for one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self._seq = itertools.count(1)
        self._live: Dict[int, PhotonRequest] = {}
        self.total_created = 0

    def create(self, peer: int) -> PhotonRequest:
        rid = next(self._seq)
        req = PhotonRequest(rid, peer)
        self._live[rid] = req
        self.total_created += 1
        return req

    def get(self, rid: int) -> PhotonRequest:
        req = self._live.get(rid)
        if req is None:
            raise SimulationError(
                f"rank {self.rank}: unknown or freed request id {rid}")
        return req

    @staticmethod
    def _settle(req: PhotonRequest) -> None:
        hook, req.on_settle = req.on_settle, None
        if hook is not None:
            hook()

    def complete(self, rid: int, now: int) -> PhotonRequest:
        req = self.get(rid)
        if req.state is RequestState.FAILED:
            return req  # late FIN/ack for a request the fabric gave up on
        if req.state is not RequestState.PENDING:
            raise SimulationError(f"request {rid} completed twice")
        req.state = RequestState.COMPLETED
        if req.span is not None:
            req.span.end(now)
        self._settle(req)
        return req

    def fail(self, rid: int, now: int) -> PhotonRequest:
        """Mark a request terminally failed (idempotent, loses to complete)."""
        req = self._live.get(rid)
        if req is None:
            # already freed — nothing to record
            return None
        if req.state is RequestState.PENDING:
            req.state = RequestState.FAILED
            if req.span is not None:
                req.span.end(now, status="failed")
            self._settle(req)
        return req

    def fail_peer(self, peer: int, now: int) -> int:
        """Fail every pending request against ``peer``, which died or
        restarted: no ack or FIN for them will come.  Returns how many."""
        doomed = [req.rid for req in self._live.values()
                  if req.peer == peer and req.state is RequestState.PENDING]
        for rid in doomed:
            self.fail(rid, now)
        return len(doomed)

    def free(self, rid: int) -> None:
        req = self._live.pop(rid, None)
        if req is None:
            raise SimulationError(
                f"rank {self.rank}: freeing unknown request {rid}")
        req.state = RequestState.FREED
        # freeing an unsettled request abandons it: run the cleanup hook
        # so pinned registrations aren't leaked
        self._settle(req)

    @property
    def pending(self) -> int:
        return sum(1 for r in self._live.values()
                   if r.state is RequestState.PENDING)
