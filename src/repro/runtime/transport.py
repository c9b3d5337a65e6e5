"""Runtime network transports: Photon-PWC vs MPI-ISIR.

This is the integration point the paper's runtime experiments measure:
the same parcel traffic carried by

- :class:`PhotonTransport` (PWC): small parcels ride an eager ledger write
  and surface via completion probes — no matching, no preposted receives;
  large parcels use the rendezvous buffer-advertisement protocol.
- :class:`MpiTransport` (ISIR — "irecv/isend" as in HPX-5's MPI network):
  a window of wildcard irecvs is preposted; parcels arrive through the
  tag-matching engine with its bounce-buffer copies; completed receives
  are reaped and reposted.

Both are a :class:`WireTransport` under one contract (:class:`Transport`),
so the scheduler and the applications are transport-blind.  Neither keeps
a failure policy of its own: the wire library (Photon or minimpi) is the
one retry layer, and the failure detector of the wrapped library's rank
(:mod:`repro.runtime.health`) the one source of "peer down".  A crash of
that rank forgets every send and receive in flight: the wire library
never settles them, and the restarted rank starts with every staging
slot and landing free.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..minimpi.comm import Comm
from ..minimpi.protocol import MPIRequest
from ..minimpi.status import ANY_SOURCE
from ..photon.api import Photon
from ..sim.core import SimulationError
from ..verbs.enums import WCStatus

__all__ = ["Transport", "WireTransport", "PhotonTransport", "MpiTransport",
           "PeerDownError", "PARCEL_TAG"]

#: reserved tag/cid space for parcel traffic
PARCEL_TAG = (1 << 50) + 7
#: wildcard irecvs an :class:`MpiTransport` keeps posted
RECV_WINDOW = 16


def _parcel_match(_src: int, cid: int) -> bool:
    """Probe predicate for parcel traffic (hoisted: poll() is hot)."""
    return cid == PARCEL_TAG


class PeerDownError(SimulationError):
    """Raised by ``send``, and by an invoke, to a rank the failure
    detector has declared dead."""

    def __init__(self, rank: int, peer: int):
        super().__init__(f"rank {rank}: peer {peer} declared dead")
        self.peer = peer


class Transport:
    """The parcel-transport contract (DESIGN §3 seam 9).

    The layers above use exactly the public surface of this class:
    ``rank``, ``env``, ``memory``, ``counters`` (this rank's scope),
    ``max_parcel``, ``doorbell`` (the wire library's signal: rung
    whenever :meth:`poll` may have something new to find), ``arrivals``
    (the doorbell's receive side: rung when a parcel may have landed or a
    send of this transport's has failed, not when one merely completed — a
    server loop parks here, so a co-located client's sends cost it
    nothing), the methods below and four every transport defines:

    - ``send(dst, raw)`` ships one encoded parcel (generator); it raises
      :class:`PeerDownError`, without touching the wire, when the rank's
      failure detector (``node.health``) has declared the destination
      dead — "down" is whatever it says now, so a rejoined peer is sent
      to at once (``node`` is the wrapped library's rank);
    - ``poll()`` is one progress pass: settle finished sends, then return
      an encoded parcel or None (generator);
    - ``stats()``: a JSON-serializable snapshot (obs report section) with
      ``kind``.

    One process drives a transport.
    """

    def __init__(self, lib, counters, max_parcel: int):
        self.node = lib.node
        self.rank = lib.rank
        self.env = lib.env
        self.memory = lib.memory
        self.doorbell = lib.doorbell
        self.arrivals = lib.arrivals
        self.counters = counters
        self.max_parcel = max_parcel

    def flush(self, dst: Optional[int] = None):
        """Ship what is buffered for ``dst`` (default: everyone) now
        (generator) — nothing, below a coalescing layer."""
        yield from ()

    def flush_stale(self):
        """Ship what is buffered past its latency bound (generator)."""
        yield from ()

    def next_deadline(self) -> Optional[int]:
        """Earliest future instant :meth:`poll` or :meth:`flush_stale` has
        work with no arrival — a retry deadline, a batch's latency bound —
        or None (pure check).  A scheduler parked on ``doorbell`` or
        ``arrivals`` wakes then at the latest."""
        return None


class WireTransport(Transport):
    """A transport that owns a wire.

    A subclass supplies the wire mechanics.  The wire library retries its
    own ops, so a send it gave up on is over: counted in
    ``transport.parcel_failures`` and never re-sent from here.
    """

    #: send-side staging slots
    scratch_slots = 8

    def _admit(self, dst: int, raw: bytes) -> None:
        """Gate one ``send``: size limit, then the rank's detector."""
        if len(raw) > self.max_parcel:
            raise SimulationError(
                f"parcel of {len(raw)}B exceeds transport max "
                f"{self.max_parcel}B")
        health = self.node.health
        if health is not None and health.is_dead(dst):
            self.counters.add("transport.fast_fails")
            raise PeerDownError(self.rank, dst)

    # ------------------------------------------------------------ staging ring
    def _init_ring(self, alloc) -> None:
        """Send-side staging: ``scratch_slots`` buffers from ``alloc`` and,
        per slot, the wire handle of the unsettled send owning it (wire
        hooks ``_issue`` and ``_outcome``).  A slot is not reused until
        its send settles."""
        self._send_slots = [alloc(self.max_parcel)
                            for _ in range(self.scratch_slots)]
        self._slot_sends: List[Optional[object]] = [None] * self.scratch_slots
        #: number of slots with an unsettled send (O(1) poll guard)
        self._slots_live = 0
        self._send_cursor = 0
        self.node.on_crash.append(self._on_crash)

    def _on_crash(self) -> None:
        """A send the rank crashed under never settles: free every slot."""
        self._slot_sends = [None] * self.scratch_slots
        self._slots_live = 0

    def _stage(self, dst: int, raw: bytes):
        """Copy a parcel into the next free slot — round-robin, skipping
        slots a slow send still owns; the caller guarantees one is free —
        and issue it (generator)."""
        idx = self._send_cursor
        while self._slot_sends[idx] is not None:
            idx = (idx + 1) % len(self._send_slots)
        self._send_cursor = (idx + 1) % len(self._send_slots)
        self.memory.write(self._send_slots[idx], raw)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(raw)))
        self._slot_sends[idx] = yield from self._issue(idx, dst, len(raw))
        self._slots_live += 1

    def _settle_slot(self, idx: int) -> None:
        """If the send owning slot ``idx`` has finished, free the slot,
        counting a failed send in ``transport.parcel_failures``."""
        ok = self._outcome(self._slot_sends[idx])
        if ok is None:
            return
        if not ok:
            self.counters.add("transport.parcel_failures")
        self._slot_sends[idx] = None
        self._slots_live -= 1

    def _settle_slots(self) -> None:
        for idx, handle in enumerate(self._slot_sends):
            if handle is not None:
                self._settle_slot(idx)

    def stats(self) -> Dict[str, object]:
        return {"kind": self.kind}


class PhotonTransport(WireTransport):
    """Parcels over Photon PWC (eager) + rendezvous (large).

    Photon settles an eager parcel's op itself (``photon.op_failures`` /
    ``photon.dead_peer_fails``); a rendezvous advertisement whose request
    fails frees its staging slot.  A rendezvous *fetch* is a ``get_pwc``,
    replayed by Photon like every PWC op; one that still failed counts
    in ``transport.parcel_failures``.
    """

    kind = "photon"

    def __init__(self, photon: Photon, max_parcel: int = 1 << 20):
        super().__init__(photon, photon.counters, max_parcel)
        self.ph = photon
        # rendezvous-size parcels stage through the ring (send side) and
        # land in a ring of concurrent inbound fetches (recv side)
        self._init_ring(lambda size: photon.buffer(size).addr)
        self._free_landings = [photon.buffer(max_parcel).addr
                               for _ in range(self.scratch_slots)]
        #: in-flight fetches: (op handle, landing addr, RecvInfo)
        self._fetches: deque = deque()

    def _on_crash(self) -> None:
        """Every landing free too: a fetch in flight never settles."""
        super()._on_crash()
        self._free_landings += [addr for _op, addr, _info in self._fetches]
        self._fetches.clear()
        self.ph.attend_sends(False)

    # ----------------------------------------------------------------- send
    def send(self, dst: int, raw: bytes):
        self._admit(dst, raw)
        if len(raw) <= self.ph.config.eager_limit:
            yield from self.ph.send_pwc(dst, raw, remote_cid=PARCEL_TAG)
        else:
            # slot reuse: the prior advertisement must settle before we
            # overwrite the payload
            idx = self._send_cursor
            if self._slot_sends[idx] is not None:
                yield from self.ph.wait(self._slot_sends[idx])
                self._settle_slot(idx)
            yield from self._stage(dst, raw)

    def _issue(self, idx: int, dst: int, nbytes: int):
        return (yield from self.ph.send_rdma(dst, self._send_slots[idx],
                                             nbytes, tag=PARCEL_TAG))

    def _outcome(self, rid: int) -> Optional[bool]:
        if not self.ph.test(rid):
            return None
        failed = self.ph.request_info(rid).failed
        self.ph.free_request(rid)
        return not failed

    def next_deadline(self) -> Optional[int]:
        return self.ph.next_deadline()

    # ----------------------------------------------------------------- poll
    def poll(self):
        """One progress pass; returns an encoded parcel or None (generator).

        Large parcels arrive as rendezvous advertisements; fetches are
        issued concurrently into the landing ring (pipelined, like an
        irecv window) and completed ones are handed out in issue order.
        """
        # settle rendezvous sends now instead of at the next slot reuse
        if self._slots_live:
            self._settle_slots()
        # inlined ph.probe_message(_parcel_match): one fewer generator
        # set-up on the hottest polling chain in the runtime
        yield from self.ph._progress_once()
        got = self.ph._pop_message(_parcel_match)
        if got is not None:
            return got[2]
        # launch fetches for any newly advertised rendezvous parcels
        while self._free_landings:
            info = self.ph._match_info(src=-1, tag=PARCEL_TAG)
            if info is None:
                break
            yield from self._fetch(info, self._free_landings.pop())
        # hand out the oldest settled fetch
        if self._fetches and self._fetches[0][0].status is not None:
            op, addr, info = self._fetches.popleft()
            self.ph.attend_sends(bool(self._fetches))
            if op.status is not WCStatus.SUCCESS:
                self._free_landings.append(addr)
                self.counters.add("transport.parcel_failures")
                return None
            # owned copy: the landing slot is recycled on the next line
            raw = self.memory.read_bytes(addr, info.size)
            yield self.env.timeout(self.memory.memcpy_cost_ns(info.size))
            self._free_landings.append(addr)
            yield from self.ph._post_fin(info)
            return raw
        return None

    def _fetch(self, info, addr: int):
        """Post the read of one advertised parcel into ``addr``
        (generator).  It completes on the *send* CQ: have that ring
        ``arrivals`` while a fetch is in flight, or a scheduler parked
        there sits on the landed parcel until the next arrival."""
        op = yield from self.ph.get_pwc(info.src, addr, info.size,
                                        info.addr, info.rkey)
        self._fetches.append((op, addr, info))
        self.ph.attend_sends(True)

    def stats(self) -> Dict[str, object]:
        return dict(super().stats(),
                    fetches_inflight=len(self._fetches),
                    free_landings=len(self._free_landings),
                    send_slots_busy=self._slots_live)


class MpiTransport(WireTransport):
    """Parcels over minimpi isend + a preposted wildcard-irecv window."""

    kind = "mpi"

    def __init__(self, comm: Comm, max_parcel: int = 1 << 20):
        super().__init__(comm.engine, comm.engine.counters, max_parcel)
        self.comm = comm
        self._recv_bufs: List[int] = [
            comm.memory.alloc(max_parcel) for _ in range(RECV_WINDOW)]
        self._recv_reqs: List[Optional[MPIRequest]] = [None] * RECV_WINDOW
        self._init_ring(comm.memory.alloc)
        self._primed = False

    def _on_crash(self) -> None:
        """The engine forgot the receive window too: prime a new one."""
        super()._on_crash()
        self._recv_reqs = [None] * RECV_WINDOW
        self._primed = False

    def _prime(self):
        """Post the initial wildcard receive window (generator)."""
        for i in range(RECV_WINDOW):
            req = yield from self.comm.irecv(self._recv_bufs[i],
                                             self.max_parcel,
                                             src=ANY_SOURCE, tag=PARCEL_TAG)
            self._recv_reqs[i] = req
        self._primed = True

    def send(self, dst: int, raw: bytes):
        self._admit(dst, raw)
        if not self._primed:
            yield from self._prime()
        yield from self._stage(dst, raw)
        self._settle_slots()
        # barrier: always leave a free slot for the next send
        if self._slots_live == len(self._send_slots):
            yield from self.comm.waitall(list(self._slot_sends))
            self._settle_slots()

    def _issue(self, idx: int, dst: int, nbytes: int):
        return (yield from self.comm.isend(self._send_slots[idx], nbytes,
                                           dst, PARCEL_TAG))

    def _outcome(self, req: MPIRequest) -> Optional[bool]:
        if not req.done:
            return None
        return not req.failed

    def poll(self):
        if not self._primed:
            yield from self._prime()
        if self._slots_live:
            self._settle_slots()
        yield from self.comm.engine._progress_once()
        for i, req in enumerate(self._recv_reqs):
            if req is not None and req.done:
                # owned copy: the window buffer is immediately re-posted
                raw = self.memory.read_bytes(self._recv_bufs[i],
                                             req.status.count)
                yield self.env.timeout(
                    self.memory.memcpy_cost_ns(req.status.count))
                new_req = yield from self.comm.irecv(
                    self._recv_bufs[i], self.max_parcel,
                    src=ANY_SOURCE, tag=PARCEL_TAG)
                self._recv_reqs[i] = new_req
                return raw
        return None
