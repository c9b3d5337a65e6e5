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

Both are a :class:`WireTransport` — one contract (:class:`Transport`),
one retry and breaker policy — so the scheduler and the applications are
transport-blind.
"""

from __future__ import annotations

from collections import defaultdict, deque
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


def _parcel_match(_src: int, cid: int) -> bool:
    """Probe predicate for parcel traffic (hoisted: poll() is hot)."""
    return cid == PARCEL_TAG


class PeerDownError(SimulationError):
    """Raised by ``send`` when the peer's circuit breaker is open."""

    def __init__(self, rank: int, peer: int):
        super().__init__(f"rank {rank}: peer {peer} marked down "
                         "(circuit breaker open)")
        self.peer = peer


class _PeerHealth:
    """Circuit-breaker state for one destination rank."""

    __slots__ = ("failures", "state", "open_until")

    def __init__(self):
        self.failures = 0
        self.state = "closed"  # closed | open | half-open
        self.open_until = 0


class Transport:
    """The parcel-transport contract (DESIGN §3 seam 9).

    The layers above use exactly the public surface of this class:
    ``rank``, ``env``, ``memory``, ``counters`` (this rank's scope),
    ``max_parcel``, ``doorbell`` (the wire library's signal: rung
    whenever :meth:`poll` may have something new to find), ``arrivals``
    (the doorbell's receive side: rung when a parcel may have landed or a
    send of this transport's has failed, not when one merely completed — a
    server loop parks here, so a co-located client's sends cost it
    nothing), ``breaker_log`` (the wire's bounded log of breaker
    transitions) and the methods below.  One process drives a transport.
    """

    def __init__(self, lib, counters, max_parcel: int):
        self.rank = lib.rank
        self.env = lib.env
        self.memory = lib.memory
        self.doorbell = lib.doorbell
        self.arrivals = lib.arrivals
        self.counters = counters
        self.max_parcel = max_parcel

    def send(self, dst: int, raw: bytes):
        """Ship one encoded parcel (generator).  Raises
        :class:`PeerDownError`, without touching the wire, when the
        destination's breaker is open."""
        raise NotImplementedError

    def poll(self):
        """One progress pass: settle finished sends, then return an
        encoded parcel or None (generator)."""
        raise NotImplementedError

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

    def attach_health(self, monitor) -> None:
        """Consume a failure detector: a confirmed-dead peer opens the
        breaker immediately (no need to burn ``breaker_threshold``
        parcel failures first) and a rejoin closes it."""
        raise NotImplementedError

    def peer_is_down(self, dst: int) -> bool:
        """True while the breaker is open and the cooldown has not expired."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """JSON-serializable snapshot (obs report section); always has
        ``kind``, ``peers`` and ``breaker_transitions``."""
        raise NotImplementedError


class WireTransport(Transport):
    """A transport that owns a wire, and the one policy every wire has.

    A subclass supplies the wire mechanics and reports every send that
    settles to :meth:`_settled`: a failed parcel is re-sent up to
    ``max_send_retries`` times, and ``breaker_threshold`` consecutive
    failures open the per-peer circuit breaker — sends fail fast with
    :class:`PeerDownError` until ``breaker_cooldown_ns`` elapses, then one
    half-open probe send decides.
    """

    max_send_retries = 2
    breaker_threshold = 3
    breaker_cooldown_ns = 2_000_000
    #: send-side staging slots (a failed parcel is re-sent from its slot)
    scratch_slots = 8

    def __init__(self, lib, counters, max_parcel: int):
        super().__init__(lib, counters, max_parcel)
        self._health: Dict[int, _PeerHealth] = defaultdict(_PeerHealth)
        #: failure-detector handle (None unless attach_health was called)
        self.monitor = None
        #: bounded log of (t, peer, old_state, new_state) — the breaker
        #: legality invariant checker consumes this
        self.breaker_log: deque = deque(maxlen=4096)
        self._open_spans: Dict[int, object] = {}

    # --------------------------------------------------------- circuit breaker
    def attach_health(self, monitor) -> None:
        self.monitor = monitor
        monitor.on_dead(self._on_peer_dead)
        monitor.on_join(self._on_peer_join)

    def _on_peer_dead(self, rank: int) -> None:
        if rank == self.rank:
            return
        h = self._health[rank]
        if h.state != "open":
            self.counters.add("transport.peer_down")
            self._transition(rank, h, "open")
        h.open_until = self.env.now + self.breaker_cooldown_ns

    def _on_peer_join(self, rank: int) -> None:
        if rank == self.rank:
            return
        h = self._health[rank]
        h.failures = 0
        if h.state != "closed":
            self.counters.add("transport.peer_up")
            self._transition(rank, h, "closed")

    def _transition(self, dst: int, h: _PeerHealth, new_state: str) -> None:
        """Move the breaker and export the transition through obs."""
        old = h.state
        if old == new_state:
            return
        h.state = new_state
        now = self.env.now
        self.breaker_log.append((now, dst, old, new_state))
        self.counters.add(
            f"transport.breaker_{new_state.replace('-', '_')}")
        if new_state == "open":
            self._open_spans[dst] = self.counters.span(
                "transport.breaker_open", now, peer=dst)
        elif new_state == "closed":
            span = self._open_spans.pop(dst, None)
            if span is not None:
                span.end(now, status="recovered")

    def peer_is_down(self, dst: int) -> bool:
        h = self._health.get(dst)
        return (h is not None and h.state == "open"
                and self.env.now < h.open_until)

    def _record_failure(self, dst: int) -> None:
        h = self._health[dst]
        h.failures += 1
        if h.state == "half-open":
            self.counters.add("transport.probe_failures")
        if h.state == "half-open" or h.failures >= self.breaker_threshold:
            if h.state != "open":
                self.counters.add("transport.peer_down")
                self._transition(dst, h, "open")
            h.open_until = self.env.now + self.breaker_cooldown_ns

    def _record_success(self, dst: int) -> None:
        h = self._health[dst]
        h.failures = 0
        if h.state != "closed":
            if h.state == "half-open":
                self.counters.add("transport.probe_successes")
            self.counters.add("transport.peer_up")
            self._transition(dst, h, "closed")

    def _admit(self, dst: int, raw: bytes) -> None:
        """Gate one ``send``: size limit, then the breaker."""
        if len(raw) > self.max_parcel:
            raise SimulationError(
                f"parcel of {len(raw)}B exceeds transport max "
                f"{self.max_parcel}B")
        h = self._health[dst]
        if self.monitor is not None and self.monitor.is_dead(dst):
            # confirmed dead: fail fast regardless of breaker cooldown
            self.counters.add("transport.fast_fails")
            raise PeerDownError(self.rank, dst)
        if h.state == "open":
            if self.env.now < h.open_until:
                self.counters.add("transport.fast_fails")
                raise PeerDownError(self.rank, dst)
            # cooldown elapsed: let exactly this send probe the peer
            self._transition(dst, h, "half-open")

    def _settled(self, dst: int, ok: bool, attempts: int) -> bool:
        """One send to ``dst`` settled after ``attempts`` resends: feed
        the breaker and decide its fate.  True = the caller re-sends it
        (counted in ``transport.parcel_resends``); False = it is over,
        delivered or counted in ``transport.parcel_failures``."""
        if ok:
            self._record_success(dst)
            return False
        self._record_failure(dst)
        if attempts < self.max_send_retries and not self.peer_is_down(dst):
            self.counters.add("transport.parcel_resends")
            return True
        self.counters.add("transport.parcel_failures")
        return False

    # ------------------------------------------------------------ staging ring
    def _init_ring(self, alloc) -> None:
        """Send-side staging: ``scratch_slots`` buffers from ``alloc`` and,
        per slot, the unsettled send owning it as (wire handle, dst,
        nbytes, resends so far).  The payload persists in the slot, so a
        failed send is re-issued in place (wire hooks ``_issue`` and
        ``_outcome``) and the slot is not reused until the send settles."""
        self._send_slots = [alloc(self.max_parcel)
                            for _ in range(self.scratch_slots)]
        self._slot_sends: List[Optional[tuple]] = [None] * self.scratch_slots
        #: number of slots with an unsettled send (O(1) poll guard)
        self._slots_live = 0
        self._send_cursor = 0

    def _stage(self, dst: int, raw: bytes):
        """Copy a parcel into the next free slot — round-robin, skipping
        slots a slow or re-issued send still owns; the caller guarantees
        one is free — and issue it (generator)."""
        idx = self._send_cursor
        while self._slot_sends[idx] is not None:
            idx = (idx + 1) % len(self._send_slots)
        self._send_cursor = (idx + 1) % len(self._send_slots)
        self.memory.write(self._send_slots[idx], raw)
        yield self.env.timeout(self.memory.memcpy_cost_ns(len(raw)))
        handle = yield from self._issue(idx, dst, len(raw))
        self._slot_sends[idx] = (handle, dst, len(raw), 0)
        self._slots_live += 1

    def _settle_slot(self, idx: int):
        """If the send owning slot ``idx`` has finished, free the slot or
        re-issue from it (generator)."""
        handle, dst, nbytes, attempts = self._slot_sends[idx]
        ok = self._outcome(handle)
        if ok is None:
            return
        if self._settled(dst, ok, attempts):
            handle = yield from self._issue(idx, dst, nbytes)
            self._slot_sends[idx] = (handle, dst, nbytes, attempts + 1)
        else:
            self._slot_sends[idx] = None
            self._slots_live -= 1

    def _settle_slots(self):
        for idx, owner in enumerate(self._slot_sends):
            if owner is not None:
                yield from self._settle_slot(idx)

    def stats(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "peers": {
                str(r): {"state": h.state, "failures": h.failures,
                         "open_until": h.open_until}
                for r, h in self._health.items()},
            "breaker_transitions": [
                {"t": t, "peer": p, "from": old, "to": new}
                for t, p, old, new in self.breaker_log],
        }


class PhotonTransport(WireTransport):
    """Parcels over Photon PWC (eager) + rendezvous (large).

    Delivery guarantees are layered on top of Photon's own
    retry/recovery: eager parcels whose reliable op fails and rendezvous
    advertisements whose request fails go through the shared resend
    policy; failed rendezvous *fetches* are reposted on the receive side.
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
        #: in-flight fetches: (request id, landing addr, RecvInfo, attempts)
        self._fetches: deque = deque()
        #: in-flight eager parcels: (dst, op handle, raw, resends so far)
        self._eager_ops: deque = deque()

    # ----------------------------------------------------------------- send
    def send(self, dst: int, raw: bytes):
        self._admit(dst, raw)
        if len(raw) <= self.ph.config.eager_limit:
            op = yield from self.ph.send_pwc(dst, raw, remote_cid=PARCEL_TAG)
            if op is not None:
                self._eager_ops.append((dst, op, bytes(raw), 0))
        else:
            # slot reuse: the prior advertisement must settle — retrying
            # in place if it failed — before we overwrite the payload
            idx = self._send_cursor
            while self._slot_sends[idx] is not None:
                yield from self.ph.wait(self._slot_sends[idx][0])
                yield from self._settle_slot(idx)
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

    def _reap_eager(self):
        """Settle tracked eager ops; returns parcels needing a resend."""
        ops = self._eager_ops
        if not ops:
            return ()
        # common case per poll: every tracked op is still in flight —
        # detect that without churning the deque
        for _dst, op, _raw, _attempts in ops:
            if op.status is not None:
                break
        else:
            return ()
        resend = []
        still: deque = deque()
        while self._eager_ops:
            dst, op, raw, attempts = self._eager_ops.popleft()
            if op.status is None:
                still.append((dst, op, raw, attempts))
            elif self._settled(dst, op.status is WCStatus.SUCCESS, attempts):
                resend.append((dst, raw, attempts + 1))
        self._eager_ops = still
        return resend

    # ----------------------------------------------------------------- poll
    def poll(self):
        """One progress pass; returns an encoded parcel or None (generator).

        Large parcels arrive as rendezvous advertisements; fetches are
        issued concurrently into the landing ring (pipelined, like an
        irecv window) and completed ones are handed out in issue order.
        Failed sends/fetches detected here drive the retry and breaker
        machinery.
        """
        # settle eager sends and re-ship the ones Photon gave up on
        for dst, raw, attempts in self._reap_eager():
            op = yield from self.ph.send_pwc(dst, raw, remote_cid=PARCEL_TAG)
            if op is not None:
                self._eager_ops.append((dst, op, raw, attempts))
        # opportunistically settle rendezvous sends so a failed large
        # parcel is re-shipped now instead of at the next slot reuse
        if self._slots_live:
            yield from self._settle_slots()
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
            yield from self._fetch(info, self._free_landings.pop(), 0)
        # hand out the oldest settled fetch
        if self._fetches and self.ph.test(self._fetches[0][0]):
            rid, addr, info, attempts = self._fetches.popleft()
            self.ph.attend_sends(bool(self._fetches))
            failed = self.ph.request_info(rid).failed
            self.ph.free_request(rid)
            if failed:
                self.counters.add("transport.fetch_failures")
                self._record_failure(info.src)
                if attempts < self.max_send_retries:
                    # the read is idempotent — repost into the same landing
                    yield from self._fetch(info, addr, attempts + 1)
                else:
                    self._free_landings.append(addr)
                    self.counters.add("transport.parcel_failures")
                return None
            self._record_success(info.src)
            # owned copy: the landing slot is recycled on the next line
            raw = self.memory.read_bytes(addr, info.size)
            yield self.env.timeout(self.memory.memcpy_cost_ns(info.size))
            self._free_landings.append(addr)
            yield from self.ph._post_fin(info)
            return raw
        return None

    def _fetch(self, info, addr: int, attempts: int):
        """Post the read of one advertised parcel into ``addr``
        (generator).  It completes on the *send* CQ: have that ring
        ``arrivals`` while a fetch is in flight, or a scheduler parked
        there sits on the landed parcel until the next arrival."""
        rid = yield from self.ph.post_os_get(info.src, addr, info.size,
                                             info.addr, info.rkey)
        self._fetches.append((rid, addr, info, attempts))
        self.ph.attend_sends(True)

    def stats(self) -> Dict[str, object]:
        return dict(super().stats(),
                    eager_inflight=len(self._eager_ops),
                    fetches_inflight=len(self._fetches),
                    free_landings=len(self._free_landings),
                    send_slots_busy=self._slots_live)


class MpiTransport(WireTransport):
    """Parcels over minimpi isend + a preposted wildcard-irecv window."""

    kind = "mpi"

    def __init__(self, comm: Comm, max_parcel: int = 1 << 20,
                 window: int = 16):
        super().__init__(comm.engine, comm.engine.counters, max_parcel)
        self.comm = comm
        self.window = window
        self._recv_bufs: List[int] = [
            comm.memory.alloc(max_parcel) for _ in range(window)]
        self._recv_reqs: List[Optional[MPIRequest]] = [None] * window
        self._init_ring(comm.memory.alloc)
        self._primed = False

    def _prime(self):
        """Post the initial wildcard receive window (generator)."""
        for i in range(self.window):
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
        yield from self._settle_slots()
        # barrier: always leave a free slot for the next send
        while self._slots_live == len(self._send_slots):
            yield from self.comm.waitall([s[0] for s in self._slot_sends])
            yield from self._settle_slots()

    def _issue(self, idx: int, dst: int, nbytes: int):
        return (yield from self.comm.isend(self._send_slots[idx], nbytes,
                                           dst, PARCEL_TAG))

    def _outcome(self, req: MPIRequest) -> Optional[bool]:
        if not req.done:
            return None
        # popped from the engine's live-request table like the recv path
        # does, else done isends accumulate there for the life of the run
        self.comm.engine.live_requests.pop(req.rid, None)
        return not req.failed

    def poll(self):
        if not self._primed:
            yield from self._prime()
        if self._slots_live:
            yield from self._settle_slots()
        yield from self.comm.engine._progress_once()
        for i, req in enumerate(self._recv_reqs):
            if req is not None and req.done:
                # owned copy: the window buffer is immediately re-posted
                raw = self.memory.read_bytes(self._recv_bufs[i],
                                             req.status.count)
                yield self.env.timeout(
                    self.memory.memcpy_cost_ns(req.status.count))
                self.comm.engine.live_requests.pop(req.rid, None)
                new_req = yield from self.comm.irecv(
                    self._recv_bufs[i], self.max_parcel,
                    src=ANY_SOURCE, tag=PARCEL_TAG)
                self._recv_reqs[i] = new_req
                return raw
        return None

    def stats(self) -> Dict[str, object]:
        return dict(super().stats(),
                    window=self.window,
                    window_armed=sum(1 for r in self._recv_reqs
                                     if r is not None),
                    sends_inflight=self._slots_live)
