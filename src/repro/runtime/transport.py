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

Both expose the same two generators: ``send(dst, raw)`` and ``poll() ->
raw | None``, so the scheduler and the applications are transport-blind.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..minimpi.comm import Comm
from ..minimpi.protocol import MPIRequest
from ..photon.api import Photon
from ..sim.core import SimulationError
from ..verbs.enums import WCStatus

__all__ = ["PhotonTransport", "MpiTransport", "PeerDownError", "PARCEL_TAG"]

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


class PhotonTransport:
    """Parcels over Photon PWC (eager) + rendezvous (large).

    The transport layers delivery guarantees on top of Photon's own
    retry/recovery: eager parcels whose reliable op fails are re-sent (up
    to ``max_send_retries`` extra attempts), failed rendezvous fetches are
    reposted, and a per-peer circuit breaker trips after
    ``breaker_threshold`` consecutive failures — further sends to that
    peer fail fast with :class:`PeerDownError` until
    ``breaker_cooldown_ns`` elapses, after which one half-open probe send
    decides whether the peer is back.
    """

    def __init__(self, photon: Photon, max_parcel: int = 1 << 20,
                 scratch_slots: int = 8, max_send_retries: int = 2,
                 breaker_threshold: int = 3,
                 breaker_cooldown_ns: int = 2_000_000):
        self.ph = photon
        self.rank = photon.rank
        self.max_parcel = max_parcel
        self.max_send_retries = max_send_retries
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_ns = breaker_cooldown_ns
        # staging ring for rendezvous-size parcels (send side), plus one
        # landing buffer (recv side)
        self._send_slots = [photon.buffer(max_parcel)
                            for _ in range(scratch_slots)]
        #: rendezvous request still owning each staging slot (pipelining:
        #: we only block when a slot must be reused)
        self._slot_rids: List[Optional[int]] = [None] * scratch_slots
        #: per-slot (dst, nbytes, resends so far) for the owning request —
        #: the payload persists in the slot, so a failed send can be
        #: retried in place with the same budget eager parcels get
        self._slot_meta: List[Optional[tuple]] = [None] * scratch_slots
        #: number of staging slots with a live request (O(1) poll guard)
        self._rndv_live = 0
        self._send_cursor = 0
        #: landing ring: concurrent inbound rendezvous fetches
        self._landings = [photon.buffer(max_parcel)
                          for _ in range(scratch_slots)]
        self._free_landings = list(range(scratch_slots))
        #: in-flight fetches: (request id, landing index, RecvInfo, attempts)
        self._fetches: deque = deque()
        #: in-flight eager parcels: (dst, op id, raw, resends so far)
        self._eager_ops: deque = deque()
        self._health: Dict[int, _PeerHealth] = {}
        #: failure-detector handle (None unless attach_health was called)
        self.monitor = None
        #: bounded log of (t, peer, old_state, new_state) — the breaker
        #: legality invariant checker consumes this
        self.breaker_log: deque = deque(maxlen=4096)
        self._open_spans: Dict[int, object] = {}

    # --------------------------------------------------------- circuit breaker
    def _peer_health(self, dst: int) -> _PeerHealth:
        h = self._health.get(dst)
        if h is None:
            h = self._health[dst] = _PeerHealth()
        return h

    def attach_health(self, monitor) -> None:
        """Consume a failure detector: a confirmed-dead peer opens the
        breaker immediately (no need to burn ``breaker_threshold``
        parcel failures first) and a rejoin closes it."""
        self.monitor = monitor
        monitor.on_dead(self._on_peer_dead)
        monitor.on_join(self._on_peer_join)

    def _on_peer_dead(self, rank: int) -> None:
        if rank == self.rank:
            return
        h = self._peer_health(rank)
        if h.state != "open":
            self.ph.counters.add("transport.peer_down")
            self._transition(rank, h, "open")
        h.open_until = self.ph.env.now + self.breaker_cooldown_ns

    def _on_peer_join(self, rank: int) -> None:
        if rank == self.rank:
            return
        h = self._peer_health(rank)
        h.failures = 0
        if h.state != "closed":
            self.ph.counters.add("transport.peer_up")
            self._transition(rank, h, "closed")

    def _transition(self, dst: int, h: _PeerHealth, new_state: str) -> None:
        """Move the breaker and export the transition through obs."""
        old = h.state
        if old == new_state:
            return
        h.state = new_state
        now = self.ph.env.now
        self.breaker_log.append((now, dst, old, new_state))
        self.ph.counters.add(
            f"transport.breaker_{new_state.replace('-', '_')}")
        if new_state == "open":
            self._open_spans[dst] = self.ph.counters.span(
                "transport.breaker_open", now, peer=dst)
        elif new_state == "closed":
            span = self._open_spans.pop(dst, None)
            if span is not None:
                span.end(now, status="recovered")

    def peer_is_down(self, dst: int) -> bool:
        """True while the breaker is open and the cooldown has not expired."""
        h = self._health.get(dst)
        return (h is not None and h.state == "open"
                and self.ph.env.now < h.open_until)

    def _record_failure(self, dst: int) -> None:
        h = self._peer_health(dst)
        h.failures += 1
        if h.state == "half-open":
            self.ph.counters.add("transport.probe_failures")
        if h.state == "half-open" or h.failures >= self.breaker_threshold:
            if h.state != "open":
                self.ph.counters.add("transport.peer_down")
                self._transition(dst, h, "open")
            h.open_until = self.ph.env.now + self.breaker_cooldown_ns

    def _record_success(self, dst: int) -> None:
        h = self._peer_health(dst)
        h.failures = 0
        if h.state != "closed":
            if h.state == "half-open":
                self.ph.counters.add("transport.probe_successes")
            self.ph.counters.add("transport.peer_up")
            self._transition(dst, h, "closed")

    def _check_breaker(self, dst: int) -> None:
        h = self._peer_health(dst)
        if self.monitor is not None and self.monitor.is_dead(dst):
            # confirmed dead: fail fast regardless of breaker cooldown
            self.ph.counters.add("transport.fast_fails")
            raise PeerDownError(self.rank, dst)
        if h.state == "open":
            if self.ph.env.now < h.open_until:
                self.ph.counters.add("transport.fast_fails")
                raise PeerDownError(self.rank, dst)
            # cooldown elapsed: let exactly this send probe the peer
            self._transition(dst, h, "half-open")

    # ----------------------------------------------------------------- send
    def send(self, dst: int, raw: bytes):
        """Ship one encoded parcel (generator).

        Raises :class:`PeerDownError` without touching the wire when the
        destination's circuit breaker is open.
        """
        if len(raw) > self.max_parcel:
            raise SimulationError(
                f"parcel of {len(raw)}B exceeds transport max "
                f"{self.max_parcel}B")
        self._check_breaker(dst)
        if len(raw) <= self.ph.config.eager_limit:
            op = yield from self.ph.send_pwc(dst, raw, remote_cid=PARCEL_TAG)
            if op is not None:
                self._eager_ops.append((dst, op, bytes(raw), 0))
        else:
            idx = self._send_cursor
            self._send_cursor = (self._send_cursor + 1) % len(self._send_slots)
            # slot reuse: the prior advertisement must settle — retrying
            # in place if it failed — before we overwrite the payload
            yield from self._settle_slot(idx, blocking=True)
            slot = self._send_slots[idx]
            self.ph.memory.write(slot.addr, raw)
            yield self.ph.env.timeout(
                self.ph.memory.memcpy_cost_ns(len(raw)))
            rid = yield from self.ph.send_rdma(dst, slot.addr, len(raw),
                                               tag=PARCEL_TAG)
            self._slot_rids[idx] = rid
            self._slot_meta[idx] = (dst, len(raw), 0)
            self._rndv_live += 1

    def _settle_slot(self, idx: int, blocking: bool):
        """Settle the rendezvous request owning a staging slot (generator).

        A failed send is re-issued from the same slot — the payload is
        still there until it is overwritten — with the same
        ``max_send_retries`` budget eager parcels get; exhausted retries
        count as ``transport.parcel_failures``.  ``blocking``: wait for
        the request (and any retries) to finish, as the slot is about to
        be reused; non-blocking callers (:meth:`poll`) bail out while a
        request is still in flight.
        """
        rid = self._slot_rids[idx]
        if rid is None:
            return
        while True:
            if blocking:
                yield from self.ph.wait(rid)
            elif not self.ph.test(rid):
                return
            failed = self.ph.request_info(rid).failed
            self.ph.free_request(rid)
            dst, nbytes, attempts = self._slot_meta[idx]
            if not failed:
                self._slot_rids[idx] = None
                self._slot_meta[idx] = None
                self._rndv_live -= 1
                self._record_success(dst)
                return
            self._record_failure(dst)
            if (attempts < self.max_send_retries
                    and not self.peer_is_down(dst)):
                self.ph.counters.add("transport.parcel_resends")
                rid = yield from self.ph.send_rdma(
                    dst, self._send_slots[idx].addr, nbytes, tag=PARCEL_TAG)
                self._slot_rids[idx] = rid
                self._slot_meta[idx] = (dst, nbytes, attempts + 1)
                if not blocking:
                    return
            else:
                self.ph.counters.add("transport.parcel_failures")
                self._slot_rids[idx] = None
                self._slot_meta[idx] = None
                self._rndv_live -= 1
                return

    def _reap_eager(self):
        """Settle tracked eager ops; returns parcels needing a resend."""
        ops = self._eager_ops
        if not ops:
            return ()
        # common case per poll: every tracked op is still in flight —
        # detect that without churning the deque
        op_status = self.ph.op_status
        for dst, op, _raw, _attempts in ops:
            if op_status(dst, op) is not None:
                break
        else:
            return ()
        resend = []
        still: deque = deque()
        while self._eager_ops:
            dst, op, raw, attempts = self._eager_ops.popleft()
            st = self.ph.op_status(dst, op)
            if st is None:
                still.append((dst, op, raw, attempts))
                continue
            self.ph.free_op(dst, op)
            if st is WCStatus.SUCCESS:
                self._record_success(dst)
                continue
            self._record_failure(dst)
            if attempts < self.max_send_retries and not self.peer_is_down(dst):
                self.ph.counters.add("transport.parcel_resends")
                resend.append((dst, raw, attempts + 1))
            else:
                self.ph.counters.add("transport.parcel_failures")
        self._eager_ops = still
        return resend

    # ----------------------------------------------------------------- poll
    def poll_pending(self) -> bool:
        """True when :meth:`poll` could do more than charge poll time.

        Pure check (no yields): eager sends awaiting settlement, queued
        messages or rendezvous advertisements, in-flight landing fetches,
        or anything the endpoint's own progress pass could act on.
        """
        ph = self.ph
        return bool(self._eager_ops or self._fetches or self._rndv_live
                    or ph.messages or ph.infos or ph.progress_pending())

    def poll(self, charge_poll: bool = True):
        """One progress pass; returns an encoded parcel or None (generator).

        Large parcels arrive as rendezvous advertisements; fetches are
        issued concurrently into the landing ring (pipelined, like an
        irecv window) and completed ones are handed out in issue order.
        Failed sends/fetches detected here drive the retry and breaker
        machinery.  ``charge_poll=False``: the caller already charged the
        poll interval (see :meth:`PhotonEndpoint._progress_once`).
        """
        # settle eager sends and re-ship the ones Photon gave up on
        for dst, raw, attempts in self._reap_eager():
            op = yield from self.ph.send_pwc(dst, raw, remote_cid=PARCEL_TAG)
            if op is not None:
                self._eager_ops.append((dst, op, raw, attempts))
        # opportunistically settle rendezvous sends so a failed large
        # parcel is re-shipped now instead of at the next slot reuse
        if self._rndv_live:
            for idx, rid in enumerate(self._slot_rids):
                if rid is not None:
                    yield from self._settle_slot(idx, blocking=False)
        # inlined ph.probe_message(_parcel_match): one fewer generator
        # set-up on the hottest polling chain in the runtime
        yield from self.ph._progress_once(charge_poll)
        got = self.ph._pop_message(_parcel_match)
        if got is not None:
            return got[2]
        # launch fetches for any newly advertised rendezvous parcels
        while self._free_landings:
            info = self.ph._match_info(src=-1, tag=PARCEL_TAG)
            if info is None:
                break
            idx = self._free_landings.pop()
            rid = yield from self.ph.post_os_get(
                info.src, self._landings[idx].addr, info.size,
                info.addr, info.rkey)
            self._fetches.append((rid, idx, info, 0))
        # hand out the oldest settled fetch
        if self._fetches and self.ph.test(self._fetches[0][0]):
            rid, idx, info, attempts = self._fetches.popleft()
            failed = self.ph.request_info(rid).failed
            self.ph.free_request(rid)
            if failed:
                self.ph.counters.add("transport.fetch_failures")
                self._record_failure(info.src)
                if attempts < self.max_send_retries:
                    # the read is idempotent — repost into the same landing
                    rid = yield from self.ph.post_os_get(
                        info.src, self._landings[idx].addr, info.size,
                        info.addr, info.rkey)
                    self._fetches.append((rid, idx, info, attempts + 1))
                else:
                    self._free_landings.append(idx)
                    self.ph.counters.add("transport.parcel_failures")
                return None
            self._record_success(info.src)
            # owned copy: the landing slot is recycled on the next line
            raw = self.ph.memory.read_bytes(self._landings[idx].addr,
                                            info.size)
            yield self.ph.env.timeout(
                self.ph.memory.memcpy_cost_ns(info.size))
            self._free_landings.append(idx)
            yield from self._send_fin(info)
            return raw
        return None

    def _send_fin(self, info):
        """Complete the sender's rendezvous request (generator)."""
        from ..photon.wire import FinEntry
        peer = self.ph._peer(info.src)
        yield from self.ph._post_ring_entry(
            peer, "fin", lambda seq: FinEntry(seq=seq, req=info.req).pack())

    def stats(self) -> Dict[str, object]:
        """JSON-serializable transport snapshot (obs report section)."""
        return {
            "kind": "photon",
            "eager_inflight": len(self._eager_ops),
            "fetches_inflight": len(self._fetches),
            "free_landings": len(self._free_landings),
            "send_slots_busy": sum(1 for r in self._slot_rids
                                   if r is not None),
            "breaker_transitions": [
                {"t": t, "peer": p, "from": old, "to": new}
                for t, p, old, new in self.breaker_log],
            "peers": {
                str(r): {"state": h.state, "failures": h.failures,
                         "open_until": h.open_until}
                for r, h in self._health.items()},
        }


class MpiTransport:
    """Parcels over minimpi isend + a preposted wildcard-irecv window."""

    def __init__(self, comm: Comm, max_parcel: int = 1 << 20,
                 window: int = 16):
        self.comm = comm
        self.rank = comm.rank
        self.max_parcel = max_parcel
        self.window = window
        self._recv_bufs: List[int] = [
            comm.memory.alloc(max_parcel) for _ in range(window)]
        self._recv_reqs: List[Optional[MPIRequest]] = [None] * window
        self._send_slots = [comm.memory.alloc(max_parcel) for _ in range(8)]
        self._send_cursor = 0
        self._inflight: List[MPIRequest] = []
        self._primed = False

    def _prime(self):
        """Post the initial wildcard receive window (generator)."""
        from ..minimpi.status import ANY_SOURCE
        for i in range(self.window):
            req = yield from self.comm.irecv(self._recv_bufs[i],
                                             self.max_parcel,
                                             src=ANY_SOURCE, tag=PARCEL_TAG)
            self._recv_reqs[i] = req
        self._primed = True

    def send(self, dst: int, raw: bytes):
        """Ship one encoded parcel (generator)."""
        if not self._primed:
            yield from self._prime()
        if len(raw) > self.max_parcel:
            raise SimulationError(
                f"parcel of {len(raw)}B exceeds transport max "
                f"{self.max_parcel}B")
        slot = self._send_slots[self._send_cursor]
        self._send_cursor = (self._send_cursor + 1) % len(self._send_slots)
        self.comm.memory.write(slot, raw)
        yield self.comm.env.timeout(
            self.comm.memory.memcpy_cost_ns(len(raw)))
        req = yield from self.comm.isend(slot, len(raw), dst, PARCEL_TAG)
        self._inflight.append(req)
        # reap finished sends opportunistically — popping them from the
        # engine's live-request table like the recv path does, else done
        # isends accumulate there for the life of the run
        live: List[MPIRequest] = []
        for r in self._inflight:
            if r.done:
                self.comm.engine.live_requests.pop(r.rid, None)
            else:
                live.append(r)
        self._inflight = live
        if len(self._inflight) >= len(self._send_slots):
            yield from self.comm.waitall(list(self._inflight))
            self._inflight.clear()

    def poll(self):
        """One progress pass; returns an encoded parcel or None (generator)."""
        from ..minimpi.status import ANY_SOURCE
        if not self._primed:
            yield from self._prime()
        yield from self.comm.engine._progress_once()
        for i, req in enumerate(self._recv_reqs):
            if req is not None and req.done:
                # owned copy: the window buffer is immediately re-posted
                raw = self.comm.memory.read_bytes(self._recv_bufs[i],
                                                  req.status.count)
                yield self.comm.env.timeout(
                    self.comm.memory.memcpy_cost_ns(req.status.count))
                self.comm.engine.live_requests.pop(req.rid, None)
                new_req = yield from self.comm.irecv(
                    self._recv_bufs[i], self.max_parcel,
                    src=ANY_SOURCE, tag=PARCEL_TAG)
                self._recv_reqs[i] = new_req
                return raw
        return None

    def stats(self) -> Dict[str, object]:
        """JSON-serializable transport snapshot (obs report section)."""
        return {
            "kind": "mpi",
            "window": self.window,
            "window_armed": sum(1 for r in self._recv_reqs if r is not None),
            "sends_inflight": len(self._inflight),
        }
