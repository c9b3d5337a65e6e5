"""KV client: leader discovery, redirects, retries, two read arms.

A :class:`KVClient` lives on some rank and talks to the store through
that rank's :class:`~repro.kv.store.KVNode` (an RPC registers with the
node's hub and the server loop hands its answer to that registration;
requests go straight onto the shared parcel transport — concurrent
senders per rank are a supported pattern everywhere in this repo).

Write path: the client hashes the key to a group, sends the command to
its best guess for the group's leader, and follows ``NotLeader``
redirects / moves on to the next replica when an attempt times out or
this rank's failure detector declares its target dead.  Retries reuse
the same ``(client_id, seq)`` uid, so the session layer in the state
machine makes them exactly-once even when the original attempt
committed before the leader died.  Every OK write response is recorded in
``self.acked`` — the failover invariant checker replays that list
against the surviving replicas.

Read paths (the RDMA-vs-RPC comparison axis):

* ``rpc``: a parcel round-trip served by the leader from local state
  under a read lease (no log write, still linearizable — the lease is
  sized under the phi-accrual detection bound and gated behind the
  Raft §8 current-term barrier, see DESIGN.md §10).
* ``onesided``: resolve ``key → (leader, addr, rkey, slot)`` once via a
  ``loc`` RPC, then read the slot with a raw ``get_pwc`` — one wire
  round, zero remote CPU.  This arm is **relaxed consistency, not
  linearizable**: a deposed-but-alive leader keeps a live slot table
  (updated at follower apply lag), and a raw remote read cannot see
  that leadership moved.  Staleness is *bounded*, not eliminated: a
  cached location older than ``LOC_TTL_NS`` is revalidated in the
  background (stale-while-revalidate — the triggering read keeps the
  arm's one-round latency) through the redirect-following RPC path,
  the server refuses loc requests once its lease lapses (so a deposed
  leader stops re-confirming its own table and the stale entry is
  dropped within one refresh), and the slot-header version gives
  per-key monotonic reads within a session (a version that goes
  backwards marks the replica stale — fall back, drop the cache).  A
  crashed leader, absent/oversize slot, or version regression falls
  back to the authoritative RPC path.  That consistency gap *is* the
  RDMA-vs-RPC trade-off experiment R20 measures.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .shard import (CodecError, Command, OP_PUT, ST_MISS, ST_OK,
                    encode_command)
from .store import (ACT_REQ, KVNode, PendingReply, REQ_LOC, REQ_READ,
                    REQ_SNAP, REQ_WRITE, RESP_FAIL, RESP_NO_LEASE,
                    RESP_NOT_LEADER, RESP_WRONG_EPOCH, SLOT_OVERSIZE,
                    SLOT_PRESENT, SLOT_SIZE, _SLOT, pack_request,
                    unpack_loc)
from ..runtime.transport import PeerDownError
from ..verbs.enums import WCStatus

__all__ = ["KVClient", "ClientStats"]

#: one-sided location cache lifetime (ns) — bounds how long reads can keep
#: targeting a deposed-but-alive leader before a background revalidation
#: (refused by lease-less servers) drops the entry
LOC_TTL_NS = 400_000


class ClientStats:
    """Counters one client accumulates (cheap, no obs spans here)."""

    __slots__ = ("redirects", "timeouts", "lease_retries", "loc_lookups",
                 "onesided_reads", "onesided_fallbacks", "rpc_reads",
                 "writes", "failures", "wrong_epoch", "map_refreshes")

    def __init__(self):
        for f in self.__slots__:
            setattr(self, f, 0)

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.__slots__}


class KVClient:
    """One logical client session (unique id, monotonically growing seq).
    ``timeout_ns`` bounds one attempt of an RPC unless this rank's
    detector declares the attempt's target dead first, ``max_attempts``
    the RPC;
    ``poll_ns`` is the unit of the redirect / lease back-off (``8 *
    poll_ns``, doubling) — nothing polls: an answer wakes its waiter."""

    def __init__(self, node: KVNode, client_id: int,
                 read_mode: str = "rpc", timeout_ns: int = 2_000_000,
                 poll_ns: int = 2_000, max_attempts: int = 24):
        if read_mode not in ("rpc", "onesided"):
            raise ValueError(f"unknown read_mode {read_mode!r}")
        self.node = node
        self.env = node.env
        self.photon = node.photon
        self.client_id = client_id
        self.read_mode = read_mode
        self.timeout_ns = timeout_ns
        self.poll_ns = poll_ns
        self.max_attempts = max_attempts
        self.seq = 0
        self.stats = ClientStats()
        #: immutable epoch-stamped ring snapshot this client routes by;
        #: every request carries ``_view.epoch`` and a WRONG_EPOCH answer
        #: (shard moved, or sealed mid-move) refetches it
        self._view = node.shard_map.freeze()
        #: group -> believed leader rank
        self._leader: Dict[int, int] = {}
        #: key -> (leader, slot addr, rkey, slot_size, resolved_at_ns)
        self._loc: Dict[bytes, Tuple[int, int, int, int, int]] = {}
        #: key -> highest slot version this session has observed; a
        #: one-sided read below it is a stale replica (monotonic reads)
        self._seen_ver: Dict[bytes, int] = {}
        #: keys with a background loc refresh in flight (dedup)
        self._refreshing: set = set()
        #: every acknowledged mutation: (client, seq, op, key, value) —
        #: the failover checker asserts these survive leader crashes
        self.acked: List[Tuple[int, int, int, bytes, bytes]] = []
        self._scratch = node.photon.buffer(SLOT_SIZE)

    # -------------------------------------------------------------- writes
    def put(self, key: bytes, value: bytes):
        """Replicated put (generator).  Returns the ST_* status."""
        return (yield from self._write(key, value))

    def _write(self, key: bytes, value: bytes):
        self.seq += 1
        seq = self.seq
        cmd = Command(op=OP_PUT, client=self.client_id, seq=seq, key=key,
                      value=value)
        status, _ = yield from self._rpc(REQ_WRITE, encode_command(cmd),
                                         seq, key=key)
        if status == ST_OK:
            # the command reached the state machine => it is durable on a
            # commit majority
            self.acked.append((self.client_id, seq, OP_PUT, key, value))
            self.stats.writes += 1
        else:
            self.stats.failures += 1
        return status

    # --------------------------------------------------------------- reads
    def get(self, key: bytes):
        """Read (generator).  Returns ``(status, value)`` via the arm
        selected at construction time.  ``rpc`` is linearizable;
        ``onesided`` is a relaxed read — bounded staleness (location
        cache TTL + replica apply lag) with per-key monotonic reads in
        this session, see the module docstring."""
        if self.read_mode == "onesided":
            return (yield from self._get_onesided(key))
        return (yield from self._get_rpc(key))

    def _get_rpc(self, key: bytes):
        self.seq += 1
        seq = self.seq
        status, value = yield from self._rpc(
            REQ_READ, struct.pack("<H", len(key)) + key, seq, key=key)
        if status in (ST_OK, ST_MISS):
            self.stats.rpc_reads += 1
        else:
            self.stats.failures += 1
        return status, value

    def _get_onesided(self, key: bytes):
        loc = self._loc.get(key)
        if loc is not None and self.env.now - loc[4] > LOC_TTL_NS:
            # stale-while-revalidate: serve this read from the cached
            # location (keeping the arm's one-wire-round latency) and
            # re-resolve in the background through the redirect-following
            # RPC path — the server refuses loc requests once its lease
            # lapses, so a location pointing at a deposed leader stops
            # being re-confirmed and gets dropped within one refresh
            self._refresh_loc(key)
        if loc is None:
            loc = yield from self._resolve_loc(key)
            if loc is None:
                # unknown key (or leaderless window): authoritative answer
                # comes from the lease path
                return (yield from self._get_rpc(key))
        leader, addr, rkey, slot_size, _resolved_at = loc
        try:
            op = yield from self.photon.get_pwc(
                leader, self._scratch.addr, slot_size, addr, rkey)
        except PeerDownError:
            ok = False
        else:
            # wait on our own op handle: clients sharing this endpoint
            # never see (or steal) each other's completions.  A self-get
            # returns no handle and is complete when it returns
            if op is not None:
                yield from self.photon.wait_op(op, self.timeout_ns)
            ok = op is None or op.status is WCStatus.SUCCESS
        if not ok:
            # leader died or moved: drop what we believed about it
            self._loc.pop(key, None)
            self._leader.clear()
            self.stats.onesided_fallbacks += 1
            return (yield from self._get_rpc(key))
        version, length, flags = _SLOT.unpack_from(
            self.photon.memory.read(self._scratch.addr, _SLOT.size), 0)
        if version < self._seen_ver.get(key, 0):
            # versions are assigned in committed-log order, identically
            # on every replica: seeing one go backwards means this slot
            # table lags a replica we already read — stale, fall back
            self._loc.pop(key, None)
            self._leader.clear()
            self.stats.onesided_fallbacks += 1
            return (yield from self._get_rpc(key))
        if flags & SLOT_OVERSIZE or not flags & SLOT_PRESENT:
            # absent key or value too large for the slot: fall back so
            # the answer is authoritative (slot says nothing about keys
            # written after our loc snapshot on other nodes)
            self._loc.pop(key, None)
            self.stats.onesided_fallbacks += 1
            return (yield from self._get_rpc(key))
        self._seen_ver[key] = version
        value = self.photon.memory.read_bytes(
            self._scratch.addr + _SLOT.size, length)
        self.stats.onesided_reads += 1
        return ST_OK, value

    def _resolve_loc(self, key: bytes):
        self.seq += 1
        seq = self.seq
        status, raw = yield from self._rpc(
            REQ_LOC, struct.pack("<H", len(key)) + key, seq, key=key)
        self.stats.loc_lookups += 1
        if status != ST_OK:
            return None
        try:
            leader, _slot, slot_size, addr, rkey = unpack_loc(raw)
        except CodecError:
            self.node.counters.add("kv.codec_errors")
            return None
        loc = (leader, addr, rkey, slot_size, self.env.now)
        self._loc[key] = loc
        return loc

    def _refresh_loc(self, key: bytes) -> None:
        """Spawn a background re-resolution of ``key``'s location.

        At most one refresh per key is in flight; a refresh that fails
        (leaderless window, unknown key, deposed leader answering
        ``RESP_NO_LEASE``) drops the cached location so the next read
        takes the authoritative RPC path instead of a possibly-stale
        one-sided read.
        """
        if key in self._refreshing:
            return
        self._refreshing.add(key)

        def worker():
            try:
                fresh = yield from self._resolve_loc(key)
                if fresh is None:
                    self._loc.pop(key, None)
            finally:
                self._refreshing.discard(key)

        self.env.process(worker(),
                         name=f"kv.client{self.client_id}.locrefresh")

    # ----------------------------------------------------------- transport
    def _refresh_view(self) -> None:
        self._view = self.node.shard_map.freeze()
        self.stats.map_refreshes += 1

    def _rpc(self, kind: int, body: bytes, seq: int, key: bytes = None,
             group: int = None):
        """Send to the believed leader, follow redirects, retry on
        timeout or on the target's death verdict.  Returns ``(status,
        value)`` with RESP_FAIL on give-up.

        Routing: ``key`` requests hash through this client's frozen ring
        view and re-route after a WRONG_EPOCH refetch; ``group`` pins an
        explicit target (admin ops) and only the stamped epoch refreshes.

        The RPC stays registered with the node's hub across every attempt
        and every back-off in between: an answer that lands during a
        back-off is there for the next attempt, one that lands after the
        return is dropped.
        """
        uid = (self.client_id, seq)
        reply = self.node.hub[uid] = PendingReply(self.env)
        try:
            g = group if group is not None else self._view.group_of(key)
            replicas = self.node.shard_map.replicas(g)
            dst = self._leader.get(g, replicas[0])
            fallback = 0
            redirects = 0
            # leaderless windows (bootstrap, failover) last an election
            # timeout or more: back off exponentially instead of burning the
            # attempt budget at wire speed
            backoff = self.poll_ns * 8
            for _attempt in range(self.max_attempts):
                # a replica this rank's detector declares dead is skipped
                # as its refused send would be, without spending the
                # attempt; with every replica dead the send refuses it
                health = self.node.rank_node.health
                if health is not None:
                    for _ in replicas:
                        if not health.is_dead(dst):
                            break
                        fallback += 1
                        dst = replicas[fallback % len(replicas)]
                        self._leader.pop(g, None)
                payload = pack_request(kind, self.client_id, seq, g,
                                       self._view.epoch, body)
                sent = True
                try:
                    yield from self.node.runtime.send(dst, ACT_REQ, payload)
                except PeerDownError:
                    sent = False
                answer = None
                if sent:
                    reply.target = dst
                    answer = yield from self._await(reply)
                if answer is None:
                    # dead/laggy replica: rotate through the replica set
                    fallback += 1
                    dst = replicas[fallback % len(replicas)]
                    self._leader.pop(g, None)
                    continue
                status, hint, value = answer
                if status == RESP_NOT_LEADER:
                    self.stats.redirects += 1
                    redirects += 1
                    followed_hint = hint >= 0 and hint != dst
                    if followed_hint:
                        dst = hint
                    else:
                        fallback += 1
                        dst = replicas[fallback % len(replicas)]
                    # one fresh hint is followed for free (the common
                    # steady-state redirect); after that, or with no usable
                    # hint, back off — mid-election the replicas' stale
                    # leader views can bounce a request between each other
                    # at wire speed and burn the whole attempt budget in
                    # less than a leaderless window
                    if not followed_hint or redirects >= 2:
                        yield self.env.timeout(backoff)
                        backoff = min(backoff * 2, 400_000)
                    continue
                if status == RESP_NO_LEASE:
                    self.stats.lease_retries += 1
                    yield self.env.timeout(backoff)
                    backoff = min(backoff * 2, 400_000)
                    continue
                if status == RESP_WRONG_EPOCH:
                    # the ring moved under us (or the range is sealed while
                    # a move is in flight): refetch the map, re-route, retry.
                    # Pre-flip sealed rejections return the *same* epoch, so
                    # this degenerates to a plain backoff until the flip —
                    # which is exactly the intended client behaviour.
                    self.stats.wrong_epoch += 1
                    self._refresh_view()
                    if group is None:
                        new_g = self._view.group_of(key)
                        if new_g != g:
                            g = new_g
                            replicas = self.node.shard_map.replicas(g)
                            fallback = 0
                            dst = self._leader.get(g, replicas[0])
                            # dropped keys' cached one-sided locations now
                            # point at the old owner — invalidate this one
                            if key is not None:
                                self._loc.pop(key, None)
                    yield self.env.timeout(backoff)
                    backoff = min(backoff * 2, 400_000)
                    continue
                self._leader[g] = dst
                return status, value
            return RESP_FAIL, b""
        finally:
            del self.node.hub[uid]

    def _await(self, reply: PendingReply):
        """Take the answer if it is there, else park on this RPC's own
        bell until the attempt deadline, or until this rank's detector
        declares ``reply.target`` dead (generator → answer or None).
        ``handle_response`` rings the bell the instant it files the
        answer, ``KVNode._on_peer_dead`` at the verdict; ``on_crash`` may
        wipe an answer before we run, hence the loop.  An answer already
        filed wins over the verdict."""
        deadline = self.env.now + self.timeout_ns
        health = self.node.rank_node.health
        while reply.answer is None:
            if self.env.now >= deadline:
                self.stats.timeouts += 1
                break
            if health is not None and health.is_dead(reply.target):
                self.node.counters.add("kv.dead_target_aborts")
                break
            yield reply.bell.wait(deadline)
        answer, reply.answer = reply.answer, None
        return answer

    # ------------------------------------------------------- resharding ops
    def admin_cmd(self, group: int, op: int, value: bytes = b""):
        """Replicated admin command (OP_SEAL / OP_MERGE / OP_PURGE) at an
        explicit group (generator).  Returns the ST_* status.  Admin
        commands ride the same session layer as data writes, so retries
        after a redirect or crash stay exactly-once."""
        self.seq += 1
        seq = self.seq
        cmd = Command(op=op, client=self.client_id, seq=seq, key=b"",
                      value=value)
        status, _ = yield from self._rpc(REQ_WRITE, encode_command(cmd),
                                         seq, group=group)
        return status

    def pull_snapshot(self, group: int):
        """Fetch a sealed group's serialized machine (generator).
        Returns the blob, or None while unsealed / leaderless."""
        self.seq += 1
        seq = self.seq
        status, blob = yield from self._rpc(REQ_SNAP, b"", seq, group=group)
        return blob if status == ST_OK else None
