"""A minimal deterministic Raft core for one replication group.

This module is *pure protocol logic*: a :class:`RaftNode` never touches
the event loop, the fabric or the photon endpoint directly.  It consumes
three inputs — the current simulated time, decoded peer messages, and
tick calls — and produces outgoing messages into an outbox the caller
(:class:`repro.kv.store.KVNode`) drains onto the wire.  That keeps the
consensus state machine unit-testable without a cluster and keeps every
byte of Raft traffic on the caller's transport, which in this repo means
Photon PWC eager sends surfaced by completion-ledger probes (see
DESIGN.md §10 for the exact slot mapping).

Faithfulness notes (what is and isn't modelled):

- terms, leader election, log replication, commit-on-majority and the
  current-term commit restriction are the real algorithm;
- election scheduling is *deterministic*: timeouts draw jitter from a
  named RNG stream (``kv.raft.g<group>.r<rank>``), and the failure
  detector (:mod:`repro.runtime.health`) short-circuits the conservative
  timeout when it declares the known leader dead — detection-driven
  elections are the point of riding the health layer;
- persistence is not modelled: a crashed replica loses its volatile
  state, but the caller may reseed a *fresh* node into the same group
  (``repro.chaos`` restart events do exactly that) — the newcomer
  rejoins through the InstallSnapshot flow below;
- compaction is **snapshot-based** and the caller owns it: once the
  applied prefix exceeds ``compact_threshold`` (:meth:`RaftNode.snapshot_due`)
  the caller captures its state machine at ``last_applied``, serializes
  it off the consensus path, and hands the blob back with the captured
  index (:meth:`RaftNode.take_snapshot`); only then is the log trimmed
  past *every* laggard, keeping ``compact_margin`` entries below the
  snapshot point.  A follower whose
  ``next_index`` falls below ``base_index`` is caught up by streaming
  the snapshot in ``SNAPSHOT_CHUNK``-byte pieces (``MSG_SNAP``), one
  chunk outstanding per peer with the heartbeat period as the
  retransmit timer — the same self-clocking discipline as
  AppendEntries.  A slow, gray or partitioned follower therefore never
  stalls trimming, and a restarted replica converges from an empty log.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.core import SimulationError
from .shard import CodecError

__all__ = ["RaftConfig", "RaftNode", "RaftMsg", "encode_msg", "decode_msg",
           "FOLLOWER", "CANDIDATE", "LEADER",
           "MSG_VOTE_REQ", "MSG_VOTE_REPLY", "MSG_APPEND", "MSG_APPEND_REPLY",
           "MSG_SNAP", "MSG_SNAP_REPLY"]

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

MSG_VOTE_REQ = 1
MSG_VOTE_REPLY = 2
MSG_APPEND = 3
MSG_APPEND_REPLY = 4
MSG_SNAP = 5         # one InstallSnapshot chunk
MSG_SNAP_REPLY = 6   # follower's receive-progress ack
#: bytes of snapshot shipped per MSG_SNAP chunk
SNAPSHOT_CHUNK = 4096

#: type u8, group u16, term u64, src u16
_HDR = struct.Struct("<BHQH")
#: RequestVote body: last_log_index u64, last_log_term u64
_RV = struct.Struct("<QQ")
#: VoteReply body: granted u8
_RVR = struct.Struct("<B")
#: AppendEntries body: prev_index, prev_term, commit, sent_ns u64s; n u16
_AE = struct.Struct("<QQQQH")
#: AppendReply body: success u8, match_index u64, sent_ns u64 (echoed).
#: On failure ``match_index`` carries the follower's last_index as a
#: conflict hint so the leader can jump next_index down in one round
#: (and reach the snapshot path fast for a freshly restarted replica).
_AER = struct.Struct("<BQQ")
#: per-entry frame: term u64, length u32
_ENTRY = struct.Struct("<QI")
#: InstallSnapshot chunk: snap_index, snap_term, offset, total, sent_ns
#: u64s; chunk_len u32, done u8 — chunk bytes follow
_SNAP = struct.Struct("<QQQQQIB")
#: InstallSnapshot reply: snap_index, next_offset, sent_ns u64s
_SNAPR = struct.Struct("<QQQ")


@dataclass(frozen=True)
class RaftMsg:
    """One decoded Raft message (any of the six kinds)."""

    kind: int
    group: int
    term: int
    src: int
    # RequestVote
    last_log_index: int = 0
    last_log_term: int = 0
    # VoteReply
    granted: bool = False
    # AppendEntries
    prev_index: int = 0
    prev_term: int = 0
    commit: int = 0
    sent_ns: int = 0
    entries: Tuple[Tuple[int, bytes], ...] = ()
    # AppendReply
    success: bool = False
    match_index: int = 0
    # InstallSnapshot chunk / reply
    snap_index: int = 0
    snap_term: int = 0
    offset: int = 0
    total: int = 0
    done: bool = False
    chunk: bytes = b""
    next_offset: int = 0


def encode_msg(msg: RaftMsg) -> bytes:
    head = _HDR.pack(msg.kind, msg.group, msg.term, msg.src)
    if msg.kind == MSG_VOTE_REQ:
        return head + _RV.pack(msg.last_log_index, msg.last_log_term)
    if msg.kind == MSG_VOTE_REPLY:
        return head + _RVR.pack(1 if msg.granted else 0)
    if msg.kind == MSG_APPEND:
        parts = [head, _AE.pack(msg.prev_index, msg.prev_term, msg.commit,
                                msg.sent_ns, len(msg.entries))]
        for term, cmd in msg.entries:
            parts.append(_ENTRY.pack(term, len(cmd)))
            parts.append(cmd)
        return b"".join(parts)
    if msg.kind == MSG_APPEND_REPLY:
        return head + _AER.pack(1 if msg.success else 0, msg.match_index,
                                msg.sent_ns)
    if msg.kind == MSG_SNAP:
        return (head + _SNAP.pack(msg.snap_index, msg.snap_term, msg.offset,
                                  msg.total, msg.sent_ns, len(msg.chunk),
                                  1 if msg.done else 0)
                + msg.chunk)
    if msg.kind == MSG_SNAP_REPLY:
        return head + _SNAPR.pack(msg.snap_index, msg.next_offset, msg.sent_ns)
    raise SimulationError(f"unknown raft message kind {msg.kind}")


def _expect(raw: bytes, size: int, what: str) -> None:
    if len(raw) != size:
        raise CodecError(f"{what}: frame is {len(raw)} bytes, expected {size}")


def decode_msg(raw: bytes) -> RaftMsg:
    """Decode one Raft frame, validating every declared length.

    A truncated or corrupt frame raises :class:`CodecError` instead of
    silently mis-splitting entries — the store drops and counts it.
    """
    if len(raw) < _HDR.size:
        raise CodecError(f"raft frame truncated: {len(raw)} < {_HDR.size}")
    kind, group, term, src = _HDR.unpack_from(raw, 0)
    off = _HDR.size
    if kind == MSG_VOTE_REQ:
        _expect(raw, _HDR.size + _RV.size, "vote request")
        last_idx, last_term = _RV.unpack_from(raw, off)
        return RaftMsg(kind, group, term, src, last_log_index=last_idx,
                       last_log_term=last_term)
    if kind == MSG_VOTE_REPLY:
        _expect(raw, _HDR.size + _RVR.size, "vote reply")
        (granted,) = _RVR.unpack_from(raw, off)
        return RaftMsg(kind, group, term, src, granted=bool(granted))
    if kind == MSG_APPEND:
        if len(raw) < off + _AE.size:
            raise CodecError("append frame truncated before body")
        prev_idx, prev_term, commit, sent_ns, n = _AE.unpack_from(raw, off)
        off += _AE.size
        entries = []
        for _ in range(n):
            if off + _ENTRY.size > len(raw):
                raise CodecError(
                    f"append frame truncated at entry {len(entries)}/{n}")
            eterm, elen = _ENTRY.unpack_from(raw, off)
            off += _ENTRY.size
            if off + elen > len(raw):
                raise CodecError(
                    f"append entry {len(entries)} declares {elen} bytes, "
                    f"only {len(raw) - off} remain")
            entries.append((eterm, raw[off:off + elen]))
            off += elen
        if off != len(raw):
            raise CodecError(
                f"append frame has {len(raw) - off} trailing bytes")
        return RaftMsg(kind, group, term, src, prev_index=prev_idx,
                       prev_term=prev_term, commit=commit, sent_ns=sent_ns,
                       entries=tuple(entries))
    if kind == MSG_APPEND_REPLY:
        _expect(raw, _HDR.size + _AER.size, "append reply")
        success, match, sent_ns = _AER.unpack_from(raw, off)
        return RaftMsg(kind, group, term, src, success=bool(success),
                       match_index=match, sent_ns=sent_ns)
    if kind == MSG_SNAP:
        if len(raw) < off + _SNAP.size:
            raise CodecError("snapshot chunk truncated before body")
        (snap_idx, snap_term, offset, total, sent_ns,
         clen, done) = _SNAP.unpack_from(raw, off)
        off += _SNAP.size
        if len(raw) != off + clen:
            raise CodecError(
                f"snapshot chunk declares {clen} bytes, frame has "
                f"{len(raw) - off}")
        return RaftMsg(kind, group, term, src, snap_index=snap_idx,
                       snap_term=snap_term, offset=offset, total=total,
                       sent_ns=sent_ns, done=bool(done),
                       chunk=raw[off:off + clen])
    if kind == MSG_SNAP_REPLY:
        _expect(raw, _HDR.size + _SNAPR.size, "snapshot reply")
        snap_idx, next_off, sent_ns = _SNAPR.unpack_from(raw, off)
        return RaftMsg(kind, group, term, src, snap_index=snap_idx,
                       next_offset=next_off, sent_ns=sent_ns)
    raise CodecError(f"unknown raft message kind {kind}")


@dataclass(frozen=True)
class RaftConfig:
    """Consensus timing (all values in simulated ns)."""

    #: leader AppendEntries (heartbeat) period
    heartbeat_ns: int = 100_000
    #: base follower election timeout (no AE from a leader for this long)
    election_timeout_ns: int = 1_200_000
    #: uniform jitter added to every armed election timeout
    election_jitter_ns: int = 400_000
    #: extra timeout per replica-slot index — staggers the bootstrap
    #: election so replica 0 normally wins the first term uncontested
    election_stagger_ns: int = 300_000
    #: delay before a detection-driven election fires once the failure
    #: detector declares the known leader dead (plus jitter), and before
    #: each retry of such a round that split; short — detection already
    #: waited out the phi budget
    fast_election_ns: int = 50_000
    #: read-lease window granted by a majority-acked heartbeat round,
    #: measured from the round's *send* time.  Must stay below the
    #: minimum time a new leader could be elected in (detection bound +
    #: fast_election_ns) or a deposed leader could serve stale reads.
    lease_ns: int = 400_000
    #: max log entries shipped per AppendEntries message
    max_entries_per_ae: int = 16
    #: applied entries accumulated before the node snapshots and trims
    compact_threshold: int = 256
    #: recent entries *kept* below the snapshot point when trimming, so
    #: a slightly-lagging follower still catches up over AppendEntries
    #: and only a deeply-behind (or restarted) one needs a full install.
    #: Must stay below compact_threshold or trimming never fires.
    compact_margin: int = 64

    def validate(self) -> None:
        for name in ("heartbeat_ns", "election_timeout_ns",
                     "election_jitter_ns", "fast_election_ns", "lease_ns",
                     "max_entries_per_ae", "compact_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.election_stagger_ns < 0:
            raise ValueError("election_stagger_ns must be >= 0")
        if self.compact_margin < 0:
            raise ValueError("compact_margin must be >= 0")
        if self.compact_margin >= self.compact_threshold:
            raise ValueError(
                "compact_margin must be below compact_threshold "
                "(otherwise trimming never fires)")
        if self.heartbeat_ns >= self.election_timeout_ns:
            raise ValueError("heartbeat_ns must be below election_timeout_ns")


class RaftNode:
    """One replica's consensus state for one group (pure logic, no I/O).

    The caller owns the clock and the wire: it feeds ``now`` into
    :meth:`tick` / :meth:`on_message`, drains :attr:`outbox` (a list of
    ``(dst_rank, raw_bytes)``) after every call, applies the entries
    :meth:`take_applied` returns, and tells the node about failure-
    detector verdicts via :meth:`on_peer_dead`.
    """

    def __init__(self, group: int, rank: int, replicas: List[int],
                 config: RaftConfig, rng, now: int = 0):
        if rank not in replicas:
            raise SimulationError(
                f"rank {rank} is not a replica of group {group}: {replicas}")
        config.validate()
        self.group = group
        self.rank = rank
        self.replicas = list(replicas)
        self.config = config
        self._rng = rng
        self.role = FOLLOWER
        self.term = 0
        self.voted_for: Optional[int] = None
        self.leader: Optional[int] = None
        #: log[i] = (term, command); global index = base_index + 1 + i
        self.log: List[Tuple[int, bytes]] = []
        #: index of the last compacted-away entry (0 = nothing discarded)
        self.base_index = 0
        self.base_term = 0
        self.commit_index = 0
        self.last_applied = 0
        # leader volatile state
        self.next_index: Dict[int, int] = {}
        self.match_index: Dict[int, int] = {}
        #: send time of the newest AE round each peer has acked (lease)
        self._ack_round: Dict[int, int] = {}
        #: send time of the unacked AE to each peer (0 = none in flight).
        #: One outstanding AE per peer, retransmitted after a heartbeat
        #: period — the self-clocking that keeps replication traffic
        #: proportional to progress instead of ping-ponging at wire speed
        self._inflight: Dict[int, int] = {}
        self._votes: set = set()
        self._dead_peers: set = set()
        #: the election timer was armed by the detector (``on_peer_dead``):
        #: a round it starts that splits retries on the fast delay too
        self._fast_retry = False
        #: (dst, raw) messages the caller must put on the wire
        self.outbox: List[Tuple[int, bytes]] = []
        self._applied_out: List[Tuple[int, bytes]] = []  # (index, command)
        self._hb_due = now
        self._slot = self.replicas.index(rank)
        self.election_due = now + self._election_delay(bootstrap=True)
        # --- snapshot state -------------------------------------------
        self.snapshot_index = 0
        self.snapshot_term = 0
        self.snapshot_blob = b""
        #: leader: per-peer in-progress snapshot transfer — the blob is
        #: referenced here so a newer snapshot taken mid-transfer cannot
        #: shift the offsets under an in-flight stream
        self._snap_xfer: Dict[int, Dict[str, object]] = {}
        #: follower: chunk accumulator for the incoming install
        self._snap_in: Optional[Dict[str, object]] = None
        #: installed snapshots for the caller: (index, term, blob, t_start)
        self._installed_out: List[Tuple[int, int, bytes, int]] = []
        # counters the store mirrors into obs
        self.elections_started = 0
        self.terms_led: List[int] = []
        self.compactions = 0
        self.snapshots_taken = 0
        self.snapshot_installs = 0
        self.snapshot_chunks_sent = 0
        self.snapshot_bytes_sent = 0

    # ------------------------------------------------------------ log access
    @property
    def last_index(self) -> int:
        return self.base_index + len(self.log)

    def term_at(self, index: int) -> int:
        """Term of ``index`` (0 for the empty prefix)."""
        if index == self.base_index:
            return self.base_term
        if index < self.base_index or index > self.last_index:
            raise SimulationError(
                f"g{self.group} r{self.rank}: term_at({index}) outside "
                f"({self.base_index}, {self.last_index}]")
        return self.log[index - self.base_index - 1][0]

    def entry_at(self, index: int) -> Tuple[int, bytes]:
        if index <= self.base_index or index > self.last_index:
            raise SimulationError(
                f"g{self.group} r{self.rank}: entry {index} compacted or "
                f"missing (base {self.base_index}, last {self.last_index})")
        return self.log[index - self.base_index - 1]

    # ------------------------------------------------------------- timing
    def _jitter(self) -> int:
        return int(self._rng.integers(0, self.config.election_jitter_ns))

    def _election_delay(self, bootstrap: bool = False,
                        fast: bool = False) -> int:
        if fast:
            return self.config.fast_election_ns + self._jitter()
        base = self.config.election_timeout_ns + self._jitter()
        if bootstrap:
            base += self._slot * self.config.election_stagger_ns
        return base

    def _reset_election_timer(self, now: int) -> None:
        self.election_due = now + self._election_delay()

    # ------------------------------------------------------------- role flips
    def _step_down(self, term: int, leader: Optional[int] = None) -> None:
        """Follower of ``term``; the election timer is the caller's."""
        if term > self.term:
            self.term = term
            self.voted_for = None
        if self.role == LEADER:
            self.next_index.clear()
            self.match_index.clear()
            self._ack_round.clear()
            self._snap_xfer.clear()
        self.role = FOLLOWER
        self.leader = leader
        self._votes.clear()

    def _become_follower(self, term: int, now: int, leader: int) -> None:
        self._step_down(term, leader)
        self._fast_retry = False
        self._reset_election_timer(now)

    def _become_leader(self, now: int) -> None:
        self.role = LEADER
        self.leader = self.rank
        self._fast_retry = False
        self.terms_led.append(self.term)
        nxt = self.last_index + 1
        self.next_index = {p: nxt for p in self.replicas if p != self.rank}
        self.match_index = {p: 0 for p in self.replicas if p != self.rank}
        self._ack_round = {p: 0 for p in self.replicas if p != self.rank}
        self._inflight = {p: 0 for p in self.replicas if p != self.rank}
        self._snap_xfer = {}
        # committing an entry of the *current* term is what lets the
        # commit index advance over inherited entries — standard no-op
        self.log.append((self.term, b""))
        self._hb_due = now  # first AE round goes out on the next tick
        self.election_due = now + (1 << 62)  # leaders don't time out
        if len(self.replicas) == 1:
            self._advance_commit()  # a majority of one: commit in place

    # ------------------------------------------------------------- client API
    def propose(self, command: bytes, now: int) -> Optional[int]:
        """Append a client command; returns its log index (leader only)."""
        if self.role != LEADER:
            return None
        self.log.append((self.term, bytes(command)))
        index = self.last_index
        # ship immediately instead of waiting out the heartbeat period
        self._hb_due = now
        if len(self.replicas) == 1:
            self._advance_commit()
        return index

    def lease_valid(self, now: int) -> bool:
        """True while this leader's majority read-lease covers ``now``.

        The lease extends ``lease_ns`` past the send time of the newest
        AE round a *majority* (including self, implicitly current) has
        *successfully* acked — the classic leader-lease construction,
        conservative because the send time predates every ack.  Rejected
        AEs (log-mismatch replies during conflict repair) do not extend
        the lease: they prove liveness, not that this leader's log is
        the one the follower agrees on.

        This is only the *timing* half of read safety; the *log* half is
        :meth:`read_barrier_ok` — both must hold before a local read.
        """
        if self.role != LEADER:
            return False
        if len(self.replicas) == 1:
            return True
        rounds = sorted((self._ack_round.get(p, 0)
                         for p in self.replicas if p != self.rank),
                        reverse=True)
        # self counts toward the majority; need majority-1 peer acks
        need = len(self.replicas) // 2
        newest_majority_round = rounds[need - 1] if need else now
        return now < newest_majority_round + self.config.lease_ns

    def read_barrier_ok(self) -> bool:
        """Raft §8 leader-read barrier: local reads are safe only once
        this leader has *committed an entry of its own term* (the no-op
        appended on election) and applied everything up to it.

        A freshly elected leader can hold a valid lease while its
        commit/applied state still lags writes the previous leader
        acknowledged; until the current-term no-op commits — which by
        the Log Matching property forces the whole inherited prefix in —
        answering from local state could serve a stale read.
        """
        return (self.term_at(self.commit_index) == self.term
                and self.last_applied >= self.commit_index
                and not self._applied_out)

    # ------------------------------------------------------------- detector
    def on_peer_dead(self, peer: int, now: int) -> None:
        """Failure-detector verdict: short-circuit the election timeout
        when the *known leader* dies; remember the death for compaction."""
        if peer == self.rank or peer not in self.replicas:
            return
        self._dead_peers.add(peer)
        if self.role != LEADER and peer == self.leader:
            self.leader = None
            due = now + self._election_delay(fast=True)
            if due < self.election_due:
                self.election_due = due
                self._fast_retry = True

    def on_peer_join(self, peer: int) -> None:
        self._dead_peers.discard(peer)

    # ------------------------------------------------------------- tick
    def tick(self, now: int) -> None:
        """Advance timers: elections for followers, AE rounds for
        leaders."""
        if self.role == LEADER:
            if now >= self._hb_due:
                self._send_append_round(now)
                self._hb_due = now + self.config.heartbeat_ns
            return
        if now >= self.election_due:
            self._start_election(now)

    def next_due(self) -> int:
        """Instant :meth:`tick` next has timer work with no message in
        between: the heartbeat round of a leader, the election timeout of
        anyone else."""
        return self._hb_due if self.role == LEADER else self.election_due

    def _start_election(self, now: int) -> None:
        self.role = CANDIDATE
        self.term += 1
        self.voted_for = self.rank
        self.leader = None
        self._votes = {self.rank}
        self.elections_started += 1
        # a split detection-driven round retries as fast as it started
        self.election_due = now + self._election_delay(fast=self._fast_retry)
        if self._has_majority():
            self._become_leader(now)
            return
        msg = RaftMsg(MSG_VOTE_REQ, self.group, self.term, self.rank,
                      last_log_index=self.last_index,
                      last_log_term=self.term_at(self.last_index))
        raw = encode_msg(msg)
        for peer in self.replicas:
            if peer != self.rank:
                self.outbox.append((peer, raw))

    def _has_majority(self) -> bool:
        return len(self._votes) * 2 > len(self.replicas)

    # ------------------------------------------------------------- AE send
    def _send_append_round(self, now: int) -> None:
        commit = self.commit_index
        for peer in self.replicas:
            if peer == self.rank:
                continue
            xfer = self._snap_xfer.get(peer)
            if xfer is not None:
                # snapshot stream in progress: heartbeat period doubles
                # as the chunk retransmit timer, exactly like AE
                if now >= xfer["sent_ns"] + self.config.heartbeat_ns:
                    self._send_snap_chunk(peer, now)
                continue
            nxt = self.next_index[peer]
            prev = nxt - 1
            if prev < self.base_index:
                if self.snapshot_blob or self.snapshot_index:
                    # peer needs entries we compacted away: stream the
                    # snapshot instead of AppendEntries
                    self._start_snap_xfer(peer, now)
                    continue
                # no snapshot taken yet (manual compact() only): clamp
                self.next_index[peer] = self.base_index + 1
                prev = self.base_index
                nxt = prev + 1
            inflight = self._inflight.get(peer, 0)
            if inflight and now < inflight + self.config.heartbeat_ns:
                continue  # one AE outstanding; heartbeat = retransmit timer
            entries = []
            idx = nxt
            while (idx <= self.last_index
                   and len(entries) < self.config.max_entries_per_ae):
                entries.append(self.entry_at(idx))
                idx += 1
            msg = RaftMsg(MSG_APPEND, self.group, self.term, self.rank,
                          prev_index=prev, prev_term=self.term_at(prev),
                          commit=min(commit, prev + len(entries)),
                          sent_ns=now, entries=tuple(entries))
            self.outbox.append((peer, encode_msg(msg)))
            self._inflight[peer] = now

    # ------------------------------------------------------------- snapshot tx
    def _start_snap_xfer(self, peer: int, now: int) -> None:
        self._snap_xfer[peer] = {
            "index": self.snapshot_index,
            "term": self.snapshot_term,
            "blob": self.snapshot_blob,
            "offset": 0,
            "sent_ns": 0,
        }
        self._inflight[peer] = 0  # the AE slot is idle during the stream
        self._send_snap_chunk(peer, now)

    def _send_snap_chunk(self, peer: int, now: int) -> None:
        xfer = self._snap_xfer[peer]
        blob: bytes = xfer["blob"]  # type: ignore[assignment]
        off = int(xfer["offset"])
        chunk = blob[off:off + SNAPSHOT_CHUNK]
        done = off + len(chunk) >= len(blob)
        msg = RaftMsg(MSG_SNAP, self.group, self.term, self.rank,
                      snap_index=int(xfer["index"]),
                      snap_term=int(xfer["term"]),
                      offset=off, total=len(blob), sent_ns=now,
                      done=done, chunk=chunk)
        self.outbox.append((peer, encode_msg(msg)))
        xfer["sent_ns"] = now
        self.snapshot_chunks_sent += 1
        self.snapshot_bytes_sent += len(chunk)

    # ------------------------------------------------------------- receive
    def on_message(self, msg: RaftMsg, now: int) -> None:
        if msg.group != self.group:
            raise SimulationError(
                f"group {self.group} got message for group {msg.group}")
        if msg.term > self.term:
            # Raft §5.2: a higher term is not word from a leader — only a
            # granted vote or the leader's AE / snapshot chunk (below) push
            # a running timer back; a deposed leader had none and arms one
            was_leader = self.role == LEADER
            self._step_down(msg.term)
            if was_leader:
                self._reset_election_timer(now)
        if msg.kind == MSG_VOTE_REQ:
            self._on_vote_req(msg, now)
        elif msg.kind == MSG_VOTE_REPLY:
            self._on_vote_reply(msg, now)
        elif msg.kind == MSG_APPEND:
            self._on_append(msg, now)
        elif msg.kind == MSG_APPEND_REPLY:
            self._on_append_reply(msg, now)
        elif msg.kind == MSG_SNAP:
            self._on_snap(msg, now)
        elif msg.kind == MSG_SNAP_REPLY:
            self._on_snap_reply(msg, now)
        else:
            raise SimulationError(f"unknown raft message kind {msg.kind}")

    def _on_vote_req(self, msg: RaftMsg, now: int) -> None:
        up_to_date = (
            msg.last_log_term > self.term_at(self.last_index)
            or (msg.last_log_term == self.term_at(self.last_index)
                and msg.last_log_index >= self.last_index))
        grant = (msg.term >= self.term
                 and self.voted_for in (None, msg.src)
                 and self.role != LEADER
                 and up_to_date)
        if grant:
            self.voted_for = msg.src
            self._reset_election_timer(now)
        reply = RaftMsg(MSG_VOTE_REPLY, self.group, self.term, self.rank,
                        granted=grant)
        self.outbox.append((msg.src, encode_msg(reply)))

    def _on_vote_reply(self, msg: RaftMsg, now: int) -> None:
        if self.role != CANDIDATE or msg.term != self.term or not msg.granted:
            return
        self._votes.add(msg.src)
        if self._has_majority():
            self._become_leader(now)

    def _on_append(self, msg: RaftMsg, now: int) -> None:
        if msg.term < self.term:
            reply = RaftMsg(MSG_APPEND_REPLY, self.group, self.term,
                            self.rank, success=False,
                            match_index=0, sent_ns=msg.sent_ns)
            self.outbox.append((msg.src, encode_msg(reply)))
            return
        # a current-term AE is the leader asserting itself
        self._become_follower(msg.term, now, leader=msg.src)
        ok = (msg.prev_index <= self.last_index
              and msg.prev_index >= self.base_index
              and self.term_at(msg.prev_index) == msg.prev_term)
        match = 0
        if ok:
            idx = msg.prev_index
            for eterm, cmd in msg.entries:
                idx += 1
                if idx <= self.last_index:
                    if self.term_at(idx) == eterm:
                        continue  # already have it
                    # conflict: drop the divergent suffix
                    del self.log[idx - self.base_index - 1:]
                self.log.append((eterm, cmd))
            match = msg.prev_index + len(msg.entries)
            if msg.commit > self.commit_index:
                self.commit_index = min(msg.commit, self.last_index)
            self._advance_applied()
        else:
            # conflict hint: our last_index lets the leader jump its
            # next_index down in one round instead of decrementing —
            # a restarted (empty-log) follower reaches the snapshot
            # path immediately instead of after O(log) retries
            match = self.last_index
        reply = RaftMsg(MSG_APPEND_REPLY, self.group, self.term, self.rank,
                        success=ok, match_index=match, sent_ns=msg.sent_ns)
        self.outbox.append((msg.src, encode_msg(reply)))

    def _on_append_reply(self, msg: RaftMsg, now: int) -> None:
        if self.role != LEADER or msg.term != self.term:
            return
        if msg.src not in self.next_index:
            return
        # a reply is *current* only if it answers the outstanding AE;
        # stale replies (already superseded) must not drive scheduling,
        # or a deep reply backlog turns into a send storm
        inflight = self._inflight.get(msg.src, 0)
        current = bool(inflight) and msg.sent_ns >= inflight
        if current:
            self._inflight[msg.src] = 0
        if not msg.success:
            if current:
                # decrement-and-retry conflict resolution, bounded below
                # by the follower's hinted last_index (+1) so a deeply
                # behind or freshly restarted peer is reached in one
                # round; if that lands at or below base_index the next
                # send round streams the snapshot instead
                self.next_index[msg.src] = max(
                    self.base_index, 1,
                    min(self.next_index[msg.src] - 1, msg.match_index + 1))
                self._hb_due = now
            return
        # only a *successful* ack extends the lease: a log-mismatch
        # reply proves the peer is alive, not that it follows this log —
        # counting it would let a conflict-repairing new leader serve
        # reads from a state machine missing the old leader's commits
        if msg.sent_ns > self._ack_round.get(msg.src, 0):
            self._ack_round[msg.src] = msg.sent_ns
        if msg.match_index > self.match_index[msg.src]:
            self.match_index[msg.src] = msg.match_index
        self.next_index[msg.src] = max(self.next_index[msg.src],
                                       msg.match_index + 1)
        self._advance_commit()
        if current and self.next_index[msg.src] <= self.last_index:
            self._hb_due = now  # more to ship: next tick, don't wait

    # ------------------------------------------------------- snapshot rx
    def _on_snap(self, msg: RaftMsg, now: int) -> None:
        if msg.term < self.term:
            # stale leader: the reply's term makes it step down
            reply = RaftMsg(MSG_SNAP_REPLY, self.group, self.term, self.rank,
                            snap_index=msg.snap_index, next_offset=0,
                            sent_ns=msg.sent_ns)
            self.outbox.append((msg.src, encode_msg(reply)))
            return
        # a current-term snapshot stream is the leader asserting itself
        self._become_follower(msg.term, now, leader=msg.src)
        if msg.snap_index <= self.last_applied:
            # we already cover this snapshot: fast-forward the stream so
            # the leader flips back to AppendEntries
            next_off = msg.total
        else:
            acc = self._snap_in
            if acc is None or acc["index"] != msg.snap_index:
                acc = self._snap_in = {"index": msg.snap_index,
                                       "term": msg.snap_term,
                                       "total": msg.total,
                                       "buf": bytearray(),
                                       "t_start": now}
            buf: bytearray = acc["buf"]  # type: ignore[assignment]
            if msg.offset == len(buf):
                buf.extend(msg.chunk)
            # any other offset: duplicate or hole — re-ack our progress
            next_off = len(buf)
            if msg.done and next_off >= msg.total:
                self._install_snapshot(msg.snap_index, msg.snap_term,
                                       bytes(buf), int(acc["t_start"]))
                self._snap_in = None
        reply = RaftMsg(MSG_SNAP_REPLY, self.group, self.term, self.rank,
                        snap_index=msg.snap_index, next_offset=next_off,
                        sent_ns=msg.sent_ns)
        self.outbox.append((msg.src, encode_msg(reply)))

    def _install_snapshot(self, index: int, term: int, blob: bytes,
                          t_start: int) -> None:
        """Adopt a complete snapshot: reset the log around it and hand
        the blob to the caller (the store swaps its state machine in)."""
        if index <= self.last_index and self.base_index < index \
                and self.term_at(index) == term:
            # snapshot is a prefix of our log: keep the newer suffix
            del self.log[:index - self.base_index]
        else:
            self.log.clear()
            self.commit_index = index
        self.base_index = index
        self.base_term = term
        self.commit_index = max(self.commit_index, index)
        self.last_applied = index
        self._applied_out.clear()
        self.snapshot_index = index
        self.snapshot_term = term
        self.snapshot_blob = blob
        self.snapshot_installs += 1
        self._installed_out.append((index, term, blob, t_start))

    def _on_snap_reply(self, msg: RaftMsg, now: int) -> None:
        if self.role != LEADER or msg.term != self.term:
            return
        xfer = self._snap_xfer.get(msg.src)
        if xfer is None or msg.snap_index != xfer["index"]:
            return
        blob: bytes = xfer["blob"]  # type: ignore[assignment]
        if msg.next_offset >= len(blob):
            # transfer complete: the peer now covers snap_index
            del self._snap_xfer[msg.src]
            if msg.snap_index > self.match_index.get(msg.src, 0):
                self.match_index[msg.src] = msg.snap_index
            self.next_index[msg.src] = msg.snap_index + 1
            if msg.sent_ns > self._ack_round.get(msg.src, 0):
                self._ack_round[msg.src] = msg.sent_ns
            self._advance_commit()
            self._hb_due = now  # resume AppendEntries immediately
            return
        xfer["offset"] = msg.next_offset
        self._send_snap_chunk(msg.src, now)

    # ------------------------------------------------------------- commit
    def _advance_commit(self) -> None:
        """Majority-match rule, restricted to current-term entries."""
        for idx in range(self.last_index, self.commit_index, -1):
            if self.term_at(idx) != self.term:
                break
            votes = 1 + sum(1 for p, m in self.match_index.items()
                            if m >= idx)
            if votes * 2 > len(self.replicas):
                self.commit_index = idx
                break
        self._advance_applied()

    def _advance_applied(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            term, cmd = self.entry_at(self.last_applied)
            if cmd:  # skip leader no-ops
                self._applied_out.append((self.last_applied, cmd))

    def take_applied(self) -> List[Tuple[int, bytes]]:
        """Newly committed (index, command) pairs since the last call."""
        out = self._applied_out
        if not out:
            return out  # callers only iterate: the empty list is safe to share
        self._applied_out = []
        return out

    # ------------------------------------------------------------- compaction
    def snapshot_due(self) -> bool:
        """True once the applied prefix has outgrown ``compact_threshold``
        and every applied entry has been drained by the caller (the
        state machine is exactly at ``last_applied``, so capturing it
        now yields a consistent snapshot at that index).  Followers
        compact their own logs too: a replica must never depend on its
        leader to bound its memory."""
        return (self.last_applied - self.base_index
                >= self.config.compact_threshold
                and not self._applied_out)

    def take_snapshot(self, blob: bytes, index: int) -> bool:
        """Adopt ``blob``, the state machine captured at ``index``, and
        trim the log past every laggard, retaining only
        ``compact_margin`` entries below it.  ``index`` may lie below
        ``last_applied``: the caller serializes a capture while the node
        keeps applying.  Returns False, with nothing changed, when an
        installed snapshot at or past ``index`` superseded the capture.

        This is the hole-closing move: trimming no longer waits for any
        follower's ``match_index`` — a slow, gray or partitioned peer
        (or one the detector missed) cannot pin the log.  Whoever falls
        below the new ``base_index`` is caught up with this snapshot.
        """
        if index > self.last_applied:
            raise SimulationError(
                f"g{self.group} r{self.rank}: snapshot at {index} is past "
                f"last_applied {self.last_applied}")
        if index <= self.snapshot_index:
            return False
        self.snapshot_index = index
        self.snapshot_term = self.term_at(index)
        self.snapshot_blob = bytes(blob)
        self.snapshots_taken += 1
        self.compact(index - self.config.compact_margin)
        return True

    def take_installed(self) -> List[Tuple[int, int, bytes, int]]:
        """Snapshots installed since the last call, oldest first, as
        ``(index, term, blob, t_start_ns)`` — the caller must replace
        its state machine with the deserialized blob."""
        out = self._installed_out
        if not out:
            return out  # see take_applied
        self._installed_out = []
        return out

    def compact(self, upto: int) -> int:
        """Discard log entries ``<= upto`` (bounded by last_applied).

        Returns the number of entries discarded.  Normal operation goes
        through :meth:`take_snapshot`; calling this directly is only
        safe when no follower will ever need the discarded prefix.
        """
        upto = min(upto, self.last_applied)
        if upto <= self.base_index:
            return 0
        dropped = upto - self.base_index
        self.base_term = self.term_at(upto)
        del self.log[:dropped]
        self.base_index = upto
        self.compactions += 1
        return dropped
