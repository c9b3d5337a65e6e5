"""Invariant checkers for chaos runs.

Chaos experiments are only trustworthy if the system's safety properties
hold *through* the faults, not just at the end.  These checkers encode
the four properties the fault model promises (see DESIGN.md):

- **No duplicate delivery** — the reliability layer replays operations,
  but target-side dedup must collapse replays to exactly-once effects.
- **Registration balance** — crash/restart must not leak memory
  registrations: every ``reg_mr`` is matched by a ``dereg_mr`` or a
  still-live MR at a quiescent point.
- **Breaker legality** — circuit breakers may only walk the legal state
  machine (no closed→half-open, no half-open→half-open, ...).
- **Membership monotonicity** — a membership view's version only moves
  forward, and a DEAD rank only returns via a higher incarnation.
- **Bounded logs** — snapshot compaction must keep every Raft replica's
  retained log within ``compact_threshold + compact_margin`` applied
  entries, even with laggards or partitioned peers (that is the whole
  point of trimming past them and streaming snapshots instead).

Three more audit a *finished* KV scenario (anything shaped like
:class:`repro.kv.scenario.Scenario`; duck-typed, this package imports no
kv): every acknowledged write uid is applied on every live replica of
its key's group on the final ring, live replicas of a group are byte
identical, and every get returned a value some put of that key wrote.

All checkers raise :class:`InvariantViolation` (an ``AssertionError``
subclass, so plain pytest asserts and CI greps both catch it).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from ..photon.rcache import assert_reg_balance
from ..runtime.health import ALIVE, DEAD

__all__ = ["InvariantViolation", "check_no_duplicate_delivery",
           "check_reg_balance", "check_breaker_legality",
           "check_membership_monotonic", "check_log_bounded",
           "unapplied_acks", "check_replicas_identical",
           "check_reads_return_written", "check_all"]


class InvariantViolation(AssertionError):
    """A chaos-run safety property was violated."""


#: the circuit breaker's legal state machine
_LEGAL_BREAKER = {
    ("closed", "open"),       # threshold trip / peer declared dead
    ("open", "half-open"),    # cooldown elapsed, probe allowed
    ("half-open", "open"),    # probe failed
    ("half-open", "closed"),  # probe succeeded
    ("open", "closed"),       # peer rejoined while open
}


def check_no_duplicate_delivery(delivered: Iterable) -> None:
    """``delivered``: hashable delivery ids (e.g. ``(src, cid)`` pairs)
    recorded by receivers.  Replay may retransmit, dedup must collapse."""
    counts = Counter(delivered)
    dups = {k: n for k, n in counts.items() if n > 1}
    if dups:
        raise InvariantViolation(
            f"duplicate delivery despite replay dedup: {dups}")


def check_reg_balance(cluster) -> None:
    """Registration/deregistration balance across every rank's context
    (crash drops pins, rejoin's cache flush must restore the books)."""
    try:
        assert_reg_balance(cluster.counters,
                           [cluster[r].context for r in range(cluster.n)])
    except AssertionError as exc:
        raise InvariantViolation(str(exc)) from None


def check_breaker_legality(
        transitions: Sequence[Tuple[int, int, str, str]]) -> None:
    """``transitions``: ``(t_ns, peer, old, new)`` tuples, e.g. a
    transport's ``breaker_log``.  Validates each edge and that each
    peer's chain is contiguous (new picks up where old left off)."""
    last: Dict[int, str] = {}
    for t, peer, old, new in transitions:
        if (old, new) not in _LEGAL_BREAKER:
            raise InvariantViolation(
                f"illegal breaker transition {old!r} -> {new!r} "
                f"for peer {peer} at t={t}")
        prev = last.get(peer)
        if prev is not None and prev != old:
            raise InvariantViolation(
                f"discontinuous breaker chain for peer {peer} at t={t}: "
                f"was {prev!r}, transition claims {old!r}")
        last[peer] = new


def check_membership_monotonic(monitor) -> None:
    """Versions strictly increase and DEAD→ALIVE requires an incarnation
    bump (``monitor``: a :class:`~repro.runtime.health.HealthMonitor`,
    or anything with a ``view`` carrying ``history``)."""
    view = monitor.view
    prev_version = 0
    died_at_inc: Dict[int, int] = {}
    for version, rank, old, new, incarnation in view.history:
        if version <= prev_version:
            raise InvariantViolation(
                f"membership version went backwards: {prev_version} -> "
                f"{version} (rank {rank}, {old} -> {new})")
        prev_version = version
        if new == DEAD:
            died_at_inc[rank] = incarnation
        elif old == DEAD and new == ALIVE:
            at_death = died_at_inc.get(rank)
            if at_death is not None and incarnation <= at_death:
                raise InvariantViolation(
                    f"rank {rank} returned from DEAD without an "
                    f"incarnation bump ({at_death} -> {incarnation})")
    if view.version != prev_version:
        raise InvariantViolation(
            f"view version {view.version} disagrees with history tail "
            f"{prev_version}")


def check_log_bounded(kv_nodes: Iterable, slack: int = 0) -> None:
    """Every snapshot-armed Raft replica's *applied* suffix is bounded.

    ``kv_nodes``: anything with a ``raft`` mapping of group id to
    :class:`~repro.kv.raft.RaftNode` (duck-typed so this module needs no
    kv import).  A replica may briefly hold ``compact_threshold`` applied
    entries before its snapshot fires plus the ``compact_margin`` it
    deliberately retains behind the snapshot point, hence the bound
    ``threshold + margin`` (+ caller ``slack`` for mid-tick grace).
    Replicas with no ``snapshot_fn`` armed are skipped — without a
    serializer compaction is disabled by design.
    """
    for node in kv_nodes:
        for group, rn in node.raft.items():
            if rn.snapshot_fn is None:
                continue
            retained = rn.last_applied - rn.base_index
            bound = (rn.config.compact_threshold
                     + rn.config.compact_margin + slack)
            if retained > bound:
                raise InvariantViolation(
                    f"group {group} replica rank {getattr(node, 'rank', '?')}"
                    f" retains {retained} applied entries "
                    f"(base_index {rn.base_index}, last_applied "
                    f"{rn.last_applied}) > bound {bound}")


def unapplied_acks(scenario) -> List[Tuple[int, int, Tuple[int, int]]]:
    """``(rank, group, uid)`` for every write acknowledged to one of
    ``scenario.clients`` that a live replica of its key's group — on the
    *final* ring, so a moved key is owed by its new owner — has not
    applied.  Dead ranks are skipped; a reborn-empty one is not."""
    nodes, smap = scenario.nodes, scenario.nodes[0].shard_map
    missing = []
    for client in scenario.clients:
        for cid, seq, _op, key, _value in client.acked:
            group = smap.group_of(key)
            for rank in smap.replicas(group):
                machine = nodes[rank].machines.get(group)
                if nodes[rank].photon.alive and (
                        machine is None
                        or (cid, seq) not in machine.applied_uids):
                    missing.append((rank, group, (cid, seq)))
    return missing


def check_replicas_identical(scenario) -> None:
    """At quiescence the live replicas of a group serialise to the same
    bytes."""
    nodes, smap = scenario.nodes, scenario.nodes[0].shard_map
    for group in range(smap.n_groups):
        blobs = {nodes[r].machines[group].serialize()
                 for r in smap.replicas(group) if nodes[r].photon.alive}
        if len(blobs) > 1:
            raise InvariantViolation(
                f"group {group}: live replicas hold {len(blobs)} "
                "different states")


def check_reads_return_written(scenario) -> None:
    """Every OK get in ``scenario.history`` returned a value some put of
    that key wrote (answered or not: a timed-out put may have landed)."""
    written: Dict[bytes, set] = {}
    for op in scenario.history:
        if op.kind == "put":
            written.setdefault(op.key, set()).add(op.value)
    for op in scenario.history:
        if op.kind == "get" and op.status == 0 \
                and op.value not in written.get(op.key, ()):  # 0: ST_OK
            raise InvariantViolation(
                f"client {op.client} get {op.key!r} at t={op.t_return} "
                f"returned {op.value!r}, which nobody wrote")


def check_all(cluster, delivered: Iterable = (),
              transports: Sequence = (),
              monitors: Sequence = (),
              kv_nodes: Sequence = (), scenario=None) -> None:
    """Run every applicable checker; raises on the first violation.
    ``scenario``: a finished, drained KV scenario."""
    check_no_duplicate_delivery(delivered)
    check_reg_balance(cluster)
    for tp in transports:
        check_breaker_legality(tp.breaker_log)
    for mon in monitors:
        check_membership_monotonic(mon)
    if kv_nodes:
        check_log_bounded(kv_nodes)
    if scenario is not None:
        missing = unapplied_acks(scenario)
        if missing:
            raise InvariantViolation(
                f"{len(missing)} acknowledged writes missing from a live "
                f"replica, first {missing[0]}")
        check_replicas_identical(scenario)
        check_reads_return_written(scenario)
