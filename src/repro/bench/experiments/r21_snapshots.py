"""R21 — snapshots under chaos: compaction, crash-restart rejoin, a
live shard move.

The closing piece of the repro.kv story: PR 7 left the store with
unbounded Raft logs behind any laggard, no way to readmit a restarted
replica, and a static key ring.  This experiment drives all three new
mechanisms through one sustained write run and audits the contract:

1. **Bounded logs** — writes run continuously with a small
   ``compact_threshold``; a follower is partitioned long enough for the
   leaders to trim *past* it.  A sampler records the worst retained
   applied suffix ever seen on any live replica; it must stay within
   ``compact_threshold + compact_margin`` (plus an in-flight batch of
   slack mid-run, exactly zero slack at quiescence).
2. **Crash-restart rejoin** — chaos crashes the group-0 leader mid
   burst and restarts it in place; the reseeded replica (empty log, no
   machine) must converge through the InstallSnapshot stream, never by
   replaying a trimmed prefix.  The healed partitioned follower must
   also catch up via a snapshot, since the leader compacted past it.
3. **Live shard move** — while the writers are still running, group 1's
   whole key range is sealed, copied and flipped into group 0
   (:func:`repro.kv.move.move_group`).  In-flight clients see
   ``WRONG_EPOCH``, refetch the ring and retry with the same session
   uids, so the move is invisible in the ack ledger.
4. **Zero acked-write loss** — every acknowledged write uid must be
   present in the state machine of *every* replica of the key's final
   owner group, crash, partition and move notwithstanding.
"""

from __future__ import annotations

from ...chaos import CrashRank, HealEvent, PartitionEvent, RestartRank
from ...chaos.invariants import (InvariantViolation, check_log_bounded,
                                 check_membership_monotonic, unapplied_acks)
from ...kv import RaftConfig, move_group
from ...kv.scenario import HB_PERIOD, Scenario
from ...kv.shard import ST_OK
from ..result import ExperimentResult

N_RANKS = 6
N_GROUPS = 2
RF = 3
#: small on purpose: trimming must fire many times inside the run
COMPACT_THRESHOLD = 16
COMPACT_MARGIN = 4
#: shorter than the phi-dead budget (~690 us) so the partitioned
#: follower is SUSPECT, never sticky-DEAD — the cut is a gray event the
#: log bound has to survive, not a membership change
PARTITION_NS = 500_000
#: applies can land in one server-loop batch before the snapshot tick
#: fires; the mid-run sampler grants that much grace, quiescence none
SAMPLER_SLACK = 32


def run_chaos_move(quick: bool = True, seed: int = 404,
                   crash: str = "leader") -> dict:
    """Sustained writes + partition + crash/restart + one live move.

    ``crash`` picks the victim: the group-0 ``"leader"`` at schedule
    time, or a ``"follower"`` of group 0 — both must rejoin through a
    snapshot install after restart.
    """
    n_ops = 700 if quick else 1600
    sc = Scenario(N_RANKS, N_GROUPS, seed,
                  raft=RaftConfig(compact_threshold=COMPACT_THRESHOLD,
                                  compact_margin=COMPACT_MARGIN))
    env, nodes, smap, free = sc.env, sc.nodes, sc.shard_map, sc.free
    # ranks with no replica host the clients (writes always cross the
    # wire, like R20's serving arms)
    writers = [sc.client(free[c % len(free)], c + 1) for c in range(2)]
    lagger = max(smap.replicas(1))   # group-1-only replica
    out = {"scenario": sc, "n_ops": 2 * n_ops, "move": None,
           "max_retained": 0}

    def writer(client, wid):
        keys = [f"r21:w{wid}:{i:04d}".encode() for i in range(40)]
        return sc.closed_loop(
            client, ((keys[i % 40], False) for i in range(n_ops)),
            think_ns=1_000)

    def chaos():
        t0 = out["t0"] = yield from sc.wait_leaders()
        leader0 = sc.leader(0)
        victim = out["victim"] = leader0 if crash == "leader" else \
            next(r for r in smap.replicas(0) if r not in (leader0, lagger))
        others = tuple(r for r in range(N_RANKS) if r != lagger)
        sc.arm([
            PartitionEvent(t0 + 300_000, (lagger,), others),
            HealEvent(t0 + 300_000 + PARTITION_NS),
            CrashRank(t0 + 1_200_000, victim),
            RestartRank(t0 + 3_600_000, victim),
        ])

    def sampler():
        # worst applied suffix ever retained on any live replica
        while not out.get("writers_done"):
            for node in nodes:
                for rn in node.raft.values():
                    if rn.snapshot_fn is not None:
                        out["max_retained"] = max(
                            out["max_retained"],
                            rn.last_applied - rn.base_index)
            yield env.timeout(HB_PERIOD)

    def mover():
        # flip mid-stream, but only after the restart has happened so
        # the move also exercises a freshly rejoined replica
        while (sum(len(c.acked) for c in writers) < (6 * 2 * n_ops) // 10
               or env.now < out["t0"] + 4_200_000):
            yield env.timeout(2 * HB_PERIOD)
        out["move"] = yield from move_group(nodes, 1, 0, via_rank=free[0])

    def post_move_probe():
        # fresh traffic after the flip must be served by the new owner
        probe = sc.client(free[-1], 77)
        ok = 0
        for i in range(20):
            key = f"r21:post:{i:03d}".encode()
            st = yield from probe.put(key, b"post-move-" + bytes([i]))
            st2, val = yield from probe.get(key)
            ok += (st == ST_OK and st2 == ST_OK
                   and val == b"post-move-" + bytes([i]))
        out["post_move_ok"] = ok

    def driver():
        yield from chaos()
        wprocs = [env.process(writer(c, i), name=f"r21.w{i}")
                  for i, c in enumerate(writers)]
        env.process(sampler(), name="r21.sampler")
        mproc = env.process(mover(), name="r21.mover")
        yield env.all_of(wprocs)
        out["writers_done"] = True
        yield mproc
        yield from post_move_probe()
        yield from sc.drain()

    sc.run(driver(), name="r21.driver")

    victim, cl = out["victim"], sc.cluster
    log_bounded_final = True
    try:
        check_log_bounded(nodes, slack=0)
    except InvariantViolation:
        log_bounded_final = False
    out.update({
        "acked": len({t[:2] for c in sc.clients for t in c.acked}),
        # every key's final owner is group 0: its replicas owe every ack
        "unapplied": unapplied_acks(sc),
        "owners_alive": sum(nodes[r].photon.alive
                            for r in smap.replicas(0)),
        "victim_installs": sum(rn.snapshot_installs
                               for rn in nodes[victim].raft.values()),
        "lagger_installs": nodes[lagger].raft[1].snapshot_installs,
        "log_bounded_final": log_bounded_final,
        "wrong_epoch": sum(c.stats.wrong_epoch for c in writers),
        "map_refreshes": sum(c.stats.map_refreshes for c in writers),
        "snapshot_bytes": sum(
            cl.scope(r).values.get("kv.raft.snapshot_bytes", 0)
            for r in range(N_RANKS)),
        "install_spans": cl.metrics.span_durations("kv.raft.install"),
    })
    return out


def run(quick: bool = True) -> ExperimentResult:
    r = run_chaos_move(quick)
    move = r["move"] or {}
    bound = COMPACT_THRESHOLD + COMPACT_MARGIN
    installs = r["install_spans"]
    rows = [
        ["writes", r["acked"], f"{r['n_ops']} issued", "-"],
        ["log bound", r["max_retained"],
         f"limit {bound}+{SAMPLER_SLACK} slack", r["log_bounded_final"]],
        ["restart rejoin", r["victim_installs"],
         f"victim r{r['victim']}", "-"],
        ["partition catch-up", r["lagger_installs"], "snapshot installs",
         "-"],
        ["move", move.get("moved_bytes", 0),
         f"epoch {move.get('epoch', 0)}, "
         f"{r['wrong_epoch']} wrong-epoch bounces",
         r.get("post_move_ok", 0)],
        ["install spans", len(installs),
         f"max {max(installs) / 1000.0:.0f}us" if installs else "-", "-"],
    ]
    checks = {
        "every issued write was eventually acked exactly once":
            r["acked"] == r["n_ops"] + 20,  # writers + post-move probes
        "zero acked-write loss on every final-owner replica":
            r["unapplied"] == [] and r["owners_alive"] == RF,
        "restarted replica rejoined via snapshot install":
            r["victim_installs"] >= 1,
        "partitioned follower caught up via snapshot install":
            r["lagger_installs"] >= 1,
        "retained log bounded mid-run (threshold+margin+slack)":
            0 < r["max_retained"] <= bound + SAMPLER_SLACK,
        "retained log bounded at quiescence (no slack)":
            r["log_bounded_final"],
        "live move completed and bumped the epoch":
            move.get("epoch") == 1 and move.get("moved_bytes", 0) > 0,
        "in-flight clients crossed the epoch flip":
            r["wrong_epoch"] >= 1 and r["map_refreshes"] >= 1,
        "post-move traffic serves from the new owner":
            r.get("post_move_ok", 0) == 20,
        "membership stayed monotonic on every monitor":
            _membership_ok(r["scenario"].monitors),
    }
    fo_note = (f"victim r{r['victim']} rejoined with "
               f"{r['victim_installs']} install(s); lagger installs "
               f"{r['lagger_installs']}; move {move.get('moved_bytes', 0)}B "
               f"at epoch {move.get('epoch')}; worst retained log "
               f"{r['max_retained']} (bound {bound})")
    return ExperimentResult(
        exp_id="R21",
        title="repro.kv snapshots under chaos: bounded logs, "
              "crash-restart rejoin via InstallSnapshot, live shard move",
        headers=["phase", "count", "detail", "ok"],
        rows=rows,
        checks=checks,
        notes=fo_note)


def _membership_ok(monitors) -> bool:
    try:
        for mon in monitors:
            check_membership_monotonic(mon)
        return True
    except AssertionError:
        return False
