"""R19 — crash, detection and recovery under chaos orchestration.

A 3-rank cluster runs a ring of PWC puts while the chaos controller
executes a fixed fault schedule: rank 2 fail-stops at 2 ms and restarts
in place at 4 ms.  Every rank runs the heartbeat/phi-accrual health
layer (:mod:`repro.runtime.health`); the photon endpoints consume its
death/join callbacks.

The scenario measures the full fault lifecycle from the observability
spans:

- **detection latency** — ``health.detect`` spans on the survivors:
  last heartbeat seen from the victim → DEAD declaration.  With a 50 us
  period and phi_dead = 6 the budget is ``6 * 50 us * ln 10 ~= 690 us``.
- **dead-peer settle** — an op posted *after* the crash but *before*
  detection settles with ``WCStatus.PEER_DEAD`` at detection time,
  instead of burning the full deadline + retry budget (~2.5 ms here).
  A second op posted after detection fast-fails immediately.
- **recovery time** — ``health.outage`` spans: DEAD declaration →
  first heartbeat of the victim's new incarnation after rejoin.

Safety properties are checked by :mod:`repro.chaos.invariants`: no
duplicate delivery despite replay, registration balance across the
crash/restart (the victim's pins die with it; rejoin's cache flush must
restore the books), and membership monotonicity on every surviving
monitor.
"""

from __future__ import annotations

from ...chaos import (ChaosController, CrashRank, FaultSchedule,
                      RestartRank, check_all)
from ...cluster import build_cluster
from ...photon import PhotonConfig, photon_init
from ...runtime.health import DETECT_BUDGET_NS, HealthConfig, build_health
from ...sim.core import SimulationError
from ...verbs.enums import WCStatus
from ..result import ExperimentResult

N = 3
VICTIM = 2
SIZE = 4096
WAIT = 10 ** 12

T_CRASH = 2_000_000      # 2 ms
T_RESTART = 4_000_000    # 4 ms

#: what the probe op would burn without a detector: full deadline+retry
RETRY_BUDGET_NS = 6 * 400_000

PROBE_CID = 10_000
FAST_CID = 10_001
SIDE_CID = 10_002
REJOIN_CID = 10_003
BACK_CID = 10_004


def _pattern(seed: int) -> bytes:
    return bytes((seed + i) % 256 for i in range(256)) * (SIZE // 256)


def run_scenario(quick: bool = True) -> dict:
    """Execute the canned crash/restart scenario; returns raw results
    (shared by :func:`run`, the chaos CLI and the test suite)."""
    n_msgs = 6 if quick else 20
    cl = build_cluster(N, "ib-fdr", seed=42, trace=True, spans=True)
    # use_imm off: immediate-mode completions skip target-side dedup, and
    # the no-duplicate-delivery invariant needs the deduped ledger path
    ph = photon_init(cl, PhotonConfig(
        use_imm=False, max_op_retries=5, op_timeout_ns=400_000,
        backoff_jitter_ns=80_000))
    monitors = build_health(cl)
    ctrl = ChaosController(
        cl, FaultSchedule([CrashRank(T_CRASH, VICTIM),
                           RestartRank(T_RESTART, VICTIM)]))
    ctrl.arm()

    bufs = [ph[r].buffer(SIZE) for r in range(N)]
    for r in range(N):
        cl[r].memory.write(bufs[r].addr, _pattern(r))
    scratch = [ph[r].buffer(SIZE) for r in range(N)]

    delivered = []            # (src, cid) pairs for the no-dup invariant
    out = {"phase_a_done": 0}

    def ring_sender(env, rank):
        """Phase A: stop-and-wait puts around the ring (pre-crash)."""
        dst = (rank + 1) % N
        for i in range(n_msgs):
            cid = rank * 1000 + i + 1
            yield from ph[rank].put_pwc(
                dst, bufs[rank].addr, SIZE, scratch[dst].addr,
                scratch[dst].rkey, local_cid=cid, remote_cid=cid)
            c = yield from ph[rank].wait_completion("local",
                                                    timeout_ns=WAIT)
            if c is None or not c.ok:
                raise SimulationError(f"phase A put {cid} failed")
        out["phase_a_done"] += 1

    def ring_receiver(env, rank):
        for _ in range(n_msgs):
            c = yield from ph[rank].wait_completion("remote",
                                                    timeout_ns=WAIT)
            if c is None:
                raise SimulationError(f"phase A receiver {rank} starved")
            delivered.append((rank, c.cid))

    def survivor_driver(env):
        """Phases B and C on rank 0 (sequential: one completion consumer)."""
        # --- phase B: victim is down but not yet detected -------------
        if env.now < T_CRASH + 50_000:
            yield env.timeout(T_CRASH + 50_000 - env.now)
        t_post = env.now
        yield from ph[0].put_pwc(VICTIM, bufs[0].addr, SIZE,
                                 scratch[VICTIM].addr, scratch[VICTIM].rkey,
                                 local_cid=PROBE_CID, remote_cid=PROBE_CID)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["probe_status"] = c.status
        out["probe_settle_ns"] = env.now - t_post
        out["detected_at_settle"] = monitors[0].is_dead(VICTIM)
        # --- post-detection: a fresh op fast-fails at post time -------
        t_post = env.now
        yield from ph[0].put_pwc(VICTIM, bufs[0].addr, SIZE,
                                 scratch[VICTIM].addr, scratch[VICTIM].rkey,
                                 local_cid=FAST_CID, remote_cid=FAST_CID)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["fast_status"] = c.status
        out["fast_settle_ns"] = env.now - t_post
        # --- survivor <-> survivor traffic keeps flowing --------------
        yield from ph[0].put_pwc(1, bufs[0].addr, SIZE, scratch[1].addr,
                                 scratch[1].rkey, local_cid=SIDE_CID,
                                 remote_cid=SIDE_CID)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["side_ok"] = c is not None and c.ok
        # --- phase C: wait for the victim's new incarnation -----------
        while monitors[0].is_dead(VICTIM) or "vic_buf" not in out:
            yield env.timeout(HealthConfig.period_ns)
        # let the re-armed pairing settle
        yield env.timeout(4 * HealthConfig.period_ns)
        vic = out["vic_buf"]
        yield from ph[0].put_pwc(VICTIM, bufs[0].addr, SIZE, vic.addr,
                                 vic.rkey, local_cid=REJOIN_CID,
                                 remote_cid=REJOIN_CID)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        out["rejoin_put_ok"] = c is not None and c.ok

    def side_receiver(env):
        """Rank 1 consumes the outage-time survivor put."""
        c = yield from ph[1].wait_completion("remote", timeout_ns=WAIT)
        if c is not None:
            delivered.append((1, c.cid))

    def victim_driver(env):
        """The victim after restart: expose a fresh buffer, receive a
        payload-verified put, and put back to rank 0."""
        if env.now < T_RESTART:
            yield env.timeout(T_RESTART - env.now)
        while not ph[VICTIM].alive:
            yield env.timeout(HealthConfig.period_ns)
        # crash wiped memory; register a *fresh* window (new rkey — the
        # pre-crash scratch rkey died with the old registrations)
        out["vic_buf"] = ph[VICTIM].buffer(SIZE)
        cl[VICTIM].memory.write(out["vic_buf"].addr, b"\x00" * SIZE)
        c = yield from ph[VICTIM].wait_completion("remote", timeout_ns=WAIT)
        if c is not None:
            delivered.append((VICTIM, c.cid))
        out["rejoin_payload_ok"] = (
            cl[VICTIM].memory.read(out["vic_buf"].addr, SIZE)
            == _pattern(0))
        out["t_workload_recovered"] = env.now
        yield from ph[VICTIM].put_pwc(0, out["vic_buf"].addr, SIZE,
                                      scratch[0].addr, scratch[0].rkey,
                                      local_cid=BACK_CID,
                                      remote_cid=BACK_CID)
        c = yield from ph[VICTIM].wait_completion("local", timeout_ns=WAIT)
        out["back_ok"] = c is not None and c.ok

    def back_receiver(env):
        c = yield from ph[0].wait_completion("remote", timeout_ns=WAIT)
        if c is not None:
            delivered.append((0, c.cid))

    env = cl.env
    procs = [env.process(ring_sender(env, r)) for r in range(N)]
    procs += [env.process(ring_receiver(env, r)) for r in range(N)]
    procs += [env.process(survivor_driver(env)),
              env.process(side_receiver(env)),
              env.process(victim_driver(env)),
              env.process(back_receiver(env))]
    env.run(until=env.all_of(procs))

    out.update({
        "cluster": cl, "photon": ph, "monitors": monitors,
        "controller": ctrl, "delivered": delivered,
        "detect_ns": cl.metrics.span_durations("health.detect"),
        "outage_ns": cl.metrics.span_durations("health.outage"),
    })
    return out


def run(quick: bool = True, scenario: dict = None) -> ExperimentResult:
    r = scenario if scenario is not None else run_scenario(quick)
    cl = r["cluster"]
    detect = r["detect_ns"]
    outage = r["outage_ns"]

    invariants_ok = True
    invariant_msg = "all hold"
    try:
        check_all(cl, delivered=r["delivered"],
                  monitors=[r["monitors"][i] for i in range(N)
                            if i != VICTIM])
    except AssertionError as exc:
        invariants_ok = False
        invariant_msg = str(exc)

    rows = [
        ["crash -> detect (us)",
         f"{min(detect) / 1000.0:.1f}" if detect else "-",
         f"{max(detect) / 1000.0:.1f}" if detect else "-"],
        ["detect -> rejoin (us)",
         f"{min(outage) / 1000.0:.1f}" if outage else "-",
         f"{max(outage) / 1000.0:.1f}" if outage else "-"],
        ["pending-op settle (us)", f"{r['probe_settle_ns'] / 1000.0:.1f}",
         f"budget {RETRY_BUDGET_NS / 1000.0:.0f}"],
        ["post-detect fast-fail (us)", f"{r['fast_settle_ns'] / 1000.0:.1f}",
         "-"],
        ["deliveries (deduped)", str(len(r["delivered"])), "-"],
    ]
    checks = {
        "both survivors detect the crash": len(detect) == 2,
        "detection latency within 2x phi budget":
            bool(detect) and max(detect) < 2 * DETECT_BUDGET_NS,
        "pending op settles PEER_DEAD well under the retry budget":
            r["probe_status"] is WCStatus.PEER_DEAD
            and r["probe_settle_ns"] < RETRY_BUDGET_NS // 2,
        "post-detection op fails fast (no deadline wait)":
            r["fast_status"] is WCStatus.PEER_DEAD
            and r["fast_settle_ns"] < 100_000,
        "survivor-survivor traffic flows during the outage":
            bool(r.get("side_ok")),
        "victim rejoins and the workload completes":
            bool(r.get("rejoin_put_ok")) and bool(r.get("rejoin_payload_ok"))
            and bool(r.get("back_ok")),
        "recovery bounded by the schedule gap":
            bool(outage)
            and max(outage) < (T_RESTART - T_CRASH) + 1_000_000,
        "invariants: no-dup, reg balance, membership":
            invariants_ok,
    }
    return ExperimentResult(
        exp_id="R19",
        title="chaos: rank fail-stop at 2ms, restart at 4ms — detection "
              "latency, dead-peer fast-fail, recovery time",
        headers=["metric", "min/value", "max/note"],
        rows=rows,
        checks=checks,
        notes=f"phi-accrual (period {HealthConfig.period_ns // 1000}us, "
              f"phi_dead {HealthConfig.phi_dead:g}); invariants: "
              f"{invariant_msg}")
