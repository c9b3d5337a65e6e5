"""am_fanout — active-message invocations; the runtime does the work.

Three phases per block, all on clean ``ib-fdr`` fabrics with
``build_runtime(am=True)`` (so the coalescing transport is on):

* ``mcts`` — ``repro.apps.mcts`` on 8 ranks over the Photon transport:
  every rank runs search iterations against the shared tree, fanning
  out 8 B ``mcts.stats`` invokes (16 B replies) and 16 B ``mcts.update``
  invokes to the owners of the nodes it touches.  Eight searchers, each
  a closed loop over its own fan-outs.
* ``echo.photon`` / ``echo.mpi`` — a 2-rank closed loop with 32 invokes
  in flight (the AM credit window is the only flow control): ``echo``
  invokes flooded at one server, once over ``PhotonTransport`` and once
  over ``MpiTransport``.

One op is one invoke whose future resolved.  MCTS root-visit accounting
must be exact and every echo reply must equal its request.  The search
itself is a pure function of the tree shape, so the block seed shapes
the floods: each echo payload is 8, 16 or 24 bytes of seeded random
data.  Latency samples come from the floods (invoke to future-ready as
the client observes it); ``run_mcts`` keeps its futures to itself, so
the search contributes ops, bytes, events and simulated time only.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.apps.mcts import build_mcts, run_mcts
from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init
from repro.runtime import ActionRegistry, AmConfig, build_runtime

from ..harness import BlockResult

__all__ = ["AmFanout"]

MCTS_RANKS = 8
MCTS_BRANCHING = 4
MCTS_DEPTH = 3
#: search iterations per rank per block at scale 1
MCTS_ITERS = 24
#: echo invokes per transport per block at scale 1
FLOOD_INVOKES = 4000
WINDOW = 32
WAIT_NS = 30_000_000_000

#: invokes one iteration issues: root stats + per-level child stats,
#: then one update per node on the path
_STATS_PER_ITER = 1 + MCTS_DEPTH * MCTS_BRANCHING
_UPDATES_PER_ITER = MCTS_DEPTH + 1
#: request + reply payload bytes of the two MCTS actions
_STATS_BYTES = 8 + 16
_UPDATE_BYTES = 16 + 0


class AmFanout:
    name = "am_fanout"
    pooled = ("echo.photon", "echo.mpi")

    def __init__(self, seed: int, scale: float, spans: bool = False,
                 trace=None):
        self.trace = trace
        rng = np.random.default_rng(seed)
        self.iters = max(1, round(MCTS_ITERS * scale))
        n_flood = max(WINDOW, round(FLOOD_INVOKES * scale))
        pool = rng.bytes(4096)
        self.payloads = {}
        for arm in ("photon", "mpi"):
            sizes = 8 + 8 * rng.integers(0, 3, size=n_flood)
            offs = rng.integers(0, len(pool) - 24, size=n_flood)
            self.payloads[arm] = [pool[o:o + s] for o, s in
                                  zip(offs.tolist(), sizes.tolist())]
        cfg = AmConfig(credits_per_dest=WINDOW)

        self.cl_mcts = build_cluster(MCTS_RANKS, "ib-fdr", seed=seed,
                                     spans=spans)
        reg = ActionRegistry()
        self.shards = build_mcts(reg, MCTS_RANKS)
        self.rts_mcts = build_runtime(
            self.cl_mcts, reg, "photon", photon=photon_init(self.cl_mcts),
            am=True, am_config=cfg)

        self.flood = {}
        for k, arm in enumerate(("photon", "mpi")):
            cl = build_cluster(2, "ib-fdr", seed=seed + 1 + k, spans=spans)
            reg = ActionRegistry()
            reg.register("echo", lambda rt, src, payload: payload)
            if arm == "photon":
                rts = build_runtime(cl, reg, "photon",
                                    photon=photon_init(cl), am=True,
                                    am_config=cfg)
            else:
                rts = build_runtime(cl, reg, "mpi", comms=mpi_init(cl),
                                    am=True, am_config=cfg)
            self.flood[arm] = (cl, rts)
        self.clusters = [self.cl_mcts] + [cl for cl, _ in
                                          self.flood.values()]
        if spans:
            for cl in self.clusters:
                cl.metrics.max_spans = 1 << 22
        self.mcts_invokes = (MCTS_RANKS * self.iters
                             * (_STATS_PER_ITER + _UPDATES_PER_ITER))
        self.result = BlockResult(pooled=self.pooled)
        self.result.attempted = self.mcts_invokes + 2 * n_flood
        self.mcts_results = None

    # ------------------------------------------------------------- phases
    def _run_mcts(self, region) -> None:
        cl = self.cl_mcts
        progs, self.mcts_results = run_mcts(
            cl, self.rts_mcts, self.shards, iters_per_rank=self.iters,
            branching=MCTS_BRANCHING, depth=MCTS_DEPTH)
        t0 = cl.env.now
        procs = [cl.env.process(self.trace.wrap(f"client.mcts.r{r}", gen,
                                                parent=region))
                 for r, gen in enumerate(progs)]
        cl.env.run(until=cl.env.all_of(procs))
        self.result.sim_ns += cl.env.now - t0

    def _run_flood(self, arm: str, region) -> None:
        cl, rts = self.flood[arm]
        env = cl.env
        res = self.result
        payloads = self.payloads[arm]
        lat = res.latency_ns.setdefault(f"echo.{arm}", [])
        state = {"done": False}

        def settle(fut, payload, t0):
            if fut.get() == payload:
                res.completed += 1
                res.payload_bytes += 2 * len(payload)
                lat.append(env.now - t0)
            elif len(res.errors) < 8:
                res.errors.append(f"echo.{arm}: reply differs from request")

        def client():
            rt = rts[0]
            pending = deque()
            for payload in payloads:
                t0 = env.now
                fut = yield from rt.invoke(1, "echo", payload)
                pending.append((fut, payload, t0))
                while pending and pending[0][0].ready:
                    settle(*pending.popleft())
            while pending:
                fut, payload, t0 = pending.popleft()
                yield from fut.wait(rt, WAIT_NS)
                settle(fut, payload, t0)
            state["done"] = True

        def server():
            yield from rts[1].process_until(lambda: state["done"],
                                            2 * WAIT_NS)

        t0 = env.now
        procs = [env.process(self.trace.wrap(f"client.echo.{arm}", client(),
                                             parent=region)),
                 env.process(self.trace.wrap(f"server.echo.{arm}", server(),
                                             parent=region))]
        env.run(until=env.all_of(procs))
        res.sim_ns += env.now - t0

    # ------------------------------------------------------------ protocol
    def run(self, region) -> None:
        self._run_mcts(region)
        self._run_flood("photon", region)
        self._run_flood("mpi", region)

    def finish(self) -> BlockResult:
        res = self.result
        expected_visits = MCTS_RANKS * self.iters
        root_visits = sum(r.owned.get(0, (0, 0))[0]
                          for r in self.mcts_results)
        invokes = sum(r.invokes for r in self.mcts_results)
        if root_visits != expected_visits:
            res.errors.append(f"mcts: root visits {root_visits} != "
                              f"{expected_visits} iterations")
        if invokes != self.mcts_invokes:
            res.errors.append(f"mcts: {invokes} invokes resolved, "
                              f"expected {self.mcts_invokes}")
        res.completed += invokes
        res.payload_bytes += MCTS_RANKS * self.iters * (
            _STATS_PER_ITER * _STATS_BYTES
            + _UPDATES_PER_ITER * _UPDATE_BYTES)
        res.failed = res.attempted - res.completed
        return res
