"""pwc_sweep — raw Photon PWC and minimpi transfers, no runtime, no KV.

Two ranks on a clean ``ib-fdr`` fabric.  The timed region runs nine
phases back to back, each a closed loop:

* ``put.*`` — window-1 ``put_pwc`` ping-pong at 8 B / 4 KiB / 256 KiB
  (the target learns of the data from its completion ledger, then puts
  back);
* ``get.*`` — window-1 ``get_pwc`` from rank 0 at the same sizes (rank 1
  spends no CPU);
* ``send.64B.w64`` — a window-64 ``send_pwc`` message-rate burst;
* ``mpi.*`` — the 8 B and 256 KiB ping-pong over minimpi isend/irecv
  (eager and rendezvous).

One op is one completed transfer whose bytes were compared with the
source at the receiver.  Inputs come from the block seed: payload bytes,
the source offset of every transfer, a size jitter on the 4 KiB and
256 KiB classes (up to +12.5 %, 8 B steps), and a think time of under
200 ns before every ping-pong post.  Receivers discover arrivals by
polling on a back-off schedule that starts when they begin to wait, so
without the think time the phase between a post and the receiver's poll
grid is a constant and every latency in a class reads the same; with it
the phase is an input and the percentiles are a property of the seed.
Latency is one-way: post on the initiator to completion observed on the
receiving side (gets: observed by the initiator, whose own poll grid
starts at its post — those stay quantised).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import photon_init

from ..harness import BlockResult

__all__ = ["PwcSweep"]

WAIT_NS = 10 ** 12
KIB = 1024

#: class -> (nominal bytes, jitter steps of 8 B)
SIZE_CLASSES = {
    "8B": (8, 0),
    "4KiB": (4 * KIB, 64),
    "256KiB": (256 * KIB, 4096),
}
#: transfers per block at scale 1; the 256 KiB classes sit at the floor
#: that still gives every class >= 1000 samples over eight blocks
COUNTS = {"8B": 200, "4KiB": 300, "256KiB": 126}
THINK_NS = 200
BURST_MSGS = 1500
BURST_BYTES = 64
BURST_WINDOW = 64
MAX_BYTES = 256 * KIB + 8 * 4096
POOL_BYTES = 2 * MAX_BYTES


def _even(n: float) -> int:
    return max(2, 2 * round(n / 2))


def _alternate(n: int, shot, catch):
    """The two sides of a ping-pong over ``n`` transfers: transfer 2k
    goes 0 -> 1, transfer 2k+1 comes back 1 -> 0."""
    def rank0():
        for it in range(0, n, 2):
            yield from shot(0, it)
            yield from catch(0, it + 1)

    def rank1():
        for it in range(0, n, 2):
            yield from catch(1, it)
            yield from shot(1, it + 1)

    return [rank0(), rank1()]


class PwcSweep:
    name = "pwc_sweep"
    pooled = ("put.8B", "put.4KiB", "put.256KiB", "get.8B", "get.4KiB",
              "get.256KiB", "mpi.8B", "mpi.256KiB")

    def __init__(self, seed: int, scale: float, spans: bool = False,
                 trace=None):
        self.trace = trace
        rng = np.random.default_rng(seed)
        self.pool = rng.bytes(POOL_BYTES)
        # per-phase transfer plans: lists of (offset, size, think ns)
        self.plans: Dict[str, List[tuple]] = {}
        for kind in ("put", "get", "mpi"):
            for cls, (nominal, steps) in SIZE_CLASSES.items():
                if kind == "mpi" and cls == "4KiB":
                    continue
                n = _even(COUNTS[cls] * scale)
                sizes = nominal + 8 * rng.integers(0, steps + 1, size=n)
                offs = 8 * rng.integers(0, (POOL_BYTES - MAX_BYTES) // 8,
                                        size=n)
                think = rng.integers(0, THINK_NS, size=n)
                self.plans[f"{kind}.{cls}"] = list(
                    zip(offs.tolist(), sizes.tolist(), think.tolist()))
        n_burst = max(BURST_WINDOW, round(BURST_MSGS * scale))
        offs = 8 * rng.integers(0, (POOL_BYTES - BURST_BYTES) // 8,
                                size=n_burst)
        self.plans["send.64B.w64"] = [(o, BURST_BYTES, 0)
                                      for o in offs.tolist()]

        self.cl = build_cluster(2, "ib-fdr", seed=seed, spans=spans)
        self.ph = photon_init(self.cl)
        self.src = [ep.buffer(POOL_BYTES) for ep in self.ph]
        self.dst = [ep.buffer(MAX_BYTES) for ep in self.ph]
        self.clm = build_cluster(2, "ib-fdr", seed=seed + 1, spans=spans)
        self.comms = mpi_init(self.clm)
        self.msrc = [self.clm[r].memory.alloc(POOL_BYTES) for r in (0, 1)]
        self.mdst = [self.clm[r].memory.alloc(MAX_BYTES) for r in (0, 1)]
        for r in (0, 1):
            self.cl[r].memory.write(self.src[r].addr, self.pool)
            self.clm[r].memory.write(self.msrc[r], self.pool)
        if spans:
            for cl in (self.cl, self.clm):
                cl.metrics.max_spans = 1 << 22
        self.clusters = [self.cl, self.clm]
        self.result = BlockResult(pooled=self.pooled)
        self.result.attempted = sum(len(p) for p in self.plans.values())

    # ------------------------------------------------------------ helpers
    def _check(self, memory, addr: int, off: int, size: int, what: str):
        """Compare delivered bytes with the source; tally the op."""
        res = self.result
        if memory.read(addr, size) == self.pool[off:off + size]:
            res.completed += 1
            res.payload_bytes += size
            return True
        if len(res.errors) < 8:
            res.errors.append(f"{what}: payload mismatch "
                              f"(off={off}, size={size})")
        return False

    def _phase(self, cl, name: str, programs, region) -> None:
        env = cl.env
        t0 = env.now
        procs = [env.process(self.trace.wrap(f"client.{name}.r{r}", gen,
                                             parent=region))
                 for r, gen in enumerate(programs)]
        env.run(until=env.all_of(procs))
        self.result.sim_ns += env.now - t0

    # ------------------------------------------------------------- phases
    def _put_pingpong(self, name: str):
        plan = self.plans[name]
        lat = self.result.latency_ns.setdefault(name, [])
        env, ph, src, dst = self.cl.env, self.ph, self.src, self.dst
        posted = [0]

        def shot(rank, it):
            off, size, think = plan[it]
            other = 1 - rank
            yield env.timeout(think)
            posted[0] = env.now
            yield from ph[rank].put_pwc(
                other, src[rank].addr + off, size, dst[other].addr,
                dst[other].rkey, remote_cid=it)

        def catch(rank, it):
            comp = yield from ph[rank].wait_completion(
                "remote", timeout_ns=WAIT_NS)
            if comp is None or comp.cid != it:
                self.result.errors.append(f"{name}: lost completion {it}")
                return
            off, size, _think = plan[it]
            if self._check(self.cl[rank].memory, dst[rank].addr, off, size,
                           name):
                lat.append(env.now - posted[0])

        return _alternate(len(plan), shot, catch)

    def _get_loop(self, name: str):
        plan = self.plans[name]
        lat = self.result.latency_ns.setdefault(name, [])
        env, ep = self.cl.env, self.ph[0]

        def rank0():
            for it, (off, size, think) in enumerate(plan):
                yield env.timeout(think)
                t0 = env.now
                yield from ep.get_pwc(1, self.dst[0].addr, size,
                                      self.src[1].addr + off,
                                      self.src[1].rkey, local_cid=it)
                comp = yield from ep.wait_completion("local",
                                                     timeout_ns=WAIT_NS)
                if comp is None or comp.cid != it or not comp.ok:
                    self.result.errors.append(f"{name}: lost get {it}")
                    return
                if self._check(self.cl[0].memory, self.dst[0].addr, off,
                               size, name):
                    lat.append(env.now - t0)

        return [rank0()]

    def _send_burst(self, name: str):
        plan = self.plans[name]
        lat = self.result.latency_ns.setdefault(name, [])
        env, ph, pool = self.cl.env, self.ph, self.pool
        sent_at = [0] * len(plan)

        def sender():
            issued = done = 0
            while done < len(plan):
                while issued < len(plan) and issued - done < BURST_WINDOW:
                    off, size, _think = plan[issued]
                    sent_at[issued] = env.now
                    yield from ph[0].send_pwc(1, pool[off:off + size],
                                              remote_cid=issued,
                                              local_cid=issued)
                    issued += 1
                comp = yield from ph[0].wait_completion("local",
                                                        timeout_ns=WAIT_NS)
                if comp is None:
                    self.result.errors.append(f"{name}: sender stalled")
                    return
                done += 1

        def receiver():
            res = self.result
            for _ in range(len(plan)):
                msg = yield from ph[1].wait_message(timeout_ns=WAIT_NS)
                if msg is None:
                    res.errors.append(f"{name}: receiver stalled")
                    return
                _src, cid, data = msg
                off, size, _think = plan[cid]
                if data == pool[off:off + size]:
                    res.completed += 1
                    res.payload_bytes += size
                    lat.append(env.now - sent_at[cid])
                elif len(res.errors) < 8:
                    res.errors.append(f"{name}: payload mismatch cid={cid}")

        return [sender(), receiver()]

    def _mpi_pingpong(self, name: str):
        plan = self.plans[name]
        lat = self.result.latency_ns.setdefault(name, [])
        env, comms = self.clm.env, self.comms
        msrc, mdst = self.msrc, self.mdst
        posted = [0]

        def catch(rank, it):
            off, size, _think = plan[it]
            req = yield from comms[rank].irecv(mdst[rank], MAX_BYTES,
                                               1 - rank, tag=it)
            yield from comms[rank].wait(req, timeout_ns=WAIT_NS)
            if self._check(self.clm[rank].memory, mdst[rank], off, size,
                           name):
                lat.append(env.now - posted[0])

        def shot(rank, it):
            off, size, think = plan[it]
            yield env.timeout(think)
            posted[0] = env.now
            req = yield from comms[rank].isend(msrc[rank] + off, size,
                                               1 - rank, tag=it)
            yield from comms[rank].wait(req, timeout_ns=WAIT_NS)

        return _alternate(len(plan), shot, catch)

    # ------------------------------------------------------------ protocol
    def run(self, region) -> None:
        phases = {"put": (self.cl, self._put_pingpong),
                  "get": (self.cl, self._get_loop),
                  "send": (self.cl, self._send_burst),
                  "mpi": (self.clm, self._mpi_pingpong)}
        for name in self.plans:
            cluster, programs = phases[name.split(".")[0]]
            self._phase(cluster, name, programs(name), region)

    def finish(self) -> BlockResult:
        res = self.result
        res.failed = res.attempted - res.completed
        return res
