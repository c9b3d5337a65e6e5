"""Microbenchmark primitives: latency, bandwidth, message rate, overlap.

Each driver builds a fresh two-rank (or n-rank) cluster, runs the workload
SPMD in simulated time and returns *simulated-time* metrics.  Drivers come
in Photon and minimpi flavours with identical traffic patterns, mirroring
the osu-microbenchmark shapes the paper's microbenchmark figures use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster import Cluster, build_cluster
from ..minimpi import MPIConfig, mpi_init, win_allocate
from ..photon import PhotonConfig, photon_init
from ..sim.core import SimulationError
from ..util.units import to_gbps

__all__ = [
    "LatencyStats",
    "pingpong_photon", "pingpong_mpi", "pingpong_mpi_rma",
    "bandwidth_photon", "bandwidth_mpi",
    "msgrate_photon", "msgrate_mpi",
    "overlap_photon", "overlap_mpi",
]

WAIT = 500_000_000_000  # generous simulated deadline


@dataclass
class LatencyStats:
    """Half-round-trip latencies in ns."""

    samples: List[int]

    @property
    def mean_ns(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1000.0


def _run(cl: Cluster, programs) -> List:
    procs = [cl.env.process(p) for p in programs]
    cl.env.run(until=cl.env.all_of(procs))
    return [p.value for p in procs]


# ---------------------------------------------------------------- latency


def pingpong_photon(size: int, reps: int = 50, warmup: int = 5,
                    mode: str = "pwc",
                    config: Optional[PhotonConfig] = None,
                    params="ib-fdr", seed: int = 0) -> LatencyStats:
    """Photon ping-pong; ``mode``: "pwc" (put w/ remote completion),
    "put" (request-tracked os_put + wait, origin-observed), or "send"
    (eager ledger message)."""
    cl = build_cluster(2, params=params, seed=seed)
    ph = photon_init(cl, config)
    bufs = [ep.buffer(max(size, 8) * 2) for ep in ph]
    payload = bytes((i * 7) & 0xFF for i in range(size))
    cl[0].memory.write(bufs[0].addr, payload)
    samples: List[int] = []

    if mode == "put":
        # origin-observed: post_os_put + wait, no echo (osu_put-style);
        # samples are full completion times, not halved round trips.
        def origin(env):
            ep = ph[0]
            for it in range(warmup + reps):
                t0 = env.now
                rid = yield from ep.post_os_put(1, bufs[0].addr, size,
                                                bufs[1].addr, bufs[1].rkey)
                ok = yield from ep.wait(rid, timeout_ns=WAIT)
                if not ok:
                    raise SimulationError("os_put wait timed out")
                ep.free_request(rid)
                if it >= warmup:
                    samples.append(env.now - t0)

        _run(cl, [origin(cl.env)])
        return LatencyStats(samples)

    def side(rank: int):
        ep = ph[rank]
        other = 1 - rank
        env = cl.env
        for it in range(warmup + reps):
            if rank == 0:
                t0 = env.now
                yield from _photon_shot(ep, other, bufs, size, mode, it)
                yield from _photon_await(ep, other, bufs, size, mode, it)
                if it >= warmup:
                    samples.append((env.now - t0) // 2)
            else:
                yield from _photon_await(ep, other, bufs, size, mode, it)
                yield from _photon_shot(ep, other, bufs, size, mode, it)

    _run(cl, [side(0), side(1)])
    if size and mode != "put":
        got = cl[1].memory.read(bufs[1].addr, size)
        if got != payload:
            raise SimulationError("pingpong payload corrupted")
    return LatencyStats(samples)


def _photon_shot(ep, other, bufs, size, mode, it):
    if mode == "pwc":
        yield from ep.put_pwc(other, bufs[ep.rank].addr, size,
                              bufs[other].addr, bufs[other].rkey,
                              remote_cid=it)
    elif mode == "send":
        data = ep.memory.read(bufs[ep.rank].addr, size)
        yield from ep.send_pwc(other, data, remote_cid=it)
    else:
        raise SimulationError(f"unknown photon pingpong mode {mode!r}")


def _photon_await(ep, other, bufs, size, mode, it):
    if mode == "pwc":
        c = yield from ep.wait_completion("remote", timeout_ns=WAIT)
        if c is None or c.cid != it:
            raise SimulationError(f"pwc pingpong lost completion at {it}")
    elif mode == "send":
        m = yield from ep.wait_message(lambda s, c: c == it,
                                       timeout_ns=WAIT)
        if m is None:
            raise SimulationError(f"send pingpong lost message at {it}")
        if size:
            ep.memory.write(bufs[ep.rank].addr, m[2])


def pingpong_mpi(size: int, reps: int = 50, warmup: int = 5,
                 config: Optional[MPIConfig] = None,
                 params="ib-fdr", seed: int = 0) -> LatencyStats:
    """minimpi send/recv ping-pong (eager or rendezvous by size)."""
    cl = build_cluster(2, params=params, seed=seed)
    comms = mpi_init(cl, config)
    bufs = [cl[r].memory.alloc(max(size, 8) * 2) for r in range(2)]
    payload = bytes((i * 7) & 0xFF for i in range(size))
    cl[0].memory.write(bufs[0], payload)
    samples: List[int] = []

    def side(rank: int):
        comm = comms[rank]
        other = 1 - rank
        env = cl.env
        for it in range(warmup + reps):
            if rank == 0:
                t0 = env.now
                yield from comm.send(bufs[0], size, other, tag=it)
                yield from comm.recv(bufs[0], max(size, 8), other, tag=it)
                if it >= warmup:
                    samples.append((env.now - t0) // 2)
            else:
                yield from comm.recv(bufs[1], max(size, 8), other, tag=it)
                yield from comm.send(bufs[1], size, other, tag=it)

    _run(cl, [side(0), side(1)])
    if size:
        got = cl[1].memory.read(bufs[1], size)
        if got != payload:
            raise SimulationError("mpi pingpong payload corrupted")
    return LatencyStats(samples)


def pingpong_mpi_rma(size: int, reps: int = 50, warmup: int = 5,
                     params="ib-fdr", seed: int = 0) -> LatencyStats:
    """MPI-3 RMA put+flush latency (origin-observed, osu_put_latency-like)."""
    cl = build_cluster(2, params=params, seed=seed)
    comms = mpi_init(cl)
    wins = win_allocate(comms, max(size, 8))
    src = cl[0].memory.alloc(max(size, 8))
    samples: List[int] = []

    def origin(env):
        for it in range(warmup + reps):
            t0 = env.now
            yield from wins[0].put(src, size, rank=1)
            yield from wins[0].flush()
            if it >= warmup:
                samples.append(env.now - t0)

    _run(cl, [origin(cl.env)])
    return LatencyStats(samples)


# ---------------------------------------------------------------- bandwidth


def bandwidth_photon(size: int, count: int = 64, window: int = 16,
                     config: Optional[PhotonConfig] = None,
                     params="ib-fdr", seed: int = 0) -> float:
    """Unidirectional streaming put bandwidth, Gbit/s (osu_bw shape)."""
    cl = build_cluster(2, params=params, seed=seed,
                       mem_size=max(64, 4 * size * window // (1 << 20) + 64)
                       * (1 << 20))
    ph = photon_init(cl, config)
    src = ph[0].buffer(size * window)
    dst = ph[1].buffer(size * window)
    result = {}

    def sender(env):
        # warm the pipe + registrations
        yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                 local_cid=0)
        c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
        t0 = env.now
        done = 0
        inflight = 0
        issued = 0
        while done < count:
            while issued < count and inflight < window:
                off = (issued % window) * size
                yield from ph[0].put_pwc(1, src.addr + off, size,
                                         dst.addr + off, dst.rkey,
                                         local_cid=issued + 1)
                issued += 1
                inflight += 1
            c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
            if c is None:
                raise SimulationError("bandwidth stream stalled")
            done += 1
            inflight -= 1
        result["gbps"] = to_gbps(size * count, env.now - t0)

    _run(cl, [sender(cl.env)])
    return result["gbps"]


def bandwidth_mpi(size: int, count: int = 64, window: int = 16,
                  config: Optional[MPIConfig] = None,
                  params="ib-fdr", seed: int = 0) -> float:
    """Unidirectional isend/irecv streaming bandwidth, Gbit/s."""
    cl = build_cluster(2, params=params, seed=seed,
                       mem_size=max(64, 4 * size * window // (1 << 20) + 64)
                       * (1 << 20))
    comms = mpi_init(cl, config)
    src = cl[0].memory.alloc(size * window)
    dst = cl[1].memory.alloc(size * window)
    result = {}

    def sender(env):
        yield from comms[0].send(src, size, 1, tag=9999)
        t0 = env.now
        issued = 0
        reqs = []
        while issued < count:
            while issued < count and len(reqs) < window:
                off = (issued % window) * size
                r = yield from comms[0].isend(src + off, size, 1, tag=issued)
                reqs.append(r)
                issued += 1
            # wait for the oldest to retire (keeps the window full)
            yield from comms[0].wait(reqs.pop(0))
        yield from comms[0].waitall(reqs)
        # final handshake: all data at the receiver
        yield from comms[0].recv(src, 8, src=1, tag=100_000)
        result["elapsed"] = env.now - t0

    def receiver(env):
        yield from comms[1].recv(dst, size, 0, tag=9999)
        reqs = []
        for i in range(count):
            off = (i % window) * size
            r = yield from comms[1].irecv(dst + off, size, 0, tag=i)
            reqs.append(r)
            if len(reqs) >= window:
                yield from comms[1].wait(reqs.pop(0))
        yield from comms[1].waitall(reqs)
        yield from comms[1].send(dst, 8, 0, tag=100_000)

    _run(cl, [sender(cl.env), receiver(cl.env)])
    return to_gbps(size * count, result["elapsed"])


# ---------------------------------------------------------------- msg rate


def msgrate_photon(size: int = 16, count: int = 500,
                   config: Optional[PhotonConfig] = None,
                   params="ib-fdr", seed: int = 0) -> float:
    """Small-message injection rate via send_pwc, messages/second.  The
    sender never waits: its in-flight bound is the eager ring's credits."""
    cl = build_cluster(2, params=params, seed=seed)
    ph = photon_init(cl, config)
    payload = bytes(size)
    result = {}

    def sender(env):
        yield from ph[0].send_pwc(1, payload, remote_cid=1 << 33)
        for i in range(count):
            yield from ph[0].send_pwc(1, payload, remote_cid=i)

    def receiver(env):
        m = yield from ph[1].wait_message(timeout_ns=WAIT)
        t0 = env.now
        got = 0
        while got < count:
            m = yield from ph[1].wait_message(timeout_ns=WAIT)
            if m is None:
                raise SimulationError("msgrate receiver stalled")
            got += 1
        result["recv_elapsed"] = env.now - t0

    _run(cl, [sender(cl.env), receiver(cl.env)])
    return count / (result["recv_elapsed"] / 1e9)


def msgrate_mpi(size: int = 16, count: int = 500, window: int = 64,
                config: Optional[MPIConfig] = None,
                params="ib-fdr", seed: int = 0) -> float:
    """Small-message rate via isend/irecv windows, messages/second."""
    cl = build_cluster(2, params=params, seed=seed)
    comms = mpi_init(cl, config)
    src = cl[0].memory.alloc(max(size, 8))
    dst = cl[1].memory.alloc(max(size, 8) * window)
    result = {}

    def sender(env):
        yield from comms[0].send(src, size, 1, tag=999_999)
        reqs = []
        for i in range(count):
            r = yield from comms[0].isend(src, size, 1, tag=7)
            reqs.append(r)
            if len(reqs) >= window:
                yield from comms[0].wait(reqs.pop(0))
        yield from comms[0].waitall(reqs)

    def receiver(env):
        yield from comms[1].recv(dst, max(size, 8), 0, tag=999_999)
        t0 = env.now
        reqs = []
        done = 0
        for i in range(count):
            off = (i % window) * max(size, 8)
            r = yield from comms[1].irecv(dst + off, max(size, 8), 0, tag=7)
            reqs.append(r)
            if len(reqs) >= window:
                yield from comms[1].wait(reqs.pop(0))
                done += 1
        yield from comms[1].waitall(reqs)
        result["recv_elapsed"] = env.now - t0

    _run(cl, [sender(cl.env), receiver(cl.env)])
    return count / (result["recv_elapsed"] / 1e9)


# ---------------------------------------------------------------- overlap


def overlap_photon(size: int, compute_ns: int,
                   params="ib-fdr", seed: int = 0) -> int:
    """Receiver-side completion time when the receiver computes first.

    Sender puts ``size`` bytes at t≈0 (one-sided, pre-exposed buffer);
    receiver computes for ``compute_ns`` then waits for the completion.
    Returns the receiver's total time.  One-sided transfers progress
    during the compute, so total ≈ max(compute, transfer).
    """
    cl = build_cluster(2, params=params, seed=seed,
                       mem_size=max(64 * (1 << 20), 4 * size))
    ph = photon_init(cl)
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    result = {}

    def sender(env):
        yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                 remote_cid=1)

    def receiver(env):
        t0 = env.now
        yield env.timeout(compute_ns)  # busy computing: no progress calls
        c = yield from ph[1].wait_completion("remote", timeout_ns=WAIT)
        if c is None:
            raise SimulationError("overlap receiver stalled")
        result["total"] = env.now - t0

    _run(cl, [sender(cl.env), receiver(cl.env)])
    return result["total"]


def overlap_mpi(size: int, compute_ns: int,
                config: Optional[MPIConfig] = None,
                params="ib-fdr", seed: int = 0) -> int:
    """Two-sided counterpart: irecv posted, compute, then wait.

    For rendezvous sizes the transfer cannot start until the receiver's
    progress engine sees the RTS — i.e. after the compute — so total ≈
    compute + transfer.
    """
    cl = build_cluster(2, params=params, seed=seed,
                       mem_size=max(64 * (1 << 20), 4 * size))
    comms = mpi_init(cl, config)
    src = cl[0].memory.alloc(size)
    dst = cl[1].memory.alloc(size)
    result = {}

    def sender(env):
        yield from comms[0].send(src, size, 1, tag=1)

    def receiver(env):
        t0 = env.now
        req = yield from comms[1].irecv(dst, size, 0, tag=1)
        yield env.timeout(compute_ns)  # busy computing: no progress calls
        yield from comms[1].wait(req)
        result["total"] = env.now - t0

    _run(cl, [sender(cl.env), receiver(cl.env)])
    return result["total"]
