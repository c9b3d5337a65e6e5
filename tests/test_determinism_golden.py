"""Golden-trace determinism: the optimized hot path must be a no-op in
simulated time.

The wall-clock work in this repo (zero-copy payload plumbing, event-kernel
fast paths, the clean-fabric fast path) is only admissible if it changes
*nothing* observable in simulation: same event trace, same counters, same
final clock, same experiment tables, on clean **and** lossy fabrics.

The ``GOLDEN`` fingerprints below (``python tests/test_determinism_golden.py``
prints fresh ones) are asserted verbatim.  Any change to event ordering,
payload routing, RNG consumption, or timing arithmetic shows up as a hash
mismatch.  They were re-baselined once on purpose, in a commit of their own,
when blocking waits stopped ticking through idle polls and began to park on
the endpoint doorbell — that moves when every waiter sees every arrival
(CHANGES.md, PR 15).
"""

from __future__ import annotations

import hashlib

from repro.bench.experiments import r1_latency, r4_ledger, r17_faults
from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import PhotonConfig, photon_init
from repro.sim.core import SimulationError

WAIT = 10 ** 12


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _result_fingerprint(res) -> str:
    """Hash everything an experiment reports: id, headers, every numeric
    cell, and every shape-check verdict."""
    return _hash((res.exp_id, tuple(res.headers),
                  tuple(tuple(row) for row in res.rows),
                  tuple(sorted(res.checks.items()))))


def _trace_fingerprint(cl) -> str:
    """Hash the full event trace, counters, and the final simulated clock."""
    recs = tuple((r.time, r.category, r.fields) for r in cl.tracer.records)
    return _hash((cl.env.now, recs,
                  tuple(sorted(cl.counters.snapshot().items()))))


# --------------------------------------------------------------------------
# workloads (trace-enabled, exercising photon + minimpi data paths)
# --------------------------------------------------------------------------

def _photon_clean_workload(chaos_hook=None):
    """Clean fabric: PWC puts with completions, then an eager send flood.

    ``chaos_hook(cl)`` (used by the chaos suite) runs before the workload
    starts — an armed-but-empty chaos controller must keep the trace
    bit-identical to the golden hash.
    """
    cl = build_cluster(2, params="ib-fdr", seed=3, trace=True)
    if chaos_hook is not None:
        chaos_hook(cl)
    ph = photon_init(cl)
    size = 8192
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    pattern = bytes(range(256)) * (size // 256)
    cl[0].memory.write(src.addr, pattern)

    def sender(env):
        for i in range(5):
            yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                     local_cid=i + 1, remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
            if c is None or not c.ok:
                raise SimulationError(f"clean put {i} failed")
        for i in range(20):
            yield from ph[0].send_pwc(1, bytes([i]) * 64, remote_cid=100 + i)

    def receiver(env):
        for _ in range(5):
            c = yield from ph[1].wait_completion("remote", timeout_ns=WAIT)
            if c is None:
                raise SimulationError("receiver starved")
        for _ in range(20):
            m = yield from ph[1].wait_message(timeout_ns=WAIT)
            if m is None:
                raise SimulationError("eager flood stalled")

    procs = [cl.env.process(sender(cl.env)), cl.env.process(receiver(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    if bytes(cl[1].memory.read(dst.addr, size)) != pattern:
        raise SimulationError("clean payload corrupted")
    return cl


def _mpi_clean_workload():
    """Clean fabric: minimpi eager and rendezvous round trips."""
    cl = build_cluster(2, params="ib-fdr", seed=5, trace=True)
    mm = mpi_init(cl)
    small, big = 64, 32768
    src_s = cl[0].memory.alloc(small)
    src_b = cl[0].memory.alloc(big)
    dst_s = cl[1].memory.alloc(small)
    dst_b = cl[1].memory.alloc(big)
    cl[0].memory.write(src_s, b"\xa5" * small)
    cl[0].memory.write(src_b, bytes(range(256)) * (big // 256))

    def sender(env):
        for tag, (addr, size) in enumerate([(src_s, small), (src_b, big)]):
            req = yield from mm[0].isend(addr, size, 1, tag=tag)
            ok = yield from mm[0].engine.wait(req, timeout_ns=WAIT)
            if not ok or req.failed:
                raise SimulationError(f"mpi clean send tag={tag} failed")

    def receiver(env):
        for tag, (addr, size) in enumerate([(dst_s, small), (dst_b, big)]):
            req = yield from mm[1].irecv(addr, size, src=0, tag=tag)
            ok = yield from mm[1].engine.wait(req, timeout_ns=WAIT)
            if not ok or req.failed:
                raise SimulationError(f"mpi clean recv tag={tag} failed")

    procs = [cl.env.process(sender(cl.env)), cl.env.process(receiver(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    if bytes(cl[1].memory.read(dst_b, big)) != bytes(range(256)) * (big // 256):
        raise SimulationError("mpi clean payload corrupted")
    return cl


def _photon_lossy_workload(chaos_hook=None):
    """Lossy fabric, NIC ARQ off: every drop recovered by Photon replay."""
    cl = build_cluster(2, params="ib-fdr", seed=7, trace=True,
                       link__loss_mode="lossy", link__drop_rate=0.02,
                       nic__transport_retries=0)
    if chaos_hook is not None:
        chaos_hook(cl)
    ph = photon_init(cl, PhotonConfig(max_op_retries=5))
    size = 16384
    src = ph[0].buffer(size)
    dst = ph[1].buffer(size)
    pattern = bytes(range(256)) * (size // 256)
    cl[0].memory.write(src.addr, pattern)

    def sender(env):
        for i in range(6):
            yield from ph[0].put_pwc(1, src.addr, size, dst.addr, dst.rkey,
                                     local_cid=i + 1, remote_cid=i + 1)
            c = yield from ph[0].wait_completion("local", timeout_ns=WAIT)
            if c is None or not c.ok:
                raise SimulationError(f"lossy put {i} failed")

    def receiver(env):
        for _ in range(6):
            c = yield from ph[1].wait_completion("remote", timeout_ns=WAIT)
            if c is None:
                raise SimulationError("lossy receiver starved")

    procs = [cl.env.process(sender(cl.env)), cl.env.process(receiver(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    if bytes(cl[1].memory.read(dst.addr, size)) != pattern:
        raise SimulationError("lossy payload corrupted")
    return cl


def _mpi_lossy_workload():
    """Lossy fabric, NIC ARQ off: minimpi resend/refetch error path."""
    cl = build_cluster(2, params="ib-fdr", seed=11, trace=True,
                       link__loss_mode="lossy", link__drop_rate=0.02,
                       nic__transport_retries=0)
    mm = mpi_init(cl)
    size = 16384
    src = cl[0].memory.alloc(size)
    dst = cl[1].memory.alloc(size)
    cl[0].memory.write(src, bytes(range(256)) * (size // 256))

    def sender(env):
        for i in range(4):
            req = yield from mm[0].isend(src, size, 1, tag=i)
            ok = yield from mm[0].engine.wait(req, timeout_ns=WAIT)
            if not ok or req.failed:
                raise SimulationError(f"mpi lossy send {i} failed")

    def receiver(env):
        for i in range(4):
            req = yield from mm[1].irecv(dst, size, src=0, tag=i)
            ok = yield from mm[1].engine.wait(req, timeout_ns=WAIT)
            if not ok or req.failed:
                raise SimulationError(f"mpi lossy recv {i} failed")

    procs = [cl.env.process(sender(cl.env)), cl.env.process(receiver(cl.env))]
    cl.env.run(until=cl.env.all_of(procs))
    return cl


# --------------------------------------------------------------------------
# golden fingerprints — generated from the pre-optimization tree
# --------------------------------------------------------------------------

GOLDEN = {
    "r1_table":
        "e332906b9e6104990432d9a934074bd422118feabd374524c141c4dd7b5701a5",
    "r4_table":
        "b42c992552f71dfb6f0dc7d1e19fb0c946dbd6a95cc654f39998285789bdc033",
    "r17_table":
        "3353f0aa9ddc20b73668bd9795e95bb519a6c00bbc4fee6de58f90f31291f7c3",
    "photon_clean_trace":
        "9a45ab84faa38a7a2d1a19ef2ee489fa612b389f81b462c4ecaac7bd1d040cf2",
    "mpi_clean_trace":
        "70d177607098e8da6e22d19de0c9f655cd8db2a742f0c88343e952856829b32a",
    "photon_lossy_trace":
        "1b74219f2ecf9ad211a052256792a729b964bcc8dce7440fe6a6af941a1871b3",
    "mpi_lossy_trace":
        "e3a7b66d6442455ae090f7e792313f9a9276523b09df26c2370ddc5d96061db1",
}


def _fingerprints() -> dict:
    return {
        "r1_table": _result_fingerprint(r1_latency.run(quick=True)),
        "r4_table": _result_fingerprint(r4_ledger.run(quick=True)),
        "r17_table": _result_fingerprint(r17_faults.run(quick=True)),
        "photon_clean_trace": _trace_fingerprint(_photon_clean_workload()),
        "mpi_clean_trace": _trace_fingerprint(_mpi_clean_workload()),
        "photon_lossy_trace": _trace_fingerprint(_photon_lossy_workload()),
        "mpi_lossy_trace": _trace_fingerprint(_mpi_lossy_workload()),
    }


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------

def test_r1_table_matches_golden():
    assert _result_fingerprint(r1_latency.run(quick=True)) == \
        GOLDEN["r1_table"]


def test_r4_table_matches_golden():
    assert _result_fingerprint(r4_ledger.run(quick=True)) == \
        GOLDEN["r4_table"]


def test_r17_table_matches_golden():
    """Faulty fabric included: the lossy rows replay real drops."""
    assert _result_fingerprint(r17_faults.run(quick=True)) == \
        GOLDEN["r17_table"]


def test_clean_traces_match_golden():
    assert _trace_fingerprint(_photon_clean_workload()) == \
        GOLDEN["photon_clean_trace"]
    assert _trace_fingerprint(_mpi_clean_workload()) == \
        GOLDEN["mpi_clean_trace"]


def test_lossy_traces_match_golden():
    assert _trace_fingerprint(_photon_lossy_workload()) == \
        GOLDEN["photon_lossy_trace"]
    assert _trace_fingerprint(_mpi_lossy_workload()) == \
        GOLDEN["mpi_lossy_trace"]


def test_run_twice_identical():
    """Same seed, same workload, back to back in one interpreter: the event
    trace must be bit-identical (no hidden global state, no id()/hash()
    ordering, no free-list identity leaks)."""
    assert _trace_fingerprint(_photon_clean_workload()) == \
        _trace_fingerprint(_photon_clean_workload())
    assert _trace_fingerprint(_photon_lossy_workload()) == \
        _trace_fingerprint(_photon_lossy_workload())


if __name__ == "__main__":  # regenerate the fingerprints
    import json
    print(json.dumps(_fingerprints(), indent=2))
