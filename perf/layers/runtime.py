"""runtime: parcel codec, local dispatch, active-message round trip."""

from __future__ import annotations

import time

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.runtime import ActionRegistry, Parcel, build_runtime

CODEC_OPS = 20_000
DISPATCHES = 3_000
INVOKES = 300
PAYLOAD = b"p" * 16
WAIT_NS = 10 ** 12


def parcel_codec():
    """Parcel.encode -> Parcel.decode on the 40-byte AM header, no sim."""
    parcel = Parcel(action=3, src=1, payload=PAYLOAD, cid=77, flags=1)
    t0 = time.perf_counter()
    for _ in range(CODEC_OPS):
        out = Parcel.decode(parcel.encode())
    dt = time.perf_counter() - t0
    if out != parcel:
        raise RuntimeError("parcel codec round trip changed the parcel")
    return CODEC_OPS, dt


def parcel_dispatch():
    """Self-sends through Runtime.send -> local queue -> progress():
    registry lookup, handler cost charge, handler call — no wire."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    reg = ActionRegistry()
    seen = [0]

    def handler(rt, src, payload):
        seen[0] += 1

    reg.register("noop", handler)
    rt = build_runtime(cl, reg, "photon", photon=photon_init(cl))[0]

    def proc():
        for _ in range(DISPATCHES):
            yield from rt.send(0, "noop", PAYLOAD)
            yield from rt.progress()

    done = cl.env.process(proc())
    t0 = time.perf_counter()
    cl.env.run(until=done)
    dt = time.perf_counter() - t0
    if seen[0] != DISPATCHES:
        raise RuntimeError(f"dispatched {seen[0]} of {DISPATCHES} parcels")
    return DISPATCHES, dt


def am_invoke_rt():
    """Window-1 echo invoke over the Photon transport, coalescing off:
    credits, correlation ids, dedup window, reply routing."""
    cl = build_cluster(2, "ib-fdr", seed=1)
    reg = ActionRegistry()
    reg.register("echo", lambda rt, src, payload: payload)
    rts = build_runtime(cl, reg, "photon", photon=photon_init(cl), am=True,
                        coalesce=False)
    state = {"done": False}

    def client():
        for _ in range(INVOKES):
            fut = yield from rts[0].invoke(1, "echo", PAYLOAD)
            reply = yield from fut.wait(rts[0], WAIT_NS)
            if reply != PAYLOAD:
                raise RuntimeError("echo reply differs from request")
        state["done"] = True

    def server():
        yield from rts[1].process_until(lambda: state["done"], WAIT_NS)

    procs = [cl.env.process(client()), cl.env.process(server())]
    t0 = time.perf_counter()
    cl.env.run(until=cl.env.all_of(procs))
    return INVOKES, time.perf_counter() - t0


BENCHES = {
    "runtime.parcel_codec_ops_per_s": parcel_codec,
    "runtime.parcel_dispatch_per_s": parcel_dispatch,
    "runtime.am_invoke_rt_per_s": am_invoke_rt,
}
