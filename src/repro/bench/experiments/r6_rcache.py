"""R6 — registration-cost table (pin cost and the registration cache).

Mean put latency over a working set of distinct buffers, three ways:

- *uncached*: registration cache disabled — every operation pins and
  unpins (the naive baseline);
- *cold*: cache enabled, first pass over the working set — every buffer
  misses once;
- *warm*: second pass over the same buffers — pure hits.

Expected shape: warm ≈ raw put latency; cold adds the pin cost once per
buffer; uncached pays pin+unpin on every single operation.  This is the
cost Photon's buffer API amortises for runtimes.

Two further sections stress the cache machinery itself:

- *occupancy sweep*: warm-hit lookup probes per hit at growing cache
  occupancy — the interval index should keep this flat (O(log n) bisect
  plus a bounded candidate probe), not linear in entries;
- *eviction under load*: a working set larger than the cache with many
  operations in flight — eviction of in-use registrations must defer
  (never deregister under an active WR), payloads must arrive intact,
  and the reg/dereg ledger must balance after a flush.
"""

from __future__ import annotations

from ...cluster import build_cluster
from ...photon import PhotonConfig, photon_init
from ...photon.rcache import assert_reg_balance
from ..result import ExperimentResult

SIZE = 16384  # 4 pages per buffer


def _alloc_gapped(node, n, size):
    """Page allocations separated by pad bytes so ranges never touch
    (keeps merge-on-miss from collapsing the working set)."""
    addrs = []
    for _ in range(n):
        addrs.append(node.memory.alloc(size, align=4096))
        node.memory.alloc(64)
    return addrs


def _put_pass(ep, bufs, dst_buf, passes: int):
    """Average per-put time over `passes` passes of the working set."""
    env = ep.env
    times = []
    for _ in range(passes):
        t0 = env.now
        for addr in bufs:
            rid = yield from ep.post_os_put(1, addr, SIZE, dst_buf.addr,
                                            dst_buf.rkey)
            yield from ep.wait(rid, timeout_ns=10 ** 12)
            ep.free_request(rid)
        times.append((env.now - t0) / len(bufs))
    return times


def _measure(n_buffers: int, enabled: bool):
    cfg = PhotonConfig(rcache_enabled=enabled,
                       rcache_capacity=max(n_buffers * 2, 16))
    cl = build_cluster(2, params="ib-fdr")
    ph = photon_init(cl, cfg)
    # working set of *unregistered* buffers (plain allocations)
    bufs = _alloc_gapped(cl[0], n_buffers, SIZE)
    dst = ph[1].buffer(SIZE)
    out = {}

    def prog(env):
        times = yield from _put_pass(ph[0], bufs, dst, passes=2)
        out["cold"], out["warm"] = times[0], times[1]

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    c = cl.scope(0)  # rank 0 runs only Photon: its cache's counts
    out["hits"] = c.get("photon.rcache.hits")
    out["misses"] = c.get("photon.rcache.misses")
    return out


def _occupancy_probe(occupancy: int) -> float:
    """Fill the cache to ``occupancy`` live entries, then measure lookup
    probes per warm hit over a full pass."""
    cfg = PhotonConfig(rcache_capacity=occupancy * 2)
    cl = build_cluster(2, params="ib-fdr")
    ph = photon_init(cl, cfg)
    rcache = ph[0].rcache
    count = cl.scope(0).get
    bufs = _alloc_gapped(cl[0], occupancy, 4096)
    out = {}

    def prog(env):
        for a in bufs:  # cold pass: fill to `occupancy` entries
            mr = yield from rcache.acquire(a, 4096)
            yield from rcache.release(mr)
        probes0 = count("photon.rcache.lookup_probes")
        hits0 = count("photon.rcache.hits")
        for a in bufs:  # warm pass: every acquire is a hit
            mr = yield from rcache.acquire(a, 4096)
            yield from rcache.release(mr)
        out["probes_per_hit"] = (
            (count("photon.rcache.lookup_probes") - probes0)
            / (count("photon.rcache.hits") - hits0))
        out["occupancy"] = rcache.size

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    assert out["occupancy"] == occupancy
    return out["probes_per_hit"]


def _eviction_under_load(n_ops: int, capacity: int):
    """Post ``n_ops`` puts from distinct buffers without waiting, with a
    cache far smaller than the in-flight window: evictions must defer."""
    cfg = PhotonConfig(rcache_capacity=capacity)
    cl = build_cluster(2, params="ib-fdr")
    ph = photon_init(cl, cfg)
    size = 4096
    srcs = _alloc_gapped(cl[0], n_ops, size)
    for i, a in enumerate(srcs):
        cl[0].memory.write(a, bytes([i % 251]) * size)
    dst = ph[1].buffer(size * n_ops)
    out = {}

    def prog(env):
        rids = []
        for i, a in enumerate(srcs):  # all in flight at once
            rid = yield from ph[0].post_os_put(1, a, size,
                                               dst.addr + i * size, dst.rkey)
            rids.append(rid)
        yield from ph[0].wait_all(rids, timeout_ns=10 ** 12)
        for rid in rids:
            ph[0].free_request(rid)
        out["intact"] = all(
            cl[1].memory.read(dst.addr + i * size, size)
            == bytes([i % 251]) * size for i in range(n_ops))
        c = cl.scope(0)
        out["deferred"] = c.get("photon.rcache.deferred_evictions")
        out["peak_mb"] = c.get("photon.rcache.pinned_bytes_peak") / 2 ** 20
        yield env.timeout(10 ** 9)  # drain spawned releases/deregs
        for ep in ph:
            yield from ep.rcache.flush()

    p = cl.env.process(prog(cl.env))
    cl.env.run(until=p)
    try:
        assert_reg_balance(cl.counters,
                           [cl[i].context for i in range(cl.n)])
        out["balanced"] = True
    except AssertionError:
        out["balanced"] = False
    return out


def run(quick: bool = True) -> ExperimentResult:
    n_buffers = 8 if quick else 32
    cached = _measure(n_buffers, enabled=True)
    uncached = _measure(n_buffers, enabled=False)
    occupancies = [16, 256] if quick else [16, 256, 2048]
    probes = {n: _occupancy_probe(n) for n in occupancies}
    load = _eviction_under_load(n_ops=16 if quick else 48, capacity=4)
    rows = [
        ["uncached (pin every op)", uncached["cold"] / 1000,
         uncached["warm"] / 1000, uncached["hits"], uncached["misses"]],
        ["rcache cold pass", cached["cold"] / 1000, "-",
         "-", "-"],
        ["rcache warm pass", "-", cached["warm"] / 1000,
         cached["hits"], cached["misses"]],
    ]
    for n in occupancies:
        rows.append([f"warm lookup @ {n} entries (probes/hit)", "-",
                     round(probes[n], 3), "-", "-"])
    rows.append(["eviction under load (deferred evictions)", "-",
                 load["deferred"], "-", "-"])
    checks = {
        "warm (cached) puts are faster than cold puts":
            cached["warm"] < cached["cold"],
        "warm cached puts beat the uncached baseline":
            cached["warm"] < uncached["warm"],
        "cache hit count equals the second-pass put count":
            cached["hits"] == n_buffers,
        "uncached mode never hits":
            uncached["hits"] == 0,
        "pin cost dominates the cold/warm gap (>= 1.3x)":
            cached["cold"] >= 1.3 * cached["warm"],
        "warm-hit lookup cost is flat in occupancy (no linear scan)":
            probes[occupancies[-1]] <= max(2.0, 1.5 * probes[occupancies[0]]),
        "eviction under load defers in-use registrations":
            load["deferred"] > 0,
        "payloads intact across deferred evictions":
            load["intact"],
        "reg/dereg ledger balances after flush (no pin leak)":
            load["balanced"],
    }
    return ExperimentResult(
        exp_id="R6",
        title=f"registration cache: mean 16KiB put latency (us), "
              f"{n_buffers}-buffer working set; lookup scaling + "
              f"eviction under load",
        headers=["configuration", "pass 1 (cold)", "pass 2 (warm)",
                 "hits", "misses"],
        rows=rows,
        checks=checks)
