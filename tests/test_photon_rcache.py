"""Unit/integration tests for the registration cache."""

import pytest

from repro.cluster import build_cluster
from repro.photon.api import photon_init
from repro.photon.config import PhotonConfig
from repro.photon.rcache import RegistrationCache, assert_reg_balance
from repro.verbs.enums import Access


def setup(capacity=4, enabled=True):
    cl = build_cluster(2)
    node = cl[0]
    pd = node.context.alloc_pd()
    cache = RegistrationCache(node.context, pd, capacity=capacity,
                              enabled=enabled)
    return cl, node, cache


def alloc_gapped(node, n, size=4096):
    """``n`` page allocations separated by pad bytes so adjacent ranges
    never touch (keeps merge-on-miss out of LRU/eviction tests)."""
    addrs = []
    for _ in range(n):
        addrs.append(node.memory.alloc(size, align=4096))
        node.memory.alloc(64)  # spacer: next aligned alloc is non-adjacent
    return addrs


def count(cl, name):
    """A ``photon.rcache.*`` counter in rank 0's scope, where the cache
    under test counts."""
    return cl.scope(0).get(f"photon.rcache.{name}")


def run(cl, gen):
    p = cl.env.process(gen)
    return cl.env.run(until=p)


def test_miss_then_hit():
    cl, node, cache = setup()
    addr = node.memory.alloc(8192)

    def prog(env):
        t0 = env.now
        mr1 = yield from cache.acquire(addr, 8192)
        t_miss = env.now - t0
        t0 = env.now
        mr2 = yield from cache.acquire(addr, 8192)
        t_hit = env.now - t0
        return mr1, mr2, t_miss, t_hit

    mr1, mr2, t_miss, t_hit = run(cl, prog(cl.env))
    assert mr1 is mr2
    assert t_miss > 0
    assert t_hit == 0
    assert count(cl, "hits") == 1 and count(cl, "misses") == 1


def test_subrange_hits_covering_registration():
    cl, node, cache = setup()
    addr = node.memory.alloc(16384)

    def prog(env):
        yield from cache.acquire(addr, 16384)
        mr = yield from cache.acquire(addr + 1000, 512)
        return mr

    mr = run(cl, prog(cl.env))
    assert mr.covers(addr + 1000, 512)
    assert count(cl, "hits") == 1


def test_lru_eviction_deregisters():
    cl, node, cache = setup(capacity=2)
    addrs = alloc_gapped(node, 3)

    def prog(env):
        for a in addrs:
            mr = yield from cache.acquire(a, 4096)
            yield from cache.release(mr)

    run(cl, prog(cl.env))
    assert cache.size == 2
    assert count(cl, "evictions") == 1
    assert cl.counters.get("verbs.dereg_mr") == 1


def test_lru_order_respects_recency():
    cl, node, cache = setup(capacity=2)
    a, b, c = alloc_gapped(node, 3)

    def prog(env):
        for addr in (a, b, a, c, a):  # refresh a before c evicts b
            mr = yield from cache.acquire(addr, 4096)
            yield from cache.release(mr)

    run(cl, prog(cl.env))
    # a stayed cached: 2 hits (refresh + final); b/c one miss each
    assert count(cl, "hits") == 2
    assert count(cl, "misses") == 3


def test_merge_adjacent_registrations():
    """Adjacent registrations coalesce into one covering entry, so the
    union range becomes a cache hit without a third registration."""
    cl, node, cache = setup(capacity=8)
    a = node.memory.alloc(4096, align=4096)
    b = node.memory.alloc(4096, align=4096)  # directly adjacent
    assert b == a + 4096

    def prog(env):
        mr1 = yield from cache.acquire(a, 4096)
        yield from cache.release(mr1)
        mr2 = yield from cache.acquire(b, 4096)
        yield from cache.release(mr2)
        mr3 = yield from cache.acquire(a, 8192)  # whole span: must hit
        yield from cache.release(mr3)
        return mr2, mr3

    mr2, mr3 = run(cl, prog(cl.env))
    assert cache.size == 1
    assert count(cl, "merges") == 1
    assert mr2 is mr3 and mr2.covers(a, 8192)
    assert count(cl, "hits") == 1 and count(cl, "misses") == 2


def test_eviction_defers_while_referenced():
    """Regression: eviction must never deregister an MR that an in-flight
    operation still holds — it parks on the pending-evict list instead."""
    cl, node, cache = setup(capacity=1)
    a, b = alloc_gapped(node, 2)

    def prog(env):
        mr_a = yield from cache.acquire(a, 4096)  # held: no release yet
        yield from cache.acquire(b, 4096)         # evicts a -> deferred
        assert mr_a.valid, "evicted a referenced MR"
        assert cache.pending_evictions == 1
        assert count(cl, "deferred_evictions") == 1
        assert cl.counters.get("verbs.dereg_mr") == 0
        yield from cache.release(mr_a)            # last ref: dereg now
        return mr_a

    mr_a = run(cl, prog(cl.env))
    assert not mr_a.valid
    assert cache.pending_evictions == 0
    assert cl.counters.get("verbs.dereg_mr") == 1


def test_prune_invalid_entries():
    """Entries whose MR was invalidated behind the cache's back (QP
    flush/reset) are pruned on lookup instead of eating capacity."""
    cl, node, cache = setup(capacity=4)
    addr = node.memory.alloc(4096)

    def prog(env):
        mr = yield from cache.acquire(addr, 4096)
        yield from cache.release(mr)
        mr.invalidate()
        mr2 = yield from cache.acquire(addr, 4096)  # miss: stale pruned
        yield from cache.release(mr2)
        return mr2

    mr2 = run(cl, prog(cl.env))
    assert mr2.valid
    assert count(cl, "invalid_prunes") == 1
    assert count(cl, "hits") == 0 and count(cl, "misses") == 2
    assert cache.size == 1


def test_disabled_cache_registers_every_time():
    cl, node, cache = setup(enabled=False)
    addr = node.memory.alloc(4096)

    def prog(env):
        mr1 = yield from cache.acquire(addr, 4096)
        yield from cache.release(mr1)
        t0 = env.now
        mr2 = yield from cache.acquire(addr, 4096)
        cost2 = env.now - t0
        return mr1, mr2, cost2

    mr1, mr2, cost2 = run(cl, prog(cl.env))
    assert mr1 is not mr2
    assert not mr1.valid  # released = deregistered
    assert cost2 > 0
    assert count(cl, "hits") == 0 and count(cl, "misses") == 2


def test_release_with_cache_enabled_keeps_registration():
    cl, node, cache = setup()
    addr = node.memory.alloc(4096)

    def prog(env):
        mr = yield from cache.acquire(addr, 4096)
        yield from cache.release(mr)
        return mr

    mr = run(cl, prog(cl.env))
    assert mr.valid
    assert cache.size == 1


def test_flush_deregisters_all():
    cl, node, cache = setup(capacity=8)
    addrs = alloc_gapped(node, 3)

    def prog(env):
        for a in addrs:
            mr = yield from cache.acquire(a, 4096)
            yield from cache.release(mr)
        yield from cache.flush()

    run(cl, prog(cl.env))
    assert cache.size == 0
    assert cl.counters.get("verbs.dereg_mr") == 3


def test_insert_enforces_caps():
    """Seeding via insert() obeys the entry cap; pinned entries survive."""
    cl, node, cache = setup(capacity=2)
    addrs = alloc_gapped(node, 3)
    mrs = [node.context.reg_mr_sync(cache.pd, a, 4096, Access.ALL)
           for a in addrs]
    cache.insert(mrs[0], pinned=True)
    cache.insert(mrs[1])
    cache.insert(mrs[2])
    assert cache.size == 2
    assert count(cl, "evictions") == 1
    assert mrs[0].valid, "pinned entry must never be evicted"
    # the victim's dereg is a spawned, timed process: nothing ran yet
    assert mrs[1].valid and cl.counters.get("verbs.dereg_mr") == 0
    cl.env.run(until=10_000_000)
    assert not mrs[1].valid
    assert_reg_balance(cl.counters, [cl[i].context for i in range(cl.n)])


def test_acquire_release_balance_property():
    """At shutdown, every registration was deregistered or is still live
    in the cache: reg_mr == dereg_mr + live (both cache modes)."""
    for enabled in (True, False):
        cl, node, cache = setup(capacity=2, enabled=enabled)
        addrs = alloc_gapped(node, 5)

        def prog(env):
            held = []
            for i, a in enumerate(addrs):
                mr = yield from cache.acquire(a, 4096)
                if i % 2 == 0:
                    held.append(mr)  # settle later, as an op would
                else:
                    yield from cache.release(mr)
            for mr in held:
                cache.release_async(mr)
            yield env.timeout(1_000_000)  # drain spawned deregs
            yield from cache.flush()

        run(cl, prog(cl.env))
        reg = cl.counters.get("verbs.reg_mr")
        dereg = cl.counters.get("verbs.dereg_mr")
        assert reg > 0
        assert reg - cache.live_regs == dereg, f"enabled={enabled}"
        assert_reg_balance(cl.counters, [cl[i].context for i in range(cl.n)])


def test_unregister_buffer_both_modes():
    """unregister_buffer actually retires the registration: cached entry
    evicted+deregistered when enabled, immediate dereg when disabled."""
    for enabled in (True, False):
        cl = build_cluster(2)
        cfg = PhotonConfig(rcache_enabled=enabled)
        ph = photon_init(cl, cfg)
        before = cl.counters.get("verbs.dereg_mr")
        buf = ph[0].buffer(4096)

        def prog(env):
            yield from ph[0].unregister_buffer(buf)

        run(cl, prog(cl.env))
        assert cl.counters.get("verbs.dereg_mr") == before + 1, \
            f"enabled={enabled}"
        assert buf.rkey not in ph[0].context._mrs_by_rkey


def test_merge_never_absorbs_pinned_entry():
    """Regression (review): a miss adjacent to a pinned bootstrap entry
    must not merge the pinned registration away — its rkey was exchanged
    with peers and has to stay valid."""
    cl, node, cache = setup(capacity=8)
    a = node.memory.alloc(4096, align=4096)
    b = node.memory.alloc(4096, align=4096)
    assert b == a + 4096
    mr_pinned = node.context.reg_mr_sync(cache.pd, a, 4096, Access.ALL)
    cache.insert(mr_pinned, pinned=True)

    def prog(env):
        mr = yield from cache.acquire(b, 4096)  # adjacent miss
        yield from cache.release(mr)
        return mr

    mr = run(cl, prog(cl.env))
    assert mr is not mr_pinned
    assert mr_pinned.valid, "merge absorbed a pinned entry"
    assert node.context._mrs_by_rkey.get(mr_pinned.rkey) is mr_pinned
    assert count(cl, "merges") == 0
    assert cache.size == 2

    # the pinned range is still a hit after the adjacent registration
    def prog2(env):
        hit = yield from cache.acquire(a + 128, 256)
        yield from cache.release(hit)
        return hit

    hit = run(cl, prog2(cl.env))
    assert hit is mr_pinned


def test_lookup_tolerates_overlapping_entries():
    """Regression (review): insert() does not merge, so overlapping
    entries can coexist; the lookup must keep scanning left past a
    non-covering candidate instead of declaring a spurious miss."""
    cl, node, cache = setup(capacity=8)
    a = node.memory.alloc(16384, align=4096)
    big = node.context.reg_mr_sync(cache.pd, a, 16384, Access.ALL)
    small = node.context.reg_mr_sync(cache.pd, a + 4096, 1024, Access.ALL)
    cache.insert(big, pinned=True)
    cache.insert(small)

    def prog(env):
        mr = yield from cache.acquire(a + 4096, 4096)
        yield from cache.release(mr)
        return mr

    mr = run(cl, prog(cl.env))
    assert mr is big, "covering entry missed behind an overlapping one"
    assert count(cl, "hits") == 1 and count(cl, "misses") == 0


def test_pending_eviction_counts_pinned_bytes():
    """Regression (review): a deferred-evict victim stays registered
    until its last release, so its bytes must keep counting toward
    pinned_bytes until the dereg actually runs."""
    cl, node, cache = setup(capacity=1)
    a, b = alloc_gapped(node, 2)

    def prog(env):
        mr_a = yield from cache.acquire(a, 4096)   # held: no release yet
        mr_b = yield from cache.acquire(b, 4096)   # evicts a -> deferred
        assert cache.pending_evictions == 1
        assert cache.pinned_bytes == 8192, \
            "pending-evict bytes dropped out of the pinned accounting"
        yield from cache.release(mr_a)             # last ref: dereg now
        assert cache.pinned_bytes == 4096
        yield from cache.release(mr_b)

    run(cl, prog(cl.env))
    assert cache.pinned_bytes == 4096  # b still cached warm
    assert count(cl, "pinned_bytes_peak") == 8192


def test_pinned_buffer_rkey_survives_adjacent_registration():
    """End-to-end regression (review): registering memory directly
    adjacent to a buffer()-seeded (pinned) registration must not retire
    the pinned MR — the rkey exchanged with peers has to keep working
    for a subsequent remote put."""
    timeout = 50_000_000
    cl = build_cluster(2)
    ph = photon_init(cl, PhotonConfig())
    dst = ph[1].buffer(4096)
    adj = cl[1].memory.alloc(4096, align=64)  # bump allocator: adjacent
    src = ph[0].buffer(4096)
    payload = b"rkey-must-survive" * 8
    cl[0].memory.write(src.addr, payload)

    def target(env):
        # acquire miss on the range next to the pinned buffer: the old
        # merge path absorbed and deregistered the pinned entry here
        yield from ph[1].register_buffer(adj, 4096)
        c = yield from ph[1].wait_completion("remote", timeout_ns=timeout)
        return c

    def sender(env):
        yield env.timeout(2_000_000)  # after the adjacent registration
        yield from ph[0].put_pwc(1, src.addr, len(payload), dst.addr,
                                 dst.rkey, remote_cid=7)

    p0 = cl.env.process(sender(cl.env))
    p1 = cl.env.process(target(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert p1.value.cid == 7
    assert cl[1].memory.read(dst.addr, len(payload)) == payload


def test_hit_share_reads_the_scope_counters():
    """The cache keeps no copy of its counts: the hit share is read from
    the rank's ``photon.rcache.*`` counters, and ``occupancy()`` is
    state only."""
    cl, node, cache = setup()
    addr = node.memory.alloc(4096)

    def prog(env):
        for _ in range(4):
            yield from cache.acquire(addr, 4096)

    run(cl, prog(cl.env))
    hits, misses = count(cl, "hits"), count(cl, "misses")
    assert hits / (hits + misses) == pytest.approx(0.75)
    assert cache.occupancy() == {"size": 1, "pending_evictions": 0,
                                 "held_refs": 4, "live_regs": 1,
                                 "pinned_bytes": 4096}


def test_invalid_capacity_rejected():
    cl = build_cluster(2)
    pd = cl[0].context.alloc_pd()
    with pytest.raises(ValueError):
        RegistrationCache(cl[0].context, pd, capacity=0)


def test_unregister_leaves_an_inflight_put_its_reference():
    """Regression: a ``buffer()`` entry holds no reference of its own, so
    unregistering it under an in-flight request-tracked put must not take
    the put's reference.  The MR stays valid until the put settles and is
    deregistered after the put's release."""
    cl = build_cluster(2)
    ph = photon_init(cl, PhotonConfig())
    src = ph[0].buffer(4096)
    dst = ph[1].buffer(4096)
    mr = ph[0].context._mrs_by_rkey[src.rkey]
    payload = b"in-flight" * 16
    cl[0].memory.write(src.addr, payload)
    deregs = cl.counters.get("verbs.dereg_mr")

    def prog(env):
        rid = yield from ph[0].post_os_put(1, src.addr, len(payload),
                                           dst.addr, dst.rkey)
        yield from ph[0].unregister_buffer(src)
        assert not ph[0].test(rid)
        assert mr.valid, "unregister took the in-flight put's reference"
        assert ph[0].rcache.pending_evictions == 1
        ok = yield from ph[0].wait(rid)
        assert ok and not ph[0].request_info(rid).failed
        yield env.timeout(1_000_000)  # the released MR's spawned dereg

    run(cl, prog(cl.env))
    assert not mr.valid
    assert cl.counters.get("verbs.dereg_mr") == deregs + 1
    assert ph[0].rcache.live_regs == ph[0].rcache.held_refs == 0
    assert cl[1].memory.read(dst.addr, len(payload)) == payload
    assert_reg_balance(cl.counters, [cl[i].context for i in range(cl.n)])


def test_unregistering_a_subrange_of_a_buffer_drops_its_own_reference():
    """``register_buffer`` over part of a ``buffer()`` hits the pinned
    entry and holds one reference there; unregistering it drops exactly
    that reference and retires the registration, leaking none."""
    cl = build_cluster(2)
    ph = photon_init(cl, PhotonConfig())
    buf = ph[0].buffer(8192)

    def prog(env):
        sub = yield from ph[0].register_buffer(buf.addr + 1024, 2048)
        assert sub.rkey == buf.rkey
        assert ph[0].rcache.held_refs == 1
        yield from ph[0].unregister_buffer(sub)

    run(cl, prog(cl.env))
    cache = ph[0].rcache
    assert cache.held_refs == 0 and cache.pending_evictions == 0
    assert buf.rkey not in ph[0].context._mrs_by_rkey
    assert_reg_balance(cl.counters, [cl[i].context for i in range(cl.n)])
