"""Unit tests for the verbs device layer: contexts, PDs, directory, MRs."""

import pytest

from repro.cluster import build_cluster
from repro.verbs import (
    Access,
    ProtectionError,
    VerbsError,
)
from repro.verbs.device import Directory


def test_directory_registers_contexts_once():
    cl = build_cluster(3)
    assert cl.directory._contexts == {r: cl[r].context for r in range(3)}
    with pytest.raises(VerbsError):
        cl.directory.register(cl[2].context)


def test_directory_duplicate_rank_rejected():
    d = Directory()

    class Fake:
        rank = 0

    d.register(Fake())
    with pytest.raises(VerbsError):
        d.register(Fake())


def test_pd_find_local_respects_permissions():
    cl = build_cluster(2)
    ctx = cl[0].context
    pd = ctx.alloc_pd()
    addr = cl[0].memory.alloc(4096)
    ctx.reg_mr_sync(pd, addr, 4096, Access.REMOTE_READ)
    # readable MR found with no permission requirement
    assert pd.find_local(addr, 64) is not None
    # but not as a LOCAL_WRITE target
    with pytest.raises(ProtectionError):
        pd.find_local(addr, 64, Access.LOCAL_WRITE)


def test_pd_find_local_unregistered_range_rejected():
    cl = build_cluster(2)
    pd = cl[0].context.alloc_pd()
    with pytest.raises(ProtectionError):
        pd.find_local(12345, 8)


def test_mr_keys_unique_per_context():
    cl = build_cluster(2)
    ctx = cl[0].context
    pd = ctx.alloc_pd()
    a = cl[0].memory.alloc(4096)
    b = cl[0].memory.alloc(4096)
    mr1 = ctx.reg_mr_sync(pd, a, 4096)
    mr2 = ctx.reg_mr_sync(pd, b, 4096)
    assert mr1.rkey != mr2.rkey


def test_check_remote_validates_permission_and_range():
    cl = build_cluster(2)
    ctx = cl[1].context
    pd = ctx.alloc_pd()
    addr = cl[1].memory.alloc(4096)
    mr = ctx.reg_mr_sync(pd, addr, 4096, Access.REMOTE_WRITE)
    assert ctx.check_remote(mr.rkey, addr, 64, Access.REMOTE_WRITE) is mr
    with pytest.raises(ProtectionError):
        ctx.check_remote(mr.rkey, addr, 64, Access.REMOTE_ATOMIC)
    with pytest.raises(ProtectionError):
        ctx.check_remote(mr.rkey, addr + 4090, 64, Access.REMOTE_WRITE)
    with pytest.raises(ProtectionError):
        ctx.check_remote(999999, addr, 64, Access.REMOTE_WRITE)


def test_mr_zero_length_rejected():
    cl = build_cluster(2)
    ctx = cl[0].context
    pd = ctx.alloc_pd()
    addr = cl[0].memory.alloc(64)
    with pytest.raises(ProtectionError):
        ctx.reg_mr_sync(pd, addr, 0)


def test_mr_registration_pins_pages():
    cl = build_cluster(2)
    ctx = cl[0].context
    pd = ctx.alloc_pd()
    mem = cl[0].memory
    addr = mem.alloc(8192, align=4096)
    host = cl.params.host
    assert mem.pin_cost_ns(addr, 8192) == host.reg_base_ns + 2 * host.reg_per_page_ns
    ctx.reg_mr_sync(pd, addr, 8192)
    # both pages are pinned now: registering them again costs the base only
    assert mem.pin_cost_ns(addr, 8192) == host.reg_base_ns


def test_mr_write_needs_local_write():
    cl = build_cluster(2)
    ctx = cl[0].context
    pd = ctx.alloc_pd()
    addr = cl[0].memory.alloc(64)
    mr = ctx.reg_mr_sync(pd, addr, 64, Access.REMOTE_READ)
    mr.check(addr, 2)
    with pytest.raises(ProtectionError):
        mr.check(addr, 2, Access.LOCAL_WRITE, "local write")
    with pytest.raises(ProtectionError):
        mr.check(addr + 62, 8)  # out of range
