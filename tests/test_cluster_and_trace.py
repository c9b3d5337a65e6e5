"""Tests for cluster assembly, tracing, counters and photon config."""

import pytest

from repro.cluster import build_cluster
from repro.photon import PhotonConfig, photon_init
from repro.obs import MetricsRegistry
from repro.sim import Counters


# ---------------------------------------------------------------- cluster


def test_build_cluster_by_preset_name():
    cl = build_cluster(3, params="gemini")
    assert cl.n == 3
    assert cl.params.name == "gemini"
    assert cl.topology.__class__.__name__ == "Torus2D"


def test_build_cluster_topology_override():
    cl = build_cluster(4, params="gemini", topology="star")
    assert cl.topology.__class__.__name__ == "Star"


def test_build_cluster_param_overrides():
    cl = build_cluster(2, params="ib-fdr", link__mtu=1024,
                       nic__max_inline=0)
    assert cl.params.link.mtu == 1024
    assert cl.params.nic.max_inline == 0


def test_cluster_indexing_and_ranks():
    cl = build_cluster(2)
    assert cl[0].rank == 0
    assert cl[1].context.rank == 1
    assert cl[0].memory is not cl[1].memory


def test_cluster_seed_controls_rng():
    a = build_cluster(2, seed=5).rng.stream("x").integers(0, 100, 4).tolist()
    b = build_cluster(2, seed=5).rng.stream("x").integers(0, 100, 4).tolist()
    c = build_cluster(2, seed=6).rng.stream("x").integers(0, 100, 4).tolist()
    assert a == b != c


# ------------------------------------------------- trace records (registry)


def test_tracer_disabled_is_noop():
    reg = MetricsRegistry(2)
    reg.scope(0).log(10, "nic.tx", size=4)
    Counters().log(10, "nic.tx", size=4)  # the null scope's log
    assert list(reg.records) == []


def test_tracer_records_and_selects():
    reg = MetricsRegistry(2, trace_enabled=True)
    reg.scope(0).log(10, "nic.tx", size=4)
    reg.scope(1).log(20, "nic.rx", size=8)
    reg.fabric.log(30, "chaos.heal")
    assert len(reg.records) == 3
    assert [r.category for r in reg.records] == \
        ["nic.tx", "nic.rx", "chaos.heal"]
    assert reg.records[1].as_dict() == {"time": 20, "category": "nic.rx",
                                        "size": 8}


def test_tracer_ring_cap_drops_oldest():
    reg = MetricsRegistry(2, trace_enabled=True)
    reg.max_records = 3
    for i in range(5):
        reg.scope(i % 2).log(i, "nic.tx", seq=i)
    assert len(reg.records) == 3
    assert reg.records_dropped == 2
    assert [r.time for r in reg.records] == [2, 3, 4]


def test_cluster_trace_captures_nic_events():
    cl = build_cluster(2, trace=True)
    ph = photon_init(cl)
    dst = ph[1].buffer(64)

    def prog(env):
        yield from ph[0].put_pwc(1, 0, 0, dst.addr, dst.rkey, remote_cid=1)

    p = cl.env.process(prog(cl.env))
    cl.env.run()
    categories = {r.category for r in cl.metrics.records}
    assert {"nic.tx", "nic.rx"} <= categories


# ---------------------------------------------------------------- counters


def test_counters_accumulate_and_snapshot():
    c = Counters()
    c.add("x")
    c.add("x", 4)
    c.add("y", 2)
    assert c.get("x") == 5
    assert c.get("missing") == 0
    assert c.values == {"x": 5, "y": 2}


# ---------------------------------------------------------------- config


def test_photon_config_validation():
    with pytest.raises(ValueError):
        PhotonConfig(eager_limit=0).validate()
    with pytest.raises(ValueError):
        PhotonConfig(eager_slots=1).validate()
    PhotonConfig().validate()  # defaults valid


def test_photon_config_replace():
    cfg = PhotonConfig().replace(eager_limit=1024)
    assert cfg.eager_limit == 1024
    assert PhotonConfig().eager_limit == 8192  # original untouched


def test_mpi_config_validation():
    from repro.minimpi import MPIConfig
    with pytest.raises(ValueError):
        MPIConfig(eager_threshold=-1).validate()
    MPIConfig().validate()
