"""Unit tests for fabric parameter presets and overrides."""

import dataclasses

import pytest

from repro.fabric import (
    ETH_10G,
    GEMINI,
    IB_EDR,
    IB_FDR,
    PRESETS,
    ROCE,
    preset,
)


def test_presets_registered():
    assert set(PRESETS) == {"ib-fdr", "ib-edr", "gemini", "roce", "eth-10g"}


def test_preset_lookup():
    assert preset("ib-fdr") is IB_FDR
    with pytest.raises(KeyError, match="eth-10g"):
        preset("myrinet")


def test_presets_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        IB_FDR.name = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        IB_FDR.link.mtu = 1


def test_with_overrides_nested():
    p = IB_FDR.with_overrides(link__mtu=1024, nic__max_inline=0)
    assert p.link.mtu == 1024
    assert p.nic.max_inline == 0
    # original untouched
    assert IB_FDR.link.mtu == 4096


def test_with_overrides_toplevel():
    p = IB_FDR.with_overrides(name="custom", topology="torus2d")
    assert p.name == "custom"
    assert p.topology == "torus2d"


def test_edr_faster_than_fdr():
    assert IB_EDR.link.bandwidth_gbps > IB_FDR.link.bandwidth_gbps
    assert IB_EDR.link.latency_ns <= IB_FDR.link.latency_ns


def test_gemini_has_bulk_engine_and_torus():
    assert GEMINI.nic.bulk_threshold is not None
    assert GEMINI.nic.bulk_startup_ns > 0
    assert GEMINI.topology == "torus2d"
    assert IB_FDR.nic.bulk_threshold is None


def test_eth_models_software_stack():
    assert ETH_10G.nic.max_inline == 0
    assert ETH_10G.nic.post_overhead_ns > 5 * IB_FDR.nic.post_overhead_ns
    assert ETH_10G.host.reg_base_ns == 0  # no pinning for sockets


def test_roce_smaller_mtu_bigger_headers():
    assert ROCE.link.mtu < IB_FDR.link.mtu
    assert ROCE.link.header_bytes > IB_FDR.link.header_bytes


def test_all_presets_have_sane_invariants():
    for p in PRESETS.values():
        assert p.link.bandwidth_gbps > 0
        assert p.link.latency_ns >= 0
        assert p.link.mtu >= 256
        assert p.nic.dma_gbps > 0
        assert p.host.memcpy_gbps > 0
        assert p.topology in ("star", "torus2d")
