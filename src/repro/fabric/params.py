"""Hardware parameter sets for the simulated fabric.

The parameters follow the LogGP tradition: fixed per-operation overheads
(``o``-like costs at host and NIC), per-byte costs (link/DMA bandwidths) and
per-hop latencies.  Presets approximate the platforms Photon was evaluated
on — InfiniBand FDR/EDR clusters and a Cray Gemini torus — plus a RoCE and a
slow-Ethernet ("sw backend") profile.  Absolute values are calibrated to
public microbenchmark figures for those fabrics (e.g. ~1 µs small-message
RDMA latency on FDR); the reproduction's claims rest on *relative* behaviour,
which depends only on the cost structure, not on these exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

__all__ = [
    "LinkParams",
    "NicParams",
    "HostParams",
    "FabricParams",
    "PRESETS",
    "preset",
]


@dataclass(frozen=True)
class LinkParams:
    """One directed link (NIC<->switch port or torus hop)."""

    #: usable bandwidth, Gbit/s
    bandwidth_gbps: float
    #: propagation + forwarding latency per traversal, ns
    latency_ns: int
    #: maximum transmission unit, bytes (messages are chunked to this)
    mtu: int
    #: per-packet wire header (routing + CRC), bytes, added to every chunk
    header_bytes: int = 30
    #: probability a chunk is corrupted/dropped in flight.  What happens
    #: next depends on ``loss_mode``:
    #:
    #: - ``"reliable"`` (default): the link-level transport recovers the
    #:   chunk in place (go-back-N style) at ``link.RETRANSMIT_NS`` plus a
    #:   fresh serialisation — data is never lost, only delayed.  No error
    #:   ever reaches the verbs layer.
    #: - ``"lossy"``: the chunk is genuinely discarded.  Recovery (if any)
    #:   happens end-to-end in the NIC's ack-timeout/retry machinery
    #:   (``nic.ACK_TIMEOUT_NS`` / ``transport_retries``); exhaustion
    #:   surfaces as a ``WCStatus.RETRY_EXC_ERR`` work completion.
    #:
    #: 0 = clean in either mode.
    drop_rate: float = 0.0
    #: "reliable" (delay-only recovery at the link) or "lossy" (genuine
    #: drops, end-to-end recovery at the NIC)
    loss_mode: str = "reliable"


@dataclass(frozen=True)
class NicParams:
    """Per-NIC processing costs and engine configuration."""

    #: host CPU cost to build + post one work request (ns)
    post_overhead_ns: int
    #: doorbell ring → NIC observes the WQE (ns)
    doorbell_ns: int
    #: NIC processing per work request (ns)
    wqe_process_ns: int
    #: host CPU cost to reap one completion from a CQ (ns)
    cqe_poll_ns: int
    #: NIC-side cost to deliver one inbound message end (placement+CQE) (ns)
    delivery_ns: int
    #: host<->NIC DMA bandwidth, Gbit/s (source fetch / sink placement)
    dma_gbps: float
    #: payloads <= this are carried in the WQE itself — no source DMA fetch
    max_inline: int
    #: round-trip ack contribution to sender-side completion (ns); the model
    #: also adds the return-path latency
    ack_overhead_ns: int
    #: cost of one remote atomic at the responder (ns)
    atomic_ns: int
    #: messages larger than this switch to the bulk engine (uGNI BTE flavour);
    #: None disables the distinction (verbs flavour)
    bulk_threshold: Optional[int] = None
    #: one-time startup cost when the bulk engine is used (ns)
    bulk_startup_ns: int = 0
    #: lossy mode: how many retransmissions of a message the NIC attempts
    #: before completing its work request with RETRY_EXC_ERR
    transport_retries: int = 3


@dataclass(frozen=True)
class HostParams:
    """Host memory-system costs."""

    #: host memcpy bandwidth, Gbit/s (bounce-buffer copies, unpacking)
    memcpy_gbps: float
    #: fixed cost of a memory-registration (pin) syscall (ns)
    reg_base_ns: int
    #: additional pin cost per page (ns)
    reg_per_page_ns: int


@dataclass(frozen=True)
class FabricParams:
    """Complete parameter set for one cluster."""

    name: str
    link: LinkParams
    nic: NicParams
    host: HostParams
    #: default topology kind for this preset: "star", "mesh", "torus2d"
    topology: str = "star"

    def with_overrides(self, **kw) -> "FabricParams":
        """Copy with top-level or nested overrides.

        Nested fields are addressed as ``link__mtu=1024`` etc.
        """
        nested: Dict[str, Dict] = {}
        flat: Dict[str, object] = {}
        for key, value in kw.items():
            if "__" in key:
                outer, inner = key.split("__", 1)
                nested.setdefault(outer, {})[inner] = value
            else:
                flat[key] = value
        obj = self
        for outer, inner_kw in nested.items():
            obj = replace(obj, **{outer: replace(getattr(obj, outer), **inner_kw)})
        if flat:
            obj = replace(obj, **flat)
        return obj


# ---------------------------------------------------------------------------
# Presets.  See module docstring for calibration rationale.
# ---------------------------------------------------------------------------

IB_FDR = FabricParams(
    name="ib-fdr",
    link=LinkParams(bandwidth_gbps=54.0, latency_ns=250, mtu=4096),
    nic=NicParams(
        post_overhead_ns=100,
        doorbell_ns=150,
        wqe_process_ns=200,
        cqe_poll_ns=80,
        delivery_ns=100,
        dma_gbps=100.0,
        max_inline=128,
        ack_overhead_ns=150,
        atomic_ns=300,
    ),
    host=HostParams(memcpy_gbps=80.0, reg_base_ns=2000, reg_per_page_ns=180),
    topology="star",
)

IB_EDR = IB_FDR.with_overrides(
    name="ib-edr",
    link__bandwidth_gbps=97.0,
    link__latency_ns=200,
    nic__wqe_process_ns=150,
    nic__delivery_ns=80,
)

# Cray Gemini: FMA path for small transfers (low latency), BTE bulk engine
# for large (startup cost but streams well); 2-D torus topology with short
# per-hop latency.
GEMINI = FabricParams(
    name="gemini",
    link=LinkParams(bandwidth_gbps=52.0, latency_ns=105, mtu=2048,
                    header_bytes=18),
    nic=NicParams(
        post_overhead_ns=90,
        doorbell_ns=120,
        wqe_process_ns=180,
        cqe_poll_ns=80,
        delivery_ns=120,
        dma_gbps=85.0,
        max_inline=64,
        ack_overhead_ns=120,
        atomic_ns=250,
        bulk_threshold=4096,
        bulk_startup_ns=1800,
    ),
    host=HostParams(memcpy_gbps=70.0, reg_base_ns=2500, reg_per_page_ns=220),
    topology="torus2d",
)

ROCE = IB_FDR.with_overrides(
    name="roce",
    link__bandwidth_gbps=40.0,
    link__latency_ns=450,
    link__mtu=1024,
    link__header_bytes=58,
    nic__delivery_ns=180,
)

# "sw" backend stand-in: kernel TCP over 10GbE — high per-message overheads,
# no real one-sided offload (put/get emulated), used as the pessimistic
# backend in R7.
ETH_10G = FabricParams(
    name="eth-10g",
    link=LinkParams(bandwidth_gbps=9.4, latency_ns=2500, mtu=1500,
                    header_bytes=78),
    nic=NicParams(
        post_overhead_ns=1500,
        doorbell_ns=0,
        wqe_process_ns=2000,
        cqe_poll_ns=600,
        delivery_ns=2500,
        dma_gbps=40.0,
        max_inline=0,
        ack_overhead_ns=1000,
        atomic_ns=5000,
    ),
    host=HostParams(memcpy_gbps=60.0, reg_base_ns=0, reg_per_page_ns=0),
    topology="star",
)

PRESETS: Dict[str, FabricParams] = {
    p.name: p for p in (IB_FDR, IB_EDR, GEMINI, ROCE, ETH_10G)
}


def preset(name: str) -> FabricParams:
    """Look up a preset by name (raises KeyError with the known names)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown fabric preset {name!r}; known: {sorted(PRESETS)}"
        ) from None
