"""Backend definitions: fabric + config bundles per transport.

- ``verbs``  — InfiniBand FDR star: the paper's primary platform.  Full
  inline support, ledger completions.
- ``verbs-edr`` — same stack on 100 Gbit/s EDR links.
- ``ugni``   — Cray Gemini 2-D torus: FMA-like inline small messages, BTE
  bulk engine above 4 KiB (``NicParams.bulk_threshold``), smaller MTU,
  shorter per-hop latency but multi-hop routes.
- ``roce``   — RoCE 40 GbE: higher latency, small MTU, bigger headers.
- ``sw``     — kernel-sockets fallback on 10 GbE: no inline, no real
  offload (huge per-op costs), registration free (no pinning) — the shape
  of Photon's two-sided emulation backend.

Every backend runs the identical Photon protocol code; only parameters
differ, which is exactly the claim the paper's backend comparison makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...cluster import Cluster, build_cluster
from ...fabric.params import FabricParams, preset
from ..api import Photon, photon_init
from ..config import PhotonConfig

__all__ = ["Backend", "backend", "build_photon_cluster", "BACKENDS"]


@dataclass(frozen=True)
class Backend:
    """One named transport configuration."""

    name: str
    fabric: FabricParams
    config: PhotonConfig
    description: str


def _make_backends() -> Dict[str, Backend]:
    verbs = Backend(
        name="verbs",
        fabric=preset("ib-fdr"),
        config=PhotonConfig(),
        description="InfiniBand FDR star switch (paper's primary platform)")
    verbs_edr = Backend(
        name="verbs-edr",
        fabric=preset("ib-edr"),
        config=PhotonConfig(),
        description="InfiniBand EDR (100 Gbit/s) star switch")
    ugni = Backend(
        name="ugni",
        fabric=preset("gemini"),
        config=PhotonConfig(eager_limit=4096, use_inline=True,
                            use_imm=False),
        description="Cray Gemini 2-D torus, FMA/BTE split at 4 KiB")
    roce = Backend(
        name="roce",
        fabric=preset("roce"),
        config=PhotonConfig(),
        description="RoCE over 40 GbE")
    sw = Backend(
        name="sw",
        fabric=preset("eth-10g"),
        config=PhotonConfig(use_inline=False, use_imm=False,
                            eager_limit=4096, progress_poll_ns=400),
        description="kernel-sockets emulation backend on 10 GbE")
    return {b.name: b for b in (verbs, verbs_edr, ugni, roce, sw)}


BACKENDS: Dict[str, Backend] = _make_backends()


def backend(name: str) -> Backend:
    """Resolve a backend by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown photon backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None


def build_photon_cluster(n: int, backend_name: str = "verbs",
                         config: Optional[PhotonConfig] = None,
                         seed: int = 0,
                         **cluster_kw) -> Tuple[Cluster, List[Photon]]:
    """Cluster + endpoints for a named backend in one call."""
    b = backend(backend_name)
    cl = build_cluster(n, params=b.fabric, seed=seed, **cluster_kw)
    ph = photon_init(cl, config or b.config)
    return cl, ph
