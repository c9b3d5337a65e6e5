"""Parcel-based asynchronous many-task runtime (HPX-5 analogue).

The runtime consumes Photon (or minimpi) through the transport layer,
reproducing the paper's "middleware under a runtime system" integration:
parcels, an action registry, per-rank schedulers, LCOs, and an
active-message invocation layer (:mod:`repro.runtime.am`).
"""

from .actions import ActionRegistry
from .am import (AM_ERR, AM_REP, AM_REQ, ActiveMessageEngine, AmConfig,
                 CreditExhaustedError, RemoteActionError)
from .coalesce import CoalescingTransport
from .health import (ALIVE, DEAD, SUSPECT, HealthConfig, HealthMonitor,
                     MembershipView, PhiAccrualDetector, build_health)
from .lco import AndGate, Future, ReduceLCO
from .parcel import PARCEL_EXT_HDR_SIZE, PARCEL_HDR_SIZE, Parcel
from .scheduler import Runtime
from .transport import (MpiTransport, PARCEL_TAG, PeerDownError,
                        PhotonTransport, Transport)

__all__ = [
    "ActionRegistry",
    "AM_ERR", "AM_REP", "AM_REQ", "ActiveMessageEngine", "AmConfig",
    "CreditExhaustedError", "RemoteActionError",
    "CoalescingTransport",
    "ALIVE", "DEAD", "SUSPECT", "HealthConfig", "HealthMonitor",
    "MembershipView", "PhiAccrualDetector", "build_health",
    "AndGate", "Future", "ReduceLCO",
    "PARCEL_EXT_HDR_SIZE", "PARCEL_HDR_SIZE", "Parcel",
    "Runtime",
    "MpiTransport", "PARCEL_TAG", "PeerDownError", "PhotonTransport",
    "Transport",
]


def build_runtime(cluster, registry, transport="photon", photon=None,
                  comms=None, max_parcel: int = 1 << 20,
                  am: bool = False, coalesce=None, am_config=None,
                  coalesce_opts=None):
    """Assemble one Runtime per rank on the chosen transport.

    ``photon``: endpoints from :func:`repro.photon.photon_init` (photon
    transport); ``comms``: communicators from
    :func:`repro.minimpi.mpi_init` (mpi transport).

    ``am=True`` attaches an :class:`~repro.runtime.am.
    ActiveMessageEngine` to every rank (enabling ``rt.invoke``) and —
    unless ``coalesce=False`` — wraps the transport in a
    :class:`CoalescingTransport`, so sub-eager-limit invocations are
    batched per destination by default (a parcel bigger than the batch
    threshold still ships alone immediately).  ``coalesce=True`` wraps
    the transport without requiring AM.  ``am_config`` is an
    :class:`~repro.runtime.am.AmConfig`; ``coalesce_opts`` is a dict of
    :class:`CoalescingTransport` keyword arguments.
    """
    from ..sim.core import SimulationError

    if coalesce is None:
        coalesce = am
    runtimes = []
    for r in range(cluster.n):
        if transport == "photon":
            if photon is None:
                raise SimulationError("photon endpoints required")
            tp = PhotonTransport(photon[r], max_parcel=max_parcel)
        elif transport == "mpi":
            if comms is None:
                raise SimulationError("mpi communicators required")
            tp = MpiTransport(comms[r], max_parcel=max_parcel)
        else:
            raise SimulationError(f"unknown transport {transport!r}")
        if coalesce:
            tp = CoalescingTransport(tp, **(coalesce_opts or {}))
        rt = Runtime(r, cluster.env, tp, registry,
                     counters=cluster.scope(r))
        if am:
            rt.enable_am(am_config)
        runtimes.append(rt)
    return runtimes
