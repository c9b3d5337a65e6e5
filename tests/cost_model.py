"""Closed-form cost oracle for the fabric model (test tree only).

The reproduction rests on one claim (DESIGN §2): the simulator charges
exactly the LogGP-style costs of ``fabric/params.py``.  This module states
those costs as arithmetic over a :class:`~repro.fabric.params.FabricParams`
and nothing else, term by term, so a test can hold a simulated number to
it at the nanosecond.

Photon PWC put ping-pong (``bench.microbench.pingpong_photon(mode="pwc")``,
default ``PhotonConfig``: immediate-mode completion, inline sends), two
ranks, uncontended.  One half round trip is the time from a waiter seeing
the completion of the previous put to the peer's waiter seeing this one:

    post          NicParams.post_overhead_ns      host builds and posts the WR
    doorbell      NicParams.doorbell_ns           the NIC sees the WQE
    wqe           NicParams.wqe_process_ns        the send engine takes it
    bulk_startup  NicParams.bulk_startup_ns       only above bulk_threshold
    dma_fetch     size / dma_gbps per chunk       only above max_inline
    wire          per hop: (chunk + header_bytes) / bandwidth_gbps, then
                  latency_ns (+ the star switch's 150 ns on the downlink)
    delivery      NicParams.delivery_ns           placement + the recv CQE
    poll          PhotonConfig.progress_poll_ns   the probe that sees it
    cqe           NicParams.cqe_poll_ns           reaping the recv CQE

A message above the MTU is chunks in a pipeline: each chunk's fetch ends
one chunk-fetch after the last, and each hop serialises a chunk once it
has arrived and the hop is free (store-and-forward, ``fabric/link.py``).
``dma_fetch`` and ``wire`` together are that max-plus recurrence; every
other term is paid once per message.  Sizes below ``max_inline`` travel
in the WQE; a 0-byte write is one ``CTRL_BYTES`` control chunk.

Photon eager send ping-pong (``pingpong_photon(mode="send")``, R1's
``pwc-send`` column) writes a ledger entry instead: the payload between
a 32 B ``EagerHeader`` and an 8 B sequence trailer, by a plain RDMA write
into the peer's eager ring, which the peer finds by probing the ring:

    slot_copy     memcpy of header + payload + trailer into the staged slot
    post … wire   as the put, over the entry's bytes (header bytes
                  included; inline when the whole entry fits)
    (no delivery) a plain write is visible in memory as each chunk lands
    poll          PhotonConfig.progress_poll_ns   the probe that sees it
    copy_out      memcpy of the payload out of the slot
    cqe           NicParams.cqe_poll_ns           charged per ring entry

Every chunk's landing rings the waiter's doorbell, so the probe that sees
a multi-chunk entry may be the one an earlier chunk woke, if the rest
lands before that probe checks (``probe_start``); ``wire`` ends where
that probe starts.  The ring returns credit every ``eager_slots / 2``
entries; the message that carries a credit return is slower and is not
modelled here (the test's runs stay below it).

Photon request-tracked put (``pingpong_photon(mode="put")``, R1's
``os_put(origin)`` column) is not a half round trip: each sample is one
``post_os_put`` + ``wait`` as its origin sees it, with no echo.  It is
the PWC put's path up to the target's delivery, then the reliable
connection's ack back to the origin and the origin's reap of its send
CQE:

    post … delivery  as the PWC put (the pin is a registration-cache hit)
    ack_latency   the path's propagation back to the origin (sum of hops)
    ack_overhead  NicParams.ack_overhead_ns       the ack's NIC cost
    poll          PhotonConfig.progress_poll_ns   the probe that sees it
    cqe           NicParams.cqe_poll_ns           reaping the send CQE

minimpi send/recv ping-pong (``bench.microbench.pingpong_mpi``, R1's
``mpi send/recv`` column) at R1's sizes is the eager protocol (every
size is at or below ``MPIConfig.eager_threshold``): the payload is
copied behind a 48 B header into a send bounce slot and SENT, lands in a
preposted receive bounce slot, and the receiver's progress pass matches
it against the posted receive and copies it out:

    sw_send       minimpi SW_OVERHEAD_NS          isend's software stack
    copy_in       memcpy of header + payload into the bounce slot
    post … wire   as the put, over header + payload (never inline: the
                  SEND is DMA-fetched from the bounce slot)
    delivery      NicParams.delivery_ns           placement + the recv CQE
    poll          minimpi PROGRESS_POLL_NS        the pass that sees it
    cqe           NicParams.cqe_poll_ns           reaping the recv CQE
    sw_recv       minimpi SW_OVERHEAD_NS          the inbound message's
    copy_out      memcpy of the payload out of the bounce slot

The receive is posted long before the message lands (its ``irecv``
overhead is off the critical path), and the sender's wait for its own
send CQE overlaps the receiver's work.  ``sw_send`` and ``sw_recv`` are
one constant, so dropping either one is the same prediction.
"""

from __future__ import annotations

import inspect
import math
from typing import Dict, List, Tuple

from repro.fabric.nic import CTRL_BYTES
from repro.fabric.params import FabricParams, preset
from repro.fabric.topology import Star
from repro.minimpi import protocol as mpi_protocol
from repro.photon.config import PhotonConfig
from repro.photon.wire import EAGER_HEADER_SIZE
from repro.util.units import serialization_ns

PRESET_NAMES = ("ib-fdr", "ib-edr", "gemini", "roce", "eth-10g")
#: a star's switch forwarding delay (a ``Star`` default, not a parameter)
SWITCH_LATENCY_NS = inspect.signature(Star).parameters[
    "switch_latency_ns"].default
#: bytes an eager ledger entry adds to its payload: header and seq trailer
LEDGER_BYTES = EAGER_HEADER_SIZE + 8


def hop_latencies(params: FabricParams) -> List[int]:
    """Propagation of each hop between two ranks: a star's uplink and
    downlink (the switch folds into the downlink), or a 1×2 torus's one
    hop and the ejection link."""
    lat = params.link.latency_ns
    if params.topology == "star":
        return [lat, lat + SWITCH_LATENCY_NS]
    return [lat, lat]


def chunks(params: FabricParams, size: int) -> List[Tuple[int, int]]:
    """``(payload, wire bytes)`` of each chunk the NIC cuts ``size`` into
    (at most a handful here, far below ``nic.MAX_CHUNKS``)."""
    link = params.link
    if size == 0:
        return [(0, CTRL_BYTES)]
    out = []
    for off in range(0, size, link.mtu):
        payload = min(link.mtu, size - off)
        out.append((payload, payload + link.header_bytes))
    return out


def landings(params: FabricParams, size: int, inline: bool,
             dma: bool = True) -> Tuple[int, List[int]]:
    """``(dma_fetch, landings)``: the last chunk's fetch end (0 inline) and
    each chunk's landing.  ``dma`` False drops the fetch from the
    recurrence (an ablation)."""
    lats = hop_latencies(params)
    free = [0] * len(lats)
    fetched = 0
    out = []
    for payload, wire in chunks(params, size):
        if dma and not inline:
            fetched += serialization_ns(payload, params.nic.dma_gbps)
        at = fetched
        ser = serialization_ns(wire, params.link.bandwidth_gbps)
        for hop, lat in enumerate(lats):
            free[hop] = max(free[hop], at) + ser
            at = free[hop] + lat
        out.append(at)
    return fetched, out


def probe_start(lands: List[int], poll: int) -> int:
    """When the probe that sees the last of ``lands`` starts.  Each landing
    rings a parked waiter, whose probe checks ``poll`` later: the probe the
    next-to-last chunk woke sees a last chunk that lands by then.  (A
    full chunk serialises for longer than a poll on every preset, so that
    probe did start at its chunk's landing.)"""
    if len(lands) > 1 and lands[-1] <= lands[-2] + poll:
        return lands[-2]
    return lands[-1]


def _inline(params: FabricParams, size: int) -> bool:
    return PhotonConfig.use_inline and size <= params.nic.max_inline


def _memcpy_ns(params: FabricParams, nbytes: int) -> int:
    return (max(1, math.ceil(nbytes * 8.0 / params.host.memcpy_gbps))
            if nbytes > 0 else 0)


def pwc_put_half_rtt_terms(params: FabricParams, size: int,
                           dma: bool = True) -> Dict[str, int]:
    """The named terms of one PWC put ping-pong half round trip."""
    nic = params.nic
    bulk = nic.bulk_threshold is not None and size > nic.bulk_threshold
    dma_fetch, lands = landings(params, size, _inline(params, size), dma)
    return {
        "post": nic.post_overhead_ns,
        "doorbell": nic.doorbell_ns,
        "wqe": nic.wqe_process_ns,
        "bulk_startup": nic.bulk_startup_ns if bulk else 0,
        "dma_fetch": dma_fetch,
        "wire": lands[-1] - dma_fetch,
        "delivery": nic.delivery_ns,
        "poll": PhotonConfig.progress_poll_ns,
        "cqe": nic.cqe_poll_ns,
    }


def pwc_send_half_rtt_terms(params: FabricParams, size: int,
                            dma: bool = True) -> Dict[str, int]:
    """The named terms of one eager ``send_pwc`` ping-pong half round
    trip."""
    nic = params.nic
    entry = LEDGER_BYTES + size
    bulk = nic.bulk_threshold is not None and entry > nic.bulk_threshold
    dma_fetch, lands = landings(params, entry, _inline(params, entry), dma)
    poll = PhotonConfig.progress_poll_ns
    return {
        "slot_copy": _memcpy_ns(params, entry),
        "post": nic.post_overhead_ns,
        "doorbell": nic.doorbell_ns,
        "wqe": nic.wqe_process_ns,
        "bulk_startup": nic.bulk_startup_ns if bulk else 0,
        "dma_fetch": dma_fetch,
        "wire": probe_start(lands, poll) - dma_fetch,
        "poll": poll,
        "copy_out": _memcpy_ns(params, size),
        "cqe": nic.cqe_poll_ns,
    }


def os_put_terms(params: FabricParams, size: int,
                 dma: bool = True) -> Dict[str, int]:
    """The named terms of one request-tracked put as its origin observes
    it (post to the reaped send completion)."""
    terms = pwc_put_half_rtt_terms(params, size, dma)
    poll, cqe = terms.pop("poll"), terms.pop("cqe")
    terms["ack_latency"] = sum(hop_latencies(params))
    terms["ack_overhead"] = params.nic.ack_overhead_ns
    terms["poll"], terms["cqe"] = poll, cqe
    return terms


def mpi_eager_half_rtt_terms(params: FabricParams, size: int,
                             dma: bool = True) -> Dict[str, int]:
    """The named terms of one minimpi eager send/recv ping-pong half
    round trip."""
    nic = params.nic
    sw = mpi_protocol.SW_OVERHEAD_NS
    wire_bytes = mpi_protocol.HDR.size + size
    bulk = nic.bulk_threshold is not None and wire_bytes > nic.bulk_threshold
    dma_fetch, lands = landings(params, wire_bytes, False, dma)
    return {
        "sw_send": sw,
        "copy_in": _memcpy_ns(params, wire_bytes),
        "post": nic.post_overhead_ns,
        "doorbell": nic.doorbell_ns,
        "wqe": nic.wqe_process_ns,
        "bulk_startup": nic.bulk_startup_ns if bulk else 0,
        "dma_fetch": dma_fetch,
        "wire": lands[-1] - dma_fetch,
        "delivery": nic.delivery_ns,
        "poll": mpi_protocol.PROGRESS_POLL_NS,
        "cqe": nic.cqe_poll_ns,
        "sw_recv": sw,
        "copy_out": _memcpy_ns(params, size),
    }


#: the closed form of each ping-pong it covers: ``pingpong_photon``'s
#: modes ("put" is the whole origin-observed completion, not half a
#: round trip) and ``pingpong_mpi`` ("mpi")
HALF_RTT_TERMS = {"pwc": pwc_put_half_rtt_terms,
                  "send": pwc_send_half_rtt_terms,
                  "put": os_put_terms,
                  "mpi": mpi_eager_half_rtt_terms}


def half_rtt_ns(params: FabricParams, size: int, mode: str = "pwc") -> int:
    return sum(HALF_RTT_TERMS[mode](params, size).values())


def ablations(params: FabricParams, size: int,
              mode: str = "pwc") -> Dict[str, int]:
    """The prediction with one cost left out, by the name of that cost:
    each term dropped, the fetch dropped from the pipeline, and the wire
    header bytes dropped from every chunk."""
    terms_of = HALF_RTT_TERMS[mode]
    terms = terms_of(params, size)
    total = sum(terms.values())
    out = {f"no {name}": total - value
           for name, value in terms.items() if value}
    out["no dma_fetch (pipelined)"] = sum(
        terms_of(params, size, dma=False).values())
    bare = params.with_overrides(link__header_bytes=0)
    out["no header_bytes"] = half_rtt_ns(bare, size, mode)
    return out


def explain(measured: Dict[Tuple[str, int], int],
            mode: str = "pwc") -> List[str]:
    """The ablations that reproduce every measured point
    (``{(preset, size): ns}``) the full model misses; empty when the
    model misses none, or when no single known cost accounts for it."""
    missed = {key: ns for key, ns in measured.items()
              if ns != half_rtt_ns(preset(key[0]), key[1], mode)}
    if not missed:
        return []
    names = None
    for (name, size), ns in missed.items():
        hits = {label for label, value
                in ablations(preset(name), size, mode).items()
                if value == ns}
        names = hits if names is None else names & hits
    return sorted(names)


def describe(params: FabricParams, size: int, mode: str = "pwc") -> str:
    """One line: the terms and their sum, for a failure message."""
    terms = HALF_RTT_TERMS[mode](params, size)
    parts = " + ".join(f"{k} {v}" for k, v in terms.items() if v)
    return f"{params.name} {size} B: {parts} = {sum(terms.values())} ns"
