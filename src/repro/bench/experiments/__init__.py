"""Reconstructed experiments R1–R23 (see DESIGN.md §4 for the index).

Each module exposes ``run(quick=True) -> ExperimentResult``.  ``quick``
trims sweep points and repetition counts; ``python -m repro.bench
--full`` runs the full versions, whose tables EXPERIMENTS.md holds.
"""

from . import (
    r1_latency,
    r2_bandwidth,
    r3_msgrate,
    r4_ledger,
    r5_overlap,
    r6_rcache,
    r7_backends,
    r8_parcels,
    r9_stencil,
    r10_bfs,
    r11_collectives,
    r12_eager_threshold,
    r13_gups,
    r14_incast,
    r15_coalescing,
    r16_samplesort,
    r17_faults,
    r19_chaos,
    r20_kvstore,
    r21_snapshots,
    r23_am,
)

ALL = {
    "r1": r1_latency,
    "r2": r2_bandwidth,
    "r3": r3_msgrate,
    "r4": r4_ledger,
    "r5": r5_overlap,
    "r6": r6_rcache,
    "r7": r7_backends,
    "r8": r8_parcels,
    "r9": r9_stencil,
    "r10": r10_bfs,
    "r11": r11_collectives,
    "r12": r12_eager_threshold,
    "r13": r13_gups,
    "r14": r14_incast,
    "r15": r15_coalescing,
    "r16": r16_samplesort,
    "r17": r17_faults,
    "r19": r19_chaos,
    "r20": r20_kvstore,
    "r21": r21_snapshots,
    "r23": r23_am,
}

__all__ = ["ALL"]
