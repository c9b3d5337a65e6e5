"""R2 — streaming bandwidth (reconstruction of the bandwidth figure).

Unidirectional windowed-stream bandwidth vs message size: Photon put
stream vs minimpi isend/irecv stream on ib-fdr (54 Gbit/s link).

Expected shape: Photon leads in the mid range, where MPI's rendezvous
handshake (RTS + matching + RGET) is not yet amortised; both converge to
the link rate for multi-megabyte transfers.
"""

from __future__ import annotations

from ...fabric.params import preset
from ...photon import DEFAULT_CONFIG
from ...util.fmt import format_size
from ..microbench import bandwidth_mpi, bandwidth_photon
from ..result import ExperimentResult

SIZES_QUICK = [4096, 65536, 1 << 20]
SIZES_FULL = [1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20]


def run(quick: bool = True) -> ExperimentResult:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    count = 32 if quick else 64
    link = preset("ib-fdr").link.bandwidth_gbps
    rows = []
    series = {}
    window = 8
    for size in sizes:
        # an op queues behind a full window on the wire: its deadline must
        # cover that, or the stream replays puts that were never lost
        # (8 x 4 MiB is 4.97 ms of wire time against the 5 ms default)
        wire_ns = int(window * size * 8 / link)
        cfg = DEFAULT_CONFIG.replace(op_timeout_ns=max(
            DEFAULT_CONFIG.op_timeout_ns, 4 * wire_ns))
        gph = bandwidth_photon(size, count=count, window=window, config=cfg)
        gmp = bandwidth_mpi(size, count=count, window=window)
        series[size] = (gph, gmp)
        rows.append([format_size(size), gph, gmp, gph / gmp,
                     100.0 * gph / link])

    mid = [s for s in sizes if 4096 <= s <= 262144]
    big = max(sizes)
    checks = {
        "photon leads in the mid range (rendezvous not amortised)":
            all(series[s][0] > series[s][1] for s in mid),
        "both converge to >=95% of the photon large-message rate":
            series[big][1] >= 0.95 * series[big][0],
        "photon reaches >=90% of the nominal link rate at the top size":
            series[big][0] >= 0.90 * link,
        "bandwidth increases with message size (photon)":
            all(series[a][0] <= series[b][0] * 1.02
                for a, b in zip(sizes, sizes[1:])),
    }
    return ExperimentResult(
        exp_id="R2",
        title="unidirectional stream bandwidth (Gbit/s), window=8, ib-fdr",
        headers=["size", "photon put", "mpi isend", "ratio", "% of link"],
        rows=rows,
        checks=checks)
