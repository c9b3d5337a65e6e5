"""R11 — collectives table: barrier and allreduce latency vs rank count.

PWC-based dissemination barrier / recursive-doubling allreduce (photon)
vs minimpi running the same schedules — one copy,
``repro.photon.collectives``, over each stack's wire.  Since the
schedules are shared, the difference isolates the per-message transport
cost.

Expected shape: both scale ~logarithmically with ranks; photon is faster
at every size because each step is a single ledger write instead of a
matched send/recv with bounce copies.
"""

from __future__ import annotations

import numpy as np

from ...cluster import build_cluster
from ...minimpi import mpi_init
from ...photon import photon_init
from ..result import ExperimentResult

RANKS_QUICK = [2, 4, 8]
RANKS_FULL = [2, 4, 8, 16]
REPS = 5


def _barrier(lib: str, n: int) -> float:
    cl = build_cluster(n, params="ib-fdr")
    if lib == "photon":
        eps = photon_init(cl)
    else:
        eps = mpi_init(cl)
    times = []

    def body(rank):
        env = cl.env
        ep = eps[rank]
        yield from ep.barrier()  # warm up
        t0 = env.now
        for _ in range(REPS):
            yield from ep.barrier()
        if rank == 0:
            times.append((env.now - t0) / REPS)

    procs = [cl.env.process(body(r)) for r in range(n)]
    cl.env.run(until=cl.env.all_of(procs))
    return times[0] / 1000.0


def _allreduce(lib: str, n: int, elems: int) -> float:
    cl = build_cluster(n, params="ib-fdr")
    if lib == "photon":
        eps = photon_init(cl)
    else:
        eps = mpi_init(cl)
    times = []

    def body(rank):
        env = cl.env
        ep = eps[rank]
        arr = np.full(elems, float(rank))
        out = yield from ep.allreduce(arr, "sum")  # warm up
        t0 = env.now
        for _ in range(REPS):
            out = yield from ep.allreduce(arr, "sum")
        if rank == 0:
            times.append((env.now - t0) / REPS)
        expected = float(sum(range(n)))
        assert float(out[0]) == expected

    procs = [cl.env.process(body(r)) for r in range(n)]
    cl.env.run(until=cl.env.all_of(procs))
    return times[0] / 1000.0


def run(quick: bool = True) -> ExperimentResult:
    ranks = RANKS_QUICK if quick else RANKS_FULL
    elems = 128  # 1 KiB of float64
    rows = []
    series = {}
    for n in ranks:
        b_ph = _barrier("photon", n)
        b_mp = _barrier("mpi", n)
        a_ph = _allreduce("photon", n, elems)
        a_mp = _allreduce("mpi", n, elems)
        series[n] = (b_ph, b_mp, a_ph, a_mp)
        rows.append([n, b_ph, b_mp, a_ph, a_mp])

    first, last = ranks[0], ranks[-1]
    checks = {
        "photon barrier beats MPI barrier at every rank count":
            all(series[n][0] < series[n][1] for n in ranks),
        "photon allreduce beats MPI allreduce at every rank count":
            all(series[n][2] < series[n][3] for n in ranks),
        "barrier latency grows sublinearly (log-ish) with ranks":
            series[last][0] < series[first][0] * (last / first),
    }
    return ExperimentResult(
        exp_id="R11",
        title="collectives latency (us): barrier and 1KiB allreduce",
        headers=["ranks", "photon barrier", "mpi barrier",
                 "photon allreduce", "mpi allreduce"],
        rows=rows,
        checks=checks,
        notes="same algorithms (dissemination / recursive doubling) on "
              "both transports; the delta is per-message cost.")
