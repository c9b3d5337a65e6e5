"""Layer microbenchmarks: one host-rate number per mechanism, per layer.

Each module exposes ``BENCHES``: metric name -> zero-argument callable
that does one repetition and returns ``(work_units, host_seconds)``,
timing only the part that exercises the layer (cluster construction
stays outside the clock).  :func:`measure` repeats a bench and reports
the best repetition — the minimum is the least noise-contaminated
estimate of a fixed amount of CPU work — with the repetitions'
inter-quartile spread beside it as the noise floor: a difference
smaller than that between two commits is not a difference.
"""

from __future__ import annotations

import gc
import statistics
from typing import Callable, Dict, Tuple

from . import fabric, kv, minimpi, obs, photon, runtime, sim, verbs

__all__ = ["BENCHES", "measure", "REPS"]

REPS = 7

BENCHES: Dict[str, Callable[[], Tuple[int, float]]] = {}
for _mod in (sim, fabric, verbs, photon, minimpi, runtime, kv, obs):
    BENCHES.update(_mod.BENCHES)


def measure(bench: Callable[[], Tuple[int, float]], unit: str,
            reps: int = REPS) -> Dict[str, float]:
    """Best of ``reps`` repetitions (after one discarded warm-up).

    ``unit`` ``"ns"`` reports host nanoseconds per work unit, anything
    else work units per host second.
    """
    bench()
    values = []
    for _ in range(reps):
        gc.collect()
        work, seconds = bench()
        values.append(seconds * 1e9 / work if unit == "ns"
                      else work / seconds)
    q1, med, q3 = statistics.quantiles(values, n=4)
    best = min(values) if unit == "ns" else max(values)
    return {"value": best, "median": med,
            "noise_floor_share": (q3 - q1) / med if med else 0.0,
            "reps": reps}
