"""The five workloads, by the names BENCHMARK.json and later issues cite.

Each workload is a class whose constructor is one block's set-up
(``cls(seed, scale, spans=, trace=)`` builds clusters and brings them to
the point where the timed region can start), with ``run(region)`` as the
timed region and ``finish()`` draining, verifying and returning a
:class:`perf.harness.BlockResult`.  ``clusters`` lists every cluster the
block built, for the counter/span ledger.
"""

from .am_fanout import AmFanout
from .kv import KvChaos, KvRead, KvWrite
from .pwc_sweep import PwcSweep

WORKLOADS = {cls.name: cls
             for cls in (PwcSweep, AmFanout, KvWrite, KvRead, KvChaos)}

__all__ = ["WORKLOADS"]
