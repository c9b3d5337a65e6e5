"""MPI-like status, wildcards and configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "MPIConfig", "DEFAULT_MPI_CONFIG"]

#: wildcard source / tag
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Status:
    """Completion status of a receive (or probe)."""

    source: int = -1
    tag: int = -1
    count: int = 0


@dataclass(frozen=True)
class MPIConfig:
    """Tunables of the minimpi library (mirrors typical MPI CVARs)."""

    #: messages <= this go eager (copied through bounce buffers)
    eager_threshold: int = 8192
    #: per-peer send bounce slots (eager flow-control window)
    eager_credits: int = 32
    #: per-peer preposted receive bounce buffers
    prepost: int = 64
    #: host cost of one progress pass (ns); a blocking call probes back
    #: to back, so also how long after an arrival the waiter sees it
    progress_poll_ns: int = 60
    #: registration cache for rendezvous buffers
    rcache_enabled: bool = True
    rcache_capacity: int = 128
    #: pinned-bytes ceiling for the rendezvous rcache (0 = unlimited)
    rcache_max_pinned_bytes: int = 0
    #: per-call software-stack overhead (ns): request allocation, protocol
    #: selection, matching-engine bookkeeping.  Charged at isend/irecv
    #: entry and per inbound protocol message.  Production MPI libraries
    #: measure 100-300 ns here on top of raw verbs; Photon's thin
    #: completion-oriented layer is the paper's alternative to exactly
    #: this cost.  Set to 0 for an idealised (overhead-free) baseline.
    sw_overhead_ns: int = 120
    #: collective scratch heap per rank (bytes)
    coll_scratch: int = 8 * 1024 * 1024
    #: extra attempts for a control message / rendezvous fetch the fabric
    #: failed before the owning request is completed with an error
    max_op_retries: int = 3

    def replace(self, **kw) -> "MPIConfig":
        return replace(self, **kw)

    def validate(self) -> None:
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")
        if self.eager_credits < 1 or self.prepost < 2:
            raise ValueError("eager_credits >= 1 and prepost >= 2 required")
        if self.max_op_retries < 0:
            raise ValueError("max_op_retries must be >= 0")


DEFAULT_MPI_CONFIG = MPIConfig()
