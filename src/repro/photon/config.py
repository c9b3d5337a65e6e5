"""Photon middleware configuration.

Mirrors the tunables of the real system (``photon_config_t``): ledger
depths, the eager threshold, completion-delivery mechanism, and the
registration-cache policy.  Benchmarks R4/R6 and the backend comparison R7
sweep these.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
__all__ = ["PhotonConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class PhotonConfig:
    """Per-rank Photon configuration (identical across ranks)."""

    #: payloads <= this may travel through the eager ledger (send path);
    #: also the eager-slot payload capacity
    eager_limit: int = 8192
    #: slots per peer in the eager-message ring
    eager_slots: int = 32
    #: entries per peer in the completion (PWC) ring
    completion_entries: int = 64
    #: deliver remote PWC completions via RDMA_WRITE_WITH_IMM (one wire op
    #: for data+notification, as in the verbs backend) instead of a second
    #: completion-ledger write (the uGNI/sw backends' mechanism).  Immediate
    #: mode requires 32-bit completion ids on the put path.
    use_imm: bool = True
    #: host cost of one progress-engine pass over the ledgers (ns); a
    #: blocking call probes back to back, so this is also how long after
    #: an arrival the waiter sees it
    progress_poll_ns: int = 60
    # --- reliability (lossy fabrics) ---
    #: how many times a failed/expired PWC operation is replayed before it
    #: completes with an error cid (0 = fail on first error)
    max_op_retries: int = 3
    #: per-operation deadline: a PWC op neither acked nor failed by the
    #: fabric within this window is considered lost and replayed (ns)
    op_timeout_ns: int = 5_000_000
    #: width of the seeded retry-jitter window (ns); the default is one
    #: ``base.BACKOFF_BASE_NS``.  When many ops against one peer share a
    #: deadline cadence (peer death), widen this so concurrent retries
    #: decorrelate instead of forming a synchronized retry storm
    backoff_jitter_ns: int = 20_000
    #: use the registration cache for user buffers
    rcache_enabled: bool = True
    #: max cached registrations before LRU eviction
    rcache_capacity: int = 128
    #: use inline sends for payloads within the NIC inline limit
    use_inline: bool = True

    def replace(self, **kw) -> "PhotonConfig":
        return replace(self, **kw)

    def validate(self) -> None:
        if self.eager_limit <= 0:
            raise ValueError("eager_limit must be positive")
        for field in ("eager_slots", "completion_entries"):
            if getattr(self, field) < 2:
                raise ValueError(f"{field} must be >= 2")
        if self.max_op_retries < 0:
            raise ValueError("max_op_retries must be >= 0")
        if self.op_timeout_ns <= 0:
            raise ValueError("op_timeout_ns must be positive")
        if self.backoff_jitter_ns <= 0:
            raise ValueError("backoff_jitter_ns must be positive")
        if self.rcache_capacity < 1:
            raise ValueError("rcache_capacity must be >= 1")


DEFAULT_CONFIG = PhotonConfig()
