"""Photon middleware configuration.

Mirrors the tunables of the real system (``photon_config_t``): ledger
depths, the eager threshold, completion-delivery mechanism, and the
registration-cache policy.  Benchmarks R4/R6 and the backend comparison R7
sweep these.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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
    #: entries per peer in the rendezvous info ring
    info_entries: int = 32
    #: entries per peer in the FIN ring
    fin_entries: int = 32
    #: deliver remote PWC completions via RDMA_WRITE_WITH_IMM (one wire op
    #: for data+notification, as in the verbs backend) instead of a second
    #: completion-ledger write (the uGNI/sw backends' mechanism).  Immediate
    #: mode requires 32-bit completion ids on the put path.
    use_imm: bool = True
    #: preposted zero-byte receives per peer when use_imm is on
    imm_prepost: int = 64
    #: return ledger credits after this fraction of the ring is consumed
    credit_fraction: float = 0.5
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
    #: base of the exponential retry backoff (doubles per attempt, plus
    #: seeded jitter drawn from [0, backoff_jitter_ns or backoff_base_ns)),
    #: ns
    backoff_base_ns: int = 20_000
    #: width of the seeded retry-jitter window; None keeps the historical
    #: default of one ``backoff_base_ns``.  When many ops against one peer
    #: share a deadline cadence (peer death), widen this so concurrent
    #: retries decorrelate instead of forming a synchronized retry storm
    backoff_jitter_ns: Optional[int] = None
    #: ceiling for the exponential retry backoff (ns)
    backoff_max_ns: int = 1_000_000
    #: slot-stable resends of a lost ledger-entry write before the hole is
    #: declared permanent.  Deliberately deeper than ``max_op_retries``:
    #: rings are consumed strictly in sequence order, so an unfilled slot
    #: stalls every later entry from that peer — ring liveness is worth
    #: retrying much harder than a single operation's latency budget
    entry_resend_limit: int = 12
    #: use the registration cache for user buffers
    rcache_enabled: bool = True
    #: max cached registrations before LRU eviction
    rcache_capacity: int = 128
    #: pinned-bytes ceiling for cached registrations (0 = unlimited);
    #: enforced alongside the entry-count cap with LRU victim selection
    rcache_max_pinned_bytes: int = 0
    #: merge adjacent/overlapping registrations into one covering region
    #: (keeps the interval index non-overlapping: O(log n) lookups)
    rcache_merge: bool = True
    #: use inline sends for payloads within the NIC inline limit
    use_inline: bool = True
    #: maximum outstanding PWC operations per peer before put backpressure
    max_outstanding: int = 256

    def replace(self, **kw) -> "PhotonConfig":
        return replace(self, **kw)

    def validate(self) -> None:
        if self.eager_limit <= 0:
            raise ValueError("eager_limit must be positive")
        for field in ("eager_slots", "completion_entries", "info_entries",
                      "fin_entries", "imm_prepost", "max_outstanding"):
            if getattr(self, field) < 2:
                raise ValueError(f"{field} must be >= 2")
        if not 0.0 < self.credit_fraction <= 1.0:
            raise ValueError("credit_fraction must be in (0, 1]")
        if self.max_op_retries < 0:
            raise ValueError("max_op_retries must be >= 0")
        if self.entry_resend_limit < 0:
            raise ValueError("entry_resend_limit must be >= 0")
        for field in ("op_timeout_ns", "backoff_base_ns", "backoff_max_ns"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.backoff_jitter_ns is not None and self.backoff_jitter_ns <= 0:
            raise ValueError("backoff_jitter_ns must be positive when set")
        if self.rcache_capacity < 1:
            raise ValueError("rcache_capacity must be >= 1")
        if self.rcache_max_pinned_bytes < 0:
            raise ValueError("rcache_max_pinned_bytes must be >= 0")


DEFAULT_CONFIG = PhotonConfig()
