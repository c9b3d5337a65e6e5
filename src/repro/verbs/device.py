"""Device context, protection domains and the cluster directory.

A :class:`Context` is the per-rank handle to the simulated NIC: it owns
memory-region registration (with pinning cost), completion queues and queue
pairs.  The :class:`Directory` holds each rank's context once: a cluster
cannot build two contexts for one rank.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..fabric.memory import Memory
from ..fabric.nic import Nic
from ..fabric.params import FabricParams
from ..sim.core import Environment
from ..sim.trace import Counters
from .cq import CompletionQueue
from .enums import Access
from .errors import ProtectionError, VerbsError
from .mr import MemoryRegion

__all__ = ["Context", "ProtectionDomain", "Directory"]

#: fixed cost to deregister a memory region (ns)
DEREG_NS = 800


class Directory:
    """Rank → Context registry (the simulator's 'subnet manager')."""

    def __init__(self):
        self._contexts: Dict[int, "Context"] = {}

    def register(self, context: "Context") -> None:
        if context.rank in self._contexts:
            raise VerbsError(f"rank {context.rank} already registered")
        self._contexts[context.rank] = context


class ProtectionDomain:
    """Groups MRs and QPs that may be used together."""

    _ids = itertools.count(1)

    def __init__(self, context: "Context"):
        self.context = context
        self.handle = next(ProtectionDomain._ids)
        self.mrs: List[MemoryRegion] = []

    def find_local(self, addr: int, length: int,
                   need: Access = Access.NONE) -> MemoryRegion:
        """MR covering a local range (for validating lbuf arguments)."""
        for mr in self.mrs:
            if mr.valid and mr.covers(addr, length):
                if need and not (mr.access & need):
                    continue
                return mr
        raise ProtectionError(
            f"rank {self.context.rank}: no MR covers local range "
            f"[{addr}, {addr + length}) with {need}")


class Context:
    """Per-rank verbs device context."""

    def __init__(self, env: Environment, rank: int, nic: Nic, memory: Memory,
                 params: FabricParams, directory: Directory,
                 counters: Optional[Counters] = None):
        self.env = env
        self.rank = rank
        self.nic = nic
        self.memory = memory
        self.params = params
        self.directory = directory
        self.counters = counters or Counters()
        self._key_seq = itertools.count(1)
        self._qp_seq = itertools.count(1)
        self._mrs_by_rkey: Dict[int, MemoryRegion] = {}
        directory.register(self)

    # -- protection domains ----------------------------------------------------
    def alloc_pd(self) -> ProtectionDomain:
        return ProtectionDomain(self)

    # -- memory registration -----------------------------------------------------
    def reg_mr(self, pd: ProtectionDomain, addr: int, length: int,
               access: Access = Access.ALL):
        """Register a region, charging the pin cost (generator: yield from)."""
        cost = self.memory.pin_cost_ns(addr, length)
        yield self.env.timeout(cost)
        self.counters.add("verbs.reg_ns", cost)
        return self._make_mr(pd, addr, length, access)

    def reg_mr_sync(self, pd: ProtectionDomain, addr: int, length: int,
                    access: Access = Access.ALL) -> MemoryRegion:
        """Register without charging time — for t=0 bootstrap only."""
        return self._make_mr(pd, addr, length, access)

    def _make_mr(self, pd: ProtectionDomain, addr: int, length: int,
                 access: Access) -> MemoryRegion:
        if length <= 0:
            raise ProtectionError(f"MR length must be positive, got {length}")
        # bounds check against the rank's memory
        self.memory._check(addr, length)
        key = next(self._key_seq)
        mr = MemoryRegion(self, addr, length, access, lkey=key, rkey=key,
                          pd=pd)
        pd.mrs.append(mr)
        self._mrs_by_rkey[mr.rkey] = mr
        self.memory.pin(addr, length)
        # every registration counts, sync or timed, so that
        # reg_mr - dereg_mr == live MRs is an exact balance invariant
        self.counters.add("verbs.reg_mr")
        return mr

    def dereg_mr(self, mr: MemoryRegion):
        """Deregister (generator: charges the unpin cost)."""
        if not mr.valid:
            raise VerbsError(
                f"rank {self.rank}: double deregistration of rkey {mr.rkey}")
        yield self.env.timeout(DEREG_NS)
        mr.invalidate()
        self._mrs_by_rkey.pop(mr.rkey, None)
        if mr.pd is not None:
            try:
                mr.pd.mrs.remove(mr)
            except ValueError:  # pragma: no cover - defensive
                pass
        self.memory.unpin(mr.addr, mr.length)
        self.counters.add("verbs.dereg_mr")

    @property
    def live_mrs(self) -> int:
        """Registrations not yet deregistered (balance telemetry)."""
        return len(self._mrs_by_rkey)

    def check_remote(self, rkey: int, addr: int, length: int,
                     need: Access) -> MemoryRegion:
        """Validate an inbound remote access against this rank's MRs."""
        mr = self._mrs_by_rkey.get(rkey)
        if mr is None:
            raise ProtectionError(
                f"rank {self.rank}: unknown rkey {rkey}")
        mr.check(addr, length, need, what=f"remote {need}")
        return mr

    # -- queues -------------------------------------------------------------------
    def create_cq(self, capacity: int = 4096) -> CompletionQueue:
        return CompletionQueue(self.env, capacity)

    def create_qp(self, pd: ProtectionDomain, send_cq: CompletionQueue,
                  recv_cq: CompletionQueue, max_send_wr: int = 256,
                  max_recv_wr: int = 256):
        from .qp import QueuePair  # local import to avoid a cycle
        return QueuePair(self, pd, send_cq, recv_cq,
                         qp_num=next(self._qp_seq),
                         max_send_wr=max_send_wr, max_recv_wr=max_recv_wr)
