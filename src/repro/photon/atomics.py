"""Remote atomic operations with completion ids (extension API).

Later Photon revisions exposed the NIC's atomic units to runtimes for
global counters, locks and termination detection.  The operations target
an 8-byte word in a peer's registered buffer and complete like PWC ops:
``local_cid`` surfaces with the *old value* attached once the response
lands.

- ``atomic_fadd``  — fetch-and-add
- ``atomic_cswap`` — compare-and-swap

The result value is retrievable via :meth:`PhotonBase.atomic_result`
keyed by the local cid (the real API returns it through the request
ledger; a keyed lookup is the Python-shaped equivalent).
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import SimulationError
from ..verbs.enums import Opcode, WCStatus
from ..verbs.qp import SendWR

__all__ = ["AtomicsMixin"]

_U64 = (1 << 64) - 1


class AtomicsMixin:
    """Adds remote atomics to the Photon endpoint."""

    def _atomic_scratch(self) -> int:
        """Lazy per-endpoint scratch ring for atomic response landing."""
        ring = getattr(self, "_atomic_ring", None)
        if ring is None:
            base = self.memory.alloc(8 * 64, align=8)
            from ..verbs.enums import Access
            self.context.reg_mr_sync(self.pd, base, 8 * 64, Access.ALL)
            self._atomic_ring = (base, 0)
            ring = self._atomic_ring
        base, cursor = ring
        addr = base + (cursor % 64) * 8
        self._atomic_ring = (base, cursor + 1)
        return addr

    def _atomic(self, opcode: Opcode, dst: int, remote_addr: int, rkey: int,
                compare_add: int, swap: int, local_cid: Optional[int]):
        if dst == self.rank:
            yield from self._self_atomic(opcode, remote_addr, compare_add,
                                         swap, local_cid)
            return
        peer = self._peer(dst)
        landing = self._atomic_scratch()
        cid = local_cid

        def on_done():
            old = self.memory.read_u64(landing)
            if cid is not None:
                self._atomic_results[cid] = old
                self.local_cids.append((cid, WCStatus.SUCCESS))
                self.counters.add("photon.local_cids")

        def on_error():
            # fetch-add is not idempotent, so the reliability layer never
            # replays atomics: a lost atomic surfaces as an error cid
            if cid is not None:
                self.local_cids.append((cid, WCStatus.RETRY_EXC_ERR))
                self.counters.add("photon.local_cids")
            self.counters.add("photon.atomic_failures")

        wr = SendWR(opcode=opcode, local_addr=landing,
                    remote_addr=remote_addr, rkey=rkey,
                    compare_add=compare_add, swap=swap)
        yield from self._post(peer, wr, on_done, on_error)
        self.counters.add("photon.atomics")

    def atomic_fadd(self, dst: int, remote_addr: int, rkey: int,
                    operand: int, local_cid: Optional[int] = None):
        """Remote fetch-and-add on an 8-byte word (generator).

        The old value surfaces via :meth:`atomic_result` when
        ``local_cid`` pops out of the completion stream.
        """
        yield from self._atomic(Opcode.ATOMIC_FETCH_ADD, dst, remote_addr,
                                rkey, operand, 0, local_cid)

    def atomic_cswap(self, dst: int, remote_addr: int, rkey: int,
                     compare: int, swap: int,
                     local_cid: Optional[int] = None):
        """Remote compare-and-swap on an 8-byte word (generator)."""
        yield from self._atomic(Opcode.ATOMIC_CMP_SWAP, dst, remote_addr,
                                rkey, compare, swap, local_cid)

    def atomic_result(self, local_cid: int) -> int:
        """Old value of a completed atomic, keyed by its local cid."""
        try:
            return self._atomic_results.pop(local_cid)
        except KeyError:
            raise SimulationError(
                f"no atomic result recorded for cid {local_cid} (did its "
                "completion surface yet?)") from None

    def fetch_add_blocking(self, dst: int, remote_addr: int, rkey: int,
                           operand: int):
        """Convenience: fadd + wait; returns the old value (generator)."""
        cid = self._next_atomic_cid()
        yield from self.atomic_fadd(dst, remote_addr, rkey, operand,
                                    local_cid=cid)
        ok = yield from self._wait_until(
            lambda: any(c == cid for c, _ in self.local_cids),
            timeout_ns=10 ** 12)
        if not ok:
            raise SimulationError("blocking fetch-add lost its completion")
        entry = next(e for e in self.local_cids if e[0] == cid)
        self.local_cids.remove(entry)
        if entry[1] is not WCStatus.SUCCESS:
            raise SimulationError(
                f"blocking fetch-add failed with {entry[1].value}")
        return self.atomic_result(cid)

    def _next_atomic_cid(self) -> int:
        seq = getattr(self, "_atomic_cid_seq", 0) + 1
        self._atomic_cid_seq = seq
        return (1 << 61) | seq

    def _self_atomic(self, opcode, addr, compare_add, swap, local_cid):
        yield self.env.timeout(self.cluster.params.nic.atomic_ns)
        old = self.memory.read_u64(addr)
        if opcode is Opcode.ATOMIC_FETCH_ADD:
            self.memory.write_u64(addr, (old + compare_add) & _U64)
        else:
            if old == compare_add:
                self.memory.write_u64(addr, swap)
        if local_cid is not None:
            self._atomic_results[local_cid] = old
            self.local_cids.append((local_cid, WCStatus.SUCCESS))
            self.doorbell.fire()
