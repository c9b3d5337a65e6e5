"""Collective schedules, written once for both stacks, and Photon's wire.

The three schedules are module-level generators over a small *wire* that
each endpoint supplies; Photon's is :class:`CollectivesMixin` below, and
minimpi's ``Comm`` supplies its own and imports the schedules from here:

- ``_coll_begin()`` opens the next epoch and returns the member count
- ``_coll_send(dst, data, step)`` sends one step's payload
- ``_coll_recv(src, nbytes, step)`` receives one (generator → bytes)
- ``_coll_swap(dst, data, src, nbytes, step)`` does both in one step

Schedules:

- ``barrier``   — dissemination (⌈log2 n⌉ rounds of 0-byte swaps)
- ``allreduce`` — recursive doubling with a non-power-of-two fold, on
  numpy arrays
- ``allgather`` — ring, of equal-size blobs

A wire's receive also ends when the rank's failure detector
(``RankNode.health``) declares any member dead: the collective then raises
:class:`MemberDeadError` on every survivor instead of waiting for a
message that cannot come.  SPMD programs must invoke collectives in the
same order on every rank, as with the real libraries.

Photon's wire is built purely from eager PWC sends + probes on a reserved
completion-id space keyed by (epoch, step, chunk), demonstrating that the
PWC interface is sufficient for control-plane collectives.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..sim.core import SimulationError

__all__ = ["CollectivesMixin", "MemberDeadError", "REDUCE_OPS",
           "allgather", "allreduce", "barrier", "dead_member"]

_COLL_BASE = 1 << 62
_EPOCH_SHIFT = 20
_STEP_SHIFT = 8
_MAX_CHUNKS = 1 << _STEP_SHIFT

REDUCE_OPS: dict = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "prod": np.multiply,
}


class MemberDeadError(SimulationError):
    """A collective member was declared dead before this rank finished."""

    def __init__(self, rank: int, dead: int):
        super().__init__(
            f"rank {rank}: collective member {dead} was declared dead")
        self.rank = rank
        self.dead = dead


def dead_member(health, n: int) -> Optional[int]:
    """The lowest of ranks ``0..n-1`` that ``health`` declares dead, or
    None (always None on a rank with no failure detector)."""
    if health is None:
        return None
    return next((r for r in range(n) if health.is_dead(r)), None)


# ---------------------------------------------------------------- schedules
def barrier(ep):
    """Dissemination barrier (generator)."""
    n = ep._coll_begin()
    step, dist = 0, 1
    while dist < n:
        yield from ep._coll_swap((ep.rank + dist) % n, b"",
                                 (ep.rank - dist) % n, 0, step)
        dist <<= 1
        step += 1


def _combine(ep, fn, data: np.ndarray, raw: bytes):
    """Reduce a received payload into ``data``, charging the pass over it
    (generator → the new array)."""
    data = fn(data, np.frombuffer(raw, dtype=data.dtype).reshape(data.shape))
    yield ep.env.timeout(ep.memory.memcpy_cost_ns(data.nbytes))
    return data


def allreduce(ep, array: np.ndarray, op: str):
    """Recursive-doubling allreduce (generator → the reduced array).

    With ``pof2`` the largest power of two <= n, ranks >= pof2 first fold
    their data into rank - pof2, the low group doubles, and the folded
    ranks get the result back.
    """
    if op not in REDUCE_OPS:
        raise SimulationError(f"unknown reduce op {op!r}")
    n = ep._coll_begin()
    if n == 1:
        return array.copy()
    fn = REDUCE_OPS[op]
    data = np.array(array, copy=True)
    rank = ep.rank
    pof2 = 1 << (n.bit_length() - 1)
    rem = n - pof2
    if rank >= pof2:
        yield from ep._coll_send(rank - pof2, data.tobytes(), 0)
    elif rank < rem:
        raw = yield from ep._coll_recv(rank + pof2, data.nbytes, 0)
        data = yield from _combine(ep, fn, data, raw)
    if rank < pof2:
        for k in range(pof2.bit_length() - 1):
            partner = rank ^ (1 << k)
            raw = yield from ep._coll_swap(partner, data.tobytes(), partner,
                                           data.nbytes, 1 + k)
            data = yield from _combine(ep, fn, data, raw)
    unfold = pof2.bit_length()
    if rank < rem:
        yield from ep._coll_send(rank + pof2, data.tobytes(), unfold)
    elif rank >= pof2:
        raw = yield from ep._coll_recv(rank - pof2, data.nbytes, unfold)
        data = np.frombuffer(raw, dtype=data.dtype).reshape(data.shape).copy()
    return data


def allgather(ep, data: bytes):
    """Ring allgather of equal-size blobs (generator → list by rank)."""
    n = ep._coll_begin()
    rank = ep.rank
    out: List[bytes] = [b""] * n
    out[rank] = bytes(data)
    right, left = (rank + 1) % n, (rank - 1) % n
    for step in range(n - 1):
        out[(rank - step - 1) % n] = yield from ep._coll_swap(
            right, out[(rank - step) % n], left, len(data), step)
    return out


# ---------------------------------------------------------------- Photon
class CollectivesMixin:
    """Adds collectives to the Photon endpoint: the schedules above over
    eager PWC chunks."""

    def _coll_begin(self) -> int:
        self._coll_epoch += 1
        return self.cluster.n

    def _coll_cid(self, step: int, chunk: int) -> int:
        if chunk >= _MAX_CHUNKS:
            raise SimulationError("collective payload too large (chunk id)")
        return (_COLL_BASE | (self._coll_epoch << _EPOCH_SHIFT)
                | (step << _STEP_SHIFT) | chunk)

    def _coll_send(self, dst: int, data: bytes, step: int):
        """Send arbitrary-size collective payload as eager chunks (generator)."""
        limit = self.config.eager_limit
        nchunks = max(1, -(-len(data) // limit))
        for i in range(nchunks):
            chunk = data[i * limit:(i + 1) * limit]
            yield from self.send_pwc(dst, chunk,
                                     remote_cid=self._coll_cid(step, i))

    def _coll_recv(self, src: int, nbytes: int, step: int):
        """Receive a chunked collective payload (generator → bytes)."""
        limit = self.config.eager_limit
        nchunks = max(1, -(-nbytes // limit))
        health, n = self.node.health, self.cluster.n
        parts: List[bytes] = []
        for i in range(nchunks):
            cid = self._coll_cid(step, i)

            def match(s, c, want=cid):
                return s == src and c == want

            yield from self._wait_until(
                lambda: self._find_message(match) is not None
                or dead_member(health, n) is not None)
            got = self._pop_message(match)
            if got is None:
                raise MemberDeadError(self.rank, dead_member(health, n))
            parts.append(got[2])
        return b"".join(parts)

    def _coll_swap(self, dst: int, data: bytes, src: int, nbytes: int,
                   step: int):
        yield from self._coll_send(dst, data, step)
        return (yield from self._coll_recv(src, nbytes, step))

    def barrier(self):
        """Dissemination barrier (generator)."""
        yield from barrier(self)
        self.counters.add("photon.barriers")

    def allreduce(self, array: np.ndarray, op: str = "sum"):
        """Allreduce a numpy array; returns the reduced array (generator)."""
        out = yield from allreduce(self, array, op)
        self.counters.add("photon.allreduces")
        return out

    def allgather(self, data: bytes):
        """Ring allgather of equal-size blobs; returns list by rank (generator)."""
        out = yield from allgather(self, data)
        self.counters.add("photon.allgathers")
        return out
