"""On-the-wire layouts for Photon's ledger entries.

Every ledger entry begins with a monotonically increasing 64-bit sequence
number.  A consumer knows how many entries it has taken from a given peer's
ring; the slot at the read index is valid exactly when its sequence equals
``consumed + 1``.  Because the fabric delivers the bytes of one RDMA write
atomically with respect to our progress engine (placement happens before
the delivery event), and writes on one queue pair are ordered, the sequence
word doubles as the "entry complete" flag — the same trick the real verbs
backend plays with its ledger curclear/progress words.

All integers are little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
__all__ = [
    "CompletionEntry", "EagerHeader", "InfoEntry", "FinEntry",
    "COMPLETION_ENTRY_SIZE", "EAGER_HEADER_SIZE", "EAGER_SIZE_OFFSET",
    "INFO_ENTRY_SIZE", "FIN_ENTRY_SIZE", "CREDIT_WORD_SIZE",
]

# seq(8) cid(8) src(4) pad(4) op(8)
# ``op`` is the per-(producer, consumer) reliable-operation id used to
# dedup replayed entries at the target ledger; 0 = unsequenced.
_COMPLETION = struct.Struct("<QQi4xQ")
COMPLETION_ENTRY_SIZE = _COMPLETION.size  # 32

# seq(8) cid(8) src(4) size(4) op(8)
_EAGER_HDR = struct.Struct("<QQiiQ")
EAGER_HEADER_SIZE = _EAGER_HDR.size  # 32
#: where the payload size sits in an eager header (the ledger finds the
#: sequence trailer after the payload by it)
EAGER_SIZE_OFFSET = struct.calcsize("<QQi")  # 20

# seq(8) req(8) tag(8) addr(8) size(8) rkey(8) src(4) pad(4)
_INFO = struct.Struct("<QQQQQQi4x")
INFO_ENTRY_SIZE = _INFO.size  # 56

# seq(8) req(8)
_FIN = struct.Struct("<QQ")
FIN_ENTRY_SIZE = _FIN.size  # 16

#: consumer -> producer credit-return word
CREDIT_WORD_SIZE = 8


@dataclass(frozen=True)
class CompletionEntry:
    """Remote PWC completion notification."""

    seq: int
    cid: int
    src: int
    #: reliable-operation id for replay dedup (0 = unsequenced)
    op: int = 0

    def pack(self) -> bytes:
        return _COMPLETION.pack(self.seq, self.cid, self.src, self.op)

    @staticmethod
    def unpack_from(buf, offset: int = 0) -> "CompletionEntry":
        """Decode in place from any buffer — no intermediate slice."""
        seq, cid, src, op = _COMPLETION.unpack_from(buf, offset)
        return CompletionEntry(seq, cid, src, op)


@dataclass(frozen=True)
class EagerHeader:
    """Header preceding an eager payload in the eager ring slot."""

    seq: int
    cid: int
    src: int
    size: int
    #: reliable-operation id for replay dedup (0 = unsequenced)
    op: int = 0

    def pack(self) -> bytes:
        return _EAGER_HDR.pack(self.seq, self.cid, self.src, self.size,
                               self.op)

    @staticmethod
    def unpack_from(buf, offset: int = 0) -> "EagerHeader":
        """Decode in place from any buffer — no intermediate slice."""
        seq, cid, src, size, op = _EAGER_HDR.unpack_from(buf, offset)
        return EagerHeader(seq, cid, src, size, op)


@dataclass(frozen=True)
class InfoEntry:
    """Rendezvous buffer advertisement (sender -> receiver info ledger)."""

    seq: int
    req: int
    tag: int
    addr: int
    size: int
    rkey: int
    src: int

    def pack(self) -> bytes:
        return _INFO.pack(self.seq, self.req, self.tag, self.addr,
                          self.size, self.rkey, self.src)

    @staticmethod
    def unpack_from(buf, offset: int = 0) -> "InfoEntry":
        """Decode in place from any buffer — no intermediate slice."""
        seq, req, tag, addr, size, rkey, src = _INFO.unpack_from(buf, offset)
        return InfoEntry(seq, req, tag, addr, size, rkey, src)


@dataclass(frozen=True)
class FinEntry:
    """Rendezvous completion notification (receiver -> sender FIN ledger)."""

    seq: int
    req: int

    def pack(self) -> bytes:
        return _FIN.pack(self.seq, self.req)

    @staticmethod
    def unpack_from(buf, offset: int = 0) -> "FinEntry":
        """Decode in place from any buffer — no intermediate slice."""
        seq, req = _FIN.unpack_from(buf, offset)
        return FinEntry(seq, req)
