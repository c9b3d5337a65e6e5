"""ibverbs-like RDMA API over the simulated fabric.

Layering: ``repro.fabric`` models hardware (links, NIC engines, memory);
this package provides the programming surface real middleware is written
against — contexts, protection domains, memory regions with lkeys/rkeys,
completion queues and reliable-connection queue pairs.  Photon and minimpi
are both implemented strictly on top of this API.
"""

from .cq import CompletionQueue, WorkCompletion
from .device import Context, Directory, ProtectionDomain
from .enums import Access, Opcode, QPState, WCOpcode, WCStatus
from .errors import (
    BadWorkRequest,
    NotConnected,
    ProtectionError,
    QueueFullError,
    VerbsError,
)
from .mr import MemoryRegion
from .qp import QueuePair, RecvWR, Repost, SendWR

__all__ = [
    "CompletionQueue", "WorkCompletion",
    "Context", "Directory", "ProtectionDomain",
    "Access", "Opcode", "QPState", "WCOpcode", "WCStatus",
    "BadWorkRequest", "NotConnected", "ProtectionError", "QueueFullError",
    "VerbsError",
    "MemoryRegion",
    "QueuePair", "RecvWR", "Repost", "SendWR",
]
