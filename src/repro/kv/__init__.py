"""``repro.kv`` — a Raft-replicated, sharded KV store over Photon PWC.

The first real *tenant* of the middleware stack: replication log and
client traffic ride runtime parcels (Photon PWC eager sends +
completion-ledger probes), one-sided reads go straight through
``get_pwc``, failover is driven by the phi-accrual health layer, and
chaos schedules make leader crashes a testable event.

Entry points: :func:`build_kv` wires one :class:`KVNode` per rank over a
cluster + photon endpoints; :class:`KVClient` is the session handle;
:mod:`repro.kv.scenario` is the harness experiments and chaos tests
are specs over.  See docs/API.md (`repro.kv`) and DESIGN.md §10.

Importing this package arms nothing: no processes, no RNG draws, no
photon traffic — golden traces stay bit-identical until a node is built
and started.
"""

from .client import ClientStats, KVClient
from .move import MoveError, move_group
from .raft import (CANDIDATE, FOLLOWER, LEADER, RaftConfig, RaftMsg,
                   RaftNode, decode_msg, encode_msg)
from .shard import (CodecError, Command, KVStateMachine, OP_CAS, OP_DELETE,
                    OP_MERGE, OP_NOOP, OP_PURGE, OP_PUT, OP_SEAL, RingView,
                    ShardMap, ST_CAS_FAIL, ST_MISS, ST_OK, ST_SEALED,
                    decode_command, encode_command, snapshot_keys)
from .store import KVConfig, KVNode, build_kv

__all__ = [
    "FOLLOWER", "CANDIDATE", "LEADER",
    "RaftConfig", "RaftMsg", "RaftNode", "encode_msg", "decode_msg",
    "ShardMap", "RingView", "KVStateMachine", "Command", "encode_command",
    "decode_command", "snapshot_keys", "CodecError",
    "OP_NOOP", "OP_PUT", "OP_CAS", "OP_DELETE",
    "OP_SEAL", "OP_MERGE", "OP_PURGE",
    "ST_OK", "ST_MISS", "ST_CAS_FAIL", "ST_SEALED",
    "KVConfig", "KVNode", "build_kv",
    "KVClient", "ClientStats",
    "move_group", "MoveError",
]
