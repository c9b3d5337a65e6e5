"""Distributed level-synchronous BFS — the irregular mini-app.

Vertices are partitioned cyclically (owner = v mod n).  Each level, every
rank expands its frontier and ships the discovered neighbour ids to their
owners; a photon allreduce / minimpi allreduce on the next-frontier size
decides termination.  Two transports:

- ``photon``: one *visit parcel* per destination per level (batched ids)
  over the parcel runtime on the PWC transport;
- ``mpi``: an alltoallv of id batches per level.

This is the graph-runtime workload the Photon paper motivates (HPX-5 /
AM++ style): many small, unpredictable messages where matching-free
delivery pays off.  Results verify against networkx BFS depths.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cluster import Cluster
from ..minimpi.comm import Comm
from ..photon.api import Photon
from ..runtime import ActionRegistry, Runtime, build_runtime
from ..sim.core import SimulationError

__all__ = ["BfsResult", "make_graph", "reference_depths",
           "run_bfs_photon", "run_bfs_mpi"]

_U32 = struct.Struct("<I")


@dataclass
class BfsResult:
    """Per-rank outcome: depths of the vertices this rank owns."""

    rank: int
    depths: Dict[int, int]
    elapsed_ns: int
    levels: int
    parcels: int


def make_graph(n_vertices: int, avg_degree: float, seed: int = 1):
    """Deterministic Erdős–Rényi-ish adjacency (numpy, no networkx needed).

    Returns adjacency as a dict v -> sorted list of neighbours; the graph
    is undirected and may be disconnected (unreached vertices keep depth
    -1, as in Graph500 validation).
    """
    rng = np.random.default_rng(seed)
    n_edges = int(n_vertices * avg_degree / 2)
    us = rng.integers(0, n_vertices, size=n_edges)
    vs = rng.integers(0, n_vertices, size=n_edges)
    adj: Dict[int, List[int]] = {v: [] for v in range(n_vertices)}
    for u, v in zip(us.tolist(), vs.tolist()):
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    for v in adj:
        adj[v] = sorted(set(adj[v]))
    return adj


def reference_depths(adj: Dict[int, List[int]], root: int) -> Dict[int, int]:
    """Sequential BFS depths (unreached = -1)."""
    depths = {v: -1 for v in adj}
    depths[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if depths[w] < 0:
                    depths[w] = d
                    nxt.append(w)
        frontier = nxt
    return depths


def _owned(adj: Dict[int, List[int]], rank: int, n: int) -> Dict[int, List[int]]:
    return {v: nbrs for v, nbrs in adj.items() if v % n == rank}


def _pack_ids(ids: List[int]) -> bytes:
    return b"".join(_U32.pack(v) for v in ids)


def _unpack_ids(raw: bytes) -> List[int]:
    return [_U32.unpack_from(raw, i)[0] for i in range(0, len(raw), 4)]


def run_bfs_photon(cluster: Cluster, endpoints: List[Photon],
                   adj: Dict[int, List[int]], root: int,
                   max_parcel: int = 1 << 20):
    """Build per-rank BFS programs on the Photon parcel runtime.

    Returns (programs, results).
    """
    n = cluster.n
    registry = ActionRegistry()
    runtimes = build_runtime(cluster, registry, "photon", photon=endpoints,
                             max_parcel=max_parcel)
    inboxes: List[List[int]] = [[] for _ in range(n)]
    visits_seen = [0] * n

    def visit(rt: Runtime, src: int, payload: bytes):
        inboxes[rt.rank].extend(_unpack_ids(payload))
        visits_seen[rt.rank] += 1

    registry.register("visit", visit)
    results: List[Optional[BfsResult]] = [None] * n

    def program(rank: int):
        ep = endpoints[rank]
        rt = runtimes[rank]
        env = cluster.env
        owned = _owned(adj, rank, n)
        depths = {v: -1 for v in owned}
        t0 = env.now
        frontier = []
        if root % n == rank:
            depths[root] = 0
            frontier = [root]
        level = 0
        while True:
            # expand: bucket neighbour ids by owner
            buckets: List[List[int]] = [[] for _ in range(n)]
            for u in frontier:
                for w in owned[u]:
                    buckets[w % n].append(w)
            # one visit parcel per destination per level (possibly empty)
            for dst in range(n):
                if dst == rank:
                    inboxes[rank].extend(buckets[dst])
                    visits_seen[rank] += 1
                else:
                    yield from rt.send(dst, "visit", _pack_ids(buckets[dst]))
            # everyone sends n-1 remote parcels + self-delivers one batch
            expect = (level + 1) * n
            ok = yield from rt.process_until(
                lambda: visits_seen[rank] >= expect,
                timeout_ns=20_000_000_000)
            if not ok:
                raise SimulationError(f"rank {rank}: BFS level {level} "
                                      "parcel wait timed out")
            # absorb the inbox into the next frontier
            nxt = []
            for w in inboxes[rank]:
                if depths.get(w, 0) < 0:
                    depths[w] = level + 1
                    nxt.append(w)
            inboxes[rank].clear()
            frontier = sorted(set(nxt))
            total = yield from ep.allreduce(
                np.array([len(frontier)], dtype=np.int64), "sum")
            level += 1
            if int(total[0]) == 0:
                break
        results[rank] = BfsResult(rank=rank, depths=depths,
                                  elapsed_ns=env.now - t0, levels=level,
                                  parcels=rt.counters.get("rt.parcels_sent"))

    return [program(r) for r in range(n)], results


def run_bfs_mpi(cluster: Cluster, comms: List[Comm],
                adj: Dict[int, List[int]], root: int):
    """Build per-rank BFS programs on minimpi (alltoallv per level)."""
    n = cluster.n
    results: List[Optional[BfsResult]] = [None] * n

    def program(rank: int):
        comm = comms[rank]
        env = cluster.env
        owned = _owned(adj, rank, n)
        depths = {v: -1 for v in owned}
        t0 = env.now
        frontier = []
        if root % n == rank:
            depths[root] = 0
            frontier = [root]
        level = 0
        msgs = 0
        while True:
            buckets: List[List[int]] = [[] for _ in range(n)]
            for u in frontier:
                for w in owned[u]:
                    buckets[w % n].append(w)
            blobs = [_pack_ids(b) for b in buckets]
            incoming = yield from comm.alltoall(blobs)
            msgs += n - 1
            nxt = []
            for raw in incoming:
                for w in _unpack_ids(raw):
                    if depths.get(w, 0) < 0:
                        depths[w] = level + 1
                        nxt.append(w)
            frontier = sorted(set(nxt))
            total = yield from comm.allreduce(
                np.array([len(frontier)], dtype=np.int64), "sum")
            level += 1
            if int(total[0]) == 0:
                break
        results[rank] = BfsResult(rank=rank, depths=depths,
                                  elapsed_ns=env.now - t0, levels=level,
                                  parcels=msgs)

    return [program(r) for r in range(n)], results


def merge_depths(results: List[BfsResult]) -> Dict[int, int]:
    """Combine per-rank depth maps into one."""
    out: Dict[int, int] = {}
    for res in results:
        out.update(res.depths)
    return out
