"""Distributed Monte-Carlo Tree Search over active messages (Seriema's
demo workload).

The search tree is a synthetic game tree (branching ``B``, depth ``D``)
whose statistics are sharded across ranks by a node-id hash; rollout
rewards are a pure hash of (leaf, iteration), so the whole search is
deterministic — no RNG streams, no wall clock.  Every rank runs
iterations against the *shared* tree concurrently:

- **selection**: walking down from the root, a rank fans out one
  ``mcts.stats`` invocation per child to each child's owner (tiny
  request, tiny reply — the latency-sensitive irregular traffic the AM
  layer exists for), then picks the UCT-best child;
- **backpropagation**: one ``mcts.update`` invocation per node on the
  path (commutative add, so concurrent updates from different ranks
  need no locks).

This is exactly Seriema's pattern: many small invocations with small
replies on the critical path, where invocation coalescing and credit
backpressure decide throughput.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster import Cluster
from ..runtime import ActionRegistry, Runtime
from ..sim.core import SimulationError

__all__ = ["MctsResult", "build_mcts", "run_mcts", "owner_of",
           "rollout_reward"]

_NODE = struct.Struct("<q")
_STATS = struct.Struct("<qq")  # visits, total reward (milli-units)
_UPDATE = struct.Struct("<qq")  # node, reward (milli-units)

#: UCT exploration constant (×1000, kept integral in the wire format)
_EXPLORE = 1.2


def _mix(x: int) -> int:
    """Deterministic 64-bit mixer (splitmix64 finaliser)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def owner_of(node: int, n_ranks: int) -> int:
    """Which rank owns a node's statistics."""
    return _mix(node) % n_ranks


def rollout_reward(leaf: int, iteration: int) -> int:
    """Deterministic playout outcome in milli-units [0, 1000)."""
    return _mix(leaf * 1_000_003 + iteration) % 1000


def _children(node: int, branching: int) -> List[int]:
    base = node * branching
    return [base + k + 1 for k in range(branching)]


@dataclass
class MctsResult:
    """Per-rank outcome of a search."""

    rank: int
    iterations: int
    invokes: int
    elapsed_ns: int
    #: statistics shard this rank owns: node -> (visits, reward_milli)
    owned: Dict[int, tuple]


def build_mcts(registry: ActionRegistry, n_ranks: int):
    """Register the MCTS actions; returns the per-rank stats shards.

    ``mcts.stats`` replies with the (visits, total reward) pair of one
    node; ``mcts.update`` adds one visit's reward.  Both are invoked via
    ``rt.invoke`` — the replies are what the search's selection step
    blocks on.
    """
    shards: List[Dict[int, List[int]]] = [{} for _ in range(n_ranks)]

    def stats(rt: Runtime, src: int, payload: bytes):
        (node,) = _NODE.unpack(payload)
        entry = shards[rt.rank].get(node)
        if entry is None:
            return _STATS.pack(0, 0)
        return _STATS.pack(entry[0], entry[1])

    def update(rt: Runtime, src: int, payload: bytes):
        node, reward = _UPDATE.unpack(payload)
        entry = shards[rt.rank].get(node)
        if entry is None:
            entry = shards[rt.rank][node] = [0, 0]
        entry[0] += 1
        entry[1] += reward
        return b""

    registry.register("mcts.stats", stats)
    registry.register("mcts.update", update)
    return shards


def run_mcts(cluster: Cluster, runtimes: List[Runtime],
             shards: List[Dict[int, List[int]]], iters_per_rank: int,
             branching: int = 4, depth: int = 3,
             timeout_ns: int = 60_000_000_000):
    """Build per-rank search programs; returns (programs, results).

    Runtimes must have the AM layer enabled (``build_runtime(...,
    am=True)``).  Each rank performs ``iters_per_rank`` select → rollout
    → backpropagate iterations, then keeps serving until every rank is
    done (a plain ``mcts.done`` parcel per rank ends the run).
    """
    n = cluster.n
    registry = runtimes[0].registry
    done_seen = [0] * n

    def done(rt: Runtime, src: int, payload: bytes):
        done_seen[rt.rank] += 1

    registry.register("mcts.done", done)
    results: List[Optional[MctsResult]] = [None] * n

    def fetch_stats(rt: Runtime, nodes: List[int]):
        """Fan out one stats invocation per node; returns their (visits,
        reward) pairs in order (generator)."""
        futs = []
        for node in nodes:
            fut = yield from rt.invoke(owner_of(node, n), "mcts.stats",
                                       _NODE.pack(node))
            futs.append(fut)
        out = []
        for fut in futs:
            raw = yield from fut.wait(rt, timeout_ns)
            out.append(_STATS.unpack(raw))
        return out

    def program(rank: int):
        rt = runtimes[rank]
        env = cluster.env
        t0 = env.now
        invokes = 0
        for it in range(iters_per_rank):
            # selection: descend depth levels by UCT over fetched stats
            path = [0]
            node = 0
            (pv, _pr), = yield from fetch_stats(rt, [node])
            invokes += 1
            for _level in range(depth):
                kids = _children(node, branching)
                stats = yield from fetch_stats(rt, kids)
                invokes += len(kids)
                log_pv = math.log(pv + 2)
                best, best_score, best_v = kids[0], None, 0
                for kid, (v, r) in zip(kids, stats):
                    mean = (r / (v * 1000)) if v else 0.0
                    score = mean + _EXPLORE * math.sqrt(log_pv / (v + 1))
                    if best_score is None or score > best_score:
                        best, best_score, best_v = kid, score, v
                node = best
                pv = best_v
                path.append(node)
            # rollout (pure hash) + backpropagation along the path
            reward = rollout_reward(node, rank * iters_per_rank + it)
            futs = []
            for v in path:
                fut = yield from rt.invoke(owner_of(v, n), "mcts.update",
                                           _UPDATE.pack(v, reward))
                futs.append(fut)
            invokes += len(futs)
            for fut in futs:
                yield from fut.wait(rt, timeout_ns)
        # drain our coalescing batches, then announce completion
        yield from rt.transport.flush()
        for dst in range(n):
            yield from rt.send(dst, "mcts.done")
        yield from rt.transport.flush()
        ok = yield from rt.process_until(lambda: done_seen[rank] >= n,
                                         timeout_ns)
        if not ok:
            raise SimulationError(f"rank {rank}: MCTS completion wait "
                                  "timed out")
        results[rank] = MctsResult(
            rank=rank, iterations=iters_per_rank, invokes=invokes,
            elapsed_ns=env.now - t0,
            owned={v: tuple(e) for v, e in shards[rank].items()})

    return [program(r) for r in range(n)], results
