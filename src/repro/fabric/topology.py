"""Cluster topologies: who is wired to whom.

A topology owns the :class:`~repro.fabric.link.Link` objects and answers
``path(src, dst)`` — the ordered list of directed links a chunk traverses.
Provided shapes:

- :class:`Star` — every rank has one uplink to a central switch and one
  downlink from it (the InfiniBand single-switch testbed shape).  Incast
  congestion shows up on the victim's downlink.
- :class:`Torus2D` — ranks on an R×C wrap-around grid, dimension-order
  (X then Y) routing over per-hop links (the Cray Gemini shape).  Path
  length, and therefore latency, grows with Manhattan distance.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..sim.core import Environment, SimulationError
from ..sim.trace import Counters
from .link import Chunk, Link
from .params import LinkParams

__all__ = ["Topology", "Star", "Torus2D", "make_topology"]


class Topology:
    """Base class; concrete topologies populate ``_links``."""

    def __init__(self, env: Environment, n: int, link_params: LinkParams,
                 counters: Counters, rng=None):
        if n < 1:
            raise SimulationError("topology needs at least one rank")
        self.env = env
        self.n = n
        self.link_params = link_params
        self.counters = counters
        self.rng = rng
        self._sinks: Dict[int, Callable[[Chunk], None]] = {}
        #: active partition cut: ordered (src, dst) pairs whose traffic is
        #: discarded at delivery.  Empty on every un-chaosed run, so the
        #: ``if self._cut`` guard in :meth:`deliver` is trace-neutral.
        self._cut: Set[Tuple[int, int]] = set()

    def _link_rng(self, name: str):
        """Per-link fault stream (only materialised on lossy fabrics)."""
        if self.link_params.drop_rate <= 0.0 or self.rng is None:
            return None
        return self.rng.stream(f"link.{name}")

    # -- wiring ---------------------------------------------------------------
    def attach(self, rank: int, sink: Callable[[Chunk], None]) -> None:
        """Register the ingress handler (NIC) for ``rank``."""
        self._sinks[rank] = sink

    def deliver(self, rank: int, chunk: Chunk) -> None:
        if self._cut and (chunk.msg.src, rank) in self._cut:
            self.counters.add("fabric.partition_drops")
            return
        sink = self._sinks.get(rank)
        if sink is None:
            raise SimulationError(f"no NIC attached at rank {rank}")
        sink(chunk)

    # -- partitions -------------------------------------------------------------
    def partition(self, group_a: Iterable[int],
                  group_b: Iterable[int]) -> None:
        """Cut all traffic between ``group_a`` and ``group_b``, both ways.

        The cut acts at the delivery point (the last hop into the
        destination NIC), so in-flight chunks that reach a cut rank after
        the partition starts are also discarded — a partition severs the
        fabric, it does not merely stop new injections.
        """
        a, b = list(group_a), list(group_b)
        for src in a:
            for dst in b:
                if src != dst:
                    self._cut.add((src, dst))
                    self._cut.add((dst, src))
        self.counters.add("fabric.partition_events")

    def heal(self, group_a: Optional[Iterable[int]] = None,
             group_b: Optional[Iterable[int]] = None) -> None:
        """Remove a cut (or, with no arguments, every cut)."""
        if group_a is None or group_b is None:
            if self._cut:
                self._cut.clear()
                self.counters.add("fabric.heal_events")
            return
        a, b = list(group_a), list(group_b)
        for src in a:
            for dst in b:
                self._cut.discard((src, dst))
                self._cut.discard((dst, src))
        self.counters.add("fabric.heal_events")

    def set_drop_rate(self, rate: float) -> None:
        """Change every link's drop rate from now on (a harness healing or
        degrading the fabric mid-run).  Each link books again the chunks
        whose service starts after now, with the draws they took; the NICs
        read the rate from ``link_params``.  A link built without a drop
        stream stays clean."""
        self.link_params = replace(self.link_params, drop_rate=rate)
        for link in self.iter_links():
            link.params = replace(link.params, drop_rate=rate)
            link._restate(False)

    def reachable(self, src: int, dst: int) -> bool:
        """False while a partition cuts the ordered pair ``src -> dst``."""
        return not self._cut or (src, dst) not in self._cut

    # -- observability ----------------------------------------------------------
    def iter_links(self) -> List[Link]:
        """Every link this topology owns (for per-link stats reporting)."""
        raise NotImplementedError

    def link(self, name: str) -> Link:
        """Look up a link by name (chaos targets links by name)."""
        for lk in self.iter_links():
            if lk.name == name:
                return lk
        raise SimulationError(f"no link named {name!r}")

    # -- routing ----------------------------------------------------------------
    def path(self, src: int, dst: int) -> List[Link]:
        raise NotImplementedError

    def path_latency_ns(self, src: int, dst: int) -> int:
        """Pure propagation latency along path(src, dst) (no queueing)."""
        return sum(link.latency_ns for link in self.path(src, dst))

    def hops(self, src: int, dst: int) -> int:
        return len(self.path(src, dst))

    def _check_pair(self, src: int, dst: int) -> None:
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise SimulationError(f"rank pair ({src}, {dst}) out of range")
        if src == dst:
            raise SimulationError("no path from a rank to itself")


class Star(Topology):
    """Single-switch star; switch forwarding delay folds into downlinks."""

    def __init__(self, env: Environment, n: int, link_params: LinkParams,
                 counters: Counters, switch_latency_ns: int = 150, rng=None):
        super().__init__(env, n, link_params, counters, rng)
        self.switch_latency_ns = switch_latency_ns
        self.uplinks: List[Link] = []
        self.downlinks: List[Link] = []
        for r in range(n):
            self.uplinks.append(
                Link(env, link_params, f"up{r}", counters,
                     rng=self._link_rng(f"up{r}")))
            down = Link(env, link_params, f"down{r}", counters,
                        extra_latency_ns=switch_latency_ns,
                        rng=self._link_rng(f"down{r}"))
            down.sink = lambda chunk, rank=r: self.deliver(rank, chunk)
            self.downlinks.append(down)

    def iter_links(self) -> List[Link]:
        return self.uplinks + self.downlinks

    def path(self, src: int, dst: int) -> List[Link]:
        self._check_pair(src, dst)
        return [self.uplinks[src], self.downlinks[dst]]


class Torus2D(Topology):
    """R×C wrap-around grid with dimension-order (X-then-Y) routing."""

    def __init__(self, env: Environment, n: int, link_params: LinkParams,
                 counters: Counters, rows: int = 0, cols: int = 0, rng=None):
        super().__init__(env, n, link_params, counters, rng)
        if rows and cols:
            if rows * cols != n:
                raise SimulationError(f"{rows}x{cols} != {n} ranks")
        else:
            rows, cols = _near_square(n)
        self.rows, self.cols = rows, cols
        # Directed link between each pair of grid neighbours, plus an
        # ejection hop per node that carries the chunk into the NIC.
        self._hop: Dict[Tuple[int, int], Link] = {}
        self._eject: List[Link] = []
        for r in range(n):
            for nb in self._neighbours(r):
                self._hop[(r, nb)] = Link(
                    env, link_params, f"hop{r}-{nb}", counters,
                    rng=self._link_rng(f"hop{r}-{nb}"))
            eject = Link(env, link_params, f"eject{r}", counters,
                         extra_latency_ns=0,
                         rng=self._link_rng(f"eject{r}"))
            eject.sink = lambda chunk, rank=r: self.deliver(rank, chunk)
            self._eject.append(eject)
        self._paths: Dict[Tuple[int, int], List[Link]] = {}

    def _coords(self, rank: int) -> Tuple[int, int]:
        return rank // self.cols, rank % self.cols

    def _rank(self, row: int, col: int) -> int:
        return (row % self.rows) * self.cols + (col % self.cols)

    def _neighbours(self, rank: int) -> List[int]:
        row, col = self._coords(rank)
        out = []
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nb = self._rank(row + dr, col + dc)
            if nb != rank and nb not in out:
                out.append(nb)
        return out

    def iter_links(self) -> List[Link]:
        return [self._hop[key] for key in sorted(self._hop)] + self._eject

    @staticmethod
    def _steps(delta: int, extent: int) -> List[int]:
        """Signed unit steps along one dimension, shortest wrap direction."""
        if delta == 0:
            return []
        forward = delta % extent
        backward = extent - forward
        if forward <= backward:
            return [1] * forward
        return [-1] * backward

    def path(self, src: int, dst: int) -> List[Link]:
        self._check_pair(src, dst)
        cached = self._paths.get((src, dst))
        if cached is not None:
            return cached
        srow, scol = self._coords(src)
        drow, dcol = self._coords(dst)
        links: List[Link] = []
        row, col = srow, scol
        for step in self._steps(dcol - scol, self.cols):
            nxt = self._rank(row, col + step)
            links.append(self._hop[(self._rank(row, col), nxt)])
            col = (col + step) % self.cols
        for step in self._steps(drow - srow, self.rows):
            nxt = self._rank(row + step, col)
            links.append(self._hop[(self._rank(row, col), nxt)])
            row = (row + step) % self.rows
        links.append(self._eject[dst])
        self._paths[(src, dst)] = links
        return links


def _near_square(n: int) -> Tuple[int, int]:
    """Factor n into (rows, cols) as close to square as possible."""
    best = (1, n)
    r = 1
    while r * r <= n:
        if n % r == 0:
            best = (r, n // r)
        r += 1
    return best


def make_topology(kind: str, env: Environment, n: int,
                  link_params: LinkParams, counters: Counters,
                  rng=None) -> Topology:
    """Build a topology by preset name ("star" or "torus2d")."""
    if kind == "star":
        return Star(env, n, link_params, counters, rng=rng)
    if kind == "torus2d":
        return Torus2D(env, n, link_params, counters, rng=rng)
    raise SimulationError(f"unknown topology kind {kind!r}")
