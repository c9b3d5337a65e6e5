"""One measuring harness: a ``perf/`` block's kernel events, host calls
and simulated time, and the functions no entry point calls (test tree
only: production code has no hook for it).

    python tests/measure.py events r1                 # an experiment
    python tests/measure.py events pwc_sweep --top 15 # a perf/ block
    python tests/measure.py calls kv_chaos --seed 7001 --scale 0.2
    python tests/measure.py calls am_fanout --setup   # the block's set-up
    python tests/measure.py timeline kv_write --ops 4
    python tests/measure.py reach [--full] [--check] [ids|examples|perf|...]
    python tests/measure.py scale --ranks 8 32 128    # bootstrap cost
    python tests/measure.py calls kv_write --src OLD/src --src NEW/src

Each measures the ``repro`` on ``PYTHONPATH`` (else this checkout's
``src/``), or with ``--src DIR`` (repeatable) each tree in a child
interpreter, side by side; ``--json`` prints JSON.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import gc
import io
import json
import os
import re
import resource
import runpy
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # perf/ and tests/ from this checkout
    sys.path[0] = str(ROOT)
    sys.path.append(str(ROOT / "src"))

#: on across this module's imports: ``reach`` counts import-time calls
IMPORTS = cProfile.Profile()
IMPORTS.enable()
import repro.cluster  # noqa: E402
from perf.catalog import LAYERS  # noqa: E402
from repro.bench.experiments import ALL  # noqa: E402
from repro.kv import raft, shard, store  # noqa: E402
from repro.kv.client import KVClient  # noqa: E402
from repro.sim import core  # noqa: E402
from tests import stepping  # noqa: E402
IMPORTS.disable()

SRC = Path(repro.__file__).resolve().parent.parent  # the tree measured
_REPRO = str(SRC / "repro") + "/"
#: the non-experiment entry points: the examples, the perf/ blocks and
#: the scenarios of ``python -m repro.obs.report``
OTHERS = ("examples", "perf", "demo", "chaos", "failover", "restart")
ALLOW = ROOT / "tests" / "reach_allow.txt"


def run_block(workload: str, seed: int, scale: float, start, stop=None,
              setup: bool = False):
    """Build one ``perf/`` block, run its timed region with ``start(block)``
    and ``stop()`` directly around ``block.run`` (with ``setup``,
    ``start(None)`` and ``stop()`` around the block's constructor, the
    part ``setup_s`` times), verify; its result."""
    from perf.trace import HostTrace
    from perf.workloads import WORKLOADS
    trace = HostTrace(enabled=False)
    if setup:
        gc.collect()  # earlier garbage is not the constructor's to free
        start(None)
    block = WORKLOADS[workload](seed, scale, spans=False, trace=trace)
    if setup:  # the hooks are spent on the constructor
        if stop is not None:
            stop()
        start, stop = (lambda block: None), None
    gc.collect()  # as perf/harness.py: no earlier garbage freed mid-block
    with trace.span("timed_region") as region:
        start(block)
        block.run(region)
        if stop is not None:
            stop()
    result = block.finish()
    if result.errors:
        sys.exit(f"verification failed: {result.errors}")
    return result


def profiled(profile: cProfile.Profile) -> list:
    """``(function, calls, [(caller, calls from it)])`` per profiler entry,
    one per code object (``pstats`` would merge every dataclass ``__init__``
    into one ``<string>:2``); a function is ``(file, first line, name)``."""
    def key(code):
        return code if isinstance(code, str) else (
            code.co_filename, code.co_firstlineno, code.co_name)

    entries = profile.getstats()
    callers: dict = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((key(entry.code),
                                                     sub.callcount))
    return [(key(e.code), e.callcount, callers.get(e.code, []))
            for e in entries]


# ------------------------------------------------------------------ events
def _rel(filename: str):
    """Path below ``src/repro``, or None for a file outside it."""
    return filename[len(_REPRO):] if filename.startswith(_REPRO) else None


def _site(frame) -> str:
    """The first model line at or above ``frame`` (and the
    ``sim/resources.py`` function the event went through)."""
    via = kernel = driver = None
    while frame is not None:
        code = frame.f_code
        rel = _rel(code.co_filename)
        if rel is None:
            if driver is None and code.co_filename != __file__:
                driver = (f"(driver) {Path(code.co_filename).name}:"
                          f"{frame.f_lineno} {code.co_name}")
        elif not rel.startswith("sim/"):
            return f"{rel}:{frame.f_lineno} {code.co_name}" + (
                f" via {via}" if via else "")
        else:
            if rel == "sim/resources.py":
                via = code.co_name
            kernel = kernel or f"{rel}:{frame.f_lineno} {code.co_name}"
        frame = frame.f_back
    # no model frame: a driver did, or the kernel (a Signal's alarm)
    return driver or kernel


class OriginEnvironment(stepping.SteppedEnvironment):
    """Tags each event with its origin when it is scheduled (the kernel's
    one entry point, ``_schedule``) and counts it under that origin when
    fired."""

    #: origin -> events fired, over every instance (of every cluster)
    fired: Counter = Counter()

    def __init__(self):
        super().__init__()
        self._origins: dict = {}  # id(scheduled event) -> origin
        self._asked: dict = {}    # condition -> its all_of call site

    def _tag(self, event: core.Event) -> None:
        """Charge ``event`` to ``pkg/file.py:line function``."""
        if isinstance(event, core.Process):
            # a process end is the kernel's: charge the generator's code
            code = event._generator.gi_code
            rel = (_rel(code.co_filename)
                   or f"(driver) {Path(code.co_filename).name}")
            origin = (f"{rel}:{code.co_firstlineno} {code.co_name} "
                      "(process end)")
        else:
            # a Condition is the kernel's too: charge its all_of call
            origin = self._asked.pop(event, None) or _site(sys._getframe(1))
        self._origins[id(event)] = origin

    def _fired(self, event: core.Event) -> None:
        super()._fired(event)
        OriginEnvironment.fired[self._origins.pop(id(event))] += 1

    def all_of(self, events):
        # asked first: __init__ schedules it if its events have fired
        cond = core.AllOf.__new__(core.AllOf)
        self._asked[cond] = _site(sys._getframe(1))
        cond.__init__(self, events)
        return cond

    def _schedule(self, event, delay: int, priority: int = core.NORMAL):
        self._tag(event)
        super()._schedule(event, delay, priority)

    def unschedule(self, event: core.Event, when: int) -> None:
        super().unschedule(event, when)
        del self._origins[id(event)]


def events(what: str, seed: int = 7001, scale: float = 0.2):
    """(events by origin, ops) of a quick experiment (0 ops) or a block."""
    OriginEnvironment.fired.clear()
    with mock.patch("repro.cluster.Environment", OriginEnvironment):
        if what in ALL:
            ALL[what].run(quick=True)
            return Counter(OriginEnvironment.fired), 0
        fired: Counter = Counter()
        result = run_block(what, seed, scale,
                           lambda block: OriginEnvironment.fired.clear(),
                           lambda: fired.update(OriginEnvironment.fired))
    return fired, result.completed


def by_package(fired: Counter) -> Counter:
    by_pkg: Counter = Counter()
    for origin, n in fired.items():
        # "fabric/link.py:202 ..." -> fabric; "cluster.py:113 ..." -> cluster
        by_pkg["(driver)" if origin.startswith("(")
               else re.split(r"/|\.py", origin, maxsplit=1)[0]] += n
    return by_pkg


def events_report(fired: Counter, ops: int = 0, top: int = 20):
    total = sum(fired.values())
    per = (lambda n: f"{n / ops:9.3f}/op") if ops else (lambda n: f"{n:9d}")
    yield f"{total} events" + (f", {ops} ops, {total / ops:.3f} events/op"
                               if ops else "")
    yield "by package:"
    for pkg, n in by_package(fired).most_common():
        yield f"  {per(n)}  {n / total:6.1%}  {pkg}"
    yield f"top {top} origins:"
    for origin, n in fired.most_common(top):
        yield f"  {per(n)}  {n / total:6.1%}  {origin}"


# ------------------------------------------------------------------- calls
#: the package below ``repro/`` a source file belongs to (as perf/ledger.py)
_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def _layer(func):
    """A profiled function's layer (None: a builtin, a file outside)."""
    match = None if isinstance(func, str) else _PACKAGE.search(func[0])
    return match.group(1) if match and match.group(1) in LAYERS else None


def calls(workload: str, seed: int = 7001, scale: float = 0.2,
          setup: bool = False):
    """(calls by layer, by ``file:line(name)``, ops) of one block's timed
    region, or with ``setup`` of its constructor (ops 1: per block); a
    builtin or library function counts in each caller's layer."""
    profile = cProfile.Profile()
    result = run_block(workload, seed, scale,
                       lambda block: profile.enable(), profile.disable,
                       setup)
    by_layer: Counter = Counter()
    by_function: Counter = Counter()
    for func, nc, callers in profiled(profile):
        by_function[func if isinstance(func, str)
                    else "{}:{}({})".format(*func)] += nc
        if _layer(func) is not None:
            by_layer[_layer(func)] += nc
            continue
        for caller, n in callers:
            by_layer[_layer(caller) or "other"] += n
        by_layer["other"] += nc - sum(n for _caller, n in callers)
    return by_layer, by_function, 1 if setup else result.completed


def calls_report(by_layer: Counter, by_function: Counter, ops: int, top=20,
                 unit: str = "op"):
    total = sum(by_layer.values())
    yield f"{total} calls, {ops} {unit}s, {total / ops:.1f} calls_per_{unit}"
    yield "by layer:"
    for layer in (*LAYERS, "other"):
        if by_layer[layer]:
            yield (f"  {by_layer[layer] / ops:10.1f}/{unit}  "
                   f"{by_layer[layer] / total:6.1%}  {layer}")
    yield f"top {top} functions:"  # ties by name, not memory layout
    ranked = sorted(by_function.items(), key=lambda fn: (-fn[1], fn[0]))
    for func, n in ranked[:top]:
        yield f"  {n / ops:10.1f}/{unit}  {func}"


# ---------------------------------------------------------------- timeline
class Recorder:
    """Everything the wrapped methods saw while ``want`` RPCs were open."""

    def __init__(self, ops: int = 0):
        self.ops, self.region, self.want = ops, None, 0  # 0: not recording
        self.rpcs = []          # [t0, t1, rank, client, seq, kind, status]
        self.reqs = []          # (t, rank, client, seq, group, index)
        self.resps = []         # (t, rank, client, seq, status)
        self.rafts = []         # (t, rank, msg, commit before, commit after)
        self.ships = []         # (t0, t1, rank, dst, action, decoded)
        self.applies = []       # (t0, t1, rank, n)

    def start(self, block) -> None:
        """Record the first ``ops`` RPCs from here (not the preload)."""
        self.region, self.want = block.cl.env.now, self.ops

    @property
    def on(self) -> bool:
        return self.want and (len(self.rpcs) < self.want
                              or any(r[1] is None
                                     for r in self.rpcs[:self.want]))


_DECODE = {store.ACT_RAFT: raft.decode_msg,
           store.ACT_REQ: store.unpack_request,
           store.ACT_RESP: store.unpack_response}


def _decode(action, payload):
    try:
        return _DECODE[action](payload)
    except (KeyError, shard.CodecError):
        return None


def install(rec: Recorder, patch=setattr) -> None:
    """Wrap ``KVClient._rpc`` and five ``KVNode`` methods to report to
    ``rec`` (a test passes ``monkeypatch.setattr`` as ``patch``)."""
    node = store.KVNode
    rpc, ship, apply = KVClient._rpc, node._ship, node._apply_committed
    on_req, on_raft, on_resp = (node.handle_request, node.handle_raft,
                                node.handle_response)

    def _rpc(self, kind, body, seq, key=None, group=None):
        row = [self.env.now, None, self.node.rank, self.client_id, seq,
               kind, None] if rec.on else None
        if row:
            rec.rpcs.append(row)
        status, value = yield from rpc(self, kind, body, seq, key, group)
        if row is not None:
            row[1], row[6] = self.env.now, status
        return status, value

    def _ship(self, dst, action, payload):
        t0 = self.env.now
        yield from ship(self, dst, action, payload)
        if rec.on:
            rec.ships.append((t0, self.env.now, self.rank, dst, action,
                              _decode(action, payload)))

    def _apply_committed(self):
        t0 = self.env.now
        n = yield from apply(self)
        if rec.on and n:
            rec.applies.append((t0, self.env.now, self.rank, n))
        return n

    def handle_request(self, src, payload):
        on_req(self, src, payload)
        decoded = _decode(store.ACT_REQ, payload) if rec.on else None
        if decoded is not None:  # (kind, client, seq, group, ...)
            at = self._pending_uid.get(decoded[1:3])
            rec.reqs.append((self.env.now, self.rank, *decoded[1:4],
                             at[1] if at else None))

    def handle_raft(self, src, payload):
        msg = _decode(store.ACT_RAFT, payload) if rec.on else None
        rn = self.raft.get(msg.group) if msg is not None else None
        before = rn.commit_index if rn is not None else 0
        on_raft(self, src, payload)
        if rn is not None:
            rec.rafts.append((self.env.now, self.rank, msg, before,
                              rn.commit_index))

    def handle_response(self, src, payload):
        on_resp(self, src, payload)
        decoded = _decode(store.ACT_RESP, payload) if rec.on else None
        if decoded is not None:  # (status, hint, client, seq, value)
            rec.resps.append((self.env.now, self.rank, *decoded[2:4],
                              decoded[0]))

    patch(KVClient, "_rpc", _rpc)
    for wrapper in (_ship, _apply_committed, handle_request, handle_raft,
                    handle_response):
        patch(node, wrapper.__name__, wrapper)


def _carries(msg, group, index) -> bool:
    return (isinstance(msg, raft.RaftMsg) and msg.kind == raft.MSG_APPEND
            and msg.group == group
            and msg.prev_index < index <= msg.prev_index + len(msg.entries))


def _acks(msg, group, index) -> bool:
    return (isinstance(msg, raft.RaftMsg)
            and msg.kind == raft.MSG_APPEND_REPLY and msg.group == group
            and msg.success and msg.match_index >= index)


def hops(rec: Recorder, rpc) -> list:
    """``[(t, rank, text)]`` of everything ``rpc`` waited on, in order."""
    t0, t1, rank, client, seq, kind, status = rpc
    uid = (client, seq)
    kinds = {0: "write", 1: "read", 2: "loc", 3: "snap"}
    out = [(t0, rank, f"_rpc starts ({kinds.get(kind, kind)})")]
    answers = [(a, b, r, dst, dec[0])
               for a, b, r, dst, action, dec in rec.ships
               if action == store.ACT_RESP and dec
               and (dec[2], dec[3]) == uid and t0 <= a <= t1]
    # same-instant hops print in causal order: the sort is stable
    tail = [(b, r, f"answer (status {st}) shipped to r{dst} in "
                   f"{(b - a) / 1e3:.2f}") for a, b, r, dst, st in answers]
    tail += [(t, r, f"handle_response: status {st} filed")
             for t, r, c, s, st in rec.resps
             if (c, s) == uid and t0 <= t <= t1]
    tail.append((t1, rank, f"_rpc returns status {status}"))
    entry = None
    for t, r, c, s, group, index in rec.reqs:
        if (c, s) == uid and t0 <= t <= t1:
            out.append((t, r, "handle_request" + (
                f": proposed as g{group} index {index}" if index else "")))
            if index and entry is None:
                entry = (t, r, group, index)
    # no entry (a read): no leader, so nothing below matches
    t_req, leader, group, index = entry or (None,) * 4
    followers, t_commit = {}, None
    for a, b, r, dst, action, dec in rec.ships:
        if r == leader and a >= t_req and _carries(dec, group, index) \
                and dst not in followers:
            followers[dst] = a
            out.append((b, r, f"AppendEntries [{dec.prev_index + 1}.."
                              f"{dec.prev_index + len(dec.entries)}] commit "
                              f"{dec.commit} shipped to r{dst} in "
                              f"{(b - a) / 1e3:.2f}"))
    for f, t_sent in followers.items():
        t_in = next((t for t, r, msg, _b, _a in rec.rafts
                     if r == f and t >= t_sent
                     and _carries(msg, group, index)), None)
        ack = next(((a, b) for a, b, r, dst, _act, dec in rec.ships
                    if r == f and dst == leader and t_in is not None
                    and a >= t_in and _acks(dec, group, index)), None)
        if ack is None:
            continue
        out.append((t_in, f, "handle_raft: AppendEntries appended"))
        out.append((ack[1], f, f"ack shipped in {(ack[1] - ack[0]) / 1e3:.2f}"))
        out += [(b, f, f"applied {n} (earlier) entries for {(b - a) / 1e3:.2f}")
                for a, b, r, n in rec.applies
                if r == f and t_in <= a <= ack[1]]
        got = next(((t, before, after) for t, r, msg, before, after
                    in rec.rafts if r == leader and t >= ack[0]
                    and msg.src == f and _acks(msg, group, index)), None)
        if got is not None:
            commits = got[1] < index <= got[2]
            t_commit = got[0] if commits else t_commit
            out.append((got[0], leader, f"handle_raft: ack from r{f}"
                        + (f" commits index {index}" if commits else "")))
    if t_commit is not None:
        t_ans = min((b for a, b, r, _dst, _st in answers
                     if r == leader and a >= t_commit), default=t1)
        out += [(b, leader, f"applied {n} entries for {(b - a) / 1e3:.2f}")
                for a, b, r, n in rec.applies
                if r == leader and t_commit <= a <= t_ans]
        out += [(b, leader, f"next AppendEntries shipped to r{dst} in "
                            f"{(b - a) / 1e3:.2f}")
                for a, b, r, dst, _act, dec in rec.ships
                if r == leader and t_commit <= a <= t_ans
                and isinstance(dec, raft.RaftMsg)
                and dec.kind == raft.MSG_APPEND
                and dec.group == group and not _carries(dec, group, index)]
    return sorted(out + tail, key=lambda hop: hop[0])


def timeline(workload: str, ops: int = 4, seed: int = 7001,
             scale: float = 0.2) -> list:
    """The first ``ops`` RPCs (one-sided reads are none) of a KV block's
    timed region, hops in ns since each began, ``began`` since the region."""
    rec = Recorder(ops)
    install(rec)
    run_block(workload, seed, scale, rec.start)
    return [{"client": rpc[3], "rank": rpc[2], "seq": rpc[4],
             "began": rpc[0] - rec.region, "took": rpc[1] - rpc[0],
             "hops": [[t - rpc[0], r, x] for t, r, x in hops(rec, rpc)]}
            for rpc in rec.rpcs[:ops]]


def timeline_report(ops: list):
    for n, op in enumerate(ops, 1):
        yield (f"op {n}: client {op['client']} on r{op['rank']}, seq "
               f"{op['seq']}, began {op['began'] / 1e3:.2f} us into the "
               f"region, took {op['took'] / 1e3:.3f} us")
        last = 0
        for t, r, text in op["hops"]:
            yield f"  {t / 1e3:8.3f}  +{(t - last) / 1e3:6.3f}  r{r}  {text}"
            last = t


# ------------------------------------------------------------------- reach
def functions(src: Path) -> dict:
    """``(file, first line, name)`` -> ``(lines, file::qualified name)``
    of every function under ``src/repro`` (``C.f.<locals>.g`` style)."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                # a decorated function's code starts at its first decorator
                first = min(n.lineno for n in [child, *child.decorator_list])
                found[(str(path.resolve()), first, child.name)] = (
                    child.end_lineno - first + 1,
                    f"{path.relative_to(src).as_posix()}::{qual}")
                visit(path, child, qual + ".<locals>.")
            else:
                visit(path, child, prefix + child.name + "."
                      if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted((src / "repro").rglob("*.py")):
        visit(path, ast.parse(path.read_text(), str(path)), "")
    return found


def _run_other(name: str, scratch: str) -> None:
    """Run one of the non-experiment entry points (``OTHERS``)."""
    if name == "examples":
        for script in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
    elif name == "perf":
        from perf.harness import run_block as harness_block
        from perf.layers import BENCHES
        from perf.workloads import WORKLOADS
        for cls in WORKLOADS.values():
            harness_block(cls, 7001, 0.2)
        for bench in BENCHES.values():
            bench()
    else:
        from repro.obs.report import main
        main([name, "--json", os.path.join(scratch, f"{name}.json"),
              "--trace", os.path.join(scratch, f"{name}.jsonl")])


def unreached(entries: list, full: bool = False,
              profile: cProfile.Profile = None):
    """(the unreached part of ``functions(SRC)``, all of it) once the
    entry points ran; pass the ``profile`` that was on across the first
    ``repro`` import, or import-time calls are missed."""
    from repro.bench.__main__ import main as bench
    profile = profile or cProfile.Profile()
    ids = [e for e in entries if e in ALL]
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(io.StringIO()):
        md = os.path.join(scratch, "tables.md")
        profile.enable()
        for mode in ([[]] + [["--full"]] * full) if ids else []:
            bench([*ids, *mode, "--markdown", md])
        for name in entries:
            if name not in ALL:
                _run_other(name, scratch)
        profile.disable()
    hit = {(os.path.realpath(func[0]), func[1], func[2])
           for func, _n, _callers in profiled(profile)
           if not isinstance(func, str)}
    every = functions(SRC)
    return {k: v for k, v in every.items() if k not in hit}, every


def reach_report(missed: dict, total: int, src: Path):
    last = None
    for (path, first, name), (n, _qual) in sorted(missed.items()):
        if path != last:
            yield os.path.relpath(path, src.parent)
            last = path
        yield f"  {n:5d}  {name} (line {first})"
    yield (f"{len(missed)} of {total} functions unreached, "
           f"{sum(n for n, _q in missed.values())} lines")


def check(missed: dict, every: dict, allow: Path) -> list:
    """What breaks the allowlist (``file::name: reason`` a line): an
    unreached function unlisted, a listed one reached or gone, no reason."""
    lines = [line.strip() for line in allow.read_text().splitlines()]
    allowed = dict(line.partition(": ")[::2] for line in lines
                   if line and not line.startswith("#"))
    names = {qual for _n, qual in missed.values()}
    defined = {qual for _n, qual in every.values()}
    return ([f"unreached, not allowlisted: {n}"
             for n in sorted(names - set(allowed))]
            + [f"allowlisted without a reason: {n}"
               for n, reason in sorted(allowed.items()) if not reason.strip()]
            + [f"stale entry ({'reached' if n in defined else 'gone'}): {n}"
               for n in sorted(set(allowed) - names)])


# ------------------------------------------------------------------- scale
#: each rank's heap in ``scale``: room for 256 ranks' ledgers
SCALE_MEM_MIB = 160


@contextlib.contextmanager
def gc_meter(out: dict):
    """While open, add the garbage collector's passes over generation 2
    to ``out["gen2_gcs"]`` and the seconds of every pass to
    ``out["gc_s"]`` (``gc.callbacks``)."""
    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
            return
        out["gc_s"] += time.perf_counter() - started[0]
        out["gen2_gcs"] += info["generation"] == 2

    gc.callbacks.append(on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(on_gc)


def bootstrap(n: int, profile: cProfile.Profile = None) -> dict:
    """``build_cluster(n)`` + ``photon_init``: host seconds (``profile``,
    if given, on across both), the collector's generation-2 passes and
    seconds within them, and the GC-tracked objects init left behind per
    directed peer pairing."""
    from repro.photon import photon_init
    from repro.util import MiB
    on = profile or contextlib.nullcontext()
    meter = {"gc_s": 0.0, "gen2_gcs": 0}
    gc.collect()
    t0 = time.perf_counter()
    with on, gc_meter(meter):
        cl = repro.cluster.build_cluster(n, mem_size=SCALE_MEM_MIB * MiB)
    built = time.perf_counter() - t0
    gc.collect()  # counted outside the clock
    before = len(gc.get_objects())
    t0 = time.perf_counter()
    with on, gc_meter(meter):
        endpoints = photon_init(cl)
    inited = time.perf_counter() - t0
    gc.collect()
    objects = len(gc.get_objects()) - before
    del endpoints  # alive until counted
    return {"setup_s": built + inited, **meter,
            "objects/pairing": objects / (n * (n - 1))}


def scale_one(n: int) -> dict:
    """One rank count, in this process: a timed bootstrap (its peak RSS),
    then a profiled one for calls per pairing."""
    row = bootstrap(n)
    row["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
    gc.collect()
    profile = cProfile.Profile()
    bootstrap(n, profile)
    row["calls/pairing"] = sum(nc for _f, nc, _c in profiled(profile)) / (
        n * (n - 1))
    return row


def scale(ranks: list) -> dict:
    """``scale_one`` per rank count, each in a child interpreter of its own
    (so its peak RSS is its own), one after another (so none is timed
    against another); ``{"N ranks: metric": value}``."""
    if len(ranks) == 1:
        return {f"{ranks[0]} ranks: {k}": v
                for k, v in scale_one(ranks[0]).items()}
    out = {}
    for n in ranks:
        run = subprocess.run(
            [sys.executable, __file__, "scale", "--ranks", str(n), "--json"],
            text=True, capture_output=True)
        if run.returncode:
            sys.exit(f"scale --ranks {n}: {run.stderr}")
        out.update(json.loads(run.stdout))
    return out


def scale_report(rows: dict, ranks: list):
    names = ("setup_s", "gc_s", "gen2_gcs", "calls/pairing",
             "objects/pairing", "peak_rss_mib")
    yield f"{'ranks':>6}" + "".join(f"{name:>17}" for name in names)
    for n in ranks:
        yield f"{n:6d}" + "".join(f"{rows[f'{n} ranks: {name}']:17.3f}"
                                  for name in names)


#: every flag, defined once; ``--src`` and ``--json`` go on every command
FLAGS = {
    "--seed": dict(type=int, default=7001, help="block seed"),
    "--scale": dict(type=float, default=0.2),
    "--top": dict(type=int, default=20),
    "--ops": dict(type=int, default=4, help="RPCs to lay out"),
    "--full": dict(action="store_true", help="experiments --full too"),
    "--check": dict(action="store_true", help="hold to the allowlist"),
    "--allow": dict(default=str(ALLOW), metavar="FILE"),
    "--src": dict(action="append", default=[], metavar="DIR"),
    "--setup": dict(action="store_true",
                    help="profile the block's constructor (per block)"),
    "--ranks": dict(type=int, nargs="+", default=[8, 32, 128]),
    "--json": dict(action="store_true"),
}
COMMANDS = {  # command: (positional, nargs, flags)
    "events": ("what", None, ("--seed", "--scale", "--top")),
    "calls": ("workload", None, ("--seed", "--scale", "--top", "--setup")),
    "timeline": ("workload", None, ("--ops", "--seed", "--scale")),
    "reach": ("entries", "*", ("--full", "--check", "--allow")),
    "scale": (None, None, ("--ranks",)),
}


def compare(args, argv: list) -> int:
    """The command with ``--json`` in a child interpreter per ``--src``
    tree, side by side (a timeline's rows are the first tree's hops)."""
    child = [a for i, a in enumerate(argv) if a != "--src"
             and not a.startswith("--src=") and argv[i - 1:i] != ["--src"]]
    runs, outs = [], []
    for src in args.src:  # all at once, unless host time is measured
        runs.append(subprocess.Popen(
            [sys.executable, __file__, *child, "--json"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src))))
        if args.command == "scale":
            outs.append(runs[-1].communicate())
    outs = outs or [run.communicate() for run in runs]
    for src, (out, err) in zip(args.src, outs):
        if not out:
            sys.exit(f"{src}: {err}")
    res = [json.loads(out) for out, _err in outs]
    timeline = args.command == "timeline"
    if timeline:
        rows = [(label, [r[i][1] if i < len(r) else None for r in res])
                for i, (label, _us) in enumerate(res[0])]
    else:
        order = [row for row in dict.fromkeys(row for r in res for row in r)
                 if any(r.get(row) for r in res)]
        if args.command == "events":
            order.sort(key=lambda row: (row != "total", -res[0].get(row, 0),
                                        row))
        rows = [(row, [r.get(row) for r in res]) for row in order]
    title, cell = {"timeline": ("us since each op began", "{:11.3f}"),
                   "reach": ("unreached functions (lines)", "{:11d}"),
                   "scale": ("bootstrap cost", "{:11.3f}")}.get(
        args.command, (f"{args.command} per "
                       f"{'block' if getattr(args, 'setup', False) else 'op'}",
                       "{:11.2f}"))
    width = max([10] + [len(label) for label, _vals in rows])
    lines = [f"{title}, by tree:",
             *(f"  [{i}] {src}" for i, src in enumerate(args.src)),
             f"  {'':{width}}" + "".join(f"{f'[{i}]':>11}" for i in range(
                 len(args.src))) + f"{'change':>10}"]
    for label, vals in rows:
        a, b = vals[0], vals[-1]
        change = ("" if None in (a, b) or not (a or timeline)
                  else f"{b - a:+9.3f}" if timeline else f"{b / a - 1:+9.2%}")
        lines.append(f"  {label:{width}}" + "".join(
            f"{'-':>11}" if v is None else cell.format(v) for v in vals)
            + f" {change:9}")
    print("\n".join(lines))
    return max(run.returncode for run in runs)


def reach(args) -> int:
    entries = args.entries or [*ALL, *OTHERS]
    full = args.full or (args.check and not args.entries)
    missed, every = unreached(entries, full, IMPORTS)
    problems = check(missed, every, Path(args.allow)) if args.check else []
    counts = Counter(functions=len(every), unreached=len(missed),
                     problems=len(problems))
    for n, qual in missed.values():
        counts[qual] += n  # lines of each unreached function
    out = [*reach_report(missed, len(every), SRC)] + (problems + [
        f"check {'FAIL' if problems else 'PASS'}: {len(missed)} "
        f"unreached, {len(problems)} problems"] if args.check else [])
    print(json.dumps(counts) if args.json else "\n".join(out))
    return 1 if problems else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    top = argparse.ArgumentParser(
        prog="tests/measure.py", description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (positional, nargs, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if positional:
            p.add_argument(positional, nargs=nargs)
        for flag in (*flags, "--src", "--json"):
            p.add_argument(flag, **FLAGS[flag])
    args = top.parse_args(argv)
    if args.command == "reach" and not {*args.entries} <= {*ALL, *OTHERS}:
        top.error(f"unknown entry points in {args.entries}")
    if args.src:
        return compare(args, argv)
    if args.command == "reach":
        return reach(args)
    if args.command == "scale":
        rows = scale(args.ranks)
        print(json.dumps(rows) if args.json else "\n".join(
            scale_report(rows, args.ranks)))
        return 0
    if args.command == "events":
        fired, ops = events(args.what, args.seed, args.scale)
        per = {pkg: n / (ops or 1) for pkg, n in by_package(fired).items()}
        per["total"] = sum(fired.values()) / (ops or 1)
        text = events_report(fired, ops, args.top)
    elif args.command == "calls":
        by_layer, by_function, ops = calls(args.workload, args.seed,
                                           args.scale, args.setup)
        per = {"total": sum(by_layer.values()) / ops}
        per.update((layer, by_layer[layer] / ops)  # a fixed key order
                   for layer in (*LAYERS, "other") if layer in by_layer)
        text = calls_report(by_layer, by_function, ops, args.top,
                            "block" if args.setup else "op")
    else:
        ops = timeline(args.workload, args.ops, args.seed, args.scale)
        per = [[f"op {n}  r{r}  {x}", t / 1e3]  # us since the op began
               for n, op in enumerate(ops, 1) for t, r, x in op["hops"]]
        text = timeline_report(ops)
    print(json.dumps(per) if args.json else "\n".join(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
