"""Host work as a count: profiled calls per op, by layer.

The seeded simulation makes the same calls on every run, so a cProfile of
one block counts its host work exactly where a stopwatch only estimates
it.  ``count_calls`` buckets every profiled call of a block's timed region —
Python functions and builtins alike — under ``perf/catalog.py``'s layer
names: a function counts in the layer whose ``src/repro`` package holds
it, a builtin or library function in the layer of each function that
called it, and the rest (drivers, apps, chaos, cluster, ...) as ``other``.
It lives in the test tree, in the ``tests/event_origins.py`` mould.

    python tests/call_counts.py kv_chaos               # one perf/ block
    python tests/call_counts.py pwc_sweep --top 15 --seed 7001 --scale 0.2
    python tests/call_counts.py kv_write --src OLD/src --src NEW/src

prints calls per op in total and by layer, then the ``top`` functions;
with ``--src`` (once per source tree) each tree is counted in a child
interpreter and the layers are printed side by side.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.catalog import LAYERS  # noqa: E402

#: the package below ``repro/`` a source file belongs to (as perf/ledger.py)
_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def _layer(filename: str):
    match = _PACKAGE.search(filename)
    return match.group(1) if match and match.group(1) in LAYERS else None


def _label(code) -> str:
    """``file:line(name)`` of a Python function, the repr of a builtin."""
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_firstlineno}({code.co_name})"


def count_calls(profile: cProfile.Profile) -> Tuple[Counter, Counter]:
    """(calls by layer, calls by function) of a finished profile.

    Read from the profiler's own entries, one per code object: ``pstats``
    keys functions by ``(file, line, name)``, under which every dataclass
    ``__init__`` is ``<string>:2`` and all but one of them would be lost —
    which one, a matter of memory layout."""
    entries = profile.getstats()
    callers: dict = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((entry.code,
                                                     sub.callcount))
    by_layer: Counter = Counter()
    by_function: Counter = Counter()
    for entry in entries:
        code, nc = entry.code, entry.callcount
        by_function[_label(code)] += nc
        layer = None if isinstance(code, str) else _layer(code.co_filename)
        if layer is not None:
            by_layer[layer] += nc
            continue
        seen = 0
        for caller, n in callers.get(code, ()):
            where = None if isinstance(caller, str) else caller.co_filename
            by_layer[(where and _layer(where)) or "other"] += n
            seen += n
        by_layer["other"] += nc - seen
    return by_layer, by_function


def profile_block(workload: str, seed: int, scale: float):
    """(calls by layer, calls by function, completed ops) of one block's
    timed region."""
    from perf.trace import HostTrace
    from perf.workloads import WORKLOADS
    trace = HostTrace(enabled=False)
    block = WORKLOADS[workload](seed, scale, spans=False, trace=trace)
    profile = cProfile.Profile()
    # earlier garbage finalised mid-block would count its generators'
    # unwinding here (perf/harness.py collects at the same point)
    gc.collect()
    with trace.span("timed_region") as region:
        profile.enable()
        block.run(region)
        profile.disable()
    result = block.finish()
    if result.errors:
        raise RuntimeError(f"verification failed: {result.errors}")
    return (*count_calls(profile), result.completed)


def report(by_layer: Counter, by_function: Counter, ops: int,
           top: int = 20) -> str:
    total = sum(by_layer.values())
    lines = [f"{total} calls, {ops} ops, {total / ops:.1f} calls_per_op",
             "by layer:"]
    for layer in (*LAYERS, "other"):
        if by_layer[layer]:
            lines.append(f"  {by_layer[layer] / ops:10.1f}/op  "
                         f"{by_layer[layer] / total:6.1%}  {layer}")
    lines.append(f"top {top} functions:")
    for func, n in by_function.most_common(top):
        lines.append(f"  {n / ops:10.1f}/op  {func}")
    return "\n".join(lines)


def in_tree(tool: str, src: str, argv: List[str]) -> dict:
    """Run ``tool`` with ``argv`` plus ``--json`` in a child interpreter
    whose ``repro`` is the one under ``src``; its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, tool, *argv, "--json"],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def side_by_side(srcs: List[str], rows: List[str], per_op: List[dict],
                 what: str) -> str:
    """``what`` per op of each tree in a column, by row, with the change
    from the first tree to the last."""
    lines = [f"{what} per op, by tree:"]
    lines += [f"  [{i}] {src}" for i, src in enumerate(srcs)]
    lines.append(f"  {'':10}" + "".join(f"{f'[{i}]':>11}"
                                         for i in range(len(srcs)))
                 + f"{'change':>10}")
    for row in rows:
        vals = [counts.get(row, 0.0) for counts in per_op]
        change = (f"{vals[-1] / vals[0] - 1:+9.2%}" if vals[0]
                  else f"{'':9}")
        lines.append(f"  {row:10}" + "".join(f"{v:11.2f}" for v in vals)
                     + f" {change}")
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(prog="tests/call_counts.py")
    parser.add_argument("workload", help="a perf workload name (kv_chaos, ...)")
    parser.add_argument("--seed", type=int, default=7001,
                        help="block seed")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--src", action="append", default=[], metavar="DIR",
                        help="count the repro under DIR (a tree's src/); "
                             "repeat to compare trees side by side")
    parser.add_argument("--json", action="store_true",
                        help="print calls per op by layer as JSON")
    args = parser.parse_args(argv)
    if args.src:
        common = [args.workload, "--seed", str(args.seed),
                  "--scale", str(args.scale)]
        per_op = [in_tree(__file__, src, common) for src in args.src]
        rows = ["total", *LAYERS, "other"]
        print(side_by_side(args.src, [r for r in rows if any(
            counts.get(r) for counts in per_op)], per_op, "calls"))
        return 0
    by_layer, by_function, ops = profile_block(args.workload, args.seed,
                                               args.scale)
    if args.json:
        per_op = {layer: n / ops for layer, n in by_layer.items()}
        per_op["total"] = sum(by_layer.values()) / ops
        print(json.dumps(per_op))
        return 0
    print(report(by_layer, by_function, ops, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
