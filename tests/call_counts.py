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

prints calls per op in total and by layer, then the ``top`` functions.
"""

from __future__ import annotations

import cProfile
import pstats
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.catalog import LAYERS  # noqa: E402

#: the package below ``repro/`` a source file belongs to (as perf/ledger.py)
_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def _layer(filename: str):
    match = _PACKAGE.search(filename)
    return match.group(1) if match and match.group(1) in LAYERS else None


def count_calls(profile: cProfile.Profile) -> Tuple[Counter, Counter]:
    """(calls by layer, calls by function) of a finished profile."""
    by_layer: Counter = Counter()
    by_function: Counter = Counter()
    for func, (_cc, nc, _tt, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        by_function[pstats.func_std_string(func)] += nc
        layer = _layer(func[0])
        if layer is not None:
            by_layer[layer] += nc
            continue
        for caller, (n, *_rest) in callers.items():
            by_layer[_layer(caller[0]) or "other"] += n
        by_layer["other"] += nc - sum(c[0] for c in callers.values())
    return by_layer, by_function


def profile_block(workload: str, seed: int, scale: float):
    """(calls by layer, calls by function, completed ops) of one block's
    timed region."""
    from perf.trace import HostTrace
    from perf.workloads import WORKLOADS
    trace = HostTrace(enabled=False)
    block = WORKLOADS[workload](seed, scale, spans=False, trace=trace)
    profile = cProfile.Profile()
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


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(prog="tests/call_counts.py")
    parser.add_argument("workload", help="a perf workload name (kv_chaos, ...)")
    parser.add_argument("--seed", type=int, default=7001,
                        help="block seed")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    print(report(*profile_block(args.workload, args.seed, args.scale),
                 top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
