"""Functions under ``src/repro`` that no non-test entry point calls.

Every entry point a user or CI runs is profiled in one cProfile session:
the 21 experiments (quick, and also ``--full`` with the flag), the
examples, one block of each ``perf/`` workload and every ``perf/layers``
bench, ``python -m repro.chaos``, ``python -m repro.obs.report`` and
``.github/scripts/kv_obs_snapshot.py failover|restart``.  The profiler's
own entries (``getstats()``, one per code object, as in
``tests/call_counts.py``) name each function that ran by ``(file, first
line, name)``; an AST walk of ``src/repro`` names every function the same
way (a decorated function's code starts at its first decorator), and the
ones that never ran are printed with their line counts.  Test-only code is
what this lists; deleting it, or giving it a caller, is the follow-up.

    python tests/reach.py                 # every entry point, quick mode
    python tests/reach.py --full          # experiments in --full mode too
    python tests/reach.py r11 examples    # only these entry points
    python tests/reach.py --src OLD/src   # another tree's repro

Entry point names: the experiment ids, ``examples``, ``perf``, ``chaos``,
``obs`` and ``kv_obs``.  The run takes minutes (``--full`` about three);
it is a tool, not a tier-1 test.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import importlib.util
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
OTHERS = ("examples", "perf", "chaos", "obs", "kv_obs")

Key = Tuple[str, int, str]


def functions(src: Path) -> Dict[Key, int]:
    """``(file, first line, name)`` -> line count of every function
    defined under ``src/repro`` (methods and nested functions included)."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found[(str(path.resolve()), first, node.name)] = \
                    node.end_lineno - first + 1
    return found


def _script(path: Path, *argv: str) -> None:
    """Load a script as a module and call its ``main``."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(*argv)


def _run_other(name: str, scratch: str) -> None:
    """Run one of the non-experiment entry points (``OTHERS``)."""
    if name == "examples":
        for script in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
    elif name == "perf":
        from perf.layers import BENCHES
        from perf.trace import HostTrace
        from perf.workloads import WORKLOADS
        for cls in WORKLOADS.values():
            trace = HostTrace(enabled=False)
            block = cls(7001, 0.2, spans=False, trace=trace)
            with trace.span("timed_region") as region:
                block.run(region)
            block.finish()
        for bench in BENCHES.values():
            bench()
    elif name == "chaos":
        from repro.chaos.__main__ import main
        main(["--out", os.path.join(scratch, "chaos.jsonl")])
    elif name == "obs":
        from repro.obs.report import main
        main([])
    else:
        script = ROOT / ".github" / "scripts" / "kv_obs_snapshot.py"
        for scenario in ("failover", "restart"):
            _script(script, scenario, os.path.join(scratch, "kv_obs.json"))


def reached(entries: List[str], full: bool) -> Set[Key]:
    """``(file, first line, name)`` of every Python function the entry
    points called.  The experiments run through the ``repro.bench`` CLI,
    with ``--markdown``, once quick and, with ``full``, once more
    ``--full``."""
    from repro.bench.__main__ import main as bench
    from repro.bench.experiments import ALL
    ids = [e for e in entries if e in ALL]
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(io.StringIO()):
        md = os.path.join(scratch, "tables.md")
        runs = [lambda: bench([*ids, "--markdown", md])] if ids else []
        if ids and full:
            runs.append(lambda: bench([*ids, "--full", "--markdown", md]))
        runs += [lambda name=name: _run_other(name, scratch)
                 for name in entries if name not in ALL]
        for run in runs:
            profile.enable()
            run()
            profile.disable()
    return {(os.path.realpath(e.code.co_filename), e.code.co_firstlineno,
             e.code.co_name)
            for e in profile.getstats() if not isinstance(e.code, str)}


def unreached(entries: List[str], full: bool = False,
              src: Path = ROOT / "src") -> Tuple[Dict[Key, int], int]:
    """(line count by unreached function, functions in all) — ``src`` must
    be the tree ``repro`` is imported from."""
    every = functions(src)
    hit = reached(entries, full)
    return {k: n for k, n in every.items() if k not in hit}, len(every)


def report(missed: Dict[Key, int], total: int, src: Path) -> str:
    lines = []
    last = None
    for (path, first, name), n in sorted(missed.items()):
        if path != last:
            lines.append(os.path.relpath(path, src.parent))
            last = path
        lines.append(f"  {n:5d}  {name} (line {first})")
    lines.append(f"{len(missed)} of {total} functions unreached, "
                 f"{sum(missed.values())} lines")
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(prog="tests/reach.py")
    parser.add_argument("entries", nargs="*",
                        help="entry points to run (experiment ids, "
                             f"{', '.join(OTHERS)}); default: all")
    parser.add_argument("--full", action="store_true",
                        help="also run the experiments in --full mode")
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="the tree (a src/ directory) to measure")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    from repro.bench.experiments import ALL
    entries = args.entries or [*ALL, *OTHERS]
    unknown = [e for e in entries if e not in ALL and e not in OTHERS]
    if unknown:
        parser.error(f"unknown entry points {unknown}")
    missed, total = unreached(entries, args.full, src)
    print(report(missed, total, src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
