"""CLI: run the experiments and regenerate EXPERIMENTS.md's tables.

Usage::

    python -m repro.bench            # run everything, quick mode
    python -m repro.bench --full     # full sweeps (slower)
    python -m repro.bench r1 r5      # selected experiments
    python -m repro.bench r20 r21 --full --markdown EXPERIMENTS.md
                                     # splice their tables in place

Host time is measured and judged in one place only: ``perf/`` (see
``perf/README.md``).  The wall time printed per experiment here is a
courtesy, not a metric.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .experiments import ALL
from .result import splice_markdown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (r1..r23); default: all")
    parser.add_argument("--list", action="store_true", dest="list_exps",
                        help="list registered experiments with one-line "
                             "descriptions and exit")
    parser.add_argument("--full", action="store_true",
                        help="full sweeps instead of quick mode")
    parser.add_argument("--markdown", metavar="PATH",
                        help="splice the tables into PATH between their "
                             "markers, appending the blocks it lacks")
    args = parser.parse_args(argv)

    if args.list_exps:
        for key in ALL:
            doc = (ALL[key].__doc__ or "").strip().splitlines()
            line = doc[0].strip() if doc else "(no description)"
            print(f"  {key:>4}  {line}")
        print(f"{len(ALL)} experiments")
        return 0

    wanted = args.experiments or list(ALL)
    unknown = [w for w in wanted if w not in ALL]
    if unknown:
        parser.error(f"unknown experiments {unknown}; known: {sorted(ALL)}")
    text = ""
    if args.markdown and os.path.exists(args.markdown):
        with open(args.markdown, encoding="utf-8", newline="") as fh:
            text = fh.read()
    try:
        splice_markdown(text, {})  # bad markers fail before the runs
    except ValueError as exc:
        parser.error(f"{args.markdown}: {exc}")

    results = {}
    for key in wanted:
        t0 = time.time()
        results[key] = ALL[key].run(quick=not args.full)
        print(results[key].render(),
              f"  (host wall time {time.time() - t0:.1f}s)\n", sep="\n")

    if args.markdown:
        text = splice_markdown(text, {r.exp_id: r.to_markdown()
                                      for r in results.values()})
        with open(args.markdown, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.markdown}")

    failed = [f"  {key}: {name}" for key, result in results.items()
              for name in result.failed_checks()]
    if failed:
        print("SHAPE CHECK FAILURES:", *failed, sep="\n")
        return 1
    print(f"all shape checks passed across {len(results)} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
