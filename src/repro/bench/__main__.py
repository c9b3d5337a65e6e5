"""CLI: regenerate the experiment tables.

Usage::

    python -m repro.bench            # run everything, quick mode
    python -m repro.bench --full     # full sweeps (slower)
    python -m repro.bench --smoke    # tiny CI subset, quick mode
    python -m repro.bench r1 r5      # selected experiments
    python -m repro.bench --markdown out.md   # write EXPERIMENTS-style md
    python -m repro.bench --stats stats.json --trace-out trace.jsonl
                                   # observability artifacts from an
                                   # instrumented lossy demo workload

Host time is measured and judged in one place only: ``perf/`` (see
``perf/README.md``).  The wall time printed per experiment here is a
courtesy, not a metric.
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import ALL

#: fast, representative subset for CI: a latency microbench, the
#: registration-cache checks (incl. the pin-leak balance), a fabric
#: validation, the fault-domain sweep, the KV serving + failover tenant
#: run, the KV snapshot/restart/live-move chaos run, and the
#: active-message invocation comparison
SMOKE = ["r1", "r6", "r14", "r17", "r20", "r21", "r23"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (r1..r23); default: all")
    parser.add_argument("--list", action="store_true", dest="list_exps",
                        help="list registered experiments with one-line "
                             "descriptions and exit")
    parser.add_argument("--full", action="store_true",
                        help="full sweeps instead of quick mode")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run only the CI smoke subset {SMOKE}")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write results as markdown")
    parser.add_argument("--stats", metavar="PATH",
                        help="run the instrumented observability demo "
                             "(spans + tracing on a lossy fabric) and "
                             "write the merged per-rank stats snapshot")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --stats (or alone): also write the "
                             "JSONL trace/span export of the demo run")
    args = parser.parse_args(argv)

    if args.list_exps:
        for key in sorted(ALL, key=lambda k: int(k[1:])):
            doc = (ALL[key].__doc__ or "").strip().splitlines()
            line = doc[0].strip() if doc else "(no description)"
            smoke = " [smoke]" if key in SMOKE else ""
            print(f"  {key:>4}  {line}{smoke}")
        print(f"{len(ALL)} experiments; smoke subset: {', '.join(SMOKE)}")
        return 0

    if args.stats or args.trace_out:
        # observability artifacts come from a dedicated instrumented run,
        # not from the (trace-off) benchmark experiments
        from ..obs import report as obs_report
        obs_argv = []
        if args.stats:
            obs_argv += ["--json", args.stats]
        if args.trace_out:
            obs_argv += ["--trace", args.trace_out]
        rc = obs_report.main(obs_argv)
        if rc or not (args.experiments or args.smoke or args.full
                      or args.markdown):
            return rc

    if args.smoke and args.full:
        parser.error("--smoke and --full are mutually exclusive")
    wanted = args.experiments or (SMOKE if args.smoke else list(ALL))
    unknown = [w for w in wanted if w not in ALL]
    if unknown:
        parser.error(f"unknown experiments {unknown}; known: {sorted(ALL)}")

    results = {}
    for key in wanted:
        t0 = time.time()
        results[key] = ALL[key].run(quick=not args.full)
        wall = time.time() - t0
        print(results[key].render())
        print(f"  (host wall time {wall:.1f}s)")
        print()

    failed = []
    for key in wanted:
        if not results[key].all_checks_pass:
            failed.append((key, results[key].failed_checks()))

    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write("# Experiment results\n\n")
            for key in wanted:
                fh.write(results[key].to_markdown())
                fh.write("\n")
        print(f"wrote {args.markdown}")

    if failed:
        print("SHAPE CHECK FAILURES:")
        for key, names in failed:
            for n in names:
                print(f"  {key}: {n}")
        return 1
    print(f"all shape checks passed across {len(results)} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
