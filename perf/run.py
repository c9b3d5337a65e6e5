#!/usr/bin/env python3
"""Run the benchmark: ``python3 perf/run.py [--workload NAME] ...``.

* no ``--workload``: every workload, one after another, each in a fresh
  subprocess (so ``peak_rss_mib`` is that workload's own), results
  merged into ``--out``;
* ``--workload NAME``: that workload in this process — the form the
  driver calls, whose last stdout line is the result object;
* ``--trace`` (or ``--trace 1``): the separate traced run that produces
  the per-layer numbers (``perf/out/layers.json``) and the benchmark's
  own host spans (``trace.jsonl`` beside it).  End-to-end numbers are
  never taken from a traced run;
* ``--pairs N --checkouts A B``: alternate two checkouts' ``src`` trees
  under this one copy of the benchmark, N times, for a later perf PR.

Every metric is printed by name with its unit; outputs are verified and
any verification failure exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perf" / "out"


def _bootstrap(src: str) -> None:
    """Make ``perf`` and the program importable.

    ``python3 perf/run.py`` puts ``perf/`` itself first on ``sys.path``,
    where ``trace.py`` would shadow the standard library's; replace that
    entry with the checkout root and import everything as ``perf.*``.
    """
    src_dir = Path(src).resolve() if src else ROOT / "src"
    if not (src_dir / "repro").is_dir():
        sys.exit(f"perf/run.py: nothing to measure — {src_dir}/repro "
                 "does not exist")
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(src_dir))


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=None,
                   help="host seconds the timed regions should total "
                        "(default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="1: the traced per-layer run")
    p.add_argument("--out", type=Path, default=None,
                   help="result file (default perf/out/results.json, "
                        "traced: perf/out/layers.json)")
    p.add_argument("--blocks", type=int, default=None,
                   help="measured blocks per run (default 8)")
    p.add_argument("--scale", type=float, default=None,
                   help="ops-per-block multiplier, overrides --seconds")
    p.add_argument("--src", default=None,
                   help="measure this src tree instead of ./src")
    p.add_argument("--pairs", type=int, default=0,
                   help="alternate --checkouts A B this many times")
    p.add_argument("--checkouts", nargs=2, metavar=("A", "B"))
    return p.parse_args(argv)


def _out_path(args: argparse.Namespace) -> Path:
    return args.out or OUT_DIR / ("layers.json" if args.trace
                                  else "results.json")


# ----------------------------------------------------------------- output


def _fmt(value: float) -> str:
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def _print_end_to_end(name: str, detail: dict) -> None:
    from perf.catalog import END_TO_END
    q = detail["quartiles"]
    n = detail["samples"]
    notes = {
        "setup_s": f"median of {n['blocks']} blocks, "
                   f"q1 {_fmt(q['setup_s'][0])} q3 {_fmt(q['setup_s'][2])}",
        "ops_per_host_s": f"upper quartile of {n['blocks']} blocks, q1 "
                          f"{_fmt(q['ops_per_host_s'][0])} median "
                          f"{_fmt(q['ops_per_host_s'][1])}",
        "sim_ops_per_s": f"n={detail['completed']} ops",
        "sim_p50_us": f"n={n['pooled_latency']} samples",
        "sim_p99_us": f"n={n['pooled_latency']} samples",
        "sim_goodput_mb_s": f"n={detail['completed']} ops",
        "ok_share": f"{detail['failed']} failed of {detail['attempted']}",
        "events_per_op": f"n={detail['completed']} ops",
    }
    print(f"== {name}: end to end ==")
    for m in END_TO_END:
        value = detail["metrics"][m.name]["value"]
        print(f"  {m.name:<18} {_fmt(value):>14} {m.unit:<6} "
              f"{notes.get(m.name, '')}")
    print("  latency classes (simulated us):")
    for cls, row in detail["classes"].items():
        mark = "" if row["pooled"] else "  (not pooled)"
        print(f"    {cls:<14} n={row['n']:<6} p50 {_fmt(row['p50_us']):>10}"
              f"  p{row['tail_pct']:g} {_fmt(row['tail_us']):>10}{mark}")


def _print_per_layer(name: str, detail: dict) -> None:
    print(f"== {name}: per layer (traced run; host numbers carry "
          "tracing cost) ==")
    for metric, row in detail["metrics"].items():
        extra = ""
        if metric in detail["micro"]:
            extra = (f"best of {detail['micro'][metric]['reps']}, noise "
                     f"floor {detail['micro'][metric]['noise_floor_share']:.1%}")
        stem = metric.rsplit("_p", 1)[0]
        if stem in detail["spans"]:
            extra = f"n={detail['spans'][stem]['n']} spans"
        print(f"  {metric:<44} {_fmt(row['value']):>16} {row['unit']:<6} "
              f"{extra}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------ one workload


def run_one(args: argparse.Namespace) -> int:
    from perf.catalog import BLOCKS, REFERENCE_SECONDS
    from perf.harness import aggregate, run_blocks
    from perf.ledger import traced_run
    from perf.trace import HostTrace
    from perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perf/run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None \
        else float(REFERENCE_SECONDS)
    scale = args.scale if args.scale is not None \
        else seconds / REFERENCE_SECONDS
    blocks = args.blocks or BLOCKS
    out = _out_path(args)
    meta = {"seed": args.seed, "scale": scale, "blocks": blocks,
            "traced": bool(args.trace)}
    if args.trace:
        trace = HostTrace()
        detail = traced_run(cls, args.seed, scale, trace)
        out.parent.mkdir(parents=True, exist_ok=True)
        trace.write(out.parent / "trace.jsonl")
    else:
        detail = aggregate(run_blocks(cls, args.seed, seconds, blocks,
                                      scale))
    if detail["errors"]:
        for err in detail["errors"]:
            print(f"{args.workload}: VERIFY FAILED: {err}", file=sys.stderr)
        return 1
    _write_json(out, {"meta": meta, "workloads": {args.workload: detail}})
    (_print_per_layer if args.trace else _print_end_to_end)(
        args.workload, detail)
    print(json.dumps({"correct": True, "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": detail["metrics"]}))
    return 0


# ----------------------------------------------------------- all workloads


def _child_argv(args: argparse.Namespace, workload: str, out: Path,
                src: str = None, seed: int = None) -> list:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--out", str(out),
            "--seed", str(args.seed if seed is None else seed),
            "--trace", str(args.trace)]
    for flag in ("seconds", "blocks", "scale"):
        if getattr(args, flag) is not None:
            argv += [f"--{flag}", str(getattr(args, flag))]
    if src or args.src:
        argv += ["--src", src or args.src]
    return argv


def run_all(args: argparse.Namespace) -> int:
    from perf.catalog import WORKLOADS

    out = _out_path(args)
    merged = {"meta": None, "workloads": {}}
    spans = []
    failed = []
    for w in WORKLOADS:
        part = out.parent / "parts" / w.name / out.name
        code = subprocess.run(_child_argv(args, w.name, part)).returncode
        if code != 0:
            failed.append(w.name)
            continue
        payload = json.loads(part.read_text())
        merged["meta"] = payload["meta"]
        merged["workloads"].update(payload["workloads"])
        part.unlink()
        if args.trace:
            part_trace = part.parent / "trace.jsonl"
            spans.append(part_trace.read_text())
            part_trace.unlink()
        part.parent.rmdir()
    if not failed:
        (out.parent / "parts").rmdir()
    _write_json(out, merged)
    if args.trace:
        (out.parent / "trace.jsonl").write_text("".join(spans))
    print(f"wrote {out}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------ pairs


def run_pairs(args: argparse.Namespace) -> int:
    """Alternate two checkouts' src trees N times (A first on even
    rounds, B first on odd ones), every workload each round, each round
    on its own seed; summarise with perf/compare.py's rule."""
    from perf.catalog import WORKLOADS
    from perf.compare import summarise_pairs

    if not args.checkouts:
        sys.exit("perf/run.py: --pairs needs --checkouts A B")
    sides = dict(zip("AB", args.checkouts))
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            merged = {}
            for w in WORKLOADS:
                part = OUT_DIR / "pairs" / f"{side}.{i}.{w.name}.json"
                argv = _child_argv(args, w.name, part,
                                   src=str(Path(sides[side]) / "src"),
                                   seed=args.seed + i)
                if subprocess.run(argv,
                                  stdout=subprocess.DEVNULL).returncode:
                    sys.exit(f"perf/run.py: {w.name} failed on checkout "
                             f"{side} ({sides[side]})")
                merged.update(json.loads(part.read_text())["workloads"])
                part.unlink()
            runs[side].append(merged)
            print(f"round {i}: checkout {side} done")
    out = args.out or OUT_DIR / "pairs.json"
    _write_json(out, {"checkouts": sides, "runs": runs})
    return summarise_pairs(runs)


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap(args.src)
    if args.pairs:
        return run_pairs(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
