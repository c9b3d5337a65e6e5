#!/usr/bin/env python3
"""Compare two result files: ``python3 perf/compare.py A.json B.json``.

For every workload x end-to-end metric it prints both values, the ratio
B/A with its base, and a verdict from the bounds in ``BENCHMARK.json``:

* ``ok`` — B is no worse than A by more than the metric's bound;
* ``regressed`` — B is worse than A by more than the bound;
* ``unresolved`` — the measurement's own spread (inter-quartile range of
  the per-block values over their median, on either side) is wider than
  the bound, so neither "unchanged" nor "regressed" can be read off it.

Exits non-zero when anything regressed.  ``summarise_pairs`` applies the
same bounds to the alternating runs ``perf/run.py --pairs`` makes, and
adds the win count a gain claim needs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]

__all__ = ["load_bounds", "worse_by", "spread", "verdict", "compare",
           "summarise_pairs"]


def load_bounds() -> Dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(worse: float, noise: float, bound: float) -> str:
    if noise > bound:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(a: dict, b: dict, bounds: Dict[str, dict]) -> List[dict]:
    rows = []
    for workload, da in a["workloads"].items():
        db = b["workloads"].get(workload)
        if db is None:
            continue
        for name, spec in bounds.items():
            va = da["metrics"][name]["value"]
            vb = db["metrics"][name]["value"]
            noise = max(spread(d.get("blocks", {}).get(name, ()))
                        for d in (da, db))
            worse = worse_by(va, vb, spec["better"])
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "a": va, "b": vb, "ratio": vb / va if va else float("nan"),
                "worse_by": worse, "spread": noise, "bound": spec["bound"],
                "verdict": verdict(worse, noise, spec["bound"]),
            })
    return rows


def _print_rows(rows: List[dict]) -> None:
    print(f"{'workload':<10} {'metric':<17} {'A':>14} {'B':>14} "
          f"{'B/A':>8}  {'worse':>7} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<10} {r['metric']:<17} {r['a']:>14.6g} "
              f"{r['b']:>14.6g} {r['ratio']:>8.4f}  {r['worse_by']:>+7.2%} "
              f"{r['spread']:>7.2%} {r['bound']:>6.1%}  {r['verdict']}"
              f"  (base A={r['a']:.6g} {r['unit']})")


def summarise_pairs(runs: Dict[str, List[dict]]) -> int:
    """Print the paired summary for ``--pairs``; returns the exit code.

    Per workload x metric: each side's median and quartile spread over
    the rounds, how many rounds B beat A (ties count for neither), the
    bound verdict on the medians (noise = A's own run-to-run spread),
    and ``gain`` only when B won at least nine tenths of the rounds and
    the medians differ by more than A's inter-quartile range.
    """
    bounds = load_bounds()
    rounds = min(len(runs["A"]), len(runs["B"]))
    regressed = False
    print(f"{'workload':<10} {'metric':<17} {'median A':>14} {'median B':>14}"
          f" {'B/A':>8} {'spreadA':>8} {'B wins':>7}  verdict")
    for workload in runs["A"][0]:
        for name, spec in bounds.items():
            xa = [r[workload]["metrics"][name]["value"]
                  for r in runs["A"][:rounds]]
            xb = [r[workload]["metrics"][name]["value"]
                  for r in runs["B"][:rounds]]
            ma, mb = statistics.median(xa), statistics.median(xb)
            wins = sum(worse_by(a, b, spec["better"]) < 0
                       for a, b in zip(xa, xb))
            noise = spread(xa)
            v = verdict(worse_by(ma, mb, spec["better"]), noise,
                        spec["bound"])
            if (v == "ok" and wins >= 0.9 * rounds
                    and abs(mb - ma) > noise * abs(ma)):
                v = "gain"
            regressed |= v == "regressed"
            print(f"{workload:<10} {name:<17} {ma:>14.6g} {mb:>14.6g} "
                  f"{mb / ma if ma else float('nan'):>8.4f} {noise:>8.2%} "
                  f"{wins:>4}/{rounds:<2}  {v}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, load_bounds())
    _print_rows(rows)
    bad = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} comparisons: {len(bad)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
