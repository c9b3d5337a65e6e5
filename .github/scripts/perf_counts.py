"""CI gate on the benchmark's deterministic counts — no host time involved.

    python .github/scripts/perf_counts.py check perf/out/results.json

Reads the result file of ``python3 perf/run.py --seed 7 --seconds 3`` (the
``perf`` job's short run) and fails if, on any workload, ``events_per_op``
is more than 1 % above, or ``ok_share`` below, the value committed in
``.github/perf_counts.json``.  Both repeat exactly for a seed and a run
length, so unlike ``ops_per_host_s`` they resolve on a shared runner.

    python .github/scripts/perf_counts.py record perf/out/results.json

re-records the committed values from a result file of the same command
(do this in the change that moves them on purpose, and say why).
"""

import json
import sys
from pathlib import Path

COMMITTED = Path(__file__).resolve().parent.parent / "perf_counts.json"
SLACK = 1.01


def counts(results: dict) -> dict:
    return {"meta": {k: results["meta"][k] for k in ("seed", "scale")},
            "workloads": {
                name: {m: w["metrics"][m]["value"]
                       for m in ("events_per_op", "ok_share")}
                for name, w in sorted(results["workloads"].items())}}


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("check", "record"):
        sys.exit(__doc__)
    got = counts(json.loads(Path(argv[1]).read_text()))
    if argv[0] == "record":
        COMMITTED.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {COMMITTED}")
        return 0
    want = json.loads(COMMITTED.read_text())
    if got["meta"] != want["meta"]:
        sys.exit(f"result file is of another run: {got['meta']} "
                 f"(committed counts are for {want['meta']})")
    bad = []
    for name, ref in want["workloads"].items():
        run = got["workloads"].get(name)
        if run is None:
            bad.append(f"{name}: missing from the result file")
            continue
        print(f"{name:10s} events_per_op {run['events_per_op']:9.3f} "
              f"(committed {ref['events_per_op']:9.3f})  "
              f"ok_share {run['ok_share']:.4f} (committed "
              f"{ref['ok_share']:.4f})")
        if run["events_per_op"] > ref["events_per_op"] * SLACK:
            bad.append(f"{name}: events_per_op {run['events_per_op']:.3f} "
                       f"is more than 1% above {ref['events_per_op']:.3f}")
        if run["ok_share"] < ref["ok_share"]:
            bad.append(f"{name}: ok_share {run['ok_share']} below "
                       f"{ref['ok_share']}")
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
