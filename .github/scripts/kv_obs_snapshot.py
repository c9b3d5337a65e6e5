"""CI helper: run one KV chaos scenario, check that the event it is about
shows up in the merged obs snapshot, and write the snapshot as JSON.

    python .github/scripts/kv_obs_snapshot.py failover kv_obs_stats.json
    python .github/scripts/kv_obs_snapshot.py restart kv_r21_obs_stats.json
"""

import json
import sys

from repro.obs.report import build_snapshot


def main(scenario: str, out_path: str) -> None:
    if scenario == "failover":
        from repro.bench.experiments.r20_kvstore import run_failover
        run = run_failover(quick=True)
    elif scenario == "restart":
        from repro.bench.experiments.r21_snapshots import run_chaos_move
        run = run_chaos_move(quick=True)
    else:
        sys.exit(f"unknown scenario {scenario!r} (failover | restart)")
    sc = run["scenario"]
    snap = build_snapshot(sc.cluster, photons=sc.photon)
    if scenario == "failover":
        dead = [r for r, e in snap["ranks"].items() if e.get("dead")]
        print("dead ranks in snapshot:", dead)
        assert dead, "the crashed leader must be marked dead"
    else:
        installs = sum(
            e["metrics"]["counters"].get("kv.snapshot_installs", 0)
            for e in snap["ranks"].values())
        print("snapshot installs in obs snapshot:", installs)
        assert installs >= 1, "restart rejoin must surface in obs"
    with open(out_path, "w") as fh:
        json.dump(snap, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
