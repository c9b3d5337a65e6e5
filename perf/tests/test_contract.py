"""Contract tests for the benchmark itself.

Run with ``python -m pytest perf/tests`` (not part of the tier-1 suite:
``pyproject.toml`` points pytest at ``tests/``).  Everything runs in the
tiny mode — 2 blocks at scale 0.05 — so the whole file takes well under
a minute.
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf.catalog import (DETERMINISTIC, END_TO_END, PER_LAYER,  # noqa: E402
                          REFERENCE_SECONDS, WORKLOADS)
from perf.harness import aggregate, run_blocks  # noqa: E402
from perf.ledger import traced_run  # noqa: E402
from perf.trace import HostTrace  # noqa: E402
from perf.workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402
from perf.workloads.kv import KvWrite  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
TINY = dict(blocks=2, scale=0.05)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, seed=7):
    return aggregate(run_blocks(WORKLOAD_CLASSES[name], seed,
                                REFERENCE_SECONDS, **TINY))


@pytest.fixture(scope="module")
def first_runs():
    return {w.name: tiny_run(w.name) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    trace = HostTrace()
    detail = traced_run(WORKLOAD_CLASSES["am_fanout"], 7, 0.05, trace)
    return detail, trace


def test_benchmark_json_matches_the_catalog_and_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"]
    assert SPEC["run_seconds"] == REFERENCE_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert set(WORKLOAD_CLASSES) == {w.name for w in WORKLOADS}


def test_every_end_to_end_metric_is_emitted_and_outputs_verify(first_runs):
    for name, detail in first_runs.items():
        assert detail["errors"] == [], name
        assert list(detail["metrics"]) == [m.name for m in END_TO_END]
        for m in END_TO_END:
            row = detail["metrics"][m.name]
            assert row["unit"] == m.unit
            assert row["value"] > 0, (name, m.name)
        assert detail["failed"] == 0, name
        assert detail["metrics"]["ok_share"]["value"] == 1.0


def test_deterministic_metrics_repeat_bit_for_bit(first_runs):
    for name, first in first_runs.items():
        again = tiny_run(name)
        for metric in DETERMINISTIC:
            assert again["metrics"][metric]["value"] == \
                first["metrics"][metric]["value"], (name, metric)


def test_another_seed_changes_the_simulated_tail(first_runs):
    for name, first in first_runs.items():
        other = tiny_run(name, seed=8)
        assert other["metrics"]["sim_p99_us"]["value"] != \
            first["metrics"]["sim_p99_us"]["value"], name


def test_a_client_timeout_counts_as_a_failed_op():
    class ImpatientClients(KvWrite):
        # one attempt of 12 us: gets make it, most puts (a Raft round,
        # median 16 us) time out at the client
        client_timeout_ns = 12_000
        client_max_attempts = 1

    detail = aggregate(run_blocks(ImpatientClients, 7, REFERENCE_SECONDS,
                                  blocks=1, scale=0.1))
    assert detail["failed"] > 0
    assert detail["failed"] + detail["completed"] == detail["attempted"]
    assert detail["metrics"]["ok_share"]["value"] == \
        detail["completed"] / detail["attempted"] < 1.0


def test_every_per_layer_metric_is_emitted(traced):
    detail, _trace = traced
    assert detail["errors"] == []
    assert list(detail["metrics"]) == [m.name for m in PER_LAYER]
    for m in PER_LAYER:
        assert detail["metrics"][m.name]["unit"] == m.unit
    layers_with = {kind: {m.layer for m in PER_LAYER if m.kind == kind}
                   for kind in ("host_share", "micro")}
    measured = {m.layer for m in PER_LAYER if m.kind in ("count", "span")}
    for layer in ("sim", "fabric", "verbs", "photon", "minimpi", "runtime",
                  "kv", "obs"):
        assert layer in layers_with["host_share"]
        assert layer in layers_with["micro"]
        assert layer in measured or layer == "obs"


def test_host_share_buckets_sum_to_one(traced):
    detail, _trace = traced
    shares = [row["value"] for name, row in detail["metrics"].items()
              if name.startswith("host_share.")]
    assert len(shares) == 9
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert detail["metrics"]["host_share.runtime"]["value"] > 0


def test_host_spans_are_parented_and_closed(traced):
    _detail, trace = traced
    by_id = {s.span_id: s for s in trace.spans}
    assert all(s.end_s is not None for s in trace.spans)
    regions = [s for s in trace.spans if s.name == "timed_region"]
    clients = [s for s in trace.spans if s.name.startswith("client.")]
    assert regions and clients
    assert all(by_id[c.parent].name == "timed_region" for c in clients)
    assert any(s.name.startswith("micro.") for s in trace.spans)
    assert all(s.attrs["workload"] == "am_fanout" for s in trace.spans)
