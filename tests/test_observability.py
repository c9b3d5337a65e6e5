"""Tests for the observability layer: metrics registry, spans, exports,
and telemetry correctness under fault injection."""

import json

import pytest

from repro.cluster import build_cluster
from repro.obs import MetricsRegistry, export_jsonl
from repro.obs.registry import _BUCKET_BOUNDS, Histogram
from repro.obs.report import build_snapshot, run_demo
from repro.photon import PhotonConfig, photon_init
from repro.sim import Counters


# ---------------------------------------------------------------- registry


def test_scoped_add_mirrors_into_aggregate():
    reg = MetricsRegistry(2)
    reg.scope(0).add("x", 3)
    reg.scope(1).add("x", 4)
    reg.scope(1).add("y")
    reg.fabric.add("x", 1)
    assert reg.scope(0).get("x") == 3
    assert reg.scope(1).get("x") == 4
    assert reg.aggregate.get("x") == 8
    assert reg.aggregate.get("y") == 1
    assert reg.aggregate.snapshot() == {"x": 8, "y": 1}


def test_aggregate_is_a_read_only_view():
    """Every count lives in one scope: the aggregate has no write side,
    so nothing can be counted around the per-rank attribution."""
    reg = MetricsRegistry(2)
    reg.scope(0).add("x", 3)
    for write in ("add", "set_max", "clear"):
        assert not hasattr(reg.aggregate, write)
    assert reg.attribution_gaps() == {}
    assert reg.aggregate.get("x") == 3


def test_set_max_is_high_water_mark_not_sum():
    reg = MetricsRegistry(2)
    reg.scope(0).set_max("peak", 100)
    reg.scope(1).set_max("peak", 60)
    reg.scope(1).set_max("peak", 40)  # never lowers
    assert reg.scope(1).get("peak") == 60
    assert reg.aggregate.get("peak") == 100  # max over scopes, not 160
    assert reg.aggregate.values["peak"] == 100


def test_plain_counters_obs_hooks_are_noops():
    c = Counters()
    c.observe("h", 5)
    c.set_gauge("g", 1.0)
    assert c.span("op", 0) is None
    c.set_max("peak", 9)
    assert c.get("peak") == 9
    assert c.log(5, "nic.tx", nbytes=8) is None


def test_histogram_power_of_two_buckets():
    h = Histogram()
    h.observe(64)      # exactly the first bound
    h.observe(65)      # next bucket
    h.observe(1)       # clamps into the first bucket
    h.observe(2 ** 40)  # overflow bucket
    assert h.counts[0] == 2
    assert h.counts[1] == 1
    assert h.counts[-1] == 1
    assert h.count == 4 and h.min == 1 and h.max == 2 ** 40
    snap = h.snapshot()
    assert snap["buckets"][str(_BUCKET_BOUNDS[0])] == 2
    assert snap["buckets"]["+inf"] == 1
    json.dumps(snap)


def test_spans_disabled_by_default_and_cheap():
    reg = MetricsRegistry(1)
    assert reg.scope(0).span("op", 0, peer=1, nbytes=8) is None
    reg.spans_enabled = True
    span = reg.scope(0).span("op", 10, peer=1, nbytes=8)
    span.end(110, retries=0)
    span.end(999)  # idempotent: first close wins
    assert span.duration_ns == 100
    assert list(reg.spans) == [span]
    assert reg.span_durations("op", rank=0) == [100]
    # closing feeds the latency histogram
    assert reg.scope(0).histograms["op.latency_ns"].count == 1
    d = span.as_dict()
    assert d["span"] == "op" and d["duration_ns"] == 100
    json.dumps(d)


def test_span_ring_is_bounded():
    reg = MetricsRegistry(1, spans_enabled=True)
    reg.max_spans = 4
    for i in range(10):
        reg.scope(0).span("op", i).end(i + 1)
    assert len(reg.spans) == 4
    assert reg.spans_dropped == 6


def test_scope_snapshot_json_roundtrip():
    reg = MetricsRegistry(2, spans_enabled=True)
    reg.scope(0).add("x")
    reg.scope(0).set_gauge("depth", 3)
    reg.scope(1).observe("lat", 128)
    reg.scope(1).span("op", 0, peer=0).end(64)
    snaps = [json.loads(json.dumps(reg.scope(r).metrics_snapshot()))
             for r in range(2)]
    assert snaps[0]["counters"]["x"] == 1
    assert snaps[1]["histograms"]["lat"]["count"] == 1
    assert snaps[1]["histograms"]["op.latency_ns"]["count"] == 1


# ---------------------------------------------------------------- export


def test_export_jsonl_trace_and_spans(tmp_path):
    cl = build_cluster(2, trace=True, spans=True)
    cl.scope(0).log(5, "nic.tx", nbytes=8)
    cl.metrics.scope(0).span("op", 0, peer=1, nbytes=8).end(100)
    path = tmp_path / "trace.jsonl"
    lines = export_jsonl(str(path), cl.metrics)
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert lines == 2
    assert [r["type"] for r in rows] == ["trace", "span", "meta"]
    assert rows[0]["category"] == "nic.tx"
    assert rows[1]["duration_ns"] == 100
    assert rows[2]["lines"] == 2 and rows[2]["trace_dropped"] == 0


# --------------------------------------------------- endpoint stats hygiene


def test_endpoint_stats_json_roundtrip():
    cl = build_cluster(3)
    ph = photon_init(cl)
    tgt = ph[1].buffer(64)

    def prog(env):
        yield from ph[0].put_pwc(1, 0, 64, tgt.addr, tgt.rkey,
                                 local_cid=7, remote_cid=1)
        c = yield from ph[0].wait_completion("local", timeout_ns=10 ** 9)
        assert c is not None

    cl.env.run(until=cl.env.process(prog(cl.env)))
    for p in ph:
        # tuple-keyed dicts would raise here — the regression this guards
        snap = json.loads(json.dumps(p.stats()))
        assert snap["rank"] == p.rank
    creds = ph[0].stats()["ledger_credits"]
    assert set(creds) == {"1", "2"}
    assert all(v >= 0 for rings in creds.values() for v in rings.values())


# ------------------------------------------------ lossy-run telemetry (R17)


@pytest.fixture(scope="module")
def lossy_run():
    """One shared R17-style lossy demo run (photon + minimpi + spans)."""
    cl, ph, mm, snapshot = run_demo(n_msgs=6, loss=1e-2, seed=7)
    return cl, ph, mm, snapshot


def test_lossy_merged_snapshot_json_roundtrips(lossy_run):
    _cl, _ph, _mm, snapshot = lossy_run
    decoded = json.loads(json.dumps(snapshot))
    assert decoded["n_ranks"] == 2
    assert set(decoded["ranks"]) == {"0", "1"}
    for entry in decoded["ranks"].values():
        assert "metrics" in entry and "photon" in entry and "mpi" in entry


def test_lossy_per_rank_counters_sum_to_aggregate(lossy_run):
    cl, _ph, _mm, _snapshot = lossy_run
    assert cl.metrics.attribution_gaps() == {}
    scopes = cl.metrics.ranks + [cl.metrics.fabric]
    for name, value in cl.counters.snapshot().items():
        if name in cl.metrics._max_names:
            continue
        assert sum(s.get(name) for s in scopes) == value, name


def test_lossy_fault_counters_are_sane_and_monotone(lossy_run):
    cl, ph, _mm, snapshot = lossy_run
    agg = snapshot["aggregate"]["counters"]
    # the fabric really dropped something and recovery really ran
    assert agg.get("link.drops", 0) >= 1
    for name in ("photon.op_retries", "photon.dup_drops", "link.drops",
                 "nic.ack_timeouts"):
        assert agg.get(name, 0) >= 0
    # counts are per-rank: retries happened on the sending rank only
    ranks = snapshot["ranks"]
    assert ranks["0"]["metrics"]["counters"]["photon.op_retries"] == \
        cl.counters.get("photon.op_retries")
    assert "photon.op_retries" not in ranks["1"]["metrics"]["counters"]
    assert "telemetry" not in ranks["0"]
    # monotone: a later snapshot never shows a smaller counter
    before = dict(agg)
    after = build_snapshot(cl)["aggregate"]["counters"]
    for name, value in before.items():
        assert after.get(name, 0) >= value


def test_lossy_spans_recorded_with_sim_clock_times(lossy_run):
    cl, _ph, _mm, snapshot = lossy_run
    assert snapshot["spans"]["recorded"] > 0
    names = {s.name for s in cl.metrics.spans}
    assert "photon.pwc_put" in names
    assert {"mpi.eager_send", "mpi.rndv_send"} & names
    for span in cl.metrics.spans:
        assert span.t_end is not None
        assert 0 <= span.t_start <= span.t_end <= cl.env.now
    # exact percentiles come from raw durations
    lat = snapshot["ranks"]["0"]["op_latency"]["photon.pwc_put"]
    assert lat["n"] >= 6 and lat["p50_ns"] <= lat["p99_ns"] <= lat["max_ns"]


def test_lossy_fabric_links_report_drops(lossy_run):
    cl, _ph, _mm, snapshot = lossy_run
    links = snapshot["fabric"]["links"]
    assert len(links) == len(cl.topology.iter_links())
    assert sum(l["drops"] for l in links) == \
        cl.counters.get("link.drops")
    assert sum(l["chunks"] for l in links) == \
        cl.counters.get("link.chunks")


def test_lossy_runtime_section_says_why_batches_left(lossy_run, capsys):
    """Aim 4's "parcel coalescing delay": every batch is counted under the
    reason it left and its time open is observed on the rank that held it;
    the CLI prints both."""
    _cl, _ph, _mm, snapshot = lossy_run
    agg = snapshot["aggregate"]["counters"]
    why = {k: agg.get(f"coalesce.ship.{k}", 0)
           for k in ("full", "stale", "idle", "flush")}
    assert sum(why.values()) == agg["coalesce.batches_sent"]
    assert why["full"] and why["idle"] and not why["stale"]
    for entry in snapshot["ranks"].values():
        hist = entry["metrics"]["histograms"]["coalesce.open_ns"]
        assert hist["count"] == \
            entry["metrics"]["counters"]["coalesce.batches_sent"]
        assert hist["max"] < 1_000  # nobody sat on a batch
    from repro.obs.report import main
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "coalesce.batches_sent: " in out and " idle=" in out
    assert "rank 1 coalesce.open_ns: n=" in out


# --------------------------------------------------------- golden neutrality


def test_spans_do_not_perturb_sim_time_or_counters():
    """Span recording is host-side only: identical run with and without."""

    def run(spans):
        cl = build_cluster(2, seed=3, spans=spans)
        ph = photon_init(cl, PhotonConfig())
        tgt = ph[1].buffer(256)

        def prog(env):
            for i in range(4):
                yield from ph[0].put_pwc(1, 0, 256, tgt.addr, tgt.rkey,
                                         local_cid=i, remote_cid=i)
                yield from ph[0].wait_completion("local", timeout_ns=10 ** 9)

        cl.env.run(until=cl.env.process(prog(cl.env)))
        return cl.env.now, sorted(cl.counters.snapshot().items())

    assert run(spans=False) == run(spans=True)
