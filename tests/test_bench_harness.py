"""Tests for the bench harness: result container, the EXPERIMENTS.md
splice, microbench sanity, backend registry, and experiment determinism."""

import re

import pytest

from repro.bench import (
    ExperimentResult,
    bandwidth_photon,
    msgrate_photon,
    overlap_mpi,
    overlap_photon,
    pingpong_mpi,
    pingpong_photon,
)
from repro.bench.result import splice_markdown
from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.photon.backends import BACKENDS, backend


# ---------------------------------------------------------------- result


def make_result(checks):
    return ExperimentResult(exp_id="RX", title="t", headers=["a", "b"],
                            rows=[[1, 2.5]], checks=checks)


def test_result_checks_aggregate():
    ok = make_result({"x": True, "y": True})
    assert ok.failed_checks() == []
    bad = make_result({"x": True, "y": False})
    assert bad.failed_checks() == ["y"]


def test_result_render_contains_table_and_checks():
    r = make_result({"works": True})
    out = r.render()
    assert "[RX] t" in out
    assert "check PASS: works" in out


def test_result_markdown_shape():
    r = make_result({"works": False})
    md = r.to_markdown()
    assert md.startswith("### RX")
    assert "| a | b |" in md
    assert "❌ works" in md


# ---------------------------------------------------------------- splice


def _block(exp_id):
    return ExperimentResult(exp_id=exp_id, title="t", headers=["a"],
                            rows=[[1]], checks={"ok": True}).to_markdown()


def test_splice_replaces_only_between_markers():
    text = ("# head\n\nprose é\n<!-- repro.bench R1 -->\nstale\n"
            "<!-- /repro.bench R1 -->\nreading\n\n<!-- repro.bench R2 -->"
            "\nold two\n<!-- /repro.bench R2 -->\ntail, no newline")
    new = splice_markdown(text, {"R1": _block("R1")})
    assert new == text.replace("stale\n", _block("R1"))
    assert splice_markdown(new, {"R1": _block("R1")}) == new
    assert splice_markdown(new, {}) == new


def test_splice_appends_missing_blocks():
    text = "# head\n<!-- repro.bench R1 -->\nx\n<!-- /repro.bench R1 -->\n"
    new = splice_markdown(text, {"R2": _block("R2"), "R1": _block("R1")})
    assert new == ("# head\n<!-- repro.bench R1 -->\n" + _block("R1")
                   + "<!-- /repro.bench R1 -->\n\n<!-- repro.bench R2 -->\n"
                   + _block("R2") + "<!-- /repro.bench R2 -->\n")
    assert splice_markdown("", {"R3": "b\n"}) == (
        "<!-- repro.bench R3 -->\nb\n<!-- /repro.bench R3 -->\n")


@pytest.mark.parametrize("text", [
    "<!-- repro.bench R1 -->\na\n",
    "<!-- repro.bench R1 -->\na\n<!-- repro.bench R2 -->\n"
    "<!-- /repro.bench R2 -->\n",
    "<!-- repro.bench R1 -->\n<!-- /repro.bench R1 -->\n"
    "<!-- repro.bench R1 -->\n<!-- /repro.bench R1 -->\n",
    "a\n<!-- /repro.bench R1 -->\n",
    "<!-- repro.bench R1 -->\n<!-- /repro.bench R2 -->\n",
])
def test_splice_rejects_broken_markers(text):
    with pytest.raises(ValueError):
        splice_markdown(text, {"R1": "x\n"})


def test_cli_markdown_fresh_path_gets_every_block(tmp_path, capsys):
    from repro.bench.__main__ import main
    path = tmp_path / "tables.md"
    assert main(["r14", "r5", "--markdown", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert re.findall(r"(?m)^<!-- repro\.bench (\w+) -->\n### \1 — ",
                      text) == ["R14", "R5"]
    assert main(["r5", "--markdown", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == text


def test_cli_markdown_rejects_broken_markers_before_running(tmp_path):
    from repro.bench.__main__ import main
    path = tmp_path / "tables.md"
    path.write_text("<!-- repro.bench R5 -->\n")
    with pytest.raises(SystemExit):
        main(["r5", "--markdown", str(path)])
    assert path.read_text() == "<!-- repro.bench R5 -->\n"


# ---------------------------------------------------------------- microbench


def test_pingpong_deterministic_across_runs():
    a = pingpong_photon(64, reps=5, seed=3).samples
    b = pingpong_photon(64, reps=5, seed=3).samples
    assert a == b


def test_pingpong_latency_stats():
    st = pingpong_photon(8, reps=5)
    assert len(st.samples) == 5
    assert st.mean_us == pytest.approx(st.mean_ns / 1000)


def test_mpi_pingpong_slower_with_more_sw_overhead(monkeypatch):
    monkeypatch.setattr("repro.minimpi.protocol.SW_OVERHEAD_NS", 0)
    fast = pingpong_mpi(64, reps=5).mean_ns
    monkeypatch.setattr("repro.minimpi.protocol.SW_OVERHEAD_NS", 500)
    slow = pingpong_mpi(64, reps=5).mean_ns
    assert slow > fast


def test_bandwidth_bounded_by_link():
    gbps = bandwidth_photon(256 * 1024, count=16, window=8)
    assert 0 < gbps <= 54.0


def test_msgrate_positive():
    assert msgrate_photon(16, count=100) > 0


def test_overlap_photon_flat_under_transfer_time():
    base = overlap_photon(1 << 20, 0)
    with_compute = overlap_photon(1 << 20, base // 2)
    assert with_compute <= base * 1.05


def test_overlap_mpi_additive_beyond_handshake():
    base = overlap_mpi(1 << 20, 0)
    with_compute = overlap_mpi(1 << 20, 2 * base)
    assert with_compute >= 2 * base


# ---------------------------------------------------------------- backends


def test_backend_registry_names():
    assert set(BACKENDS) == {"verbs", "verbs-edr", "ugni", "roce", "sw"}


def test_backend_lookup_error_lists_known():
    with pytest.raises(KeyError, match="verbs"):
        backend("tcp")


def test_ugni_backend_end_to_end():
    ugni = backend("ugni")
    cl = build_cluster(2, params=ugni.fabric)
    ph = photon_init(cl, ugni.config)
    assert cl.params.name == "gemini"
    assert ph[0].config.use_imm is False
    src = ph[0].buffer(64)
    dst = ph[1].buffer(64)
    cl[0].memory.write(src.addr, b"backend!")

    def prog(env):
        yield from ph[0].put_pwc(1, src.addr, 8, dst.addr, dst.rkey,
                                 remote_cid=1)

    def recv(env):
        c = yield from ph[1].wait_completion("remote", timeout_ns=10 ** 10)
        return c

    p0 = cl.env.process(prog(cl.env))
    p1 = cl.env.process(recv(cl.env))
    cl.env.run(until=cl.env.all_of([p0, p1]))
    assert p1.value.cid == 1
    assert cl[1].memory.read(dst.addr, 8) == b"backend!"


def test_sw_backend_slower_than_verbs():
    sw = pingpong_photon(64, reps=5, mode="pwc",
                         params=backend("sw").fabric,
                         config=backend("sw").config).mean_ns
    ib = pingpong_photon(64, reps=5, mode="pwc").mean_ns
    assert sw > 3 * ib


# ---------------------------------------------------------------- experiments


def test_quick_experiment_runs_and_checks(capsys):
    from repro.bench.experiments import r3_msgrate
    result = r3_msgrate.run(quick=True)
    assert result.exp_id == "R3"
    assert not result.failed_checks()
    assert len(result.rows) >= 2


def test_cli_selected_experiment(capsys):
    from repro.bench.__main__ import main
    rc = main(["r6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[R6]" in out
    assert "all shape checks passed" in out


def test_cli_unknown_experiment_rejected():
    from repro.bench.__main__ import main
    with pytest.raises(SystemExit):
        main(["r99"])


def test_latency_stats_percentiles():
    st = pingpong_photon(8, reps=10)
    assert len(st.samples) == 10
    assert min(st.samples) / 1e3 <= st.mean_us <= max(st.samples) / 1e3
