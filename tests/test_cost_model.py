"""The fabric model charges what ``tests/cost_model.py`` says it does.

Photon PWC put and eager send ping-pong half round trips, the
origin-observed completion of a request-tracked put, and the minimpi
eager send/recv ping-pong half round trip, at R1's sizes on every
preset, equal the closed form to the nanosecond.  A point that
differs fails with the cost whose omission would explain it (a dropped
overhead or copy, the DMA fetch, the wire header bytes), or with none:
then the difference is a term the oracle does not know yet.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import r1_latency
from repro.bench.experiments.r1_latency import SIZES_FULL
from repro.bench.microbench import pingpong_mpi, pingpong_photon
from repro.fabric.params import preset
from repro.minimpi import MPIConfig
from repro.photon.config import PhotonConfig
from tests import cost_model


def test_r1_sizes_are_eager():
    assert max(SIZES_FULL) <= PhotonConfig().eager_limit
    assert max(SIZES_FULL) <= MPIConfig().eager_threshold


def _pingpong(size, mode, name):
    if mode == "mpi":
        return pingpong_mpi(size, reps=4, warmup=2, params=name)
    return pingpong_photon(size, reps=4, warmup=2, mode=mode, params=name)


def _hold_to_closed_form(name, mode):
    params = preset(name)
    measured = {}
    for size in SIZES_FULL:
        samples = set(_pingpong(size, mode, name).samples)
        assert len(samples) == 1, (size, samples)  # uncontended: all equal
        measured[(name, size)] = samples.pop()
    missed = {size: ns for (_, size), ns in measured.items()
              if ns != cost_model.half_rtt_ns(params, size, mode)}
    assert not missed, "\n".join(
        [f"measured {missed}; explained by "
         f"{cost_model.explain(measured, mode)}"]
        + [cost_model.describe(params, size, mode) for size in missed])


@pytest.mark.parametrize("name", cost_model.PRESET_NAMES)
def test_pwc_put_half_round_trip_is_the_closed_form(name):
    _hold_to_closed_form(name, "pwc")


@pytest.mark.parametrize("name", cost_model.PRESET_NAMES)
def test_eager_send_half_round_trip_is_the_closed_form(name):
    _hold_to_closed_form(name, "send")


@pytest.mark.parametrize("name", cost_model.PRESET_NAMES)
def test_os_put_origin_completion_is_the_closed_form(name):
    _hold_to_closed_form(name, "put")


@pytest.mark.parametrize("name", cost_model.PRESET_NAMES)
def test_mpi_eager_half_round_trip_is_the_closed_form(name):
    _hold_to_closed_form(name, "mpi")


def test_r1_pwc_vs_mpi_gap_is_predicted():
    """R1's Photon PWC vs minimpi send/recv gap at every size is the
    difference of the two closed forms (ib-fdr, R1's preset)."""
    params = preset("ib-fdr")
    result = r1_latency.run(quick=False)
    pwc = result.headers.index("pwc")
    mpi = result.headers.index("mpi send/recv")
    for size, row in zip(SIZES_FULL, result.rows):
        gap = round((row[mpi] - row[pwc]) * 1000)
        assert gap == (cost_model.half_rtt_ns(params, size, "mpi")
                       - cost_model.half_rtt_ns(params, size, "pwc")), size
