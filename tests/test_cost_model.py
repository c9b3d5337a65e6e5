"""The fabric model charges what ``tests/cost_model.py`` says it does.

Photon PWC put and eager send ping-pong half round trips, and the
origin-observed completion of a request-tracked put, at R1's sizes on
every preset, equal the closed form to the nanosecond.  A point that
differs fails with the cost whose omission would explain it (a dropped
overhead or copy, the DMA fetch, the wire header bytes), or with none:
then the difference is a term the oracle does not know yet.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments.r1_latency import SIZES_FULL
from repro.bench.microbench import pingpong_photon
from repro.fabric.params import preset
from repro.photon.config import PhotonConfig
from tests import cost_model


def test_r1_sizes_are_eager():
    assert max(SIZES_FULL) <= PhotonConfig().eager_limit


def _hold_to_closed_form(name, mode):
    params = preset(name)
    measured = {}
    for size in SIZES_FULL:
        samples = set(pingpong_photon(size, reps=4, warmup=2, mode=mode,
                                      params=name).samples)
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
