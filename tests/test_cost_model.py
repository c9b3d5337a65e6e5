"""The fabric model charges what ``tests/cost_model.py`` says it does.

Photon PWC put ping-pong half round trips at R1's sizes, on every preset,
equal the closed form to the nanosecond.  A point that differs fails with
the cost whose omission would explain it (a dropped overhead, the DMA
fetch, the wire header bytes), or with none: then the difference is a
term the oracle does not know yet.
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


@pytest.mark.parametrize("name", cost_model.PRESET_NAMES)
def test_pwc_put_half_round_trip_is_the_closed_form(name):
    params = preset(name)
    measured = {}
    for size in SIZES_FULL:
        samples = set(pingpong_photon(size, reps=4, warmup=2,
                                      params=name).samples)
        assert len(samples) == 1, (size, samples)  # uncontended: all equal
        measured[(name, size)] = samples.pop()
    missed = {size: ns for (_, size), ns in measured.items()
              if ns != cost_model.pwc_put_half_rtt_ns(params, size)}
    assert not missed, (
        f"measured {missed}; explained by {cost_model.explain(measured)}",
        [cost_model.describe(params, size) for size in missed])
