"""Every reconstructed experiment (DESIGN.md §4) under pytest-benchmark.

One test per entry of ``repro.bench.experiments.ALL``, id = the experiment
key, so ``pytest benchmarks -k r20`` still selects one.  Each runs the
experiment in quick mode (the benchmark clock measures host wall time of
the simulation; the table's numbers are simulated-time metrics) and
asserts the experiment's qualitative shape checks.
"""

import pytest

from repro.bench.experiments import ALL


@pytest.mark.parametrize("key", list(ALL))
def test_experiment(benchmark, key):
    result = benchmark.pedantic(ALL[key].run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.all_checks_pass, \
        f"shape checks failed: {result.failed_checks()}"
