"""Property-based tests: the collective schedules on both stacks against
numpy oracles, and kernel condition-failure propagation."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cluster import build_cluster
from repro.minimpi import mpi_init
from repro.photon import PhotonConfig, photon_init
from repro.sim import AllOf, AnyOf, Environment


# ------------------------------------------------------- collectives oracle

#: Photon's eager limit: larger payloads travel in several eager chunks
EAGER = PhotonConfig().eager_limit
ORACLES = {"sum": np.sum, "min": np.min, "max": np.max, "prod": np.prod}


def _both_stacks(n, body, seed=1):
    """Run ``body(endpoint)`` on every rank of an n-rank Photon cluster
    and of an n-rank minimpi one; ``{stack: results by rank}``."""
    out = {}
    for stack, init in (("photon", photon_init), ("mpi", mpi_init)):
        cl = build_cluster(n, seed=seed)
        procs = [cl.env.process(body(ep)) for ep in init(cl)]
        cl.env.run(until=cl.env.all_of(procs))
        out[stack] = [p.value for p in procs]
    return out


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=1, max_value=7),
       op=st.sampled_from(sorted(ORACLES)),
       dtype=st.sampled_from([np.int64, np.float64]),
       large=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(n=7, op="sum", dtype=np.float64, large=True, seed=1)
@example(n=6, op="prod", dtype=np.int64, large=True, seed=2)
@example(n=5, op="min", dtype=np.int64, large=True, seed=3)
@example(n=3, op="max", dtype=np.float64, large=True, seed=4)
def test_allreduce_matches_numpy_oracle(n, op, dtype, large, seed):
    """``large``: an array above the eager limit, which Photon sends in
    several chunks and minimpi by rendezvous."""
    rng = np.random.default_rng(seed)
    elems = int(rng.integers(1, 33)) + (EAGER // 8 if large else 0)
    # integer values small enough that every op is exact in both dtypes
    bound = 4 if op == "prod" else 10 ** 6
    values = rng.integers(-bound, bound + 1, size=(n, elems)).astype(dtype)
    oracle = ORACLES[op](values, axis=0)

    def body(ep):
        out = yield from ep.allreduce(values[ep.rank], op)
        return out

    res = _both_stacks(n, body)
    for out in res["photon"] + res["mpi"]:
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, oracle)
    assert [o.tobytes() for o in res["photon"]] == \
        [o.tobytes() for o in res["mpi"]]


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=7),
       blob_len=st.one_of(st.integers(min_value=0, max_value=64),
                          st.just(EAGER + 1)),
       seed=st.integers(min_value=0, max_value=20))
def test_allgather_property(n, blob_len, seed):
    def body(ep):
        out = yield from ep.allgather(bytes([ep.rank % 256]) * blob_len)
        return out

    expected = [bytes([r % 256]) * blob_len for r in range(n)]
    res = _both_stacks(n, body, seed=seed)
    assert res["photon"] == res["mpi"] == [expected] * n


# ------------------------------------------------------- kernel conditions


def test_allof_fails_if_member_fails():
    env = Environment()
    good = env.timeout(10)
    bad = env.event()

    def failer(env):
        yield env.timeout(5)
        bad.fail(ValueError("member failed"))

    def waiter(env):
        try:
            yield AllOf(env, [good, bad])
        except ValueError as exc:
            return f"caught {exc}"

    env.process(failer(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == "caught member failed"


def test_anyof_success_beats_later_failure():
    env = Environment()
    fast = env.timeout(1, value="fast")
    slow_fail = env.event()

    def failer(env):
        yield env.timeout(100)
        if not slow_fail.triggered:
            slow_fail.fail(RuntimeError("late"))

    def waiter(env):
        results = yield AnyOf(env, [fast, slow_fail])
        return [v for _, v in results]

    env.process(failer(env))
    p = env.process(waiter(env))
    # the already-satisfied condition absorbs the late failure (its stale
    # callback observes and ignores it), so the run completes cleanly
    env.run()
    assert p.value == ["fast"]


@settings(max_examples=30)
@given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=10))
def test_allof_completes_at_max_delay(delays):
    env = Environment()

    def prog(env):
        events = [env.timeout(d) for d in delays]
        yield AllOf(env, events)
        return env.now

    p = env.process(prog(env))
    env.run()
    assert p.value == max(delays)


@settings(max_examples=30)
@given(delays=st.lists(st.integers(min_value=1, max_value=1000),
                       min_size=1, max_size=10))
def test_anyof_completes_at_min_delay(delays):
    env = Environment()

    def prog(env):
        events = [env.timeout(d) for d in delays]
        yield AnyOf(env, events)
        return env.now

    p = env.process(prog(env))
    env.run()
    assert p.value == min(delays)
