"""Property test: when does a coalesced parcel leave its rank?

The rule, stated once and literally (:func:`oracle_ship_instants`): a
parcel leaves at the earliest of

- its batch reaches ``flush_count`` / ``flush_bytes`` (or cannot take the
  next parcel without passing ``flush_bytes``),
- its rank's first idle instant after the enqueue — a progress pass that
  found nothing on the wire, so the rank is about to park,
- the first progress pass at or after ``opened_at + max_delay_ns``.

Hypothesis generates a driver schedule for rank 0 of a 3-rank cluster —
invokes and plain sends of varied size, spells of local work, time away
from the runtime, blocking ``Future.wait`` — while ranks 1 and 2 serve
(slow handlers, so requests convoy) and answer through coalescers of
their own.  Spies record, per rank and in order of occurrence, every
enqueue, every start of a pass, every idle instant and every hand-off
to the wire; the oracle replays the first three and must predict the
fourth for every parcel of every rank, to the nanosecond.

No same-nanosecond tie has to be allowed: one process drives a rank, so
its log is totally ordered even within an instant.  The only instants
the oracle takes from the wire are the returns of ``inner.send`` — a
pass that owes two batches ships the second when the first hand-off
returns, and a batch opened by a parcel the previous one could not take
opens then.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.runtime import ActionRegistry, AmConfig, build_runtime
from repro.runtime.coalesce import _LEN

FAR = 10 ** 10
OPTS = dict(flush_count=4, flush_bytes=512, max_delay_ns=2_000)


def oracle_ship_instants(log, flush_count, flush_bytes, max_delay_ns):
    """``{parcel: instant it is handed to the wire}`` from one rank's log
    of ``("enq", t, dst, framed_bytes, parcel)``, ``("pass", t)``,
    ``("idle", t)`` and ``("sent", t, dst)`` (a hand-off returned)."""
    open_ = {}    # dst -> [opened_at, nbytes, parcels], in opening order
    owed = []     # batches this pass still has to ship, after the current
    homeless = None  # the parcel waiting for its predecessor's hand-off
    out = {}

    def ship(dst, t):
        for parcel in open_.pop(dst)[2]:
            out[parcel] = t

    def append(t, dst, framed, parcel):
        batch = open_.setdefault(dst, [t, 0, []])
        batch[1] += framed
        batch[2].append(parcel)
        if len(batch[2]) >= flush_count or batch[1] >= flush_bytes:
            ship(dst, t)

    for kind, t, *rest in log:
        if kind == "enq":
            dst, framed, parcel = rest
            if dst in open_ and open_[dst][1] + framed > flush_bytes:
                ship(dst, t)
                homeless = (dst, framed, parcel)
            else:
                append(t, dst, framed, parcel)
        elif kind == "sent":
            if homeless is not None:
                append(t, *homeless)
                homeless = None
            elif owed:
                ship(owed.pop(0), t)
        else:
            min_age = 0 if kind == "idle" else max_delay_ns
            owed = [d for d, b in open_.items() if t - b[0] >= min_age]
            if owed:
                ship(owed.pop(0), t)
    return out


class Spy:
    """One rank's log and observed hand-off instants (test tree only)."""

    def __init__(self, rt):
        self.log, self.shipped, self._queued = [], {}, {}
        self.n = 0
        env, tp = rt.env, rt.transport
        send, progress = tp.send, rt.progress
        wire_send, wire_poll = tp.inner.send, tp.inner.poll

        def spy_send(dst, raw):
            parcel = (rt.rank, self.n)
            self.n += 1
            self._queued.setdefault(dst, []).append(parcel)
            self.log.append(("enq", env.now, dst, _LEN.size + len(raw),
                             parcel))
            yield from send(dst, raw)

        def spy_wire_send(dst, blob):
            offset = 0
            while offset < len(blob):  # FIFO per destination
                self.shipped[self._queued[dst].pop(0)] = env.now
                offset += _LEN.size + _LEN.unpack_from(blob, offset)[0]
            yield from wire_send(dst, blob)
            self.log.append(("sent", env.now, dst))

        def spy_wire_poll():
            blob = yield from wire_poll()
            if blob is None:
                self.log.append(("idle", env.now))
            return blob

        def spy_progress():
            self.log.append(("pass", env.now))
            return (yield from progress())

        tp.send, rt.progress = spy_send, spy_progress
        tp.inner.send, tp.inner.poll = spy_wire_send, spy_wire_poll


def run_schedule(steps):
    cl = build_cluster(3, "ib-fdr", seed=3)
    env = cl.env
    reg = ActionRegistry()

    def grind(rt, src, payload):
        # the first payload byte sets how long the handler computes
        yield env.timeout(20 * payload[0])
        return payload

    reg.register("grind", grind)
    reg.register("note", lambda rt, src, payload: None)
    rts = build_runtime(cl, reg, "photon", photon=photon_init(cl), am=True,
                        am_config=AmConfig(credits_per_dest=64),
                        coalesce_opts=OPTS)
    spies = [Spy(rt) for rt in rts]
    state = {"done": False}

    def driver():
        rt = rts[0]
        futs = []
        for step in steps:
            kind = step[0]
            if kind == "invoke":
                _, dst, size, work = step
                futs.append((yield from rt.invoke(
                    dst, "grind", bytes([work]) * size)))
            elif kind == "send":
                yield from rt.send(step[1], "note", b"n" * step[2])
            elif kind == "busy":
                for work in step[1]:
                    yield from rt.send(0, "grind", bytes([work]))
                    yield from rt.progress()
            elif kind == "away":
                yield env.timeout(step[1])
            else:
                for fut in futs:
                    yield from fut.wait(rt, FAR)
                futs = []
        for fut in futs:
            yield from fut.wait(rt, FAR)
        state["done"] = True

    def server(rt):
        yield from rt.process_until(lambda: state["done"], FAR)

    procs = [env.process(driver())] + [env.process(server(rt))
                                       for rt in rts[1:]]
    env.run(until=env.all_of(procs))
    return cl, spies


DST = st.sampled_from([1, 2])
WORK = st.integers(0, 120)  # x 20 ns: up to 2.4 us, past max_delay_ns
STEP = st.one_of(
    st.tuples(st.just("invoke"), DST, st.sampled_from([1, 16, 90, 200, 600]),
              WORK),
    st.tuples(st.just("send"), DST, st.sampled_from([0, 40, 180])),
    st.tuples(st.just("busy"), st.lists(WORK, min_size=1, max_size=4)),
    st.tuples(st.just("away"), st.integers(1, 3_000)),
    st.tuples(st.just("wait")),
)


@given(steps=st.lists(STEP, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_every_parcel_leaves_when_the_literal_rule_says(steps):
    _cl, spies = run_schedule(steps)
    for spy in spies:
        assert spy.shipped == oracle_ship_instants(spy.log, **OPTS)
    # the schedule ended in a blocking wait or with nothing owed a reply:
    # every request and every reply left its rank
    invokes = sum(1 for s in steps if s[0] == "invoke")
    assert sum(len(s.shipped) for s in spies[1:]) == invokes


def test_the_oracle_covers_every_reason_a_batch_leaves():
    """One scripted schedule on which the three rules and both wire-return
    instants all decide some parcel's instant — so the property above is
    not vacuous — and on which rank 0's counters agree."""
    steps = [("invoke", 1, 16, 0)] * 4            # full by count
    steps += [("invoke", 2, 200, 0)] * 3          # the third does not fit
    steps += [("send", 1, 40), ("send", 2, 40), ("wait",)]  # idle, two owed
    steps += [("invoke", 1, 16, 0), ("busy", [60, 60, 60])]  # stale, busy
    steps += [("invoke", 2, 600, 0), ("wait",)]   # oversized: alone
    cl, spies = run_schedule(steps)
    for spy in spies:
        assert spy.shipped == oracle_ship_instants(spy.log, **OPTS)
    why = {k: cl.scope(0).get(f"coalesce.ship.{k}")
           for k in ("full", "idle", "stale", "flush")}
    assert why == {"full": 3, "idle": 2, "stale": 1, "flush": 0}
