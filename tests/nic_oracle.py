"""Reference doorbell and delivery stage: a timer per post, a loop per NIC.

:class:`OracleNic` rings every doorbell as its own raw timer, which hands
the message to the send engine at the doorbell's instant, and runs the
delivery stage as a process: landed messages queue in a ``Store``; the
loop is handed one pre-charged while it is idle, or dequeues it and sleeps
``delivery_ns`` while busy, then stamps it, fires ``on_delivered`` and
arms the ack.  That is the statement of what :class:`repro.fabric.nic.Nic`
— a hand-off dated at the post, a delivery stage that is a schedule — must
be observably identical to.  Test tree only, in the ``tests/arq_oracle.py``
mould: production code has no hook for it.  ``tests/test_property_nic.py``
drives generated scripts through both.

One same-nanosecond tie is decided differently and is no defect of either
side: a dated hand-off's engine wake is scheduled at the post, the
doorbell's at the doorbell, so when a NIC's engine and responder wake in
one nanosecond the order they stream in can differ.
"""

from __future__ import annotations

from repro.fabric.nic import Nic
from repro.sim.resources import Store


class OracleNic(Nic):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rx_q = Store(self.env)
        self.env.process(self._delivery_loop(),
                         name=f"nic{self.rank}:delivery")

    def transmit(self, msg, doorbell_ns=0):
        if doorbell_ns:
            dt = self.env.timeout(doorbell_ns)
            dt.callbacks.append(lambda _ev: self._ring(msg=msg))
        else:
            self._ring(msg=msg)

    def power_off(self):
        self._rx_q.items.clear()
        super().power_off()

    def _deliver(self, msg):
        self._rx_q.put_nowait(msg, self.params.nic.delivery_ns)

    def _delivery_loop(self):
        rx_q = self._rx_q
        while True:
            msg = rx_q.try_get()
            if msg is None:
                msg = yield rx_q.get()
            elif self.down:
                continue
            else:
                yield self.env.timeout(self.params.nic.delivery_ns)
            self._delivered(msg, self.env.now)  # stamp, notify, arm the ack
