"""Virtual time for deterministic latency simulation.

The paper measures wall-clock inference latency on NVIDIA Jetson TX2
hardware.  This reproduction replaces the hardware with an additive latency
model (see :mod:`repro.models.profiles`), so all "time" in the simulator is
virtual: components charge costs in milliseconds to a :class:`VirtualClock`
and experiments read accumulated totals from it.  Runs are therefore exactly
reproducible and independent of the host machine's speed.
"""

from __future__ import annotations

from repro import contracts


class VirtualClock:
    """A monotonically non-decreasing virtual clock measured in milliseconds.

    The clock starts at 0 and only moves forward via :meth:`advance`; it
    never observes host time.  A simulation typically owns one clock per
    client so that per-client latency accounting stays independent.
    """

    def __init__(self) -> None:
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Move the clock forward by ``delta_ms`` and return the new time.

        Raises:
            ValueError: if ``delta_ms`` is negative (virtual time cannot
                run backwards).
        """
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ms}")
        previous = self._now_ms
        self._now_ms += float(delta_ms)
        if contracts.ENABLED:
            contracts.check_clock_monotonic(previous, self._now_ms)
        return self._now_ms

    def advance_to(self, timestamp_ms: float) -> float:
        """Move the clock forward to an absolute virtual time and return it.

        Event-driven components wait on each other by joining clocks: a
        client whose cache request completes at server time ``t`` calls
        ``advance_to(t)`` on its own clock.  A timestamp at or before the
        current time is a no-op (the event already lies in this clock's
        past), so the clock stays monotone without the caller having to
        compute ``max`` deltas.
        """
        previous = self._now_ms
        self._now_ms = max(self._now_ms, float(timestamp_ms))
        if contracts.ENABLED:
            contracts.check_clock_monotonic(previous, self._now_ms)
        return self._now_ms

    def __repr__(self) -> str:
        return f"VirtualClock(now_ms={self._now_ms:.3f})"

