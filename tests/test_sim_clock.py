"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(3.0)
        clock.advance(4.5)
        assert clock.now_ms == pytest.approx(7.5)

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        clock.advance(1.0)
        assert clock.advance(2.0) == pytest.approx(3.0)

    def test_advance_zero_is_allowed(self):
        clock = VirtualClock()
        clock.advance(2.0)
        clock.advance(0.0)
        assert clock.now_ms == pytest.approx(2.0)

    def test_cannot_advance_backwards(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_moves_forward(self):
        clock = VirtualClock()
        clock.advance(2.0)
        assert clock.advance_to(7.5) == pytest.approx(7.5)
        assert clock.now_ms == pytest.approx(7.5)

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock()
        clock.advance(10.0)
        assert clock.advance_to(4.0) == pytest.approx(10.0)
        assert clock.now_ms == pytest.approx(10.0)
