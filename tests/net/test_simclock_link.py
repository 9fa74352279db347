"""Unit tests for the simulation clock and links."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.net import Link, SimClock
from repro.net.link import KBPS, MBPS


class TestSimClock:
    def test_events_in_time_order(self):
        clock = SimClock()
        seen = []
        clock.schedule(3.0, lambda: seen.append("c"))
        clock.schedule(1.0, lambda: seen.append("a"))
        clock.schedule(2.0, lambda: seen.append("b"))
        clock.run()
        assert seen == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_fifo_among_equal_times(self):
        clock = SimClock()
        seen = []
        for label in "abc":
            clock.schedule(1.0, lambda label=label: seen.append(label))
        clock.run()
        assert seen == ["a", "b", "c"]

    def test_nested_scheduling(self):
        clock = SimClock()
        seen = []
        clock.schedule(1.0, lambda: clock.schedule(1.0, lambda: seen.append("inner")))
        clock.run()
        assert seen == ["inner"]
        assert clock.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(NetworkError):
            SimClock().schedule(-0.1, lambda: None)

    def test_run_until(self):
        clock = SimClock()
        seen = []
        clock.schedule(1.0, lambda: seen.append(1))
        clock.schedule(5.0, lambda: seen.append(5))
        clock.run_until(2.0)
        assert seen == [1]
        assert clock.now == 2.0
        assert clock.pending == 1

    def test_runaway_guard(self):
        clock = SimClock()

        def reschedule():
            clock.schedule(0.1, reschedule)

        clock.schedule(0.0, reschedule)
        with pytest.raises(NetworkError, match="exceeded"):
            clock.run(max_events=100)

    def test_step_empty(self):
        assert SimClock().step() is False

    @given(
        st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), min_size=1, max_size=40),
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_fifo_among_equal_times_and_inclusive_run_until(self, delays, boundary):
        """Whatever is scheduled, events fire in (time, scheduling order),
        and ``run_until(t)`` fires exactly those due at or before *t*."""
        clock = SimClock()
        seen = []
        for index, delay in enumerate(delays):
            clock.schedule(delay, lambda item=(delay, index): seen.append(item))
        fired = clock.run_until(boundary)
        due = sorted(item for item in enumerate(delays) if item[1] <= boundary)
        assert seen == sorted((delay, index) for index, delay in due)
        assert fired == len(due) and clock.now == boundary
        clock.run()
        assert seen == sorted(seen) and len(seen) == len(delays)


class TestLink:
    def test_transmission_time(self):
        link = Link(bandwidth_bps=1 * MBPS, latency_s=0.0)
        assert link.transmission_time(125_000) == pytest.approx(1.0)

    def test_transfer_includes_latency(self):
        link = Link(bandwidth_bps=1 * MBPS, latency_s=0.5)
        wait, arrival = link.reserve(now=0.0, size_bytes=125_000)
        assert (wait, arrival) == (0.0, pytest.approx(1.5))

    def test_fifo_serialization(self):
        link = Link(bandwidth_bps=1 * MBPS, latency_s=0.0)
        _, first = link.reserve(0.0, 125_000)
        wait, second = link.reserve(0.0, 125_000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)  # queued behind the first
        assert wait == pytest.approx(1.0)

    def test_idle_gap_not_charged(self):
        link = Link(bandwidth_bps=1 * MBPS, latency_s=0.0)
        link.reserve(0.0, 125_000)
        wait, arrival = link.reserve(10.0, 125_000)  # link idle since t=1
        assert (wait, arrival) == (0.0, pytest.approx(11.0))

    def test_queueing_delay(self):
        link = Link(bandwidth_bps=1 * MBPS, latency_s=0.0)
        link.reserve(0.0, 125_000)
        assert link.queueing_delay(0.5) == pytest.approx(0.5)
        assert link.queueing_delay(2.0) == 0.0

    def test_stats(self):
        link = Link(bandwidth_bps=1 * KBPS)
        link.reserve(0.0, 10)
        link.reserve(0.0, 20)
        assert (link.bytes_carried, link.messages_carried) == (30, 2)
        link.reset_stats()
        assert link.bytes_carried == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Link(bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(latency_s=-1)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
                st.integers(min_value=0, max_value=2_000_000),
                st.booleans(),
            ),
            max_size=60,
        ),
        st.sampled_from([64 * KBPS, 1 * MBPS, 10 * MBPS]),
        st.sampled_from([0.0, 0.005, 0.03]),
    )
    def test_reserve_equals_the_pair_it_replaced(self, sends, bandwidth, latency):
        """``reserve`` returns, bit for bit, what ``queueing_delay`` then
        ``schedule_transfer`` returned before they were one call, with
        priority-lane frames (which touch no FIFO state) interleaved."""
        link = Link(bandwidth_bps=bandwidth, latency_s=latency)
        busy_until = carried = now = 0.0
        for gap, size, priority in sends:
            now += gap
            if priority:
                expected = now + (size * 8) / bandwidth + latency
                assert link.priority_transfer(now, size) == expected
            else:
                delay = max(0.0, busy_until - now)
                start = max(now, busy_until)
                busy_until = start + (size * 8) / bandwidth
                assert link.queueing_delay(now) == delay
                assert link.reserve(now, size) == (delay, busy_until + latency)
            carried += size
            assert link.bytes_carried == carried
        assert link.messages_carried == len(sends)
