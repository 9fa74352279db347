"""Flight recorder: emit, evict, subscribe."""

import pytest

from repro.obs.events import (
    CAPACITY, DEBUG, ERROR, INFO, WARN, Event, EventLog, severity_rank,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class TestEmit:
    def test_records_name_severity_fields_and_time(self):
        clock = FakeClock()
        log = EventLog(clock=clock)
        clock.advance(1.5)
        event = log.emit("db.checkpoint", severity=INFO, tables=3, journal_bytes=1024)
        assert event.name == "db.checkpoint"
        assert event.severity == INFO
        assert event.at == 1.5
        assert event.fields == {"tables": 3, "journal_bytes": 1024}
        assert log.events == (event,)

    def test_explicit_at_overrides_clock(self):
        log = EventLog(clock=FakeClock())
        event = log.emit("x", at=42.0)
        assert event.at == 42.0

    def test_sequence_numbers_are_monotonic(self):
        log = EventLog(clock=FakeClock())
        seqs = [log.emit("e").seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_unknown_severity_rejected(self):
        log = EventLog(clock=FakeClock())
        with pytest.raises(ValueError):
            log.emit("x", severity="LOUD")
        assert len(log) == 0

    def test_severity_ranks_are_ordered(self):
        assert (
            severity_rank(DEBUG)
            < severity_rank(INFO)
            < severity_rank(WARN)
            < severity_rank(ERROR)
        )

    def test_to_dict_is_deterministic(self):
        log = EventLog(clock=FakeClock())
        event = log.emit("x", b=2, a=1)
        assert event.to_dict() == {
            "seq": 1,
            "name": "x",
            "severity": "INFO",
            "at": 0.0,
            "fields": {"a": 1, "b": 2},
        }

    def test_render_is_one_line(self):
        log = EventLog(clock=FakeClock())
        event = log.emit("net.drop", severity=WARN, at=1.25, node="c1")
        assert event.render() == "[    1.250] WARN  net.drop  node=c1"


class TestRingBuffer:
    def test_eviction_keeps_the_newest(self):
        log = EventLog(clock=FakeClock())
        for index in range(CAPACITY + 4):
            log.emit(f"e{index}")
        assert log.events[0].name == "e4"
        assert log.events[-1].name == f"e{CAPACITY + 3}"
        assert len(log) == CAPACITY

    def test_tail(self):
        log = EventLog(clock=FakeClock())
        for index in range(5):
            log.emit(f"e{index}")
        assert [event.name for event in log.tail(2)] == ["e3", "e4"]
        assert log.tail(0) == ()

    def test_filter_by_name_prefix(self):
        log = EventLog(clock=FakeClock())
        log.emit("db.checkpoint")
        log.emit("net.drop", severity=WARN)
        log.emit("net.sent", severity=DEBUG)
        assert [e.name for e in log.filter("net.")] == ["net.drop", "net.sent"]

    def test_clear(self):
        log = EventLog(clock=FakeClock())
        log.emit("x")
        log.clear()
        assert log.events == ()


class TestSubscribers:
    def test_subscriber_sees_every_event(self):
        log = EventLog(clock=FakeClock())
        seen: list[Event] = []
        log.subscribe(seen.append)
        first = log.emit("one")
        second = log.emit("two")
        assert seen == [first, second]

    def test_unsubscribe(self):
        log = EventLog(clock=FakeClock())
        seen: list[Event] = []
        log.subscribe(seen.append)
        log.unsubscribe(seen.append)
        log.emit("one")
        assert seen == []

    def test_subscriber_outlives_ring_eviction(self):
        log = EventLog(clock=FakeClock())
        seen: list[str] = []
        log.subscribe(lambda event: seen.append(event.name))
        for index in range(CAPACITY + 3):
            log.emit(f"e{index}")
        assert len(seen) == CAPACITY + 3  # delivery is not bounded
        assert len(log) == CAPACITY       # retention is

