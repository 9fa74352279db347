"""The text dashboard: filtering, determinism, event rendering."""

from repro.obs.dashboard import render_dashboard
from repro.obs.events import WARN, EventLog
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("db.rows_scanned").inc(42)
    registry.counter_family("db.table.rows_scanned", ("table",)).labels("patients").inc(40)
    registry.gauge("server.rooms_open", read=lambda: 1)
    registry.histogram("net.queue_delay_s", bounds=(0.01, 0.1)).observe(0.05)
    return registry.snapshot()


class TestRender:
    def test_sections_and_counts(self):
        out = render_dashboard(_snapshot(), title="t")
        assert out.startswith("== t ==")
        assert "counters (2)" in out
        assert 'db.table.rows_scanned{table="patients"}' in out
        assert "gauges (1)" in out
        assert "histograms (1)" in out
        assert "events (0 shown)" in out

    def test_include_prefix_filter(self):
        out = render_dashboard(_snapshot(), include=("db.",))
        assert "db.rows_scanned" in out
        assert "server.rooms_open" not in out
        assert "counters (2)" in out
        assert "gauges (0)" in out

    def test_exclude_prefix_filter(self):
        out = render_dashboard(_snapshot(), exclude=("db.", "net."))
        assert "db.rows_scanned" not in out
        assert "histograms (0)" in out
        assert "server.rooms_open" in out

    def test_events_render_from_objects_and_dicts(self):
        clock = FakeClock()
        log = EventLog(clock=clock)
        clock.now = 2.5
        event = log.emit("net.drop", severity=WARN, node="c1")
        as_object = render_dashboard({}, [event])
        as_dict = render_dashboard({}, [event.to_dict()])
        assert as_object == as_dict
        assert "[    2.500] WARN  net.drop  node=c1" in as_object

    def test_max_events_keeps_newest(self):
        log = EventLog(clock=FakeClock())
        for index in range(5):
            log.emit(f"e{index}")
        out = render_dashboard({}, log.events, max_events=2)
        assert "events (2 shown)" in out
        assert "e4" in out and "e3" in out and "e2" not in out

    def test_gauges_absent_section(self):
        snapshot = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "gauges_absent": {"server.sessions_connected": 3},
        }
        out = render_dashboard(snapshot)
        assert "server.sessions_connected" in out
        assert "(absent)" in out

    def test_byte_identical_for_identical_inputs(self):
        log = EventLog(clock=FakeClock())
        log.emit("server.room_join", room="room-1")
        first = render_dashboard(_snapshot(), log.events, title="run")
        second = render_dashboard(_snapshot(), log.events, title="run")
        assert first.encode() == second.encode()
