"""The service queue's contract: a queued op is one record, served FIFO.

A rated :class:`ServiceQueue` keeps its records in its own deque and
makes one ``SimClock.schedule`` call per record, to a callback bound
once. These tests pin what that must not change: the instant each
record is served (the heap key ``now + (busy_until - now)``), its order
among everyone else's events, and what a crash does to a backlog.
"""

import pytest

from repro import obs
from repro.cluster.shard import ServiceQueue, ShardServer
from repro.db import Database, MultimediaObjectStore
from repro.net.network import SimulatedNetwork
from repro.net.simclock import SimClock
from tests.cluster.test_ring import ring_of


@pytest.fixture(autouse=True)
def fresh_obs():
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        yield


def expected_instants(now, busy_until, rate, count):
    """The instants ``submit`` schedules, with its own arithmetic."""
    instants = []
    for _ in range(count):
        busy_until = max(now, busy_until) + 1.0 / rate
        instants.append(now + (busy_until - now))
    return instants


def test_records_submitted_together_are_served_fifo_at_their_instants():
    clock = SimClock()
    clock.run_until(0.1)  # a now whose sums round
    served = []
    queue = ServiceQueue(clock, 3.0, lambda record: served.append((clock.now, record)))
    for index in range(10):
        queue.submit(index)
    assert queue.pending == queue.max_pending == len(queue.records) == 10
    clock.run()
    assert served == list(zip(expected_instants(0.1, 0.0, 3.0, 10), range(10)))
    assert queue.pending == 0 and not queue.records


def test_another_callers_event_keeps_its_heap_order():
    clock = SimClock()
    clock.run_until(0.1)
    order = []
    queue = ServiceQueue(clock, 3.0, lambda record: order.append((clock.now, record)))
    first, second = expected_instants(0.1, 0.0, 3.0, 2)
    queue.submit("a")
    # Scheduled between the two submits, for the instants both complete
    # at: after "a" (a later sequence number), before "b".
    clock.schedule(first - clock.now, lambda: order.append((clock.now, "x")))
    clock.schedule(second - clock.now, lambda: order.append((clock.now, "y")))
    queue.submit("b")
    clock.run()
    assert order == [(first, "a"), (first, "x"), (second, "y"), (second, "b")]


def test_a_crashed_node_serves_none_of_its_backlog(tmp_path):
    db = Database(str(tmp_path / "crash"))
    try:
        network = SimulatedNetwork(SimClock())
        shard = ShardServer(
            "shard-1", MultimediaObjectStore(db), network, "directory",
            ring_of(("shard-1",)), ring_of(("gw-1",)), service_rate=4.0,
        )
        network.attach_backbone(shard)
        served, drained = [], []
        shard._serve = lambda sender, kind, body: served.append(body)
        queue = shard.queue
        queue.on_drain = lambda: drained.append((network.clock.now, queue.pending))
        for index in range(5):
            shard._enqueue("client-0", "choice", index)
        instants = expected_instants(0.0, 0.0, 4.0, 5)
        network.clock.run_until(instants[1])
        shard.crash()
        network.clock.run()
    finally:
        db.close()
    assert served == [0, 1]
    assert drained == list(zip(instants, (4, 3, 2, 1, 0)))


def test_an_unrated_queue_serves_inline_and_keeps_no_deque():
    clock = SimClock()
    served = []
    queue = ServiceQueue(clock, None, served.append)
    assert queue.records is None
    queue.submit("a")
    assert served == ["a"] and queue.pending == 0 and queue.max_pending == 1
    assert clock.pending == 0


def test_the_rate_must_be_positive():
    with pytest.raises(ValueError, match="must be > 0"):
        ServiceQueue(SimClock(), 0.0, lambda record: None)
