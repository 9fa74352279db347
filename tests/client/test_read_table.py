"""The client's table of reads in flight.

A client asks for a payload's bytes once: a read it is already waiting
for is not re-sent when the display toggles back to it, a shed read
whose form left the screen is not retried, and a gateway failover
re-dispatches every read still in flight, in the order they were
issued, after the op-log replay.

The client here talks to :class:`Wire`, a stand-in network that records
what the client puts on it; the server's side is fed to
``ClientModule.receive`` by hand, so every interleaving is exact.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.client import ClientModule
from repro.client.buffer import entry_key
from repro.errors import DeliveryFailed
from repro.net.message import Message
from repro.net.simclock import SimClock
from repro.presentation import BANDWIDTH_MEDIUM
from repro.server.protocol import MessageKind

#: One two-valued component, then a dozen single-valued ones.
SCAN = {"path": "scan", "domain": ["a", "b"], "sizes": {"a": 1_000, "b": 2_000}}
CELLS = [
    {"path": f"cell{i}.item", "domain": ["x", "y"], "sizes": {"x": 100, "y": 100}}
    for i in range(12)
]


class Wire:
    """Just enough network for one client: a clock, a home gateway that
    can die, and every request the client sends, in order."""

    hub_id = "server"

    def __init__(self, home=None):
        self.clock = SimClock()
        self.home = home
        self.dead = set()
        self.sent = []

    def home_of(self, node_id):
        return self.home

    def has_node(self, node_id):
        return node_id not in self.dead

    def send(self, sender, recipient, frame):
        self.sent.append((recipient, frame.kind, dict(frame.payload)))

    def reads(self, since=0):
        return [
            (to, payload["component"], payload["value"])
            for to, kind, payload in self.sent[since:]
            if kind == MessageKind.FETCH_PAYLOAD
        ]


def deliver(client, kind, payload):
    client.receive(Message("server", client.node_id, kind, payload))


def joined(wire, outcome, structure=(SCAN, *CELLS)):
    client = ClientModule("viewer", network=wire)
    client.join("doc")
    deliver(client, MessageKind.JOIN_ACK, {
        "session_id": "s-1", "room_id": "room", "doc_id": "doc",
        "structure": list(structure), "outcome": outcome,
    })
    return client


def update(client, changes):
    deliver(client, MessageKind.PRESENTATION_UPDATE, {"doc_id": "doc", "changes": changes})


def payload(client, component, value, size=100):
    deliver(client, MessageKind.PAYLOAD, {"component": component, "value": value, "size": size})


def shed(client, component, value):
    deliver(client, MessageKind.RETRY_AFTER, {
        "kind": MessageKind.FETCH_PAYLOAD, "after_s": 0.25,
        "data": {"session_id": client.session_id, "component": component, "value": value},
    })


def test_a_value_toggled_back_is_asked_for_once():
    wire = Wire()
    client = joined(wire, {"scan": "a"})
    update(client, {"scan": "b"})
    update(client, {"scan": "a"})
    assert wire.reads() == [("server", "scan", "a"), ("server", "scan", "b")]
    assert list(client.membership.reads_in_flight) == [("scan", "a"), ("scan", "b")]
    # The one reply renders and pins the value that is back on screen.
    payload(client, "scan", "a", size=1_000)
    assert client.fully_rendered()
    assert client.membership.pins == {"scan": entry_key("scan", "a")}
    assert list(client.membership.reads_in_flight) == [("scan", "b")]


def test_a_failed_read_leaves_the_table_and_still_degrades():
    wire = Wire()
    client = joined(wire, {"scan": "a"})
    client.on_delivery_failed(DeliveryFailed(
        client.node_id, "server", MessageKind.FETCH_PAYLOAD, seq=1, attempts=7,
        payload={"session_id": "s-1", "component": "scan", "value": "a"},
    ))
    assert not client.membership.reads_in_flight
    assert client.degraded_components == ["scan"]
    assert client.fully_rendered()  # the placeholder
    assert client.tuning_level == BANDWIDTH_MEDIUM
    # A new ask for the same bytes goes out again.
    update(client, {"scan": "b"})
    update(client, {"scan": "a"})
    assert wire.reads()[-1] == ("server", "scan", "a")


def test_a_shed_read_for_a_replaced_form_is_not_retried():
    wire = Wire()
    client = joined(wire, {"scan": "a"})
    shed(client, "scan", "a")
    update(client, {"scan": "b"})
    before = len(wire.sent)
    wire.clock.run()
    assert wire.reads(before) == []
    assert list(client.membership.reads_in_flight) == [("scan", "b")]


def test_a_shed_read_still_on_screen_is_retried_once():
    wire = Wire()
    client = joined(wire, {"scan": "a"})
    shed(client, "scan", "a")
    before = len(wire.sent)
    wire.clock.run()
    assert wire.reads(before) == [("server", "scan", "a")]
    assert list(client.membership.reads_in_flight) == [("scan", "a")]


def failover_traffic():
    """A client homed on gw-1 issues thirteen reads; one is answered, its
    gateway dies, one more read parks offline, and gw-2 takes over.
    Returns what the failover put on the wire, as ``(kind, detail)``."""
    wire = Wire(home="gw-1")
    client = joined(wire, {cell["path"]: "x" for cell in CELLS})
    client.choose("scan", "b")
    payload(client, "cell3.item", "x")
    wire.dead.add("gw-1")
    update(client, {"scan": "b"})  # its read parks in _offline
    wire.home = "gw-2"
    before = len(wire.sent)
    client.on_gateway_failover("gw-2")
    assert {to for to, _, _ in wire.sent[before:]} == {"gw-2"}
    return [
        (kind, payload.get("value") if kind == MessageKind.CHOICE else payload["component"])
        for _, kind, payload in wire.sent[before:]
    ]


def test_failover_replays_each_read_once_in_issue_order():
    cells = [cell["path"] for cell in CELLS if cell["path"] != "cell3.item"]
    assert failover_traffic() == [
        (MessageKind.CHOICE, "b"),  # the op log first
        (MessageKind.FETCH_PAYLOAD, "scan"),  # the offline flush, once
        *((MessageKind.FETCH_PAYLOAD, path) for path in cells),
    ]


_REPLAY_ORDER = (
    "from tests.client.test_read_table import failover_traffic\n"
    "print(failover_traffic())\n"
)


def test_replay_order_does_not_depend_on_string_hashing():
    root = Path(__file__).resolve().parents[2]

    def replay(hash_seed: str) -> str:
        env = {
            **os.environ, "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join((str(root / "src"), str(root))),
        }
        return subprocess.run(
            [sys.executable, "-c", _REPLAY_ORDER],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    assert replay("1") == replay("2")


def test_join_ack_and_leave_clear_the_table():
    wire = Wire()
    client = joined(wire, {"scan": "a"})
    assert client.membership.reads_in_flight
    client.join("doc")  # a rejoin: leave, then a new membership
    deliver(client, MessageKind.JOIN_ACK, {
        "session_id": "s-2", "room_id": "room", "doc_id": "doc",
        "structure": [SCAN], "outcome": {},
    })
    assert not client.membership.reads_in_flight
    update(client, {"scan": "a"})
    assert client.membership.reads_in_flight
    client.leave()
    assert client.membership is None
