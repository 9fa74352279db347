"""A client holds one membership at a time.

``join`` opens a *pending* membership; the ``JOIN_ACK`` for its document
makes it *current*; ``leave`` ends it with its op log, retry and rejoin
state. An op issued while a join is pending waits on that membership
and goes out under its session, and a timer or bounce whose membership
is no longer the client's does nothing. Each case drives one client on
the stub :class:`~tests.client.test_read_table.Wire` by hand.
"""

import pytest

from repro.client import ClientModule
from repro.errors import ClientError
from repro.server.protocol import MessageKind
from tests.client.test_read_table import SCAN, Wire, deliver, joined


def ack(client, session_id, doc_id):
    deliver(client, MessageKind.JOIN_ACK, {
        "session_id": session_id, "room_id": f"room-{doc_id}", "doc_id": doc_id,
        "structure": [SCAN], "outcome": {},
    })


def sent(wire, since=0):
    return [
        (kind, payload.get("session_id") or payload.get("doc_id"))
        for _, kind, payload in wire.sent[since:]
    ]


def test_a_join_superseded_while_pending_is_left_and_its_ops_wait_for_the_next():
    wire = Wire(home="gw-1")
    client = ClientModule("viewer", network=wire)
    client.join("track")
    client.join("keynote")
    ack(client, "s-track", "track")
    assert client.session_id is None and client.displayed() == {}
    client.choose("scan", "b")
    ack(client, "s-keynote", "keynote")
    assert client.session_id == "s-keynote"
    assert sent(wire) == [
        (MessageKind.JOIN, "track"),
        (MessageKind.JOIN, "keynote"),
        (MessageKind.LEAVE, "s-track"),
        (MessageKind.CHOICE, "s-keynote"),
    ]


def test_a_leave_never_waits_behind_a_shed_retry():
    wire = Wire(home="gw-1")
    client = joined(wire, {})
    client.choose("scan", "b")
    deliver(client, MessageKind.RETRY_AFTER, {
        "kind": MessageKind.CHOICE, "after_s": 0.25, "session_id": "s-1", "op_seq": 1,
    })
    before = len(wire.sent)
    client.leave()
    wire.clock.run()  # the retry timer of the ended membership does nothing
    assert sent(wire, before) == [(MessageKind.LEAVE, "s-1")]


def test_a_leave_while_the_home_gateway_is_dead_goes_out_after_failover():
    wire = Wire(home="gw-1")
    client = joined(wire, {})
    wire.dead.add("gw-1")
    before = len(wire.sent)
    client.leave()
    assert wire.sent[before:] == []
    wire.home = "gw-2"
    client.on_gateway_failover("gw-2")
    assert wire.sent[before:] == [
        ("gw-2", MessageKind.LEAVE, {"session_id": "s-1", "op_seq": 1}),
    ]


def test_a_shed_joins_rejoin_timer_belongs_to_its_membership():
    wire = Wire(home="gw-1")
    client = ClientModule("viewer", network=wire)
    for doc_id in ("a", "b"):
        client.join(doc_id)
        deliver(client, MessageKind.RETRY_AFTER, {
            "kind": MessageKind.JOIN, "after_s": 0.25, "viewer_id": "viewer",
            "doc_id": doc_id,
        })
    before = len(wire.sent)
    wire.clock.run()
    # A's timer fires into a superseded membership; B's own still rejoins.
    assert sent(wire, before) == [(MessageKind.JOIN, "b")]


def test_a_refused_join_ends_its_pending_membership():
    wire = Wire(home="gw-1")
    client = ClientModule("viewer", network=wire)
    client.join("no-such-doc")
    deliver(client, MessageKind.ERROR, {
        "error": "NotFoundError", "detail": "no document 'no-such-doc'",
        "kind": MessageKind.JOIN, "doc_id": "no-such-doc",
    })
    assert client.membership is None
    before = len(wire.sent)
    with pytest.raises(ClientError):
        client.choose("scan", "b")
    assert wire.sent[before:] == []
    assert [error["kind"] for error in client.errors] == [MessageKind.JOIN]


def test_an_error_naming_another_request_leaves_the_pending_join_alone():
    wire = Wire(home="gw-1")
    client = ClientModule("viewer", network=wire)
    client.join("track")
    deliver(client, MessageKind.ERROR, {
        "error": "RoomError", "detail": "refused", "kind": MessageKind.JOIN,
        "doc_id": "keynote",
    })
    assert client.membership is not None and client.membership.doc_id == "track"
