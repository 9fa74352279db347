"""A standby is its primary's state without its traffic; a successor is
a primary that never failed.

A standby's shadow server decides every update and ships none, so
nothing it does is visible on a wire: these tests look at its state
after every op of a seeded deck in ``edit_storm``'s mix (plus join/leave
churn), then kill the primary mid-deck and hold every frame the clients
receive afterwards against a control run that never crashed.
"""

import random

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.net.codec import encode_message
from repro.workloads import generate_record, primitive_paths

#: ``benchmarks/ledger``'s ``EDIT_STORM_MIX``, thinned by a share of leaves
#: (a member found outside its room joins instead of acting).
MIX = (
    ("choice", 0.46),
    ("operation_local", 0.14),
    ("operation_global", 0.10),
    ("annotate", 0.10),
    ("subscribe", 0.10),
    ("unsubscribe", 0.05),
    ("leave", 0.05),
)
STEPS_BEFORE, STEPS_AFTER = 100, 60
VICTIM_DOC = "storm-0"


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        yield registry


class Conference:
    """Two rooms of four on two shards, every room mirrored on the other."""

    def __init__(self, tmp_path, name, seed):
        self.db = Database(str(tmp_path / name))
        store = MultimediaObjectStore(self.db)
        self.harness = ClusterHarness(
            store,
            ClusterConfig(shards=2, interest_mode="cpnet", failure_timeout=1.5),
        )
        self.rooms = []
        for index in range(2):
            doc_id = f"storm-{index}"
            record = generate_record(
                doc_id, sections=3, components_per_section=3, seed=index
            )
            store.store_document(record)
            paths = primitive_paths(record)
            self.rooms.append(
                {
                    "doc_id": doc_id,
                    "paths": paths,
                    "domains": {p: record.network.variable(p).domain for p in paths},
                    "members": [
                        self.harness.add_client(f"editor-{index}-{j}", auto_fetch=False)
                        for j in range(4)
                    ],
                }
            )
        steps = STEPS_BEFORE + STEPS_AFTER
        self.deck = [kind for kind, share in MIX for _ in range(round(steps * share))]
        self.rng = random.Random(seed)
        self.rng.shuffle(self.deck)
        for room in self.rooms:
            for member in room["members"]:
                member.join(room["doc_id"])
                self.harness.run()

    def step(self, index):
        kind, rng = self.deck[index], self.rng
        room = rng.choice(self.rooms)
        member = rng.choice(room["members"])
        path = rng.choice(room["paths"])
        # Every draw is made whatever the step turns into, so a run that
        # crashed and its control consume the same random stream.
        value = rng.choice(room["domains"][path])
        sample = rng.sample(room["paths"], 3)
        if member.session_id is None:
            member.join(room["doc_id"])
        elif kind == "choice":
            member.choose(path, value)
        elif kind == "operation_local":
            member.operate(path, f"op{index}")
        elif kind == "operation_global":
            member.operate(path, f"op{index}", global_importance=True)
        elif kind == "annotate":
            member.annotate(path, {"text": f"note {index}"})
        elif kind == "subscribe":
            member.subscribe(sample)
        elif kind == "unsubscribe":
            member.unsubscribe([path])
        else:
            member.leave()
        self.harness.run()

    def fail_over(self, crash):
        """Heartbeats and sweeps for 30 s; with *crash*, kill the victim
        room's owner one second in. Returns at quiescence either way."""
        harness, now = self.harness, self.harness.clock.now
        harness.start(until=now + 30.0)
        harness.run_until(now + 1.0)
        if crash:
            harness.crash(harness.owner_of(VICTIM_DOC))
        harness.run()

    def clients(self):
        return [member for room in self.rooms for member in room["members"]]

    def errors(self):
        return [error for client in self.clients() for error in client.errors]


def room_state(server):
    """Everything a successor needs of *server*, as plain comparable data."""
    state = {}
    for room_id in server.room_ids:
        room = server.room(room_id)
        doc_id = room.document.doc_id
        state[room_id] = {
            "doc": doc_id,
            "members": room.member_sessions,
            "seq": room._next_seq,
            "shared": room.engine.shared_choices,
            "personal": {v: room.engine.personal_choices(v) for v in room.viewer_ids},
            "interest": {
                s: room.interest.subscriptions(s) for s in room.member_sessions
            },
            "known": {
                s: server.session(s).known_spec(doc_id) for s in room.member_sessions
            },
            "annotations": room.annotations,
            "presentations": {
                v: spec.outcome for v, spec in room.presentations().items()
            },
        }
    return state


def assert_standbys_mirror_primaries(harness):
    mirrored = 0
    for shard_id, shard in harness.shards.items():
        for other in harness.shards.values():
            standby = other.standby_for(shard_id)
            if standby is not None:
                assert room_state(standby.server) == room_state(shard.server)
                mirrored += len(standby.server.room_ids)
    return mirrored


def record_deliveries(conference):
    """From now on, keep every frame each client is handed."""
    received = {client.viewer_id: [] for client in conference.clients()}
    for client in conference.clients():
        def recording(message, client=client, real=client.receive):
            body = dict(message.payload or {})
            # A promoted server mints ids under its own name; they name
            # the same sessions and rooms, and no display depends on them.
            body.pop("session_id", None)
            body.pop("room_id", None)
            received[client.viewer_id].append(
                (message.kind, encode_message(message.kind, body).data)
            )
            real(message)
        client.receive = recording
    return received


def test_standby_state_equals_primary_after_every_op(tmp_path, fresh_obs):
    conference = Conference(tmp_path, "mirror", seed=11)
    try:
        assert assert_standbys_mirror_primaries(conference.harness) == 2
        for index in range(STEPS_BEFORE):
            conference.step(index)
            assert assert_standbys_mirror_primaries(conference.harness) >= 1, index
        assert conference.errors() == []
        # The deck did exercise what the mirror has to follow.
        kinds = set(conference.deck[:STEPS_BEFORE])
        assert kinds == {kind for kind, _ in MIX}
    finally:
        conference.db.close()


def test_successor_ships_what_the_never_failed_primary_ships(tmp_path, fresh_obs):
    runs = {}
    for name, crash in (("control", False), ("failover", True)):
        conference = Conference(tmp_path, name, seed=11)
        try:
            for index in range(STEPS_BEFORE):
                conference.step(index)
            conference.fail_over(crash)
            received = record_deliveries(conference)
            for index in range(STEPS_BEFORE, STEPS_BEFORE + STEPS_AFTER):
                conference.step(index)
            assert conference.errors() == []
            runs[name] = {
                "received": received,
                "displayed": {c.viewer_id: c.displayed() for c in conference.clients()},
                "failovers": len(conference.harness.failovers),
            }
        finally:
            conference.db.close()
    control, failed = runs["control"], runs["failover"]
    assert (control["failovers"], failed["failovers"]) == (0, 1)
    # The victim's members did get traffic from their successor...
    assert any(
        kind == "presentation_update"
        for viewer, frames in failed["received"].items()
        if viewer.startswith("editor-0-")
        for kind, _ in frames
    )
    # ...and it is, frame for frame, what the primary would have sent.
    assert failed["received"] == control["received"]
    assert failed["displayed"] == control["displayed"]
