"""Unit tests for dynamic event triggers and broadcasting."""

import pytest

from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.errors import ServerError
from repro.net import SimulatedNetwork
from repro.server import InteractionServer, Room
from repro.server.triggers import (
    TriggerManager,
    all_of,
    on_component,
    on_kind,
    on_room_population,
)


@pytest.fixture
def room():
    room = Room("r", build_sample_medical_record())
    room.join("s1", "lee")
    room.join("s2", "cho")
    return room


class TestTriggerManager:
    def test_fires_on_matching_change(self, room):
        manager = TriggerManager()
        fired = []
        manager.register(
            on_component("imaging.ct_head"),
            lambda r, c: fired.append(c.seq),
        )
        change = room.apply_choice("lee", "imaging.ct_head", "segmented")
        manager.dispatch(room, change)
        other = room.apply_choice("lee", "labs", "hidden")
        manager.dispatch(room, other)
        assert fired == [change.seq]

    def test_once_trigger_self_removes(self, room):
        manager = TriggerManager()
        fired = []
        trigger = manager.register(
            on_kind("choice"), lambda r, c: fired.append(c.seq), once=True
        )
        for value in ("segmented", "flat"):
            change = room.apply_choice("lee", "imaging.ct_head", value)
            manager.dispatch(room, change)
        assert len(fired) == 1
        assert trigger.trigger_id not in [t.trigger_id for t in manager.triggers]

    def test_repeating_trigger_counts(self, room):
        manager = TriggerManager()
        trigger = manager.register(on_kind("choice"), lambda r, c: None)
        for value in ("segmented", "flat", "icon"):
            manager.dispatch(room, room.apply_choice("lee", "imaging.ct_head", value))
        assert trigger.fired_count == 3

    def test_remove(self, room):
        manager = TriggerManager()
        trigger = manager.register(on_kind("choice"), lambda r, c: None)
        manager.remove(trigger.trigger_id)
        assert manager.triggers == ()
        with pytest.raises(ServerError):
            manager.remove(trigger.trigger_id)

    def test_broken_condition_is_isolated(self, room):
        manager = TriggerManager()
        fired = []

        def broken(r, c):
            raise RuntimeError("boom")

        manager.register(broken, lambda r, c: fired.append("broken"))
        manager.register(on_kind("choice"), lambda r, c: fired.append("good"))
        manager.dispatch(room, room.apply_choice("lee", "labs", "hidden"))
        assert fired == ["good"]

    def test_broken_action_still_counts_as_fired(self, room):
        manager = TriggerManager()

        def explode(r, c):
            raise RuntimeError("boom")

        trigger = manager.register(on_kind("choice"), explode)
        fired = manager.dispatch(room, room.apply_choice("lee", "labs", "hidden"))
        assert trigger in fired


class TestConditionBuilders:
    def test_on_room_population(self, room):
        manager = TriggerManager()
        fired = []
        manager.register(on_room_population(3), lambda r, c: fired.append(len(r.member_sessions)))
        manager.dispatch(room, room.apply_choice("lee", "labs", "hidden"))
        room.join("s3", "kim")
        manager.dispatch(room, room.apply_choice("lee", "labs", "shown"))
        assert fired == [3]

    def test_all_of(self, room):
        condition = all_of(on_kind("choice"), on_component("labs"))
        assert condition(room, room.apply_choice("lee", "labs", "hidden"))
        op_change = room.apply_operation("cho", "imaging.ct_head", "zoom")[1]
        assert not condition(room, op_change)


class TestServerIntegration:
    @pytest.fixture
    def rig(self, tmp_path):
        db = Database(str(tmp_path / "db"))
        store = MultimediaObjectStore(db)
        store.store_document(build_sample_medical_record())
        network = SimulatedNetwork()
        server = InteractionServer(store, network=network)
        lee = ClientModule("lee", network=network)
        cho = ClientModule("cho", network=network)
        network.attach_client(lee)
        network.attach_client(cho)
        lee.join("record-17")
        cho.join("record-17")
        network.run()
        yield server, network, lee, cho
        db.close()

    def test_trigger_fires_from_network_change(self, rig):
        server, network, lee, cho = rig
        fired = []
        server.triggers.register(
            on_component("imaging.ct_head"), lambda r, c: fired.append(c.kind)
        )
        lee.choose("imaging.ct_head", "segmented")
        network.run()
        assert fired == ["choice"]

    def test_trigger_can_broadcast(self, rig):
        server, network, lee, cho = rig
        server.triggers.register(
            on_kind("operation"),
            lambda room, change: server.broadcast(
                {"alert": f"{change.viewer_id} operated on {change.data['component']}"},
                room_id=room.room_id,
            ),
        )
        lee.operate("imaging.ct_head", "zoom")
        network.run()
        assert cho.broadcasts and "operated on imaging.ct_head" in cho.broadcasts[0]["alert"]
        assert lee.broadcasts  # the actor hears room broadcasts too

    def test_room_broadcast_scoping(self, rig):
        server, network, lee, cho = rig
        outsider = ClientModule("outsider", network=network)
        network.attach_client(outsider)
        count = server.broadcast({"note": "hello room"}, room_id=lee.room_id)
        network.run()
        assert count == 2
        assert lee.broadcasts and cho.broadcasts
        assert not outsider.broadcasts

    def test_global_broadcast(self, rig):
        server, network, lee, cho = rig
        count = server.broadcast({"note": "maintenance at noon"})
        network.run()
        assert count == 2
        assert lee.broadcasts[0]["note"] == "maintenance at noon"
