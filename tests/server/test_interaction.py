"""Unit tests for the interaction server (direct mode; the pinned
propagation ledger at the end runs networked)."""

import gc
import random
import weakref

import pytest

from repro.client import ClientModule
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cpnet import compile_cpnet, compile_extension
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.errors import PermissionError_, ProtocolError, RoomError, ServerError
from repro.net import SimulatedNetwork, codec
from repro.obs import MAX_SERIES, MetricsRegistry, use_registry
from repro.obs.dtrace import DeliveryTracer, use_dtrace
from repro.obs.metrics import OVERFLOW_LABEL
from repro.server import InteractionServer, PermissionPolicy
from repro.server.permissions import PERM_VIEW, VIEWER_GRANT
from repro.server.protocol import MessageKind, encoded_size
from repro.workloads import generate_record


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    yield store
    db.close()


@pytest.fixture
def server(store):
    return InteractionServer(store)


class TestSessions:
    def test_connect_disconnect(self, server):
        session = server.connect_session("lee")
        assert session.session_id in server.session_ids
        server.disconnect_session(session.session_id)
        assert session.session_id not in server.session_ids

    def test_unknown_session(self, server):
        with pytest.raises(ServerError, match="unknown session"):
            server.disconnect_session("ghost")

    def test_disconnect_leaves_room(self, server):
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        server.disconnect_session(session.session_id)
        assert server.room_ids == ()

    def test_disconnect_saves_profile_before_leaving_room(self, store):
        """Regression: the viewer profile must hit the store *before* the
        room exit — leaving may close the room and persist the document,
        and anything observing that close expects the profile on disk."""
        server = InteractionServer(store, use_profiles=True)
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        server.handle_choice(session.session_id, "imaging.ct_head", "segmented")

        calls = []
        real_save_profile = store.save_profile
        real_store_document = store.store_document
        store.save_profile = lambda profile: (
            calls.append("save_profile"), real_save_profile(profile))[1]
        store.store_document = lambda document: (
            calls.append("store_document"), real_store_document(document))[1]
        try:
            server.disconnect_session(session.session_id)
        finally:
            store.save_profile = real_save_profile
            store.store_document = real_store_document

        assert "save_profile" in calls
        assert calls.index("save_profile") < calls.index("store_document")
        # And the saved profile carries the session's choice.
        reloaded = store.load_profile("lee")
        assert reloaded.observations("imaging.ct_head") == 1


class TestRooms:
    def test_join_creates_room_and_spec(self, server):
        session = server.connect_session("lee")
        room, spec = server.join_room(session.session_id, "record-17")
        assert room.room_id in server.room_ids
        assert spec.value("imaging.ct_head") == "flat"
        assert spec.viewer_id == "lee"

    def test_second_join_reuses_room(self, server):
        s1 = server.connect_session("lee")
        s2 = server.connect_session("cho")
        room1, _ = server.join_room(s1.session_id, "record-17")
        room2, _ = server.join_room(s2.session_id, "record-17")
        assert room1 is room2
        assert set(room1.viewer_ids) == {"lee", "cho"}

    def test_join_unknown_document(self, server):
        session = server.connect_session("lee")
        with pytest.raises(Exception, match="no document"):
            server.join_room(session.session_id, "ghost-doc")

    def test_a_refused_join_leaves_no_session_on_a_hub(self, store):
        network = SimulatedNetwork()
        server = InteractionServer(store, network=network)
        client = ClientModule("lee", network=network, auto_fetch=False)
        network.attach_client(client)
        client.join("no-such-doc")
        network.run()
        assert server.session_ids == ()
        assert [error["error"] for error in client.errors] == ["DatabaseError"]
        # The refused viewer can still join a document that exists.
        client.join("record-17")
        network.run()
        assert server.session_ids == (client.session_id,)

    def test_a_refused_join_leaves_the_live_session_alone(self, store):
        # A client already in a room sends a JOIN that fails: only that
        # JOIN's session goes; the live one keeps its traces and profile.
        # (``join`` would leave the room first, so the JOIN goes raw.)
        network = SimulatedNetwork()
        tracer = DeliveryTracer(sample_every=1)
        with use_dtrace(tracer):
            server = InteractionServer(store, network=network, use_profiles=True)
            client = ClientModule("lee", network=network, auto_fetch=False)
            network.attach_client(client)
            client.join("record-17")
            network.run()
            live = client.session_id
            client.choose("imaging.ct_head", "segmented")
            network.run()
            traces = [r.trace_id for r in tracer.store if r.origin == client.node_id]
            assert traces
            saved = []
            store.save_profile = saved.append
            client._dispatch(
                MessageKind.JOIN, {"viewer_id": "lee", "doc_id": "no-such-doc"}, None
            )
            network.run()
        assert [error["error"] for error in client.errors] == ["DatabaseError"]
        assert server.session_ids == (live,)
        assert [r.trace_id for r in tracer.store if r.origin == client.node_id] == traces
        assert saved == []

    def test_a_refused_join_leaves_no_session_on_a_shard(self, store):
        harness = ClusterHarness(store, ClusterConfig(shards=2))
        client = harness.add_client("lee")
        client.join("no-such-doc")
        harness.run()
        assert [error["error"] for error in client.errors] == ["DatabaseError"]
        for shard in harness.shards.values():
            assert shard.server.session_ids == ()

    def test_double_join_rejected(self, server):
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        with pytest.raises(RoomError, match="already in"):
            server.join_room(session.session_id, "record-17")

    def test_last_leave_persists_and_closes(self, server, store):
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        server.handle_operation(
            session.session_id, "imaging.ct_head", "zoom", global_importance=True
        )
        server.leave_room(session.session_id)
        assert server.room_ids == ()
        # The global operation was persisted with the document.
        reloaded = store.fetch_document("record-17")
        assert "imaging.ct_head.zoom" in reloaded.network

    def test_leave_without_room(self, server):
        session = server.connect_session("lee")
        with pytest.raises(RoomError, match="not in a room"):
            server.leave_room(session.session_id)

    def test_room_close_reclaims_completion_cache(self, server):
        """Closing a room lets go of its document, and the completions
        go with it: they hang off the document's own compilation, which
        nothing on the server can reach once the room is gone."""
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        document = server.room(server.room_ids[0]).document
        assert len(compile_cpnet(document.network).completions) > 0
        held = weakref.ref(document)
        del document
        server.leave_room(session.session_id)
        assert server.room_ids == ()
        gc.collect()
        assert held() is None

    def test_room_close_reclaims_shared_views(self, server):
        """The derived views live inside the completion entries — an
        overlay viewer's included: hers is the base completion she shares
        — so the last leave frees them with the entries, and with the
        members' known specs that referred to them."""
        sessions = [server.connect_session(name) for name in ("lee", "cho", "wu")]
        for session in sessions:
            server.join_room(session.session_id, "record-17")
        server.handle_choice(sessions[0].session_id, "imaging", "hidden")
        server.handle_choice(
            sessions[1].session_id, "labs.ecg", "icon", scope="personal"
        )
        server.handle_operation(sessions[2].session_id, "labs.ecg", "zoom")
        engine = server.room(server.room_ids[0]).engine
        memo = compile_cpnet(engine.document.network).completions
        views = [
            weakref.ref(entry.view)
            for entry in memo._entries.values()
            if entry.view is not None
        ]
        assert len(views) >= 3
        assert engine.presentation_for("wu").view in [view() for view in views]
        del engine, memo
        for session in sessions:
            server.leave_room(session.session_id)
        assert server.room_ids == ()
        gc.collect()
        assert all(view() is None for view in views)

    def test_a_refetched_document_starts_with_no_completions(self, server, store):
        """Regression (PR 10 review): a document persisted on close and
        re-fetched comes back as a fresh CPNet whose structure_version
        restarts at 0 — and a second, different global operation brings
        it to the number the first instance ended on. The old instance's
        completions must not answer the new one's lookups."""
        versions = []
        for operation in ("zoom", "crop"):
            session = server.connect_session("lee")
            server.join_room(session.session_id, "record-17")
            server.handle_operation(
                session.session_id, "imaging.ct_head", operation, global_importance=True
            )
            room = server.room(server.room_ids[0])
            outcome = room.presentation_for("lee").outcome
            assert f"imaging.ct_head.{operation}" in outcome
            assert outcome == room.document.reconfig_presentation({})
            versions.append(room.document.network.structure_version)
            server.leave_room(session.session_id)
            # Forget the operation between rounds so both instances end
            # on the same version count with different content.
            document = store.fetch_document("record-17")
            document.network.remove_variable(f"imaging.ct_head.{operation}")
            store.store_document(document)
        assert versions[0] == versions[1]

    def test_overlay_completions_go_with_their_compilation(self, server):
        """A viewer with a §4.2 extension reads the base completion she
        shares with everyone imposing her base constraints, and sweeps
        only her own variables over it. Every local operation replaces
        her overlay's compilation and invalidates no completion — the
        base net's memo serves everyone throughout — and a departing
        viewer takes her extension and its compilation along."""
        with use_registry(MetricsRegistry()) as registry:
            server = InteractionServer(server.store)
            lee, cho, wu = (server.connect_session(n) for n in ("lee", "cho", "wu"))
            for session in (lee, cho, wu):
                server.join_room(session.session_id, "record-17")
            engine = server.room(server.room_ids[0]).engine
            memo = compile_cpnet(engine.document.network).completions

            def overlay(viewer):
                return compile_extension(engine.extension(viewer))

            for index, operation in enumerate(("zoom", "crop", "segment", "measure")):
                before = overlay("lee")
                server.handle_operation(lee.session_id, "imaging.ct_head", operation)
                server.handle_choice(
                    cho.session_id, "labs", ("hidden", "shown")[index % 2]
                )
                assert overlay("lee") is not before and overlay("lee").base is before.base
                mine, theirs = (engine.presentation_for(v) for v in ("lee", "cho"))
                assert mine.view is theirs.view and len(mine.overlay) == index + 1
            assert registry.counter("cpnet.completion_cache.invalidations").value == 0
            assert compile_cpnet(engine.document.network).completions is memo
            extension = weakref.ref(engine.extension("lee"))
            del before
            server.leave_room(lee.session_id)  # cho and wu stay: the room lives on
            gc.collect()
            assert extension() is None
            assert len(memo) > 0


class TestLabelledSeries:
    def test_series_die_with_their_room(self, tmp_path):
        """Regression: `server.propagation.room_bytes{room,mode}` and
        `presentation.spec_cache.{hits,misses}{doc}` outlived their room.
        A family folds every label set past its 64th into `__other__`,
        so a server that had *ever* opened 32 rooms could no longer say
        which room is hot. More cycles than the cap, on one server: no
        family keeps a child of a closed room or document, none overflows."""
        cycles = MAX_SERIES + 6
        registry = MetricsRegistry()
        db = Database(str(tmp_path / "cycles"))
        with use_registry(registry):
            store = MultimediaObjectStore(db)
            for index in range(cycles):
                store.store_document(
                    generate_record(f"doc-{index}", sections=1, components_per_section=2)
                )
            network = SimulatedNetwork()
            server = InteractionServer(store, network=network, interest_mode="cpnet")
            client = ClientModule("lee", network=network, auto_fetch=False)
            network.attach_client(client)
            labelled = set()
            for index in range(cycles):
                client.join(f"doc-{index}")
                network.run()
                room = server.room(server.room_ids[0])
                path = room.document.component_paths()[-1]
                client.choose(path, room.document.network.variable(path).domain[-1])
                network.run()
                open_now = {
                    label for family in registry.families.values()
                    for key in family.children for label in key
                }
                assert {room.room_id, f"doc-{index}"} <= open_now
                labelled |= {room.room_id, f"doc-{index}"}
                client.leave()
                network.run()
            assert server.room_ids == () and len(labelled) == 2 * cycles
        db.close()
        residue = {
            name: sorted(family.children)
            for name, family in registry.families.items()
            if any(
                label in labelled or label == OVERFLOW_LABEL
                for key in family.children for label in key
            )
        }
        assert residue == {}
        # The flat counters stay the cumulative totals.
        assert registry.counter("server.propagation.diff_bytes").value > 0


class TestCompletionSharing:
    """What is swept, shared and let go over one scripted room.

    Recorded when a §4.2 extension became an overlay on the base net's
    completion: viewers with operations of their own stopped sweeping
    the whole net into a memo of their own (518 sweeps, 142 hits, 510
    invalidated, 79 compiles before) and ask the base net's memo like
    everyone else, so every one of their recomputations that another
    member's constraints already answered is a hit."""

    #: cpnet.* counters of the script below.
    RECORDED = {
        "cpnet.compiled.completions": 333,
        "cpnet.completion_cache.hits": 327,
        "cpnet.completion_cache.misses": 333,
        "cpnet.completion_cache.invalidations": 328,
        "cpnet.completion_cache.evictions": 0,
        "cpnet.compile": 68,
    }

    def test_an_edit_storm_room_reproduces_the_recorded_counters(self, tmp_path):
        registry = MetricsRegistry()
        db = Database(str(tmp_path / "storm"))
        with use_registry(registry):
            store = MultimediaObjectStore(db)
            store.store_document(
                generate_record("storm", sections=4, components_per_section=4, seed=7)
            )
            server = InteractionServer(store)
            members = [
                server.connect_session(f"editor-{index}").session_id
                for index in range(8)
            ]
            for member in members:
                server.join_room(member, "storm")
            document = server.room(server.room_ids[0]).document
            paths = document.component_paths()
            rng = random.Random(21)
            deck = (
                ["choice"] * 70 + ["personal"] * 20
                + ["operation_local"] * 24 + ["operation_global"] * 6
            )
            rng.shuffle(deck)
            for step, kind in enumerate(deck):
                member, path = rng.choice(members), rng.choice(paths)
                domain = document.network.variable(path).domain
                if kind == "choice":
                    server.handle_choice(member, path, rng.choice(domain))
                elif kind == "personal":
                    server.handle_choice(member, path, rng.choice(domain), scope="personal")
                else:
                    server.handle_operation(
                        member, path, f"op{step}",
                        global_importance=kind == "operation_global",
                    )
        db.close()
        counters = registry.snapshot()["counters"]
        assert {name: int(counters.get(name, 0)) for name in self.RECORDED} == self.RECORDED


class TestPropagation:
    def test_choice_returns_diffs_per_member(self, server):
        s1 = server.connect_session("lee")
        s2 = server.connect_session("cho")
        server.join_room(s1.session_id, "record-17")
        server.join_room(s2.session_id, "record-17")
        updates = server.handle_choice(s1.session_id, "imaging.ct_head", "segmented")
        assert set(updates) == {s1.session_id, s2.session_id}
        # The diff carries only affected components, not the whole outcome.
        assert updates[s2.session_id]["imaging.ct_head"] == "segmented"
        assert "labs" not in updates[s2.session_id]

    def test_no_diff_no_update(self, server):
        s1 = server.connect_session("lee")
        server.join_room(s1.session_id, "record-17")
        # Choosing the value already displayed changes nothing.
        updates = server.handle_choice(s1.session_id, "imaging.ct_head", "flat")
        assert updates == {}

    def test_personal_choice_updates_only_owner(self, server):
        s1 = server.connect_session("lee")
        s2 = server.connect_session("cho")
        server.join_room(s1.session_id, "record-17")
        server.join_room(s2.session_id, "record-17")
        updates = server.handle_choice(
            s2.session_id, "imaging.ct_head", "icon", scope="personal"
        )
        assert set(updates) == {s2.session_id}

    def test_operation_propagates_new_variable(self, server):
        s1 = server.connect_session("lee")
        server.join_room(s1.session_id, "record-17")
        updates = server.handle_operation(s1.session_id, "imaging.ct_head", "zoom")
        assert updates[s1.session_id]["imaging.ct_head.zoom"] == "applied"

    def test_freeze_then_choice_by_other_raises(self, server):
        s1 = server.connect_session("lee")
        s2 = server.connect_session("cho")
        server.join_room(s1.session_id, "record-17")
        server.join_room(s2.session_id, "record-17")
        server.handle_freeze(s1.session_id, "imaging.ct_head")
        with pytest.raises(Exception, match="frozen"):
            server.handle_choice(s2.session_id, "imaging.ct_head", "icon")
        server.handle_release(s1.session_id, "imaging.ct_head")
        server.handle_choice(s2.session_id, "imaging.ct_head", "icon")


class TestPermissions:
    def test_view_only_viewer_cannot_annotate(self, store):
        server = InteractionServer(store)
        server.policy.grant("student", VIEWER_GRANT)
        session = server.connect_session("student")
        server.join_room(session.session_id, "record-17")
        with pytest.raises(PermissionError_, match="annotate"):
            server.handle_operation(session.session_id, "imaging.ct_head", "zoom")
        # but choices are allowed
        server.handle_choice(session.session_id, "imaging.ct_head", "icon")

    def test_join_requires_view(self, store):
        server = InteractionServer(store)
        server.policy.grant("banned", frozenset())
        session = server.connect_session("banned")
        with pytest.raises(PermissionError_, match=PERM_VIEW):
            server.join_room(session.session_id, "record-17")

    def test_store_document_requires_modify(self, store):
        server = InteractionServer(store)  # default consultant grant: no modify
        session = server.connect_session("lee")
        with pytest.raises(PermissionError_, match="modify"):
            server.store_document(session.session_id, build_sample_medical_record())

    def test_unknown_permission_rejected(self):
        policy = PermissionPolicy()
        with pytest.raises(ValueError, match="unknown permission"):
            policy.grant("x", {"fly"})
        with pytest.raises(ValueError):
            policy.allows("x", "fly")


class TestStats:
    def test_snapshot_counts(self, server):
        s1 = server.connect_session("lee")
        s2 = server.connect_session("cho")
        server.join_room(s1.session_id, "record-17")
        server.join_room(s2.session_id, "record-17")
        server.handle_choice(s1.session_id, "labs", "hidden")
        server.handle_freeze(s1.session_id, "imaging.ct_head")
        stats = server.stats()
        assert stats["sessions"] == 2
        assert stats["rooms"] == 1
        assert stats["viewers_in_rooms"] == 2
        assert stats["frozen_components"] == 1
        assert stats["spec_cache_misses"] >= 1

    def test_empty_server(self, server):
        stats = server.stats()
        assert stats == {
            "sessions": 0,
            "rooms": 0,
            "monitors": 0,
            "viewers_in_rooms": 0,
            "frozen_components": 0,
            "spec_cache_hits": 0,
            "spec_cache_misses": 0,
            "triggers": 0,
        }


class TestPayloads:
    def test_fetch_payload_by_media_ref(self, server, store):
        obj = store.store_image(b"ct pixels")
        session = server.connect_session("lee")
        assert server.fetch_payload(session.session_id, obj.media_ref) == b"ct pixels"

    def test_fetch_component_payload_size(self, server):
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        size = server.fetch_component_payload(
            session.session_id, "imaging.ct_head", "flat"
        )
        assert size == 512 * 1024


class TestMalformedMessages:
    """A client message without a required field is refused as a typed
    protocol error naming kind and field, before any handler runs — not
    answered with the ``KeyError`` the handler would have tripped over."""

    MALFORMED = (
        (MessageKind.CHOICE, {"value": "flat"}, "component"),
        (MessageKind.FREEZE, {"component": "imaging.ct_head"}, "session_id"),
        (MessageKind.JOIN, {"viewer_id": "lee"}, "doc_id"),
    )

    @pytest.mark.parametrize("kind,fields,missing", MALFORMED)
    def test_direct_mode_raises_protocol_error(self, server, kind, fields, missing):
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        payload = dict(fields)
        if missing != "session_id" and kind != MessageKind.JOIN:
            payload["session_id"] = session.session_id
        seq_before = server.room(session.room_id)._next_seq
        with pytest.raises(ProtocolError, match=f"{kind!r}.*{missing!r}"):
            server.apply_session_op(kind, payload, sender_node="lee")
        assert server.room(session.room_id)._next_seq == seq_before

    @pytest.mark.parametrize("kind,fields,missing", MALFORMED)
    def test_networked_mode_answers_with_a_typed_error(self, store, kind, fields, missing):
        network = SimulatedNetwork()
        InteractionServer(store, network=network)
        client = ClientModule("lee", network=network, auto_fetch=False)
        network.attach_client(client)
        client.join("record-17")
        network.run()
        payload = dict(fields)
        if missing != "session_id" and kind != MessageKind.JOIN:
            payload["session_id"] = client.session_id
        client._dispatch(kind, payload, network.home_of(client.node_id))
        network.run()
        assert [error["error"] for error in client.errors] == ["ProtocolError"]
        detail = client.errors[0]["detail"]
        assert repr(kind) in detail and repr(missing) in detail

    def test_fetch_payload_without_a_shape_is_a_protocol_error(self, server):
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        with pytest.raises(ProtocolError, match="media_ref"):
            server.apply_session_op(
                MessageKind.FETCH_PAYLOAD, {"session_id": session.session_id}
            )


class TestPropagationLedger:
    """A pinned scripted room: the propagation and codec counters must
    read exactly what they read before sizing stopped encoding (numbers
    recorded at the parent of PR 12), and every encode that happens
    during a propagate must be one ``codec.encodes`` counts."""

    SCRIPT = (
        lambda m: m[0].choose("imaging.ct_head", "segmented"),
        lambda m: m[1].choose("imaging.xray_chest", "flat", scope="personal"),
        lambda m: m[4].subscribe(["labs"], replace=True),
        lambda m: m[5].unsubscribe(),
        lambda m: m[2].operate("imaging.ct_head", "zoom"),
        lambda m: m[0].choose("imaging", "hidden"),
        lambda m: m[6].subscribe(["imaging.ct_head", "consult"], replace=True),
        lambda m: m[3].operate("labs.ecg", "measure", global_importance=True),
        lambda m: m[7].choose("labs.ecg", "icon"),
        lambda m: m[0].choose("imaging", "shown"),
        lambda m: m[4].unsubscribe(["labs"]),
        lambda m: m[5].subscribe(["imaging"]),
        lambda m: m[1].choose("consult.voice_note", "transcript"),
        lambda m: m[2].choose("imaging.ct_head", "icon", scope="personal"),
        lambda m: m[6].choose("demographics", "summary"),
        lambda m: m[3].choose("imaging.ct_head", "flat"),
    )

    PINNED = {
        "server.propagation.updates": 54,
        "server.propagation.diff_bytes": 2161,
        'server.propagation.room_bytes{room="server:room-1",mode="diff"}': 2161,
        "interest.bytes_saved": 2341,
        "interest.updates_filtered": 31,
        "codec.encodes": 63,
        "codec.encodes_saved": 89,
        "codec.bytes_encoded": 7756,
    }

    #: What resending each told member's whole outcome would have cost —
    #: the counterfactual the server once counted as ``full_bytes``.
    WHOLE_RESEND_BYTES = 12216

    def test_counters_and_encode_work_are_pinned(self, store, monkeypatch):
        registry = MetricsRegistry()
        with use_registry(registry):
            network = SimulatedNetwork()
            server = InteractionServer(store, network=network, interest_mode="cpnet")
            members = []
            for index in range(8):
                client = ClientModule(f"m{index}", network=network, auto_fetch=False)
                network.attach_client(client)
                client.join("record-17")
                members.append(client)
            network.run()

            # Every buffer the encoder writes into while a propagate is
            # on the stack (kept alive, so ids cannot be reused).
            buffers: dict[int, bytearray] = {}
            propagating = []
            uncounted = []  # (change kind, buffers written, codec.encodes delta)
            real_write = codec._write_value
            real_propagate = InteractionServer._propagate

            def recording_write(out, value, interner):
                if propagating:
                    buffers[id(out)] = out
                real_write(out, value, interner)

            whole_resend = []

            def counting_propagate(self, room, change):
                encodes = registry.counter("codec.encodes")
                before, already = encodes.value, len(buffers)
                propagating.append(change)
                try:
                    told = real_propagate(self, room, change)
                    whole_resend.extend(
                        encoded_size(room.presentation_for(self.session(s).viewer_id).outcome)
                        for s in told
                    )
                    return told
                finally:
                    propagating.pop()
                    written, counted = len(buffers) - already, encodes.value - before
                    if written != counted:
                        uncounted.append((change.kind, written, counted))

            monkeypatch.setattr(codec, "_write_value", recording_write)
            monkeypatch.setattr(InteractionServer, "_propagate", counting_propagate)
            for step in self.SCRIPT:
                step(members)
                network.run()
            assert all(not client.errors for client in members)
            assert buffers  # propagates did encode, so the next line has teeth
            assert uncounted == []
        counters = registry.snapshot()["counters"]
        assert {name: counters[name] for name in self.PINNED} == self.PINNED
        assert len(whole_resend) == self.PINNED["server.propagation.updates"]
        assert sum(whole_resend) == self.WHOLE_RESEND_BYTES
