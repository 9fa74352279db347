"""Tests for server-side zoom-region delivery."""

import numpy as np
import pytest

from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.errors import MediaError, PermissionError_
from repro.media.image import Image, ct_phantom, zoom
from repro.net import SimulatedNetwork, encode_message
from repro.server import InteractionServer
from repro.server.protocol import MessageKind


@pytest.fixture
def rig(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    image = ct_phantom(128, seed=6)
    handle = store.store_image(image.to_bytes(), quality=2)
    server = InteractionServer(store)
    yield server, store, image, handle
    db.close()


class TestDirect:
    def test_region_matches_local_zoom(self, rig):
        server, store, image, handle = rig
        session = server.connect_session("lee")
        payload = server.fetch_zoom_region(
            session.session_id, handle.media_ref, 32, 32, 24, 24, factor=3
        )
        shipped = Image.from_bytes(payload)
        local = zoom(image, 32, 32, 24, 24, factor=3)
        # Shipped pixels go through uint8 quantization; compare at that depth.
        assert np.array_equal(shipped.to_uint8(), local.to_uint8())
        assert shipped.shape == (72, 72)

    def test_region_smaller_than_full_payload(self, rig):
        server, store, image, handle = rig
        session = server.connect_session("lee")
        payload = server.fetch_zoom_region(
            session.session_id, handle.media_ref, 0, 0, 16, 16, factor=1
        )
        assert len(payload) < len(image.to_bytes())

    def test_bad_rect_rejected(self, rig):
        server, store, image, handle = rig
        session = server.connect_session("lee")
        with pytest.raises(MediaError):
            server.fetch_zoom_region(
                session.session_id, handle.media_ref, 120, 120, 64, 64
            )

    def test_requires_view_permission(self, rig):
        server, store, image, handle = rig
        server.policy.grant("banned", frozenset())
        session = server.connect_session("banned")
        with pytest.raises(PermissionError_):
            server.fetch_zoom_region(session.session_id, handle.media_ref, 0, 0, 8, 8)


class TestOverNetwork:
    def test_zoom_payload_delivered(self, tmp_path):
        db = Database(str(tmp_path / "db-net"))
        store = MultimediaObjectStore(db)
        store.store_document(build_sample_medical_record())
        image = ct_phantom(128, seed=6)
        handle = store.store_image(image.to_bytes())
        network = SimulatedNetwork()
        InteractionServer(store, network=network)
        client = ClientModule("lee", network=network)
        network.attach_client(client)
        client.join("record-17")
        network.run()
        payloads = []
        receive = client.receive

        def tap(message):
            if message.kind == MessageKind.PAYLOAD:
                payloads.append(message.payload)
            receive(message)

        client.receive = tap
        body = {
            "session_id": client.session_id,
            "media_ref": handle.media_ref,
            "rect": [10, 10, 32, 32],
            "factor": 2,
        }
        network.send(
            client.node_id, "server", encode_message(MessageKind.FETCH_PAYLOAD, body)
        )
        network.run()
        # The region payload reaches the client (raw media payloads are
        # consumed by media tooling; the message must arrive intact).
        assert [p["media_ref"] for p in payloads] == [handle.media_ref]
        db.close()
