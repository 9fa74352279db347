"""The client's buffer pins exactly what is on screen.

A displayed payload is pinned; a payload that leaves the screen is
unpinned and becomes evictable; a payload arriving for anything not on
screen (a prefetch, or a demand fetch the display has moved past) is
admitted unpinned, below demand priority.
"""

import pytest

from repro.client import ClientModule
from repro.client.buffer import entry_key
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import Link, SimulatedNetwork
from repro.net.link import MBPS
from repro.server import InteractionServer
from repro.workloads import consultation_events, generate_record


def study():
    return generate_record("study", sections=5, components_per_section=4, seed=2)


@pytest.fixture
def rig(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(study())
    store.store_document(build_sample_medical_record("other"))
    network = SimulatedNetwork(reliability=True)
    InteractionServer(store, network=network)
    client = ClientModule("viewer", network=network, buffer_bytes=3 * MBPS)
    network.attach_client(
        client, uplink=Link(bandwidth_bps=4 * MBPS), downlink=Link(bandwidth_bps=4 * MBPS)
    )
    yield network, client
    db.close()


def pinned(client):
    return {key for key, entry in client.buffer._entries.items() if entry.pinned}


def shown_and_buffered(client):
    shown = {entry_key(path, value) for path, value in client.displayed().items()}
    return shown & set(client.buffer.keys())


def test_pins_equal_the_display_after_every_settle(rig):
    """E7's session: 25 choices through a 3 MB buffer at 4 Mbit/s."""
    network, client = rig
    client.join("study")
    network.run()
    assert pinned(client) == shown_and_buffered(client)
    for component, value in consultation_events(
        study(), num_events=25, rationality=0.9, seed=7
    ):
        client.choose(component, value)
        network.run()
        assert client.fully_rendered()
        assert pinned(client) == shown_and_buffered(client)


def test_a_new_display_releases_the_old_one(rig):
    network, client = rig
    client.join("study")
    network.run()
    client.leave()
    client.join("other")
    network.run()
    assert pinned(client)
    assert pinned(client) == shown_and_buffered(client)


def test_a_payload_off_screen_is_admitted_speculatively(rig):
    network, client = rig
    client.join("study")
    network.run()
    shown = client.displayed()
    component, value = next(
        (path, alternative)
        for path, sizes in client.membership.sizes.items()
        for alternative, size in sizes.items()
        if size > 0 and shown.get(path) != alternative
    )
    client.fetch_payload(component, value)
    network.run()
    entries = client.buffer._entries
    speculative = entries[entry_key(component, value)]
    assert not speculative.pinned
    assert all(speculative.priority < entries[key].priority for key in pinned(client))
