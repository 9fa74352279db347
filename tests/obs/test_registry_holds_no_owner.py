"""The registry keeps no owner alive.

A series read from its owner closes over the owner's small tally — its
stats record, a dict of counts, a table it holds — never over the
owner. So a server, a network and a client built under a registry can
be dropped while the registry (and the values it reads) lives on.
"""

from __future__ import annotations

import gc
import weakref

from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork
from repro.server import InteractionServer
from repro.workloads import generate_record


def test_dropped_server_network_and_client_are_collected(tmp_path):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "db"))
        try:
            store = MultimediaObjectStore(db)
            store.store_document(
                generate_record("case-0", sections=2, components_per_section=3, seed=0)
            )
            network = SimulatedNetwork()
            server = InteractionServer(store, network=network, interest_mode="cpnet")
            client = ClientModule("dr-0", network=network)
            network.attach_client(client)
            client.join("case-0")
            network.run()
            assert client.session_id is not None
            owners = [weakref.ref(thing) for thing in (server, network, client)]
            del server, network, client
        finally:
            db.close()
    gc.collect()
    assert [ref() for ref in owners] == [None, None, None]
    # What the registry read stays readable after its owners are gone.
    snapshot = registry.snapshot()
    assert snapshot["counters"]["net.messages"] > 0
    assert snapshot["gauges"]['server.sessions_connected{node="server"}'] == 1
