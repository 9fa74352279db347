"""A tour of ``repro.interest``: propagate only what each viewer watches.

Act one puts three physicians in a room and has one narrow its
subscription to the labs section: the next imaging change costs that
member zero wire bytes while the implicitly-subscribed member still
receives it.

Act two switches the server to ``interest_mode="cpnet"`` and shows the
seed: a joiner starts subscribed to exactly the primitives its CP-net
outcome makes visible — §5.3's "relevant parts", computed per viewer.

Act three widens a subscription after the fact: the SUBSCRIBE_ACK's
catch-up diff heals precisely the changes filtering withheld, and
nothing else.

Act four degrades one viewer to low bandwidth and fetches a heavy
payload for everyone: the degraded member receives a ~5 % one-layer
prefix cut from the same cached frame, then the interest dashboard
panel sums up what the room saved.

Run:  python examples/interest_tour.py
"""

import tempfile

from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.interest import SIMULCAST_FLOOR, layer_prefix_size
from repro.net import SimulatedNetwork
from repro.presentation import (
    BANDWIDTH_LOW,
    TUNING_VARIABLE,
    install_bandwidth_tuning,
)
from repro.server import InteractionServer


class MeteredNetwork(SimulatedNetwork):
    """Tallies application bytes per recipient (transport acks excluded)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.bytes_by_node = {}

    def _transmit(self, message):
        if message.kind != "net_ack":
            self.bytes_by_node[message.recipient] = (
                self.bytes_by_node.get(message.recipient, 0) + message.size_bytes
            )
        super()._transmit(message)

    def reset_metering(self):
        self.bytes_by_node = {}


def act(title):
    print(f"\n== {title} ==")


def make_room(workdir, name, interest_mode, viewers):
    db = Database(f"{workdir}/{name}")
    store = MultimediaObjectStore(db)
    document = build_sample_medical_record()
    install_bandwidth_tuning(document)
    store.store_document(document)
    network = MeteredNetwork()
    server = InteractionServer(store, network=network, interest_mode=interest_mode)
    clients = []
    for viewer in viewers:
        client = ClientModule(viewer, network=network, auto_fetch=False)
        network.attach_client(client)
        client.join("record-17")
        clients.append(client)
    network.run()
    return db, network, server, clients


def main() -> None:
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), tempfile.TemporaryDirectory() as workdir:
        act("act one: a narrow subscription means zero bytes")
        db, network, server, clients = make_room(
            workdir, "filter", "off", ["cho", "lee", "park"]
        )
        actor, wide, narrow = clients
        narrow.subscribe(["labs"], replace=True)
        network.run()
        network.reset_metering()
        actor.choose("imaging.ct_head", "segmented")
        network.run()
        print(f"{actor.viewer_id} chose imaging.ct_head=segmented; wire cost:")
        for client in (wide, narrow):
            subs = client.membership.subscriptions or ("<everything>",)
            print(
                f"  {client.viewer_id:<5} subscribed to {', '.join(subs):<14}"
                f" received {network.bytes_by_node.get(client.node_id, 0):>3} bytes,"
                f" displays {client.displayed()['imaging.ct_head']}"
            )
        assert network.bytes_by_node.get(narrow.node_id, 0) == 0
        db.close()

        act("act two: CP-net mode seeds the relevant parts")
        db, network, server, clients = make_room(
            workdir, "seed", "cpnet", ["cho", "lee"]
        )
        room = server.room(server.room_ids[0])
        for client in clients:
            seeded = room.interest.subscriptions(client.session_id)
            print(f"  {client.viewer_id} joined already following: {', '.join(seeded)}")

        act("act three: widening heals exactly what was filtered")
        laggard = clients[1]
        laggard.subscribe(["labs"], replace=True)
        network.run()
        clients[0].choose("imaging.ct_head", "segmented")
        clients[0].choose("consult.voice_note", "transcript")
        network.run()
        print(f"  while narrowed, {laggard.viewer_id} still displays "
              f"imaging.ct_head={laggard.displayed()['imaging.ct_head']}")
        laggard.subscribe(["imaging.ct_head"])
        network.run()
        print(f"  after re-subscribing, the ack's catch-up diff brings "
              f"imaging.ct_head={laggard.displayed()['imaging.ct_head']}")
        print(f"  ...but consult.voice_note stays filtered: "
              f"{laggard.displayed()['consult.voice_note']}")
        assert laggard.displayed()["imaging.ct_head"] == "segmented"
        db.close()

        act("act four: one cached frame, per-subscriber layers")
        db, network, server, clients = make_room(
            workdir, "layers", "cpnet", ["cho", "lee"]
        )
        full, low = clients
        low.choose(TUNING_VARIABLE, BANDWIDTH_LOW, scope="personal")
        network.run()
        room = server.room(server.room_ids[0])
        size = room.document.component("imaging.ct_head").presentation_size("flat")
        assert size >= SIMULCAST_FLOOR
        network.reset_metering()
        full.fetch_payload("imaging.ct_head", "flat")
        low.fetch_payload("imaging.ct_head", "flat")
        network.run()
        full_bytes = network.bytes_by_node[full.node_id]
        low_bytes = network.bytes_by_node[low.node_id]
        print(f"  imaging.ct_head 'flat' is {size} bytes")
        print(f"  {full.viewer_id} (full quality) received {full_bytes} bytes")
        print(f"  {low.viewer_id} (tuning.bandwidth=low) received {low_bytes} bytes "
              f"(one-layer prefix = {layer_prefix_size(size, 1)})")
        assert low_bytes < full_bytes
        db.close()

        print("\nthe interest dashboard panel:")
        print(obs.render_dashboard(registry.snapshot(), include=("interest.",)))

    print("propagation now costs per watcher, not per member.")


if __name__ == "__main__":
    main()
