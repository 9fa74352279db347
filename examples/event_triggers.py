"""Dynamic event triggers and broadcasting (the paper's future work,
implemented).

A hospital deployment wires three triggers into the interaction server:

  1. audit — log every operation performed on any imaging component;
  2. escalation — the first time the CT is segmented, broadcast an alert
     into the room so everyone looks at it;
  3. quorum — once the room reaches three participants, broadcast that
     the consultation is quorate (fires once).

Run:  python examples/event_triggers.py
"""

import tempfile

from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import SimulatedNetwork
from repro.server import InteractionServer
from repro.server.triggers import all_of, on_component, on_kind, on_room_population


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        db = Database(f"{workdir}/db")
        store = MultimediaObjectStore(db)
        store.store_document(build_sample_medical_record())

        network = SimulatedNetwork()
        server = InteractionServer(store, network=network)
        audit_log = []
        labels = {}  # trigger id -> what it is for

        # 1. audit every operation on imaging components
        audit = server.triggers.register(
            lambda room, change: (
                change.kind == "operation"
                and change.data.get("component", "").startswith("imaging.")
            ),
            lambda room, change: audit_log.append(
                f"{change.viewer_id} performed {change.data['operation']} "
                f"on {change.data['component']}"
            ),
        )
        labels[audit.trigger_id] = "imaging operation audit"

        # 2. escalate the first segmentation of the CT (fires once)
        escalation = server.triggers.register(
            all_of(on_kind("choice"), on_component("imaging.ct_head")),
            lambda room, change: (
                server.broadcast(
                    {"alert": f"{change.viewer_id} switched the CT to "
                              f"{change.data['value']} — please review"},
                    room_id=room.room_id,
                )
                if change.data.get("value") == "segmented"
                else None
            ),
        )
        labels[escalation.trigger_id] = "CT segmentation escalation"

        # 3. announce quorum once
        quorum = server.triggers.register(
            on_room_population(3),
            lambda room, change: server.broadcast(
                {"note": "three participants present — consultation is quorate"},
                room_id=room.room_id,
            ),
            once=True,
        )
        labels[quorum.trigger_id] = "quorum announcement"

        clients = []
        for name in ("radiologist", "surgeon", "resident"):
            client = ClientModule(name, network=network)
            network.attach_client(client)
            client.join("record-17")
            clients.append(client)
        network.run()

        radiologist, surgeon, resident = clients
        radiologist.operate("imaging.ct_head", "zoom")
        network.run()
        surgeon.choose("imaging.ct_head", "segmented")  # escalation fires here
        network.run()
        surgeon.choose("labs", "hidden")  # quorum trigger (already joined) fires on first change
        network.run()

        print("Audit log:")
        for entry in audit_log:
            print(f"  {entry}")
        print(f"\nBroadcasts received by the resident ({len(resident.broadcasts)}):")
        for message in resident.broadcasts:
            print(f"  {message}")
        print("\nRegistered triggers still active:")
        for trigger in server.triggers.triggers:
            print(f"  #{trigger.trigger_id} {labels[trigger.trigger_id]} "
                  f"(fired {trigger.fired_count}x)")
        db.close()


if __name__ == "__main__":
    main()
