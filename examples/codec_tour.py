"""A tour of ``repro.net.codec``: encode once, send everywhere.

Act one takes one presentation-update body and shows what the canonical
binary framing does to it: tagged values, varint lengths, protocol
strings interned to one byte — and how a per-connection dynamic table
shrinks the *second* frame that repeats an application string.

Act two puts a six-physician consultation on the reliable transport and
watches the ledger: every shared choice is serialized three times total
(the choice, the update, the peer event) no matter how many viewers
receive it, and the saved encodes/bytes are counted by the codec itself.

Act three opts the server into a 50 ms propagation-batching window and
replays the same consultation: the per-recipient update+event pair
coalesces into one acked frame, so the reliable transport moves fewer
frames and fewer bytes for the same delivered updates.

Run:  python examples/codec_tour.py
"""

import tempfile

from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import Link, SimulatedNetwork
from repro.net.codec import StringInterner, encode_message
from repro.server import InteractionServer
from repro.server.protocol import MessageKind, json_encoded_size

MBPS = 1_000_000

#: The consultation script acts two and three replay.
SCRIPT = [
    ("imaging.ct_head", "segmented"),
    ("labs", "hidden"),
    ("consult.voice_note", "transcript"),
    ("imaging.ct_head", "icon"),
    ("labs", "shown"),
    ("consult.referral_letter", "full"),
]


def act(title):
    print(f"\n== {title} ==")


def run_consultation(workdir, name, population, window_s):
    """A scripted consultation; returns the wire totals."""
    db = Database(f"{workdir}/{name}")
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    network = SimulatedNetwork(reliability=True)
    InteractionServer(store, network=network, batch_window_s=window_s)
    clients = []
    for index in range(population):
        client = ClientModule(f"dr-{index}", network=network, auto_fetch=False)
        network.attach_client(
            client,
            downlink=Link(bandwidth_bps=50 * MBPS),
            uplink=Link(bandwidth_bps=50 * MBPS),
        )
        client.join("record-17")
        clients.append(client)
    network.run()
    frames, wire_bytes = network.stats.messages, network.stats.bytes_total
    counters = obs.snapshot()["counters"]
    before = {
        key: counters.get(key, 0)
        for key in ("codec.encodes", "codec.encodes_saved", "codec.bytes_saved")
    }
    for component, value in SCRIPT:
        clients[0].choose(component, value)
        network.run()
    counters = obs.snapshot()["counters"]
    out = {
        key: counters.get(key, 0) - start for key, start in before.items()
    }
    out["frames"] = network.stats.messages - frames
    out["wire_bytes"] = network.stats.bytes_total - wire_bytes
    out["updates"] = sum(c.updates_received for c in clients)
    db.close()
    return out


def main() -> None:
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        act("act one: one body, three encodings")
        body = {
            "doc_id": "record-17",
            "changes": {"imaging.ct_head": "segmented"},
            "seq": 4,
        }
        frame = encode_message(MessageKind.PRESENTATION_UPDATE, body)
        print(f"update body: {body}")
        print(f"JSON encoding (through PR 4):   {json_encoded_size(body)} bytes,"
              " serialized twice per send (size + checksum)")
        print(f"binary frame (static interning): {frame.size_bytes} bytes,"
              f" crc32 {frame.checksum:#010x}, encoded once, reused forever")
        interner = StringInterner()
        first = encode_message(MessageKind.PRESENTATION_UPDATE, body, interner)
        second = encode_message(MessageKind.PRESENTATION_UPDATE, body, interner)
        print("per-connection dynamic interning: "
              f"first frame {first.size_bytes} bytes registers the strings, "
              f"repeat frame {second.size_bytes} bytes back-references them")

        act("act two: six viewers, three encodes per shared choice")
        with tempfile.TemporaryDirectory() as workdir:
            plain = run_consultation(workdir, "fanout", 6, window_s=0.0)
            per_choice = plain["codec.encodes"] / len(SCRIPT)
            print(f"{len(SCRIPT)} shared choices fanned out to 6 viewers:")
            print(f"  encode calls: {plain['codec.encodes']} "
                  f"({per_choice:.1f} per choice — flat in room size)")
            print(f"  frame reuses: {plain['codec.encodes_saved']} "
                  f"({plain['codec.bytes_saved']} re-serialization bytes never paid)")
            print(f"  reliable transport: {plain['frames']} frames, "
                  f"{plain['wire_bytes']} bytes, {plain['updates']} updates delivered")

            act("act three: the same consultation, 50 ms batching window")
            batched = run_consultation(workdir, "batched", 6, window_s=0.05)
            print(f"  unbatched: {plain['frames']} frames / {plain['wire_bytes']} bytes")
            print(f"  batched:   {batched['frames']} frames / {batched['wire_bytes']} bytes "
                  f"(same {batched['updates']} updates delivered)")
            saved = 1 - batched["frames"] / plain["frames"]
            print(f"  the window coalesced each recipient's update+event pair: "
                  f"{saved:.0%} fewer acked frames")
            assert batched["updates"] == plain["updates"]
            assert batched["frames"] < plain["frames"]

    print("\nthe wire now pays per distinct message body, not per recipient.")


if __name__ == "__main__":
    main()
