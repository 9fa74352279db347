"""A full tele-consultation session (the paper's Section 1 scenario).

Three physicians discuss a patient record in a shared room: they zoom and
segment the CT image (Section 4.2 operations), annotate it, freeze it
while one of them measures, and one participant keeps a personal
presentation view tuned to a hospital-WAN link. The record round-trips
through the database, so the globally-important segmentation is there for
the next consultation.

Run:  python examples/medical_consultation.py
"""

import tempfile

from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.media.image import AnnotatedImage, ct_phantom, label_regions, overlay_grid, zoom
from repro.net import Link, SimulatedNetwork
from repro.server import InteractionServer

MBPS = 1_000_000


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        db = Database(f"{workdir}/hospital-db")
        store = MultimediaObjectStore(db)

        # The record + the actual CT pixels (a synthetic phantom) go in.
        record = build_sample_medical_record("patient-442", patient="patient-442")
        ct_image = ct_phantom(256, seed=42)
        ct_object = store.store_image(ct_image.to_bytes(), quality=2)
        store.store_document(record)
        print(f"Stored {record.title!r} and CT payload as {ct_object.media_ref}")

        # --- the conference ------------------------------------------------
        network = SimulatedNetwork()
        server = InteractionServer(store, network=network)
        radiologist = ClientModule("radiologist", network=network)
        surgeon = ClientModule("surgeon", network=network)
        resident = ClientModule("resident", network=network)
        network.attach_client(radiologist, downlink=Link(bandwidth_bps=100 * MBPS))
        network.attach_client(surgeon, downlink=Link(bandwidth_bps=20 * MBPS))
        network.attach_client(
            resident,
            downlink=Link(bandwidth_bps=1.5 * MBPS, latency_s=0.04),
            uplink=Link(bandwidth_bps=0.7 * MBPS, latency_s=0.04),
        )
        for client in (radiologist, surgeon, resident):
            client.join("patient-442")
        network.run()
        print(f"\n{len(network.client_ids)} participants in room {radiologist.room_id!r}")

        # The radiologist switches everyone to the segmented CT view.
        radiologist.choose("imaging.ct_head", "segmented")
        network.run()
        print("Radiologist shares the segmented CT; the surgeon now sees:",
              surgeon.displayed()["imaging.ct_head"])

        # She freezes the image from the rest and annotates the lesion.
        radiologist.freeze("imaging.ct_head")
        radiologist.annotate(
            "imaging.ct_head",
            {"type": "text", "text": "lesion, 9mm", "x": 140, "y": 96},
        )
        network.run()
        surgeon.choose("imaging.ct_head", "flat")
        network.run()
        print("Surgeon's change while frozen ->",
              surgeon.errors[-1]["error"] if surgeon.errors else "no error (bug!)")
        radiologist.release("imaging.ct_head")
        network.run()

        # §4.2 operation: a *zoom* important only to the resident...
        resident.operate("imaging.ct_head", "zoom")
        # ...and a *segmentation* the radiologist marks globally important.
        radiologist.operate("imaging.ct_head", "segmentation", global_importance=True)
        network.run()
        print("Resident sees the zoom:",
              resident.displayed().get("imaging.ct_head.zoom"))
        print("Surgeon does NOT see the zoom:",
              "imaging.ct_head.zoom" not in surgeon.displayed())
        print("Everyone sees the global segmentation:",
              surgeon.displayed().get("imaging.ct_head.segmentation"))

        # --- the image processing behind those operations ------------------
        zoomed = zoom(ct_image, top=96, left=96, height=64, width=64, factor=2)
        annotated = AnnotatedImage(ct_image)
        annotated.add_text("lesion, 9mm", 96, 140)
        annotated.add_line(96, 140, 120, 128)
        gridded, grid = overlay_grid(ct_image, rows=4, cols=4)
        regions = label_regions(ct_image)
        print(f"\nImage ops: zoomed to {zoomed.shape}, "
              f"{len(annotated.elements)} annotation elements, "
              f"{grid.rows}x{grid.cols} grid, "
              f"{regions.max()} auto-segmented regions")

        # --- wrap up --------------------------------------------------------
        for client in (radiologist, surgeon, resident):
            client.leave()
        network.run()

        # The globally-important operation survived in the database.
        reloaded = store.fetch_document("patient-442")
        print("\nAfter the room closed, the stored record's network knows:",
              "imaging.ct_head.segmentation" in reloaded.network)
        print(f"Traffic: {network.stats.messages} messages, "
              f"{network.stats.bytes_total / 1024:.0f} KB")
        db.close()


if __name__ == "__main__":
    main()
