"""Multi-resolution image delivery (the paper's Figure 9, end to end).

Encodes a CT phantom with the multi-layer codec (wavelet main
approximation + local-cosine residual layers), stores the stream in the
CMP_OBJECTS_TABLE, and serves three viewers on very different links: each
receives the largest layer prefix their bandwidth affords within the
interactivity deadline — "the same image ... shown with different
resolutions to the various partners in the chat room".

Run:  python examples/multiresolution_imaging.py
"""

import tempfile

from repro.db import Database, MultimediaObjectStore
from repro.media.image import (
    EncodedImage,
    MultiLayerCodec,
    ct_phantom,
    psnr,
    resolution_ladder,
)
from repro.media.image.progressive import layers_for_bandwidth, transcode_to_budget

KBPS = 1_000
MBPS = 1_000_000

VIEWERS = (
    ("radiologist-lan", 100 * MBPS),
    ("clinic-dsl", 2 * MBPS),
    ("home-modem", 96 * KBPS),
)
DEADLINE_S = 2.0


def main() -> None:
    image = ct_phantom(256, seed=11)
    raw_bytes = len(image.to_bytes())
    codec = MultiLayerCodec(base_step=64.0)
    encoded = codec.encode(image, num_layers=4)
    print(f"CT phantom {image.shape}: raw {raw_bytes / 1024:.0f} KB")
    print("\nMulti-layer stream (wavelet approximation + local-cosine residuals):")
    for step in resolution_ladder(encoded, image):
        ratio = raw_bytes / step.bytes_on_wire
        print(f"  layers={step.num_layers}  {step.bytes_on_wire:7d} B  "
              f"{step.psnr_db:6.2f} dB  ({ratio:5.1f}x smaller than raw)")

    # Store the stream once; serve every bandwidth class from it.
    with tempfile.TemporaryDirectory() as workdir:
        db = Database(f"{workdir}/db")
        store = MultimediaObjectStore(db)
        handle = store.store_compressed(
            encoded.to_bytes(), header=b"mlc-v1", filename="ct-442.mlc"
        )
        print(f"\nStored stream as {handle.media_ref}")

        _, stream = store.fetch(handle)
        stored = EncodedImage.from_bytes(stream)
        print(f"\nPer-viewer delivery within a {DEADLINE_S:.0f}s deadline:")
        for name, bandwidth in VIEWERS:
            layers = layers_for_bandwidth(stored, bandwidth, DEADLINE_S)
            if layers == 0:
                print(f"  {name:16s} cannot receive even one layer in time")
                continue
            budget = int(bandwidth * DEADLINE_S / 8)
            shipped = transcode_to_budget(stored, budget)
            decoded = MultiLayerCodec.decode(EncodedImage.from_bytes(shipped))
            transfer_s = len(shipped) * 8 / bandwidth
            print(f"  {name:16s} {layers} layer(s), {len(shipped):7d} B, "
                  f"{transfer_s:5.2f}s transfer, {psnr(image, decoded):6.2f} dB")
        db.close()


if __name__ == "__main__":
    main()
