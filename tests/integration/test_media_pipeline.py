"""Integration: media payloads through the database and the codec.

Exercises the path a real deployment uses: images and audio are encoded,
stored as blobs in the Fig. 7 tables, fetched back, transcoded per
bandwidth class, and analysed by the browsing tools.
"""

import pytest

from repro.db import AUDIO_OBJECTS_TABLE, Database, MultimediaObjectStore
from repro.media.audio import AudioSignal, ConversationBuilder, segment_audio
from repro.media.audio.synth import DEFAULT_SPEAKERS
from repro.media.image import (
    AnnotatedImage,
    EncodedImage,
    Image,
    MultiLayerCodec,
    ct_phantom,
    psnr,
)
from repro.media.image.progressive import transcode_to_budget


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    yield MultimediaObjectStore(db)
    db.close()


class TestImagePipeline:
    def test_store_encode_fetch_decode(self, store):
        image = ct_phantom(128, seed=3)
        encoded = MultiLayerCodec().encode(image, num_layers=3)
        handle = store.store_compressed(
            encoded.to_bytes(), header=b"mlc-v1", filename="ct.mlc"
        )
        row, payload = store.fetch(handle)
        decoded = MultiLayerCodec.decode(EncodedImage.from_bytes(payload))
        assert psnr(image, decoded) > 40.0
        assert row["FLD_FILESIZE"] == len(payload)

    def test_server_side_transcoding_from_storage(self, store):
        """One stored stream serves several budgets without re-encoding."""
        image = ct_phantom(128, seed=4)
        encoded = MultiLayerCodec().encode(image, num_layers=4)
        handle = store.store_compressed(encoded.to_bytes(), header=b"mlc-v1")
        _, payload = store.fetch(handle)
        stored = EncodedImage.from_bytes(payload)
        small = transcode_to_budget(stored, stored.prefix_size(1) + 64)
        large = transcode_to_budget(stored, len(payload))
        small_quality = psnr(image, MultiLayerCodec.decode(EncodedImage.from_bytes(small)))
        large_quality = psnr(image, MultiLayerCodec.decode(EncodedImage.from_bytes(large)))
        assert len(small) < len(large)
        assert small_quality < large_quality

    def test_annotated_image_round_trip(self, store):
        base = ct_phantom(64, seed=5)
        annotated = AnnotatedImage(base)
        annotated.add_text("lesion", 10, 10)
        annotated.add_line(0, 0, 63, 63)
        rendered = annotated.render()
        texts = [
            {"kind": "text", "text": "lesion", "row": 10, "col": 10},
            {"kind": "line", "from": [0, 0], "to": [63, 63]},
        ]
        handle = store.store_image(rendered.to_bytes(), quality=2, texts=texts)
        row, payload = store.fetch(handle)
        restored = Image.from_bytes(payload)
        assert restored.shape == base.shape
        assert row["FLD_TEXTS"][0]["text"] == "lesion"


class TestAudioPipeline:
    def test_store_analyse_fetch(self, store):
        adams, baker, _, __ = DEFAULT_SPEAKERS
        signal, truth = (
            ConversationBuilder(seed=3)
            .pause(0.3).say(adams, "lesion").pause(0.3).say(baker, "normal").pause(0.3)
        ).build()
        segments = segment_audio(signal)
        sectors = [
            {"t0": s.start_s, "t1": s.end_s, "label": s.label} for s in segments
        ]
        handle = store.store_audio(signal.to_bytes(), filename="c.pcm", sectors=sectors)
        row, payload = store.fetch(handle)
        restored = AudioSignal.from_bytes(payload)
        assert restored.duration_s == pytest.approx(signal.duration_s, abs=1e-3)
        speech = [s for s in row["FLD_SECTORS"] if s["label"] == "speech"]
        assert len(speech) == 2

    def test_sector_annotations_queryable(self, store):
        signal = AudioSignal.silence(0.5)
        store.store_audio(signal.to_bytes(), filename="a.pcm", sectors=[{"label": "silence"}])
        store.store_audio(signal.to_bytes(), filename="b.pcm", sectors=[{"label": "speech"}])
        rows = store.db.select(AUDIO_OBJECTS_TABLE)
        assert [r["FLD_FILENAME"] for r in rows] == ["a.pcm", "b.pcm"]
