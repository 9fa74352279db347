"""Unit tests for image descriptors and the similar-image index."""

import numpy as np
import pytest

from repro.db import Database, MultimediaObjectStore
from repro.errors import DatabaseError, MediaError
from repro.media.image import Image, ct_phantom, ultrasound_phantom, xray_phantom
from repro.retrieval import SimilarImageIndex, descriptor_distance, image_descriptor
from repro.retrieval.features import DESCRIPTOR_DIM, descriptor_similarity


class TestDescriptors:
    def test_shape_and_determinism(self):
        image = ct_phantom(128, seed=1)
        descriptor = image_descriptor(image)
        assert descriptor.shape == (DESCRIPTOR_DIM,)
        assert np.array_equal(descriptor, image_descriptor(image))

    def test_identical_images_zero_distance(self):
        image = ct_phantom(64, seed=2)
        assert descriptor_distance(image_descriptor(image), image_descriptor(image)) == 0.0
        assert descriptor_similarity(image_descriptor(image), image_descriptor(image)) == 1.0

    def test_same_modality_closer_than_cross_modality(self):
        ct_a = image_descriptor(ct_phantom(128, seed=1))
        ct_b = image_descriptor(ct_phantom(128, seed=2))
        us = image_descriptor(ultrasound_phantom(128, seed=1))
        assert descriptor_distance(ct_a, ct_b) < descriptor_distance(ct_a, us)

    def test_size_invariance_within_modality(self):
        small = image_descriptor(ct_phantom(64, seed=3))
        large = image_descriptor(ct_phantom(256, seed=3))
        other = image_descriptor(xray_phantom(128, 128, seed=3))
        assert descriptor_distance(small, large) < descriptor_distance(small, other)

    def test_non_pow2_sides_padded(self):
        image = Image(np.random.default_rng(0).uniform(0, 255, (50, 70)))
        assert image_descriptor(image).shape == (DESCRIPTOR_DIM,)

    def test_distance_validates_shape(self):
        with pytest.raises(MediaError):
            descriptor_distance(np.zeros(3), np.zeros(4))


@pytest.fixture
def index(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    index = SimilarImageIndex(store)
    for seed in range(3):
        index.add_image(ct_phantom(128, seed=seed), label=f"ct-{seed}")
    for seed in range(2):
        index.add_image(xray_phantom(128, 128, seed=seed), label=f"xray-{seed}")
    index.add_image(ultrasound_phantom(128, seed=0), label="us-0")
    yield index
    db.close()


class TestSimilarImageIndex:
    def test_query_ranks_same_modality_first(self, index):
        hits = index.query(ct_phantom(128, seed=42), k=3)
        assert all(hit.label.startswith("ct-") for hit in hits)

    def test_xray_probe_finds_xrays(self, index):
        hits = index.query(xray_phantom(128, 128, seed=9), k=2)
        assert all(hit.label.startswith("xray-") for hit in hits)

    def test_scores_sorted_descending(self, index):
        hits = index.query(ct_phantom(128, seed=42), k=6)
        scores = [hit.similarity for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_len_and_remove(self, index):
        assert len(index) == 6
        ref = index.db.select("IMAGE_FEATURES_TABLE")[0]["FLD_MEDIAREF"]
        index.remove(ref)
        assert len(index) == 5
        with pytest.raises(DatabaseError):
            index.remove(ref)

    def test_add_is_upsert(self, index):
        ref = index.db.select("IMAGE_FEATURES_TABLE")[0]["FLD_MEDIAREF"]
        index.add(ref, label="relabelled")
        assert len(index) == 6

    def test_k_validated(self, index):
        with pytest.raises(DatabaseError):
            index.query(ct_phantom(64), k=0)

    def test_index_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db2")
        with Database(path) as db:
            index = SimilarImageIndex(MultimediaObjectStore(db))
            index.add_image(ct_phantom(128, seed=7), label="ct")
        with Database(path) as db:
            index = SimilarImageIndex(MultimediaObjectStore(db))
            assert len(index) == 1
            assert index.query(ct_phantom(128, seed=7), k=1)[0].label == "ct"
