"""Unit tests for the image type, phantoms, ops and segmentation."""

import numpy as np
import pytest

from repro.errors import MediaError
from repro.media.image import (
    AnnotatedImage,
    Image,
    ct_phantom,
    fill_segment,
    label_regions,
    overlay_grid,
    xray_phantom,
    zoom,
)
from repro.media.image import synthetic
from repro.media.image.image import WHITE
from repro.media.image.segmentation import SegmentationGrid


class TestImage:
    def test_construction_and_shape(self):
        image = Image(np.zeros((4, 6)))
        assert image.shape == (4, 6)
        assert image.height == 4 and image.width == 6

    def test_rejects_non_2d(self):
        with pytest.raises(MediaError):
            Image(np.zeros(5))
        with pytest.raises(MediaError):
            Image(np.zeros((2, 2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(MediaError):
            Image(np.zeros((0, 5)))

    def test_bytes_round_trip(self):
        image = ct_phantom(64, seed=1)
        restored = Image.from_bytes(image.to_bytes())
        assert restored.shape == image.shape
        assert np.allclose(restored.pixels, image.to_uint8())

    def test_from_bytes_validates(self):
        with pytest.raises(MediaError):
            Image.from_bytes(b"short")
        good = Image.zeros(2, 2).to_bytes()
        with pytest.raises(MediaError, match="mismatch"):
            Image.from_bytes(good + b"extra")

    def test_crop(self):
        image = ct_phantom(64, seed=1)
        region = image.crop(10, 20, 16, 8)
        assert region.shape == (16, 8)
        assert np.array_equal(region.pixels, image.pixels[10:26, 20:28])

    def test_crop_validation(self):
        image = Image.zeros(10, 10)
        with pytest.raises(MediaError):
            image.crop(5, 5, 10, 10)
        with pytest.raises(MediaError):
            image.crop(-1, 0, 2, 2)

    def test_copy_is_independent(self):
        image = Image.zeros(4, 4)
        clone = image.copy()
        clone.pixels[0, 0] = 99
        assert image.pixels[0, 0] == 0


class TestPhantoms:
    def test_deterministic(self):
        assert ct_phantom(64, seed=3) == ct_phantom(64, seed=3)
        assert ct_phantom(64, seed=3) != ct_phantom(64, seed=4)

    def test_ct_structure(self):
        image = ct_phantom(128, seed=0)
        center = image.pixels[60:70, 60:70].mean()
        corner = image.pixels[:8, :8].mean()
        assert center > 40  # brain tissue
        assert corner < 20  # air

    def test_xray_structure(self):
        image = xray_phantom(128, 96, seed=0)
        lungs = image.pixels[50:70, 20:35].mean()
        middle = image.pixels[50:70, 44:52].mean()
        assert lungs < middle  # lungs darker than mediastinum

    def test_intensity_range(self):
        image = ct_phantom(64, seed=0)
        assert image.pixels.min() >= 0 and image.pixels.max() <= 255


class TestZoom:
    def test_replication(self):
        image = Image(np.arange(16, dtype=float).reshape(4, 4))
        zoomed = zoom(image, 1, 1, 2, 2, factor=3)
        assert zoomed.shape == (6, 6)
        assert np.all(zoomed.pixels[:3, :3] == image.pixels[1, 1])

    def test_factor_one_is_crop(self):
        image = ct_phantom(32, seed=0)
        assert zoom(image, 4, 4, 8, 8, factor=1) == image.crop(4, 4, 8, 8)

    def test_bad_factor(self):
        with pytest.raises(MediaError):
            zoom(Image.zeros(4, 4), 0, 0, 2, 2, factor=0)


class TestAnnotations:
    def test_add_and_render_line(self):
        annotated = AnnotatedImage(Image.zeros(20, 20))
        annotated.add_line(0, 0, 19, 19)
        rendered = annotated.render()
        assert rendered.pixels[0, 0] == WHITE
        assert rendered.pixels[19, 19] == WHITE
        assert rendered.pixels[0, 19] == 0.0

    def test_text_marks_pixels(self):
        annotated = AnnotatedImage(Image.zeros(30, 60))
        annotated.add_text("ab", 5, 5)
        rendered = annotated.render()
        assert (rendered.pixels > 0).sum() > 0

    def test_delete_element_restores_base(self):
        base = ct_phantom(32, seed=0)
        annotated = AnnotatedImage(base)
        line = annotated.add_line(0, 0, 31, 31)
        text = annotated.add_text("x", 2, 2)
        annotated.delete_element(line.element_id)
        annotated.delete_element(text.element_id)
        assert annotated.render() == base

    def test_element_ids_count_per_image(self):
        # Whichever image is built and annotated first, each numbers its
        # own elements from 1: an id does not depend on what ran before.
        for order in ((0, 1), (1, 0)):
            images = [AnnotatedImage(Image.zeros(8, 8)), AnnotatedImage(Image.zeros(8, 8))]
            firsts = {}
            for index in order:
                firsts[index] = images[index].add_text("t", 0, 0)
            assert [firsts[0].element_id, firsts[1].element_id] == [1, 1]
            line = images[0].add_line(0, 0, 7, 7)
            assert line.element_id == 2
            images[0].delete_element(firsts[0].element_id)
            assert images[0].elements == (line,)
            assert images[1].elements == (firsts[1],)

    def test_delete_unknown(self):
        with pytest.raises(MediaError, match="no annotation"):
            AnnotatedImage(Image.zeros(4, 4)).delete_element(999)

    def test_elements_listed(self):
        annotated = AnnotatedImage(Image.zeros(8, 8))
        annotated.add_line(0, 0, 1, 1)
        annotated.add_text("t", 0, 0)
        assert len(annotated.elements) == 2

    def test_line_clipped_outside(self):
        annotated = AnnotatedImage(Image.zeros(4, 4))
        annotated.add_line(-5, -5, 10, 10)  # must not raise
        annotated.render()


class TestGridSegmentation:
    def test_grid_bounds_cover_image(self):
        grid = SegmentationGrid(rows=3, cols=4, height=30, width=40)
        covered = np.zeros((30, 40), dtype=int)
        for r in range(3):
            for c in range(4):
                top, left, bottom, right = grid.cell_bounds(r, c)
                covered[top:bottom, left:right] += 1
        assert np.all(covered == 1)

    def test_bad_grid(self):
        with pytest.raises(MediaError):
            SegmentationGrid(rows=0, cols=2, height=10, width=10)
        with pytest.raises(MediaError):
            SegmentationGrid(rows=20, cols=2, height=10, width=10)

    def test_overlay_draws_lines(self):
        image = Image.zeros(30, 30)
        gridded, grid = overlay_grid(image, 3, 3)
        assert gridded.pixels[10, :].max() == WHITE
        assert grid.rows == 3

    def test_fill_patterns(self):
        image = Image.zeros(30, 30)
        __, grid = overlay_grid(image, 3, 3)
        for pattern in ("solid", "hatch", "checker"):
            filled = fill_segment(image, grid, 1, 1, value=200.0, pattern=pattern)
            top, left, bottom, right = grid.cell_bounds(1, 1)
            assert filled.pixels[top:bottom, left:right].max() == 200.0
            # Other cells untouched.
            assert filled.pixels[0:top, :].max() == 0.0

    def test_fill_bad_pattern(self):
        image = Image.zeros(30, 30)
        __, grid = overlay_grid(image, 3, 3)
        with pytest.raises(MediaError, match="pattern"):
            fill_segment(image, grid, 0, 0, pattern="zigzag")

    def test_fill_grid_mismatch(self):
        __, grid = overlay_grid(Image.zeros(30, 30), 3, 3)
        with pytest.raises(MediaError, match="match"):
            fill_segment(Image.zeros(40, 40), grid, 0, 0)


class TestLabelRegions:
    def test_finds_contrasting_blob(self):
        pixels = np.zeros((32, 32))
        pixels[8:16, 8:16] = 200.0
        labels = label_regions(Image(pixels))
        blob_labels = set(labels[8:16, 8:16].ravel())
        assert len(blob_labels) == 1
        assert labels[0, 0] != labels[10, 10]

    def test_small_regions_dropped(self):
        pixels = np.zeros((32, 32))
        pixels[4, 4] = 250.0  # single pixel speck
        labels = label_regions(Image(pixels))
        assert labels[4, 4] == 0

    def test_phantom_yields_multiple_regions(self, monkeypatch):
        monkeypatch.setattr(synthetic, "CT_NOISE", 0.0)
        labels = label_regions(ct_phantom(64, seed=0))
        assert labels.max() >= 3  # air, skull, brain at least
