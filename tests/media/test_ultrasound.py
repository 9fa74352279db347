"""Tests for the ultrasound phantom and its end-to-end use
(the paper's named future test case)."""

import numpy as np

from repro.media.image import MultiLayerCodec, ct_phantom, psnr, ultrasound_phantom


class TestPhantomStructure:
    def test_deterministic(self):
        assert ultrasound_phantom(128, seed=2) == ultrasound_phantom(128, seed=2)
        assert ultrasound_phantom(128, seed=2) != ultrasound_phantom(128, seed=3)

    def test_fan_geometry(self):
        image = ultrasound_phantom(128, seed=0)
        # Corners are outside the insonified fan -> black.
        assert image.pixels[0, 0] == 0.0
        assert image.pixels[0, -1] == 0.0
        assert image.pixels[-1, 0] == 0.0
        # The central field has echo.
        assert image.pixels[50:70, 55:75].mean() > 10

    def test_cyst_is_anechoic(self):
        image = ultrasound_phantom(256, seed=0)
        cyst_region = image.pixels[110:120, 103:112]
        surrounding = image.pixels[110:120, 140:160]
        assert cyst_region.mean() < surrounding.mean() / 2

    def test_speckle_statistics(self):
        """Ultrasound speckle is heavier-tailed than CT sensor noise."""
        us = ultrasound_phantom(128, seed=0)
        ct = ct_phantom(128, seed=0)
        fan = us.pixels[us.pixels > 0]
        brain = ct.pixels[(ct.pixels > 80) & (ct.pixels < 140)]
        assert np.std(fan) / (np.mean(fan) + 1e-9) > np.std(brain) / np.mean(brain)

    def test_intensity_range(self):
        image = ultrasound_phantom(64, seed=1)
        assert image.pixels.min() >= 0 and image.pixels.max() <= 255


class TestUltrasoundThroughCodec:
    def test_progressive_quality(self):
        image = ultrasound_phantom(128, seed=4)
        encoded = MultiLayerCodec().encode(image, num_layers=3)
        qualities = [
            psnr(image, MultiLayerCodec.decode(encoded, k)) for k in (1, 2, 3)
        ]
        assert qualities == sorted(qualities)
        assert qualities[-1] > 35.0

    def test_speckle_costs_rate(self):
        """Speckle is incompressible texture: at equal settings the
        ultrasound stream is larger than the smooth CT's."""
        codec = MultiLayerCodec()
        us_size = codec.encode(ultrasound_phantom(128, seed=5), 3).prefix_size(3)
        ct_size = codec.encode(ct_phantom(128, seed=5), 3).prefix_size(3)
        assert us_size > ct_size
