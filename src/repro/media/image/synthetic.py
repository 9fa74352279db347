"""Synthetic medical imagery (the data substitution for real CT/X-ray).

Real patient imagery is gated; these phantoms have the statistical
structure the algorithms care about — large smooth regions, a few
high-contrast anatomical boundaries, mild sensor noise — with known
ground truth, deterministically from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.media.image.image import Image

#: Standard deviation of the sensor noise on a CT and an X-ray phantom.
CT_NOISE = 2.0
XRAY_NOISE = 3.0


def _ellipse_mask(
    height: int, width: int, cy: float, cx: float, ry: float, rx: float, angle: float = 0.0
) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width]
    y = ys - cy
    x = xs - cx
    cos, sin = np.cos(angle), np.sin(angle)
    xr = x * cos + y * sin
    yr = -x * sin + y * cos
    return (xr / rx) ** 2 + (yr / ry) ** 2 <= 1.0


def ct_phantom(size: int = 256, seed: int = 0) -> Image:
    """A head-CT-like phantom: skull ring, brain tissue, ventricles, lesions.

    Intensities follow CT-window conventions: air dark, bone bright,
    soft tissue mid-grey.
    """
    rng = np.random.default_rng(seed)
    pixels = np.full((size, size), 8.0)  # air
    center = size / 2
    skull_outer = _ellipse_mask(size, size, center, center, size * 0.46, size * 0.38)
    skull_inner = _ellipse_mask(size, size, center, center, size * 0.42, size * 0.34)
    pixels[skull_outer] = 235.0           # bone
    pixels[skull_inner] = 110.0           # brain tissue
    # Ventricles: two darker crescents.
    for dx in (-1, 1):
        ventricle = _ellipse_mask(
            size, size, center - size * 0.05, center + dx * size * 0.08,
            size * 0.12, size * 0.04, angle=dx * 0.4,
        )
        pixels[ventricle & skull_inner] = 55.0
    # A few random lesions (the diagnostically interesting bits).
    for _ in range(3):
        cy = center + rng.uniform(-0.2, 0.25) * size
        cx = center + rng.uniform(-0.2, 0.2) * size
        radius = rng.uniform(0.02, 0.05) * size
        lesion = _ellipse_mask(size, size, cy, cx, radius, radius)
        pixels[lesion & skull_inner] = rng.uniform(150.0, 190.0)
    pixels += rng.normal(0.0, CT_NOISE, pixels.shape)
    return Image(np.clip(pixels, 0, 255))


def ultrasound_phantom(size: int = 256, seed: int = 0) -> Image:
    """An ultrasound-like phantom (the paper's named future test case:
    "cooperating consultation on Ultra-sound images").

    Characteristics that matter to the codec and segmentation: a dark
    fan-shaped field of view, heavy multiplicative speckle, a bright
    tissue interface and an anechoic (dark) cyst.
    """
    rng = np.random.default_rng(seed)
    pixels = np.zeros((size, size))
    ys, xs = np.mgrid[0:size, 0:size]
    # Fan-shaped insonified sector from the top-center transducer.
    dy = ys + size * 0.08
    dx = xs - size / 2
    radius = np.sqrt(dy**2 + dx**2)
    angle = np.arctan2(dx, dy)
    in_fan = (np.abs(angle) < np.pi / 4.2) & (radius < size * 1.02) & (radius > size * 0.1)
    # Depth-dependent tissue echo with speckle (multiplicative noise).
    tissue = 120.0 * np.exp(-radius / (size * 1.2))
    speckle = rng.gamma(shape=4.0, scale=0.25, size=pixels.shape)
    pixels[in_fan] = (tissue * speckle)[in_fan]
    # A bright specular interface (e.g. an organ capsule).
    interface = np.abs(radius - size * 0.55) < size * 0.012
    pixels[interface & in_fan] = 215.0
    # An anechoic cyst with posterior enhancement below it.
    cyst = _ellipse_mask(size, size, size * 0.45, size * 0.42, size * 0.07, size * 0.06)
    pixels[cyst & in_fan] = 12.0
    shadow = (
        (np.abs(xs - size * 0.42) < size * 0.05)
        & (ys > size * 0.52)
        & in_fan
    )
    pixels[shadow] = np.minimum(pixels[shadow] * 1.6, 200.0)
    return Image(np.clip(pixels, 0, 255))


def xray_phantom(height: int = 256, width: int = 192, seed: int = 0) -> Image:
    """A chest-X-ray-like phantom: lung fields, rib shadows, mediastinum."""
    rng = np.random.default_rng(seed)
    pixels = np.full((height, width), 190.0)  # soft tissue background
    for dx in (-1, 1):
        lung = _ellipse_mask(
            height, width, height * 0.48, width / 2 + dx * width * 0.22,
            height * 0.36, width * 0.18,
        )
        pixels[lung] = 70.0  # air-filled lungs are dark on X-ray
    # Rib shadows: periodic bright bands across the lungs.
    ys = np.arange(height)[:, None]
    ribs = (np.sin(ys / height * np.pi * 9) > 0.75) * 45.0
    pixels += ribs
    # Mediastinum: central bright column.
    mediastinum = _ellipse_mask(height, width, height * 0.5, width * 0.5, height * 0.4, width * 0.09)
    pixels[mediastinum] = 215.0
    pixels += rng.normal(0.0, XRAY_NOISE, pixels.shape)
    return Image(np.clip(pixels, 0, 255))
