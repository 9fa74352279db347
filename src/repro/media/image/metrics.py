"""Image quality metrics."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MediaError
from repro.media.image.image import WHITE, Image


def mse(reference: Image, candidate: Image) -> float:
    """Mean squared error between two images of equal shape."""
    if reference.shape != candidate.shape:
        raise MediaError(
            f"shape mismatch: {reference.shape} vs {candidate.shape}"
        )
    diff = reference.pixels - candidate.pixels
    return float(np.mean(diff * diff))


def psnr(reference: Image, candidate: Image) -> float:
    """Peak signal-to-noise ratio in dB against an 8-bit peak (inf for
    identical images)."""
    error = mse(reference, candidate)
    if error == 0.0:
        return math.inf
    return 10.0 * math.log10((WHITE * WHITE) / error)
