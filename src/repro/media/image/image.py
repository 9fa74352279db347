"""The grayscale image type used throughout the media stack.

Medical imagery (CT, X-ray) is naturally single-channel; pixels are kept
as float64 in [0, 255] internally so transforms lose nothing, with
explicit 8-bit export for storage.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MediaError

#: The brightest pixel value: PSNR's peak, and the ink that annotations
#: and grid lines burn in.
WHITE = 255.0


class Image:
    """A 2-D grayscale image."""

    def __init__(self, pixels: np.ndarray) -> None:
        array = np.asarray(pixels, dtype=np.float64)
        if array.ndim != 2:
            raise MediaError(f"image must be 2-D, got shape {array.shape}")
        if array.shape[0] < 1 or array.shape[1] < 1:
            raise MediaError(f"image must be non-empty, got shape {array.shape}")
        self.pixels = array

    # ----- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, height: int, width: int) -> "Image":
        return cls(np.zeros((height, width)))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Image":
        """Inverse of :meth:`to_bytes`."""
        if len(payload) < 8:
            raise MediaError("image payload too short")
        height = int.from_bytes(payload[0:4], "little")
        width = int.from_bytes(payload[4:8], "little")
        body = np.frombuffer(payload[8:], dtype=np.uint8)
        if body.size != height * width:
            raise MediaError(
                f"image payload size mismatch: header says {height}x{width}, "
                f"body has {body.size} pixels"
            )
        return cls(body.reshape(height, width).astype(np.float64))

    # ----- properties ------------------------------------------------------------

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    # ----- conversions --------------------------------------------------------------

    def to_uint8(self) -> np.ndarray:
        return np.clip(np.round(self.pixels), 0, 255).astype(np.uint8)

    def to_bytes(self) -> bytes:
        """Raw storage format: 8-byte header (height, width) + uint8 pixels."""
        return (
            self.height.to_bytes(4, "little")
            + self.width.to_bytes(4, "little")
            + self.to_uint8().tobytes()
        )

    def copy(self) -> "Image":
        return Image(self.pixels.copy())

    def crop(self, top: int, left: int, height: int, width: int) -> "Image":
        if top < 0 or left < 0 or height < 1 or width < 1:
            raise MediaError(f"bad crop rectangle ({top},{left},{height},{width})")
        if top + height > self.height or left + width > self.width:
            raise MediaError(
                f"crop ({top},{left},{height},{width}) exceeds image {self.shape}"
            )
        return Image(self.pixels[top : top + height, left : left + width].copy())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Image) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"Image({self.height}x{self.width})"
