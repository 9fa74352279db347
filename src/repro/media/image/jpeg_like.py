"""A JPEG-style baseline codec (block DCT + quantization matrix + RLE).

The multi-layer codec's cited motivation is precisely JPEG's weakness:
reference [3] is "Local Cosine Transform — a method for the reduction of
the blocking effect in JPEG". This module provides that baseline so the
comparison can be *measured*: 8x8 block DCT, a quality-scaled
quantization matrix, zigzag scan, run-length + zlib entropy coding —
and a blocking-artifact metric that quantifies the 8-pixel-grid
discontinuities the multi-layer codec avoids.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import CodecError
from repro.media.image.dct import block_dct, block_idct
from repro.media.image.image import Image

#: The standard JPEG luminance quantization matrix.
_BASE_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

_HEADER = struct.Struct("<IIH")  # height, width, quality


def _quant_matrix(quality: int) -> np.ndarray:
    """JPEG quality scaling (1..100) of the base matrix."""
    if not 1 <= quality <= 100:
        raise CodecError(f"quality must be in 1..100, got {quality}")
    if quality < 50:
        scale = 5000 / quality
    else:
        scale = 200 - 2 * quality
    matrix = np.floor((_BASE_QUANT * scale + 50) / 100)
    return np.maximum(matrix, 1.0)


def _zigzag_order(block: int = 8) -> np.ndarray:
    """Index order walking the 8x8 block in JPEG zigzag fashion."""
    indices = sorted(
        ((r, c) for r in range(block) for c in range(block)),
        key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    return np.array([r * block + c for r, c in indices])

_ZIGZAG = _zigzag_order()


def jpeg_encode(image: Image, quality: int = 50) -> bytes:
    """Encode with the JPEG-style baseline; returns the stream."""
    if image.height % 8 or image.width % 8:
        raise CodecError(f"image {image.shape} must tile by 8")
    matrix = _quant_matrix(quality)
    coeffs = block_dct(image.pixels - 128.0, block=8)
    height, width = image.shape
    tiled = coeffs.reshape(height // 8, 8, width // 8, 8).transpose(0, 2, 1, 3)
    quantized = np.round(tiled / matrix[None, None, :, :]).astype(np.int32)
    # Zigzag each block, then run-length encode zeros.
    flat_blocks = quantized.reshape(-1, 64)[:, _ZIGZAG]
    symbols: list[int] = []
    for block in flat_blocks:
        run = 0
        for value in block:
            if value == 0:
                run += 1
            else:
                symbols.extend((run, int(value)))
                run = 0
        symbols.extend((run, 0))  # end-of-block marker: (trailing zeros, 0)
    body = zlib.compress(np.array(symbols, dtype=np.int32).tobytes(), level=6)
    return _HEADER.pack(height, width, quality) + body


def jpeg_decode(stream: bytes) -> Image:
    """Inverse of :func:`jpeg_encode`."""
    if len(stream) < _HEADER.size:
        raise CodecError("JPEG-like stream too short")
    height, width, quality = _HEADER.unpack(stream[: _HEADER.size])
    matrix = _quant_matrix(quality)
    try:
        symbols = np.frombuffer(zlib.decompress(stream[_HEADER.size:]), dtype=np.int32)
    except zlib.error as exc:
        raise CodecError(f"corrupt JPEG-like stream: {exc}") from exc
    blocks = (height // 8) * (width // 8)
    flat_blocks = np.zeros((blocks, 64), dtype=np.int32)
    block_index = 0
    position = 0
    index = 0
    while index + 1 < len(symbols) + 1 and block_index < blocks:
        if index + 2 > len(symbols):
            raise CodecError("truncated JPEG-like symbol stream")
        run, value = int(symbols[index]), int(symbols[index + 1])
        index += 2
        position += run
        if value == 0:  # end of block
            if position > 64:
                raise CodecError("JPEG-like block overrun")
            block_index += 1
            position = 0
        else:
            if position >= 64:
                raise CodecError("JPEG-like block overrun")
            flat_blocks[block_index, position] = value
            position += 1
    if block_index != blocks:
        raise CodecError(
            f"JPEG-like stream has {block_index} blocks, expected {blocks}"
        )
    inverse_zigzag = np.argsort(_ZIGZAG)
    quantized = flat_blocks[:, inverse_zigzag].reshape(height // 8, width // 8, 8, 8)
    tiled = quantized * matrix[None, None, :, :]
    coeffs = tiled.transpose(0, 2, 1, 3).reshape(height, width)
    pixels = block_idct(coeffs, block=8) + 128.0
    return Image(np.clip(pixels, 0.0, 255.0))


def jpeg_encode_to_budget(image: Image, max_bytes: int) -> tuple[bytes, int]:
    """Highest quality whose stream fits *max_bytes*; (stream, quality)."""
    best: tuple[bytes, int] | None = None
    for quality in (90, 75, 60, 50, 40, 30, 20, 10, 5, 2, 1):
        stream = jpeg_encode(image, quality)
        if len(stream) <= max_bytes:
            best = (stream, quality)
            break
    if best is None:
        raise CodecError(f"even quality 1 exceeds {max_bytes} bytes")
    return best


def blocking_artifact_index(image: Image) -> float:
    """Mean absolute discontinuity across the 8-pixel block grid, normalized
    by the mean absolute gradient elsewhere (1.0 = no blocking; larger =
    visible 8-pixel seams)."""
    block = 8
    pixels = image.pixels
    col_jumps = np.abs(np.diff(pixels, axis=1))
    row_jumps = np.abs(np.diff(pixels, axis=0))
    col_grid = col_jumps[:, block - 1 :: block]
    row_grid = row_jumps[block - 1 :: block, :]
    col_other = np.delete(col_jumps, np.s_[block - 1 :: block], axis=1)
    row_other = np.delete(row_jumps, np.s_[block - 1 :: block], axis=0)
    grid = float(np.mean(col_grid) + np.mean(row_grid)) / 2
    other = float(np.mean(col_other) + np.mean(row_other)) / 2
    return grid / max(other, 1e-9)
