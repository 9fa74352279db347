"""The multi-layer (hybrid) image codec.

"An image is encoded as the superposition of one main approximation, and
a sequence of residuals. The strength of the multi-layered method comes
from the fact that we use different bases to encode the main
approximation and the residuals: a wavelet compression algorithm encodes
the main approximation of the image, and a wavelet packet or local cosine
compression algorithm encodes the sequence of compression residuals."

Layer 0 is a coarsely-quantized wavelet (CDF 5/3) approximation; each
further layer encodes the residual of everything before it in a local
cosine (block DCT) basis at progressively finer quantization, so "with
each new basis we can encode and compensate for the artifacts created by
the quantization of the coefficients of the previous bases". Any prefix
of layers decodes to a valid image — that progressivity is what the
Figure 9 multi-resolution viewing rides on.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CodecError
from repro.media.image.dct import block_dct, block_idct
from repro.media.image.image import Image
from repro.media.image.quantize import dequantize, pack, quantize, unpack
from repro.media.image.wavelet import cdf53_forward, cdf53_inverse

_LAYER_LEN = struct.Struct("<I")
#: Decomposition depth of the layer-0 wavelet approximation.
WAVELET_LEVELS = 3
#: Tile size of the local-cosine residual layers.
DCT_BLOCK = 8
#: Each residual layer divides the quantization step by this factor, so
#: layers refine geometrically.
STEP_DECAY = 4.0


@dataclass(frozen=True)
class EncodedImage:
    """A multi-layer stream: JSON-ish header + independent layer payloads."""

    height: int
    width: int
    wavelet_levels: int
    dct_block: int
    layers: tuple[bytes, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    def prefix_size(self, num_layers: int) -> int:
        """Bytes needed to ship the first *num_layers* layers (+ header)."""
        if not 1 <= num_layers <= self.num_layers:
            raise CodecError(
                f"prefix of {num_layers} layers not in 1..{self.num_layers}"
            )
        return len(self._header_bytes()) + sum(self.layer_sizes()[:num_layers]) + (
            _LAYER_LEN.size * num_layers
        )

    def _header_bytes(self) -> bytes:
        header = {
            "h": self.height,
            "w": self.width,
            "lv": self.wavelet_levels,
            "blk": self.dct_block,
            "n": self.num_layers,
        }
        return json.dumps(header, separators=(",", ":")).encode("ascii")

    def to_bytes(self, num_layers: int | None = None) -> bytes:
        """Serialize (optionally only a prefix of layers)."""
        count = self.num_layers if num_layers is None else num_layers
        if not 1 <= count <= self.num_layers:
            raise CodecError(f"cannot serialize {count} of {self.num_layers} layers")
        header = self._header_bytes()
        parts = [_LAYER_LEN.pack(len(header)), header]
        for layer in self.layers[:count]:
            parts.append(_LAYER_LEN.pack(len(layer)))
            parts.append(layer)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "EncodedImage":
        offset = 0

        def take(count: int) -> bytes:
            nonlocal offset
            if offset + count > len(payload):
                raise CodecError("truncated multi-layer stream")
            chunk = payload[offset : offset + count]
            offset += count
            return chunk

        header_len = _LAYER_LEN.unpack(take(_LAYER_LEN.size))[0]
        try:
            header = json.loads(take(header_len))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CodecError(f"corrupt stream header: {exc}") from exc
        layers = []
        while offset < len(payload):
            layer_len = _LAYER_LEN.unpack(take(_LAYER_LEN.size))[0]
            layers.append(take(layer_len))
        if not layers:
            raise CodecError("stream carries no layers")
        return cls(
            height=header["h"],
            width=header["w"],
            wavelet_levels=header["lv"],
            dct_block=header["blk"],
            layers=tuple(layers),
        )


class MultiLayerCodec:
    """Encoder/decoder for the hybrid multi-layer representation.

    *base_step* is the quantization step of layer 0 (coarse); the
    geometry is :data:`WAVELET_LEVELS`, :data:`DCT_BLOCK` and
    :data:`STEP_DECAY`, written into every stream's header.
    """

    def __init__(self, base_step: float = 64.0) -> None:
        if base_step <= 0:
            raise CodecError("base_step must be > 0")
        self.base_step = base_step

    def encode(self, image: Image, num_layers: int = 3) -> EncodedImage:
        """Encode *image* into a main approximation plus residual layers."""
        if num_layers < 1:
            raise CodecError(f"num_layers must be >= 1, got {num_layers}")
        factor = 2 ** WAVELET_LEVELS
        if image.height % factor or image.width % factor or (
            image.height % DCT_BLOCK or image.width % DCT_BLOCK
        ):
            raise CodecError(
                f"image {image.shape} must tile by 2**levels ({factor}) "
                f"and by the DCT block ({DCT_BLOCK})"
            )
        layers: list[bytes] = []
        # Layer 0: wavelet main approximation, coarse quantization.
        coeffs = cdf53_forward(image.pixels, WAVELET_LEVELS)
        indices = quantize(coeffs, self.base_step)
        layers.append(pack(indices, self.base_step))
        reconstruction = cdf53_inverse(dequantize(indices, self.base_step), WAVELET_LEVELS)
        # Residual layers: local cosine on what is still missing.
        step = self.base_step
        for _ in range(1, num_layers):
            step /= STEP_DECAY
            residual = image.pixels - reconstruction
            dct_coeffs = block_dct(residual, DCT_BLOCK)
            dct_indices = quantize(dct_coeffs, step)
            candidate = reconstruction + block_idct(dequantize(dct_indices, step), DCT_BLOCK)
            # Rate-distortion guard: when the step is still coarse relative
            # to a sparse residual, the quantization noise sprayed across
            # the block can exceed the error it removes. Ship an empty
            # layer instead — decoding any prefix then never degrades.
            # Errors are compared in *clipped* space, because that is what
            # the decoder outputs (clipping can rescue one prefix more
            # than another).
            before = float(
                np.mean((image.pixels - np.clip(reconstruction, 0.0, 255.0)) ** 2)
            )
            after = float(
                np.mean((image.pixels - np.clip(candidate, 0.0, 255.0)) ** 2)
            )
            if after > before:
                dct_indices = np.zeros_like(dct_indices)
                candidate = reconstruction
            layers.append(pack(dct_indices, step))
            reconstruction = candidate
        return EncodedImage(
            height=image.height,
            width=image.width,
            wavelet_levels=WAVELET_LEVELS,
            dct_block=DCT_BLOCK,
            layers=tuple(layers),
        )

    @staticmethod
    def decode(encoded: EncodedImage, num_layers: int | None = None) -> Image:
        """Decode a prefix of layers: 1 = coarse approximation, more = finer."""
        count = encoded.num_layers if num_layers is None else num_layers
        if not 1 <= count <= encoded.num_layers:
            raise CodecError(f"cannot decode {count} of {encoded.num_layers} layers")
        indices, step = unpack(encoded.layers[0])
        reconstruction = cdf53_inverse(dequantize(indices, step), encoded.wavelet_levels)
        for layer in encoded.layers[1:count]:
            dct_indices, layer_step = unpack(layer)
            reconstruction = reconstruction + block_idct(
                dequantize(dct_indices, layer_step), encoded.dct_block
            )
        return Image(np.clip(reconstruction, 0.0, 255.0))
