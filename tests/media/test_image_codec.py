"""Unit tests for transforms, quantization and the multi-layer codec."""

import numpy as np
import pytest

from repro.errors import CodecError, MediaError
from repro.media.image import (
    EncodedImage,
    MultiLayerCodec,
    block_dct,
    block_idct,
    ct_phantom,
    haar_forward,
    haar_inverse,
    mse,
    psnr,
)
from repro.media.image.image import Image
from repro.media.image.progressive import (
    layers_for_bandwidth,
    resolution_ladder,
    transcode_to_budget,
)
from repro.media.image.quantize import dequantize, pack, quantize, unpack
from repro.media.image.wavelet import cdf53_forward, cdf53_inverse


@pytest.fixture(scope="module")
def phantom():
    return ct_phantom(128, seed=7)


@pytest.fixture(scope="module")
def encoded(phantom):
    return MultiLayerCodec().encode(phantom, num_layers=4)


class TestTransforms:
    def test_haar_perfect_reconstruction(self, phantom):
        coeffs = haar_forward(phantom.pixels, levels=3)
        assert np.allclose(haar_inverse(coeffs, levels=3), phantom.pixels, atol=1e-8)

    def test_cdf53_perfect_reconstruction(self, phantom):
        coeffs = cdf53_forward(phantom.pixels, levels=3)
        assert np.allclose(cdf53_inverse(coeffs, levels=3), phantom.pixels, atol=1e-8)

    def test_dct_perfect_reconstruction(self, phantom):
        coeffs = block_dct(phantom.pixels, block=8)
        assert np.allclose(block_idct(coeffs, block=8), phantom.pixels, atol=1e-8)

    def test_haar_energy_preserved(self, phantom):
        coeffs = haar_forward(phantom.pixels, levels=2)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(phantom.pixels**2))

    def test_wavelet_compacts_energy(self, phantom):
        """Most energy lands in the coarse approximation quadrant."""
        levels = 3
        coeffs = haar_forward(phantom.pixels, levels=levels)
        h = phantom.height >> levels
        w = phantom.width >> levels
        approx_energy = np.sum(coeffs[:h, :w] ** 2)
        # The approximation holds 1/64 of the coefficients but >80% of the
        # energy (the phantom's sharp edges keep some energy in details).
        assert approx_energy > 0.80 * np.sum(coeffs**2)

    def test_divisibility_enforced(self):
        with pytest.raises(MediaError, match="divisible"):
            haar_forward(np.zeros((100, 100)), levels=3)
        with pytest.raises(MediaError, match="divisible"):
            block_dct(np.zeros((100, 100)), block=8)

    def test_bad_levels(self):
        with pytest.raises(MediaError):
            haar_forward(np.zeros((8, 8)), levels=0)


class TestQuantization:
    def test_round_trip_error_bounded(self, phantom):
        step = 4.0
        indices = quantize(phantom.pixels, step)
        restored = dequantize(indices, step)
        assert np.max(np.abs(restored - phantom.pixels)) <= step / 2 + 1e-9

    def test_pack_unpack(self, phantom):
        indices = quantize(phantom.pixels, 8.0)
        restored, step = unpack(pack(indices, 8.0))
        assert step == 8.0
        assert np.array_equal(restored, indices)

    def test_pack_compresses_sparse_grids(self):
        indices = np.zeros((64, 64), dtype=np.int32)
        assert len(pack(indices, 1.0)) < 200

    def test_corrupt_stream_rejected(self, phantom):
        payload = pack(quantize(phantom.pixels, 8.0), 8.0)
        with pytest.raises(CodecError):
            unpack(payload[:30])
        with pytest.raises(CodecError):
            unpack(payload[:20] + b"garbage!" * 4)

    def test_bad_step(self):
        with pytest.raises(CodecError):
            quantize(np.zeros((2, 2)), 0.0)
        with pytest.raises(CodecError):
            dequantize(np.zeros((2, 2), dtype=np.int32), -1.0)


class TestMultiLayerCodec:
    def test_quality_improves_per_layer(self, phantom, encoded):
        values = [
            psnr(phantom, MultiLayerCodec.decode(encoded, k))
            for k in range(1, encoded.num_layers + 1)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] > 15.0   # coarse layer is recognizable
        assert values[-1] > 45.0  # full stack is high quality

    def test_sizes_grow_per_layer(self, encoded):
        sizes = [encoded.prefix_size(k) for k in range(1, encoded.num_layers + 1)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_layer0_beats_raw_size(self, phantom, encoded):
        assert len(phantom.to_bytes()) / encoded.prefix_size(1) > 3

    def test_stream_round_trip(self, phantom, encoded):
        restored = EncodedImage.from_bytes(encoded.to_bytes())
        assert restored.layer_sizes() == encoded.layer_sizes()
        assert MultiLayerCodec.decode(restored) == MultiLayerCodec.decode(encoded)

    def test_prefix_stream_decodes(self, phantom, encoded):
        prefix = EncodedImage.from_bytes(encoded.to_bytes(num_layers=2))
        assert prefix.num_layers == 2
        decoded = MultiLayerCodec.decode(prefix)
        assert decoded == MultiLayerCodec.decode(encoded, 2)

    def test_corrupt_header_rejected(self, encoded):
        payload = bytearray(encoded.to_bytes())
        payload[6] = 0xFF
        with pytest.raises(CodecError):
            EncodedImage.from_bytes(bytes(payload))

    def test_truncated_stream_rejected(self, encoded):
        with pytest.raises(CodecError, match="truncated"):
            EncodedImage.from_bytes(encoded.to_bytes()[:10])

    def test_layer_count_validation(self, encoded):
        with pytest.raises(CodecError):
            MultiLayerCodec.decode(encoded, 0)
        with pytest.raises(CodecError):
            MultiLayerCodec.decode(encoded, 99)
        with pytest.raises(CodecError):
            encoded.prefix_size(0)

    def test_image_must_tile(self):
        with pytest.raises(CodecError, match="tile"):
            MultiLayerCodec().encode(Image.zeros(100, 100))

    def test_codec_parameter_validation(self):
        with pytest.raises(CodecError):
            MultiLayerCodec(base_step=0)

    def test_different_bases_fix_artifacts(self, phantom):
        """The hybrid (wavelet + DCT residual) beats wavelet-only re-quantized
        at a comparable rate — the paper's stated strength of mixing bases."""
        hybrid = MultiLayerCodec(base_step=64.0)
        encoded = hybrid.encode(phantom, num_layers=2)
        hybrid_quality = psnr(phantom, MultiLayerCodec.decode(encoded, 2))
        hybrid_size = encoded.prefix_size(2)
        # Wavelet-only at a step chosen to roughly match the byte budget.
        single = MultiLayerCodec(base_step=16.0)
        single_encoded = single.encode(phantom, num_layers=1)
        assert single_encoded.prefix_size(1) >= hybrid_size * 0.5
        single_quality = psnr(phantom, MultiLayerCodec.decode(single_encoded, 1))
        assert hybrid_quality > single_quality - 3.0  # at least competitive


class TestProgressive:
    def test_ladder_monotone(self, phantom, encoded):
        ladder = resolution_ladder(encoded, phantom)
        assert [s.num_layers for s in ladder] == [1, 2, 3, 4]
        assert all(b.psnr_db > a.psnr_db for a, b in zip(ladder, ladder[1:]))
        assert all(b.bytes_on_wire > a.bytes_on_wire for a, b in zip(ladder, ladder[1:]))

    def test_transcode_respects_budget(self, encoded):
        budget = encoded.prefix_size(2) + 10
        stream = transcode_to_budget(encoded, budget)
        assert len(stream) <= budget
        assert EncodedImage.from_bytes(stream).num_layers == 2

    def test_transcode_impossible_budget(self, encoded):
        with pytest.raises(CodecError, match="exceeds"):
            transcode_to_budget(encoded, 10)

    def test_layers_for_bandwidth(self, encoded):
        fast = layers_for_bandwidth(encoded, 10_000_000, deadline_s=1.0)
        slow = layers_for_bandwidth(encoded, 100_000, deadline_s=1.0)
        assert fast >= slow
        assert fast == encoded.num_layers


class TestMetrics:
    def test_psnr_identical_is_inf(self, phantom):
        assert psnr(phantom, phantom) == float("inf")
        assert mse(phantom, phantom) == 0.0

    def test_shape_mismatch(self, phantom):
        with pytest.raises(MediaError):
            mse(phantom, ct_phantom(64))
