"""Property-based tests for the media stack's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.media.audio.gmm import logsumexp
from repro.media.image.codec import EncodedImage, MultiLayerCodec
from repro.media.image.dct import block_dct, block_idct
from repro.media.image.image import Image
from repro.media.image.metrics import psnr
from repro.media.image.quantize import dequantize, pack, quantize, unpack
from repro.media.image.wavelet import (
    cdf53_forward,
    cdf53_inverse,
    haar_forward,
    haar_inverse,
)

small_images = arrays(
    dtype=np.float64,
    shape=st.sampled_from([(16, 16), (32, 16), (32, 32)]),
    elements=st.floats(0.0, 255.0, allow_nan=False, width=32),
)


@given(small_images)
@settings(max_examples=40, deadline=None)
def test_haar_is_invertible(pixels):
    coeffs = haar_forward(pixels, levels=2)
    assert np.allclose(haar_inverse(coeffs, levels=2), pixels, atol=1e-7)


@given(small_images)
@settings(max_examples=40, deadline=None)
def test_haar_preserves_energy(pixels):
    coeffs = haar_forward(pixels, levels=2)
    assert np.isclose(np.sum(coeffs**2), np.sum(pixels**2), rtol=1e-9)


@given(small_images)
@settings(max_examples=40, deadline=None)
def test_cdf53_is_invertible(pixels):
    coeffs = cdf53_forward(pixels, levels=2)
    assert np.allclose(cdf53_inverse(coeffs, levels=2), pixels, atol=1e-7)


@given(small_images)
@settings(max_examples=40, deadline=None)
def test_dct_is_invertible(pixels):
    coeffs = block_dct(pixels, block=8)
    assert np.allclose(block_idct(coeffs, block=8), pixels, atol=1e-7)


@given(small_images, st.floats(0.5, 64.0))
@settings(max_examples=40, deadline=None)
def test_quantization_error_bounded_by_half_step(pixels, step):
    restored = dequantize(quantize(pixels, step), step)
    assert np.max(np.abs(restored - pixels)) <= step / 2 + 1e-9


@given(small_images, st.floats(0.5, 64.0))
@settings(max_examples=30, deadline=None)
def test_pack_unpack_lossless(pixels, step):
    indices = quantize(pixels, step)
    restored, restored_step = unpack(pack(indices, step))
    assert restored_step == step
    assert np.array_equal(restored, indices)


@given(small_images, st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_codec_quality_monotone_in_layers(pixels, num_layers):
    image = Image(pixels)
    encoded = MultiLayerCodec().encode(image, num_layers)
    qualities = [
        psnr(image, MultiLayerCodec.decode(encoded, k))
        for k in range(1, num_layers + 1)
    ]
    for before, after in zip(qualities, qualities[1:]):
        assert after >= before - 1e-6


@given(small_images, st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_codec_stream_round_trips(pixels, num_layers):
    image = Image(pixels)
    encoded = MultiLayerCodec().encode(image, num_layers)
    restored = EncodedImage.from_bytes(encoded.to_bytes())
    assert restored.layer_sizes() == encoded.layer_sizes()
    assert MultiLayerCodec.decode(restored) == MultiLayerCodec.decode(encoded)


@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-30.0, 30.0, allow_nan=False, width=32),
    )
)
@settings(max_examples=50, deadline=None)
def test_logsumexp_matches_naive(values):
    naive = np.log(np.sum(np.exp(values), axis=1))
    assert np.allclose(logsumexp(values, axis=1), naive, atol=1e-9)
