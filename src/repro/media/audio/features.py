"""Acoustic feature extraction (MFCC front end), from scratch.

Framing → Hamming window → power spectrum → mel filterbank → log → DCT.
Also exposes the frame-level descriptors the automatic segmenter uses
(energy, spectral flux, spectral flatness).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AudioError
from repro.media.audio.signal import AudioSignal

FRAME_S = 0.025
HOP_S = 0.010
#: Cepstral coefficients kept, and the mel filters they summarize.
NUM_COEFFS = 13
NUM_FILTERS = 22
#: The filterbank's lowest edge; its highest is the Nyquist frequency.
LOW_HZ = 80.0


def frame_signal(signal: AudioSignal) -> np.ndarray:
    """Slice into overlapping frames; returns (num_frames, frame_len)."""
    frame_len = int(round(FRAME_S * signal.rate))
    hop_len = int(round(HOP_S * signal.rate))
    if frame_len < 2 or hop_len < 1:
        raise AudioError(f"degenerate framing: frame={frame_len}, hop={hop_len} samples")
    if len(signal) < frame_len:
        raise AudioError(
            f"signal of {len(signal)} samples shorter than one frame ({frame_len})"
        )
    num_frames = 1 + (len(signal) - frame_len) // hop_len
    indices = np.arange(frame_len)[None, :] + hop_len * np.arange(num_frames)[:, None]
    return signal.samples[indices]


def frame_times(num_frames: int) -> np.ndarray:
    """Center time (seconds) of each frame."""
    return np.arange(num_frames) * HOP_S + FRAME_S / 2


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """Windowed power spectrum per frame: (num_frames, fft_bins)."""
    window = np.hamming(frames.shape[1])
    spectrum = np.fft.rfft(frames * window, axis=1)
    return (np.abs(spectrum) ** 2) / frames.shape[1]


def hz_to_mel(hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def mel_to_hz(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, fft_bins: int, rate: int) -> np.ndarray:
    """Triangular mel filters from :data:`LOW_HZ` to Nyquist: (num_filters, fft_bins)."""
    if rate / 2 <= LOW_HZ:
        raise AudioError(f"bad filterbank range [{LOW_HZ}, {rate / 2}] at rate {rate}")
    mel_points = np.linspace(hz_to_mel(LOW_HZ), hz_to_mel(rate / 2), num_filters + 2)
    hz_points = np.asarray(mel_to_hz(mel_points))
    bin_freqs = np.linspace(0, rate / 2, fft_bins)
    bank = np.zeros((num_filters, fft_bins))
    for index in range(num_filters):
        left, center, right = hz_points[index : index + 3]
        rising = (bin_freqs - left) / max(center - left, 1e-9)
        falling = (right - bin_freqs) / max(right - center, 1e-9)
        bank[index] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _dct_matrix(rows: int, cols: int) -> np.ndarray:
    n = np.arange(cols)[None, :]
    k = np.arange(rows)[:, None]
    matrix = np.cos(np.pi * (2 * n + 1) * k / (2 * cols)) * np.sqrt(2.0 / cols)
    matrix[0, :] *= np.sqrt(0.5)
    return matrix


def mfcc(
    signal: AudioSignal, include_energy: bool = True, mean_normalize: bool = True
) -> np.ndarray:
    """MFCC features: (num_frames, NUM_COEFFS [+1 energy]).

    Cepstral mean normalization (default on) removes per-recording channel
    offsets, which matters for text-independent speaker models.
    """
    frames = frame_signal(signal)
    spectra = power_spectrum(frames)
    bank = mel_filterbank(NUM_FILTERS, spectra.shape[1], signal.rate)
    mel_energies = np.log(spectra @ bank.T + 1e-10)
    coeffs = mel_energies @ _dct_matrix(NUM_COEFFS, NUM_FILTERS).T
    if mean_normalize:
        coeffs = coeffs - coeffs.mean(axis=0, keepdims=True)
    if include_energy:
        energy = np.log(np.sum(frames * frames, axis=1) + 1e-10)[:, None]
        coeffs = np.hstack([coeffs, energy])
    return coeffs


# ----- segmentation descriptors ----------------------------------------------------


def frame_energy(frames: np.ndarray) -> np.ndarray:
    """Log energy per frame."""
    return np.log(np.sum(frames * frames, axis=1) + 1e-10)


def spectral_flatness(spectra: np.ndarray) -> np.ndarray:
    """Geometric/arithmetic mean ratio: 1 for white noise, ~0 for tones."""
    geometric = np.exp(np.mean(np.log(spectra + 1e-12), axis=1))
    arithmetic = np.mean(spectra, axis=1) + 1e-12
    return geometric / arithmetic
