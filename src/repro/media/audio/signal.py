"""The audio signal type."""

from __future__ import annotations

import numpy as np

from repro.errors import AudioError

DEFAULT_RATE = 8000
#: The peak amplitude :meth:`AudioSignal.normalized` scales to (headroom
#: under full scale for the 16-bit export).
PEAK = 0.9


class AudioSignal:
    """A mono audio signal: float64 samples in [-1, 1] plus a sample rate."""

    def __init__(self, samples: np.ndarray, rate: int = DEFAULT_RATE) -> None:
        array = np.asarray(samples, dtype=np.float64)
        if array.ndim != 1:
            raise AudioError(f"signal must be 1-D, got shape {array.shape}")
        if rate <= 0:
            raise AudioError(f"sample rate must be > 0, got {rate}")
        self.samples = array
        self.rate = int(rate)

    @classmethod
    def silence(cls, duration_s: float) -> "AudioSignal":
        return cls(np.zeros(max(1, int(round(duration_s * DEFAULT_RATE)))))

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.rate

    def __len__(self) -> int:
        return len(self.samples)

    def concat(self, other: "AudioSignal") -> "AudioSignal":
        if other.rate != self.rate:
            raise AudioError(f"rate mismatch: {self.rate} vs {other.rate}")
        return AudioSignal(np.concatenate([self.samples, other.samples]), self.rate)

    def slice_seconds(self, start_s: float, end_s: float) -> "AudioSignal":
        if start_s < 0 or end_s < start_s:
            raise AudioError(f"bad slice [{start_s}, {end_s}]")
        start = int(round(start_s * self.rate))
        end = min(int(round(end_s * self.rate)), len(self.samples))
        if start >= end:
            raise AudioError(f"empty slice [{start_s}, {end_s}] of {self.duration_s}s signal")
        return AudioSignal(self.samples[start:end].copy(), self.rate)

    def normalized(self) -> "AudioSignal":
        top = np.max(np.abs(self.samples))
        if top == 0:
            return AudioSignal(self.samples.copy(), self.rate)
        return AudioSignal(self.samples * (PEAK / top), self.rate)

    def to_bytes(self) -> bytes:
        """16-bit PCM with a tiny header (rate)."""
        pcm = np.clip(self.samples, -1.0, 1.0)
        ints = np.round(pcm * 32767).astype(np.int16)
        return self.rate.to_bytes(4, "little") + ints.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "AudioSignal":
        if len(payload) < 4:
            raise AudioError("audio payload too short")
        rate = int.from_bytes(payload[:4], "little")
        ints = np.frombuffer(payload[4:], dtype=np.int16)
        return cls(ints.astype(np.float64) / 32767.0, rate)

    def __repr__(self) -> str:
        return f"AudioSignal({self.duration_s:.2f}s @ {self.rate}Hz)"
