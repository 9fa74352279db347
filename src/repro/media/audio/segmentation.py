"""Automatic audio segmentation.

"The segmentation algorithm is able to distinguish among signal and
background noise and among the various types of signals present in the
audio information. The audio data may contain speech, music, or audio
artifacts, which are automatically segmented."

Frame descriptors: log energy separates silence from signal; *syllabic
energy modulation* (local standard deviation of log energy at ~150 ms
scale) separates speech — whose per-phone envelopes rise and fall — from
sustained music; spectral flatness separates broadband noise from both.
Frame labels are mode-smoothed and merged into segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.media.audio.features import (
    FRAME_S,
    HOP_S,
    frame_energy,
    frame_signal,
    frame_times,
    power_spectrum,
    spectral_flatness,
)
from repro.media.audio.signal import AudioSignal

SILENCE = "silence"
SPEECH = "speech"
MUSIC = "music"
NOISE = "noise"

#: Loud frames lie within this many dB of the 95th-percentile frame energy.
ENERGY_FLOOR_DB = 18.0
#: Absolute log-energy floor: a silent recording stays silent.
SILENCE_FLOOR = -15.0
#: Spectral flatness above which a loud frame is noise.
FLATNESS_NOISE = 0.02
#: Energy modulation (std of log energy) over a window of frames (~150 ms)
#: at or above which a loud, tonal frame is speech.
MODULATION_SPEECH = 0.45
MODULATION_WINDOW = 15
#: Segments shorter than this are absorbed into their longer neighbour.
MIN_SEGMENT_S = 0.10


@dataclass(frozen=True)
class AudioSegment:
    """One labelled stretch of audio (the browser's unit of navigation)."""

    start_s: float
    end_s: float
    label: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _rolling_std(values: np.ndarray, width: int) -> np.ndarray:
    """Standard deviation over a centred sliding window."""
    half = width // 2
    out = np.zeros(len(values))
    for index in range(len(values)):
        lo = max(0, index - half)
        hi = min(len(values), index + half + 1)
        out[index] = np.std(values[lo:hi])
    return out


def classify_frames(signal: AudioSignal) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame labels and frame center times.

    :data:`ENERGY_FLOOR_DB` is measured below the signal's 95th-percentile
    frame energy, so levels adapt to the recording. Speech is flagged by
    energy modulation of at least :data:`MODULATION_SPEECH` within a
    :data:`MODULATION_WINDOW`-frame neighbourhood — the syllabic
    rise-and-fall sustained music lacks.
    """
    frames = frame_signal(signal)
    spectra = power_spectrum(frames)
    energy = frame_energy(frames)
    flatness = spectral_flatness(spectra)
    modulation = _rolling_std(energy, MODULATION_WINDOW)
    loud = (energy > (np.percentile(energy, 95) - ENERGY_FLOOR_DB / 4.34)) & (
        energy > SILENCE_FLOOR
    )
    labels = np.empty(len(frames), dtype=object)
    labels[:] = SILENCE
    for index in range(len(frames)):
        if not loud[index]:
            continue
        if flatness[index] > FLATNESS_NOISE:
            labels[index] = NOISE
        elif modulation[index] >= MODULATION_SPEECH:
            labels[index] = SPEECH
        else:
            labels[index] = MUSIC
    return _median_smooth(labels, width=7), frame_times(len(frames))


def _median_smooth(labels: np.ndarray, width: int) -> np.ndarray:
    """Mode filter over a sliding window (kills one-frame flickers)."""
    half = width // 2
    smoothed = labels.copy()
    for index in range(len(labels)):
        window = labels[max(0, index - half) : index + half + 1]
        values, counts = np.unique(window.astype(str), return_counts=True)
        smoothed[index] = values[np.argmax(counts)]
    return smoothed


def segment_audio(signal: AudioSignal) -> list[AudioSegment]:
    """Segment a recording into labelled stretches.

    Runs of equal frame labels merge into segments; segments shorter than
    :data:`MIN_SEGMENT_S` are absorbed into their longer neighbour.
    """
    labels, times = classify_frames(signal)
    segments: list[AudioSegment] = []
    start = 0
    for index in range(1, len(labels) + 1):
        if index == len(labels) or labels[index] != labels[start]:
            start_s = float(times[start] - FRAME_S / 2) if start else 0.0
            end_s = (
                float(times[index - 1] + FRAME_S / 2)
                if index < len(labels)
                else signal.duration_s
            )
            segments.append(AudioSegment(start_s, end_s, str(labels[start])))
            start = index
    return _absorb_short(segments, MIN_SEGMENT_S)


def _absorb_short(segments: list[AudioSegment], min_s: float) -> list[AudioSegment]:
    changed = True
    while changed and len(segments) > 1:
        changed = False
        for index, segment in enumerate(segments):
            if segment.duration_s >= min_s:
                continue
            neighbour = index - 1 if index > 0 else index + 1
            if index > 0 and index + 1 < len(segments):
                left, right = segments[index - 1], segments[index + 1]
                neighbour = index - 1 if left.duration_s >= right.duration_s else index + 1
            absorbed = segments[neighbour]
            merged = AudioSegment(
                min(segment.start_s, absorbed.start_s),
                max(segment.end_s, absorbed.end_s),
                absorbed.label,
            )
            lo, hi = sorted((index, neighbour))
            segments = segments[:lo] + [merged] + segments[hi + 1:]
            changed = True
            break
    # Merge adjacent equal labels produced by absorption.
    merged_out: list[AudioSegment] = []
    for segment in segments:
        if merged_out and merged_out[-1].label == segment.label:
            merged_out[-1] = AudioSegment(
                merged_out[-1].start_s, segment.end_s, segment.label
            )
        else:
            merged_out.append(segment)
    return merged_out


def segment_accuracy(segments: list[AudioSegment], truth: list, duration_s: float) -> float:
    """Fraction of time the predicted label matches ground truth, sampled
    every frame hop.

    *truth* is a list of objects with ``start_s``, ``end_s``, ``label``
    (e.g. :class:`repro.media.audio.synth.GroundTruthSegment`).
    """
    ticks = np.arange(0, duration_s, HOP_S)

    def label_at(stamps: list, t: float) -> str:
        for item in stamps:
            if item.start_s <= t < item.end_s:
                return item.label
        return SILENCE

    matches = sum(
        1 for t in ticks if label_at(segments, t) == label_at(truth, t)
    )
    return matches / max(len(ticks), 1)
