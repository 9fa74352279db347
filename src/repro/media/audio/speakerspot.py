"""Text-independent speaker spotting and identification.

"Speaker spotting is dual to word spotting. Here the algorithm is given a
list of key speakers and is requested to raise a flag when one of them is
speaking. ... the algorithm has to 'spot' the speaker independently of
what she is saying."

One diagonal GMM per enrolled speaker over MFCC features, plus a
background model pooled over all enrollment speech (the classical
UBM-style likelihood-ratio detector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AudioError
from repro.media.audio.features import mfcc
from repro.media.audio.gmm import DiagonalGMM
from repro.media.audio.signal import AudioSignal
from repro.media.audio.synth import WORDS, SpeakerProfile, synth_word

#: Gaussians per speaker model and in the background model.
NUM_COMPONENTS = 8
#: A stretch is a key speaker's when the best model beats the background
#: by more than this mean per-frame log likelihood.
THRESHOLD = -6.0
#: Synthesized enrollment utterances per speaker in :meth:`SpeakerSpotter.enroll_default`.
ENROLL_UTTERANCES = 14
#: Seconds trimmed off each end of a segment before identifying it.
EDGE_TRIM_S = 0.06


@dataclass(frozen=True)
class SpeakerDecision:
    """One spotting decision over a speech stretch."""

    speaker: str | None   # None = none of the key speakers
    score_margin: float   # best speaker score minus background score


class SpeakerSpotter:
    """Per-speaker GMMs + pooled background model."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._models: dict[str, DiagonalGMM] = {}
        self._background: DiagonalGMM | None = None

    # ----- enrollment ---------------------------------------------------------------

    def enroll(self, speaker_name: str, recordings: list[AudioSignal]) -> None:
        """Enroll one key speaker from their recordings."""
        if not recordings:
            raise AudioError(f"no enrollment recordings for {speaker_name!r}")
        features = np.vstack([self._features(r) for r in recordings])
        model = DiagonalGMM(NUM_COMPONENTS, seed=self.seed)
        self._models[speaker_name] = model.fit(features)

    def finalize(self, background_recordings: list[AudioSignal] | None = None) -> None:
        """Train the background model (pooled enrollment speech by default)."""
        if background_recordings:
            features = np.vstack([self._features(r) for r in background_recordings])
        else:
            if not self._models:
                raise AudioError("enroll speakers before finalizing")
            pooled = [model.means for model in self._models.values()]
            features = np.vstack(pooled)
            if len(features) < NUM_COMPONENTS:
                raise AudioError("not enough pooled data for the background model")
        self._background = DiagonalGMM(NUM_COMPONENTS, seed=self.seed).fit(features)

    @classmethod
    def enroll_default(
        cls, speakers: tuple[SpeakerProfile, ...], seed: int = 0
    ) -> "SpeakerSpotter":
        """Enroll synthesized speakers over a mixed-word corpus
        (text-independence: enrollment words need not match test words)."""
        spotter = cls(seed=seed)
        words = sorted(WORDS)
        backgrounds: list[AudioSignal] = []
        for speaker in speakers:
            recordings = [
                synth_word(words[i % len(words)], speaker, seed=seed + 13 * i)
                for i in range(ENROLL_UTTERANCES)
            ]
            spotter.enroll(speaker.name, recordings)
            backgrounds.extend(recordings)
        spotter.finalize(backgrounds)
        return spotter

    @staticmethod
    def _features(signal: AudioSignal) -> np.ndarray:
        # No cepstral mean normalization: the per-voice spectral envelope
        # offset IS the speaker information. Quiet frames (segment edges,
        # inter-phone dips) are trimmed — they carry channel, not voice.
        features = mfcc(signal, mean_normalize=False, include_energy=True)
        energy = features[:, -1]
        keep = energy > (np.max(energy) - 8.0)
        trimmed = features[keep] if np.count_nonzero(keep) >= 3 else features
        return trimmed[:, :-1]  # drop the energy column for modelling

    # ----- spotting -------------------------------------------------------------------------

    def identify(self, signal: AudioSignal) -> SpeakerDecision:
        """Which enrolled speaker (if any) is talking in this stretch?"""
        self._require_ready()
        features = self._features(signal)
        background = self._background.average_log_likelihood(features)
        best_name: str | None = None
        best_margin = -np.inf
        for name, model in self._models.items():
            margin = model.average_log_likelihood(features) - background
            if margin > best_margin:
                best_margin = margin
                best_name = name
        if best_margin <= THRESHOLD:
            return SpeakerDecision(speaker=None, score_margin=float(best_margin))
        return SpeakerDecision(speaker=best_name, score_margin=float(best_margin))

    def identify_segments(
        self, signal: AudioSignal, segments: list
    ) -> list[tuple[object, SpeakerDecision]]:
        """Per-speech-segment identification — Figure 10's colored regions
        ("two colored regions correspond to two voice segments of two
        different speakers"). Segment edges are trimmed by :data:`EDGE_TRIM_S`
        because boundary frames often bleed the neighbouring material."""
        results = []
        for segment in segments:
            if getattr(segment, "label", None) != "speech":
                continue
            start = segment.start_s + EDGE_TRIM_S
            end = segment.end_s - EDGE_TRIM_S
            if end - start < 0.08:
                start, end = segment.start_s, segment.end_s
            if end - start < 0.08:
                continue
            clip = signal.slice_seconds(start, end)
            results.append((segment, self.identify(clip)))
        return results

    def count_speakers(self, signal: AudioSignal, segments: list) -> int:
        """"How many speakers participate in a given conversation?" """
        names = {
            decision.speaker
            for _, decision in self.identify_segments(signal, segments)
            if decision.speaker is not None
        }
        return len(names)

    def _require_ready(self) -> None:
        if not self._models or self._background is None:
            raise AudioError("enroll speakers and finalize() before spotting")
