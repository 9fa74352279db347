"""Language identification for the audio browser.

"In a tele-consulting task, it is often required to browse an audio file
and answer questions such as: ... In what language are they talking?"
(paper §3). Languages differ in their phoneme inventories and rhythm,
both of which a bag-of-frames spectral model captures: one diagonal GMM
per language over MFCC features, trained on multi-speaker samples of that
language's vocabulary, decided by length-normalized likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AudioError
from repro.media.audio.features import mfcc
from repro.media.audio.gmm import DiagonalGMM
from repro.media.audio.signal import AudioSignal
from repro.media.audio.synth import LANGUAGES, SpeakerProfile, synth_word

#: Gaussians per language model.
NUM_COMPONENTS = 8


@dataclass(frozen=True)
class LanguageDecision:
    """One identification decision over a speech stretch."""

    language: str
    score_margin: float  # best language score minus runner-up


class LanguageIdentifier:
    """One GMM per language over MFCC features."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._models: dict[str, DiagonalGMM] = {}

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self._models))

    def train(self, samples: dict[str, list[AudioSignal]]) -> "LanguageIdentifier":
        """Train from per-language recordings (>= 2 languages)."""
        if len(samples) < 2:
            raise AudioError("need samples of at least two languages")
        for language, recordings in samples.items():
            if not recordings:
                raise AudioError(f"no samples for language {language!r}")
            features = np.vstack([self._features(r) for r in recordings])
            self._models[language] = DiagonalGMM(NUM_COMPONENTS, seed=self.seed).fit(features)
        return self

    @classmethod
    def train_default(
        cls,
        speakers: tuple[SpeakerProfile, ...],
        utterances_per_language: int = 12,
        seed: int = 0,
    ) -> "LanguageIdentifier":
        """Train on synthesized multi-speaker samples of every built-in
        language (speaker-independence comes from mixing speakers)."""
        samples: dict[str, list[AudioSignal]] = {}
        for language, vocabulary in LANGUAGES.items():
            words = sorted(vocabulary)
            samples[language] = [
                synth_word(
                    words[i % len(words)],
                    speakers[i % len(speakers)],
                    seed=seed + 17 * i,
                    language=language,
                )
                for i in range(utterances_per_language)
            ]
        return cls(seed=seed).train(samples)

    @staticmethod
    def _features(signal: AudioSignal) -> np.ndarray:
        # Mean normalization removes per-speaker timbre offsets, keeping
        # the phonotactic content that distinguishes languages.
        return mfcc(signal, mean_normalize=True, include_energy=False)

    def identify(self, signal: AudioSignal) -> LanguageDecision:
        """Which trained language best explains this speech stretch?"""
        if len(self._models) < 2:
            raise AudioError("identifier is not trained; call train() first")
        features = self._features(signal)
        scores = {
            language: model.average_log_likelihood(features)
            for language, model in self._models.items()
        }
        ordered = sorted(scores.items(), key=lambda item: -item[1])
        best, runner_up = ordered[0], ordered[1]
        return LanguageDecision(
            language=best[0], score_margin=float(best[1] - runner_up[1])
        )

    def identify_segments(
        self, signal: AudioSignal, segments: list
    ) -> list[tuple[object, LanguageDecision]]:
        """Per-speech-segment identification over a segmented recording."""
        results = []
        for segment in segments:
            if getattr(segment, "label", None) != "speech":
                continue
            clip = signal.slice_seconds(segment.start_s, segment.end_s)
            if clip.duration_s < 0.08:
                continue
            results.append((segment, self.identify(clip)))
        return results
