"""Synthetic speech-like audio with ground truth.

Real consultation recordings are gated; these signals carry the structure
the algorithms exploit:

* a **speaker** is a voice-source model — pitch, formant placement,
  spectral tilt — so different speakers are separable by spectral
  envelope (what GMM speaker models learn);
* a **word** is a fixed sequence of *phones* (formant targets and
  durations) shared across speakers, so keywords are separable by
  spectral *trajectory* (what the CD-HMM word models learn) while
  remaining speaker-independent;
* **music** is sustained harmonic chords; **noise** is filtered noise —
  distinguishable from speech by spectral-flux statistics, which is what
  the automatic segmenter keys on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AudioError
from repro.media.audio.signal import DEFAULT_RATE, AudioSignal


@dataclass(frozen=True)
class Phone:
    """One articulation target: a formant center (Hz) and duration (s)."""

    formant_hz: float
    duration_s: float


#: The keyword vocabulary: distinct formant trajectories.
WORDS: dict[str, tuple[Phone, ...]] = {
    "lesion": (Phone(500, 0.12), Phone(900, 0.10), Phone(1400, 0.14)),
    "biopsy": (Phone(1400, 0.10), Phone(700, 0.12), Phone(1100, 0.10), Phone(500, 0.10)),
    "normal": (Phone(800, 0.16), Phone(800, 0.12), Phone(600, 0.10)),
    "urgent": (Phone(600, 0.08), Phone(1600, 0.08), Phone(600, 0.08), Phone(1600, 0.08)),
    # filler vocabulary (the "garbage" speech word models train on)
    "filler_a": (Phone(700, 0.12), Phone(1000, 0.14), Phone(850, 0.12)),
    "filler_b": (Phone(1200, 0.10), Phone(950, 0.12), Phone(1300, 0.12)),
    "filler_c": (Phone(550, 0.14), Phone(1250, 0.10), Phone(750, 0.12)),
}

KEYWORDS = ("lesion", "biopsy", "normal", "urgent")
FILLERS = ("filler_a", "filler_b", "filler_c")

#: A second synthetic language ("In what language are they talking?" is
#: one of the paper's browsing questions). Its phonology differs from the
#: default vocabulary's in exactly the ways real languages differ for a
#: spectral classifier: a tighter formant inventory (front-rounded,
#: 550-1050 Hz) and a slower, more even syllable rhythm.
WORDS_LINGUA_B: dict[str, tuple[Phone, ...]] = {
    "befund": (Phone(620, 0.18), Phone(880, 0.18), Phone(700, 0.18)),
    "biopsie": (Phone(950, 0.17), Phone(650, 0.17), Phone(820, 0.17), Phone(580, 0.17)),
    "dringend": (Phone(740, 0.18), Phone(1020, 0.18), Phone(740, 0.18)),
    "unauffaellig": (Phone(560, 0.17), Phone(900, 0.17), Phone(680, 0.17), Phone(1000, 0.17)),
}

#: Language name -> vocabulary.
LANGUAGES: dict[str, dict[str, tuple[Phone, ...]]] = {
    "lingua-a": WORDS,
    "lingua-b": WORDS_LINGUA_B,
}


@dataclass(frozen=True)
class SpeakerProfile:
    """A voice: pitch, formant scaling and spectral tilt."""

    name: str
    pitch_hz: float
    formant_scale: float = 1.0
    tilt: float = 0.0  # dB/harmonic-ish; positive = brighter voice

    def __post_init__(self) -> None:
        if self.pitch_hz <= 0:
            raise AudioError(f"pitch must be > 0, got {self.pitch_hz}")


#: Breath noise under a rendered word, and the level of background noise.
WORD_NOISE = 0.01
NOISE_LEVEL = 0.05

#: A default cast of speakers (male / female / child vocal ranges).
DEFAULT_SPEAKERS = (
    SpeakerProfile("dr-adams", pitch_hz=110.0, formant_scale=0.92, tilt=-0.25),
    SpeakerProfile("dr-baker", pitch_hz=205.0, formant_scale=1.08, tilt=0.10),
    SpeakerProfile("dr-costa", pitch_hz=150.0, formant_scale=1.00, tilt=-0.05),
    SpeakerProfile("patient-child", pitch_hz=295.0, formant_scale=1.22, tilt=0.30),
)


def synth_word(
    word: str, speaker: SpeakerProfile, seed: int = 0, language: str = "lingua-a"
) -> AudioSignal:
    """Render one word in one speaker's voice (and language), at
    :data:`DEFAULT_RATE`."""
    vocabulary = LANGUAGES.get(language)
    if vocabulary is None:
        raise AudioError(f"unknown language {language!r}; know {sorted(LANGUAGES)}")
    phones = vocabulary.get(word)
    if phones is None:
        raise AudioError(
            f"unknown word {word!r} in {language}; know {sorted(vocabulary)}"
        )
    rate = DEFAULT_RATE
    rng = np.random.default_rng(seed)
    pieces = []
    for phone in phones:
        samples = int(round(phone.duration_s * rate))
        t = np.arange(samples) / rate
        formant = phone.formant_hz * speaker.formant_scale
        signal = np.zeros(samples)
        # Harmonics of the pitch, amplitude-shaped by a formant resonance.
        harmonic = 1
        while harmonic * speaker.pitch_hz < rate / 2 - 100:
            freq = harmonic * speaker.pitch_hz
            resonance = np.exp(-0.5 * ((freq - formant) / (formant * 0.25)) ** 2)
            tilt_gain = 10 ** (speaker.tilt * np.log2(harmonic) / 20)
            vibrato = 1.0 + 0.004 * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
            signal += resonance * tilt_gain * np.sin(2 * np.pi * freq * vibrato * t)
            harmonic += 1
        envelope = np.hanning(samples) ** 0.5  # soft onset/offset
        signal *= envelope
        signal += rng.normal(0.0, WORD_NOISE, samples)
        pieces.append(signal)
    return AudioSignal(np.concatenate(pieces)).normalized()


def synth_music(duration_s: float, seed: int = 0) -> AudioSignal:
    """Sustained harmonic chords (telephone hold music, say)."""
    rng = np.random.default_rng(seed)
    samples = int(round(duration_s * DEFAULT_RATE))
    t = np.arange(samples) / DEFAULT_RATE
    chord_roots = (220.0, 261.6, 196.0, 246.9)
    signal = np.zeros(samples)
    chord_len = max(1, samples // len(chord_roots))
    for index, root in enumerate(chord_roots):
        start = index * chord_len
        end = samples if index == len(chord_roots) - 1 else (index + 1) * chord_len
        segment_t = t[start:end]
        for ratio in (1.0, 1.25, 1.5, 2.0):
            signal[start:end] += 0.5 * np.sin(2 * np.pi * root * ratio * segment_t)
    signal += rng.normal(0.0, 0.003, samples)
    return AudioSignal(signal).normalized()


def synth_noise(duration_s: float, seed: int = 0) -> AudioSignal:
    """Background noise (ventilation, line hiss)."""
    rng = np.random.default_rng(seed)
    samples = int(round(duration_s * DEFAULT_RATE))
    white = rng.normal(0.0, NOISE_LEVEL, samples)
    # Mild low-pass to make it room-like rather than white.
    kernel = np.ones(5) / 5.0
    return AudioSignal(np.convolve(white, kernel, mode="same"))


@dataclass(frozen=True)
class GroundTruthSegment:
    """One labelled stretch of a built conversation."""

    start_s: float
    end_s: float
    label: str              # 'speech' | 'music' | 'silence' | 'noise'
    speaker: str | None = None
    word: str | None = None


class ConversationBuilder:
    """Compose a conversation signal and its ground-truth annotation."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._counter = 0
        self._pieces: list[AudioSignal] = []
        self._truth: list[GroundTruthSegment] = []
        self._cursor = 0.0

    def _next_seed(self) -> int:
        self._counter += 1
        return self._seed * 10_007 + self._counter

    def _append(self, signal: AudioSignal, label: str, speaker: str | None, word: str | None) -> None:
        start = self._cursor
        self._cursor += signal.duration_s
        self._pieces.append(signal)
        self._truth.append(
            GroundTruthSegment(start_s=start, end_s=self._cursor, label=label, speaker=speaker, word=word)
        )

    def say(
        self, speaker: SpeakerProfile, word: str, language: str = "lingua-a"
    ) -> "ConversationBuilder":
        self._append(
            synth_word(word, speaker, seed=self._next_seed(), language=language),
            "speech", speaker.name, word,
        )
        return self

    def pause(self, duration_s: float = 0.3) -> "ConversationBuilder":
        self._append(AudioSignal.silence(duration_s), "silence", None, None)
        return self

    def music(self, duration_s: float = 1.0) -> "ConversationBuilder":
        self._append(
            synth_music(duration_s, seed=self._next_seed()),
            "music", None, None,
        )
        return self

    def noise(self, duration_s: float = 0.5) -> "ConversationBuilder":
        self._append(
            synth_noise(duration_s, seed=self._next_seed()),
            "noise", None, None,
        )
        return self

    def build(self) -> tuple[AudioSignal, tuple[GroundTruthSegment, ...]]:
        if not self._pieces:
            raise AudioError("conversation is empty")
        signal = self._pieces[0]
        for piece in self._pieces[1:]:
            signal = signal.concat(piece)
        return signal, tuple(self._truth)
