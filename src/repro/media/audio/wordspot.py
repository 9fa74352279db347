"""Keyword spotting with word models and a garbage model.

"Word spotting algorithms accept a list of keywords, and raise a flag
when one of these words is present in the continuous speech data. Word
spotting systems are usually based on keywords models and 'garbage' model
that models all speech that is not a keyword. ... This algorithm works
well when the keywords list is a priori known and keyword models may be
trained in advance."

One left-to-right CD-HMM per keyword, trained on multi-speaker examples;
one ergodic CD-HMM garbage model trained on everything else. A speech
stretch flags keyword *w* when the length-normalized likelihood-ratio
``score_w - score_garbage`` is positive.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import AudioError
from repro.media.audio.features import frame_energy, frame_signal, mfcc
from repro.media.audio.hmm import CDHMM
from repro.media.audio.signal import AudioSignal
from repro.media.audio.synth import FILLERS, SpeakerProfile, synth_word

#: HMM states of a keyword model and of the garbage model.
STATES_PER_WORD = 4
GARBAGE_STATES = 6
#: Synthesized examples per keyword and speaker in :meth:`WordSpotter.train_default`.
EXAMPLES_PER_WORD = 3
#: :meth:`WordSpotter.spot_stream`'s window (about one word) and its hop, in seconds.
STREAM_WINDOW_S = 0.45
STREAM_HOP_S = 0.10
#: The margin a window must beat to raise a stream flag.
STREAM_THRESHOLD = 3.0


@dataclass(frozen=True)
class SpotResult:
    """One spotting decision over a speech stretch."""

    keyword: str | None  # None = garbage (no flag raised)
    score_margin: float  # best keyword score minus garbage score


@dataclass(frozen=True)
class StreamFlag:
    """A flag raised inside continuous speech: keyword + time span."""

    keyword: str
    start_s: float
    end_s: float
    score_margin: float


class WordSpotter:
    """Keyword models + garbage model over MFCC features."""

    def __init__(self, keywords: tuple[str, ...]) -> None:
        if not keywords:
            raise AudioError("need at least one keyword")
        self.keywords = tuple(keywords)
        self._word_models: dict[str, CDHMM] = {
            word: CDHMM(STATES_PER_WORD, topology="left_to_right") for word in keywords
        }
        self._garbage = CDHMM(GARBAGE_STATES, topology="ergodic")
        self._fitted = False

    # ----- training ----------------------------------------------------------------

    def train(
        self,
        examples: dict[str, list[AudioSignal]],
        garbage_examples: list[AudioSignal],
    ) -> "WordSpotter":
        """Train from labelled utterances (keyword -> recordings)."""
        for word in self.keywords:
            recordings = examples.get(word, [])
            if len(recordings) < 2:
                raise AudioError(f"need >= 2 training examples of {word!r}")
            self._word_models[word].fit([self._features(r) for r in recordings])
        if len(garbage_examples) < 2:
            raise AudioError("need >= 2 garbage training examples")
        self._garbage.fit([self._features(r) for r in garbage_examples])
        self._fitted = True
        return self

    @classmethod
    def train_default(
        cls,
        keywords: tuple[str, ...],
        speakers: tuple[SpeakerProfile, ...],
        seed: int = 0,
    ) -> "WordSpotter":
        """Train on synthesized multi-speaker examples (the a-priori-known
        keyword list the paper assumes)."""
        spotter = cls(keywords)
        examples = {
            word: [
                synth_word(word, speaker, seed=seed + 31 * index + zlib.crc32(word.encode()) % 97)
                for index in range(EXAMPLES_PER_WORD)
                for speaker in speakers
            ]
            for word in keywords
        }
        garbage = [
            synth_word(filler, speaker, seed=seed + 7 * index)
            for index in range(EXAMPLES_PER_WORD)
            for speaker in speakers
            for filler in FILLERS
        ]
        return spotter.train(examples, garbage)

    @staticmethod
    def _features(signal: AudioSignal) -> np.ndarray:
        """MFCCs with leading/trailing silence trimmed.

        Edge silence is outside every model's training material (both the
        keyword HMMs and the garbage HMM see whole words), so scoring it
        produces arbitrary margins; interior frames are never dropped —
        the left-to-right temporal structure must stay intact.
        """
        features = mfcc(signal, mean_normalize=False, include_energy=True)
        energy = features[:, -1]
        speechy = np.flatnonzero(energy > np.max(energy) - 8.0)
        if len(speechy) >= 4:
            features = features[speechy[0] : speechy[-1] + 1]
        return features

    # ----- spotting -------------------------------------------------------------------

    def spot(self, signal: AudioSignal) -> SpotResult:
        """Decide whether a speech stretch contains one of the keywords."""
        self._require_trained()
        features = self._features(signal)
        garbage_score = self._garbage.average_score(features)
        best_word: str | None = None
        best_margin = -np.inf
        for word, model in self._word_models.items():
            margin = model.average_score(features) - garbage_score
            if margin > best_margin:
                best_margin = margin
                best_word = word
        if best_margin <= 0.0:
            return SpotResult(keyword=None, score_margin=float(best_margin))
        return SpotResult(keyword=best_word, score_margin=float(best_margin))

    def spot_segments(
        self, signal: AudioSignal, segments: list
    ) -> list[tuple[object, SpotResult]]:
        """Run spotting over the speech segments of a conversation.

        *segments* come from :func:`repro.media.audio.segmentation.segment_audio`;
        non-speech segments are skipped (no flags there by construction).
        """
        results = []
        for segment in segments:
            if getattr(segment, "label", None) != "speech":
                continue
            clip = signal.slice_seconds(segment.start_s, segment.end_s)
            if clip.duration_s < 0.08:
                continue
            results.append((segment, self.spot(clip)))
        return results

    def spot_stream(self, signal: AudioSignal) -> list[StreamFlag]:
        """Raise flags inside *continuous* speech, no segmentation needed.

        "Word spotting algorithms accept a list of keywords, and raise a
        flag when one of these words is present in the continuous speech
        data" — a window of roughly one word-length slides over the
        recording; windows whose best keyword beats the garbage model are
        flagged, and overlapping flags for the same keyword merge (the
        span keeps the strongest margin). :data:`STREAM_THRESHOLD` is
        stricter than the per-utterance threshold of zero because windows
        see partial words, whose weak margins are mostly coincidence.
        """
        self._require_trained()
        window_s, hop_s = STREAM_WINDOW_S, STREAM_HOP_S
        # Energy gate: keyword-vs-garbage scores are only meaningful on
        # speech-like signal; silence must not be scored at all.
        energies = frame_energy(frame_signal(signal))
        gate = max(np.percentile(energies, 95) - 4.0, -15.0)
        frames_per_second = len(energies) / signal.duration_s
        flags: list[StreamFlag] = []
        start = 0.0
        while start + window_s <= signal.duration_s + 1e-9:
            end = min(start + window_s, signal.duration_s)
            lo = int(start * frames_per_second)
            hi = max(int(end * frames_per_second), lo + 1)
            if np.median(energies[lo:hi]) <= gate:
                start += hop_s
                continue
            clip = signal.slice_seconds(start, end)
            result = self.spot(clip)
            if result.keyword is not None and result.score_margin > STREAM_THRESHOLD:
                previous = flags[-1] if flags else None
                if (
                    previous is not None
                    and previous.keyword == result.keyword
                    and start <= previous.end_s + hop_s / 2
                ):
                    flags[-1] = StreamFlag(
                        keyword=result.keyword,
                        start_s=previous.start_s,
                        end_s=end,
                        score_margin=max(previous.score_margin, result.score_margin),
                    )
                else:
                    flags.append(
                        StreamFlag(
                            keyword=result.keyword,
                            start_s=start,
                            end_s=end,
                            score_margin=result.score_margin,
                        )
                    )
            start += hop_s
        return flags

    def _require_trained(self) -> None:
        if not self._fitted:
            raise AudioError("word spotter is not trained; call train() first")
