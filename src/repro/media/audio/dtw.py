"""Dynamic-time-warping template matching (the pre-HMM baseline).

Before keyword HMMs, word spotting was done by DTW against stored
templates. This module provides that baseline so benchmark E6 can show
*why* the paper's CD-HMM approach is used: DTW needs one comparison per
stored template (cost grows with the training set) and generalizes worse
across speakers than a trained statistical model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AudioError
from repro.media.audio.signal import AudioSignal
from repro.media.audio.wordspot import SpotResult, WordSpotter

#: The Sakoe-Chiba corridor, in frames, a spotter's comparisons warp within.
BAND = 20


def dtw_distance(
    first: np.ndarray,
    second: np.ndarray,
    band: int | None = None,
) -> float:
    """Length-normalized DTW distance between two feature sequences.

    Local cost is Euclidean; steps are the standard (↘, →, ↓) set; an
    optional Sakoe-Chiba *band* limits warping (and cost) to a diagonal
    corridor. The result is divided by the optimal path-ish length
    ``len(first) + len(second)`` so different-length comparisons are
    commensurable.
    """
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.ndim != 2 or second.ndim != 2 or first.shape[1] != second.shape[1]:
        raise AudioError(
            f"need (n,d)/(m,d) feature matrices, got {first.shape} and {second.shape}"
        )
    n, m = len(first), len(second)
    if band is None:
        band = max(n, m)
    band = max(band, abs(n - m) + 1)  # corridor must reach the corner
    inf = np.inf
    previous = np.full(m + 1, inf)
    previous[0] = 0.0
    for i in range(1, n + 1):
        current = np.full(m + 1, inf)
        lo = max(1, i - band)
        hi = min(m, i + band)
        # Vectorized local costs for this row's corridor.
        costs = np.linalg.norm(second[lo - 1 : hi] - first[i - 1], axis=1)
        for j in range(lo, hi + 1):
            best = min(previous[j], previous[j - 1], current[j - 1])
            current[j] = costs[j - lo] + best
        previous = current
    total = previous[m]
    if not np.isfinite(total):
        raise AudioError("DTW corridor excluded every alignment path")
    return float(total / (n + m))


@dataclass(frozen=True)
class _Template:
    word: str
    features: np.ndarray


class DTWWordSpotter:
    """Keyword spotting by nearest-template DTW.

    Decision rule: a clip is flagged with keyword *w* when its distance
    to the nearest *w*-template undercuts the nearest garbage template's.
    """

    def __init__(self, keywords: tuple[str, ...]) -> None:
        if not keywords:
            raise AudioError("need at least one keyword")
        self.keywords = tuple(keywords)
        self._templates: list[_Template] = []
        self._garbage: list[_Template] = []

    def train(
        self,
        examples: dict[str, list[AudioSignal]],
        garbage_examples: list[AudioSignal],
    ) -> "DTWWordSpotter":
        """Store feature templates (no statistical training — that is the
        point of the baseline)."""
        for word in self.keywords:
            for recording in examples.get(word, []):
                self._templates.append(
                    _Template(word=word, features=self._features(recording))
                )
        if not self._templates:
            raise AudioError("no keyword templates provided")
        for recording in garbage_examples:
            self._garbage.append(
                _Template(word="<garbage>", features=self._features(recording))
            )
        if not self._garbage:
            raise AudioError("no garbage templates provided")
        return self

    @property
    def template_count(self) -> int:
        return len(self._templates) + len(self._garbage)

    @staticmethod
    def _features(signal: AudioSignal) -> np.ndarray:
        return WordSpotter._features(signal)

    def spot(self, signal: AudioSignal) -> SpotResult:
        """Nearest-template decision over one speech stretch."""
        if not self._templates or not self._garbage:
            raise AudioError("DTW spotter is not trained; call train() first")
        features = self._features(signal)
        best_word: str | None = None
        best_distance = np.inf
        for template in self._templates:
            distance = dtw_distance(features, template.features, band=BAND)
            if distance < best_distance:
                best_distance = distance
                best_word = template.word
        garbage_distance = min(
            dtw_distance(features, template.features, band=BAND)
            for template in self._garbage
        )
        score = garbage_distance - best_distance  # positive = keyword-like
        if score <= 0.0:
            return SpotResult(keyword=None, score_margin=float(score))
        return SpotResult(keyword=best_word, score_margin=float(score))
