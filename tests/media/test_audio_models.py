"""Unit tests for GMM, CD-HMM, word spotting and speaker spotting.

Model-training fixtures are session-scoped: training is the expensive
part and the trained models are immutable for the assertions below.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AudioError
from repro.media.audio import (
    CDHMM,
    ConversationBuilder,
    DiagonalGMM,
    SpeakerSpotter,
    WordSpotter,
    segment_audio,
    synth_word,
)
from repro.media.audio import hmm as hmm_module
from repro.media.audio.gmm import logsumexp
from repro.media.audio.synth import DEFAULT_SPEAKERS, KEYWORDS

ADAMS, BAKER, COSTA, CHILD = DEFAULT_SPEAKERS
TRIO = (ADAMS, BAKER, COSTA)

#: Trains the ``word_spotter`` fixture's model and prints one digest of
#: every word model's means, in keyword order.
_TRAIN_AND_DIGEST = """
import hashlib
from repro.media.audio import WordSpotter
from repro.media.audio.synth import DEFAULT_SPEAKERS, KEYWORDS
spotter = WordSpotter.train_default(KEYWORDS, DEFAULT_SPEAKERS[:3], seed=2)
digest = hashlib.sha256()
for word in KEYWORDS:
    digest.update(spotter._word_models[word].means.tobytes())
print(digest.hexdigest())
"""


@pytest.fixture(scope="session")
def speaker_spotter():
    return SpeakerSpotter.enroll_default(TRIO, seed=1)


@pytest.fixture(scope="session")
def word_spotter():
    return WordSpotter.train_default(KEYWORDS, TRIO, seed=2)


class TestLogsumexp:
    def test_matches_naive(self):
        values = np.log(np.array([[1.0, 2.0, 3.0]]))
        assert logsumexp(values, axis=1)[0] == pytest.approx(np.log(6.0))

    def test_handles_large_magnitudes(self):
        values = np.array([[-1000.0, -1000.0]])
        assert np.isfinite(logsumexp(values, axis=1))[0]


class TestGMM:
    def test_fits_two_clusters(self):
        rng = np.random.default_rng(0)
        data = np.vstack(
            [rng.normal(-3, 0.5, (100, 2)), rng.normal(3, 0.5, (100, 2))]
        )
        gmm = DiagonalGMM(2, seed=0).fit(data)
        centers = sorted(gmm.means[:, 0])
        assert centers[0] == pytest.approx(-3, abs=0.5)
        assert centers[1] == pytest.approx(3, abs=0.5)

    def test_likelihood_higher_for_in_distribution(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (200, 3))
        gmm = DiagonalGMM(2, seed=0).fit(data)
        inside = gmm.average_log_likelihood(rng.normal(0, 1, (50, 3)))
        outside = gmm.average_log_likelihood(rng.normal(10, 1, (50, 3)))
        assert inside > outside

    def test_weights_normalized(self):
        rng = np.random.default_rng(1)
        gmm = DiagonalGMM(3, seed=0).fit(rng.normal(0, 1, (60, 2)))
        assert gmm.weights.sum() == pytest.approx(1.0)

    def test_unfitted_rejected(self):
        with pytest.raises(AudioError, match="not fitted"):
            DiagonalGMM(2).log_likelihood(np.zeros((3, 2)))

    def test_too_few_points_rejected(self):
        with pytest.raises(AudioError):
            DiagonalGMM(5).fit(np.zeros((3, 2)))

    def test_bad_component_count(self):
        with pytest.raises(AudioError):
            DiagonalGMM(0)


class TestCDHMM:
    def _sequences(self, flip=False, count=5, seed=0):
        """Sequences moving between two emission regimes."""
        rng = np.random.default_rng(seed)
        sequences = []
        for _ in range(count):
            first = rng.normal(-2, 0.3, (12, 2))
            second = rng.normal(2, 0.3, (12, 2))
            parts = (second, first) if flip else (first, second)
            sequences.append(np.vstack(parts))
        return sequences

    def test_viterbi_segments_regimes(self):
        hmm = CDHMM(2, topology="left_to_right").fit(self._sequences())
        path, _ = hmm.viterbi(self._sequences(count=1, seed=9)[0])
        assert path[0] == 0
        assert path[-1] == 1
        assert path == sorted(path)  # left-to-right never goes back

    def test_score_prefers_matching_order(self):
        forward = CDHMM(2).fit(self._sequences())
        test_match = self._sequences(count=1, seed=5)[0]
        test_flip = self._sequences(flip=True, count=1, seed=5)[0]
        assert forward.score(test_match) > forward.score(test_flip)

    def test_training_improves_likelihood(self):
        sequences = self._sequences()
        hmm = CDHMM(2)
        hmm._initialize(sequences)
        before = sum(hmm.score(s) for s in sequences)
        hmm.fit(sequences)
        after = sum(hmm.score(s) for s in sequences)
        assert after >= before - 1e-6

    def test_forward_backward_consistency(self):
        hmm = CDHMM(3, topology="ergodic").fit(self._sequences())
        sequence = self._sequences(count=1, seed=3)[0]
        alpha, log_prob = hmm.log_forward(sequence)
        beta = hmm.log_backward(sequence)
        # At every t, sum_s alpha*beta equals the total likelihood.
        for t in (0, len(sequence) // 2, len(sequence) - 1):
            assert logsumexp(alpha[t] + beta[t], axis=0) == pytest.approx(log_prob, abs=1e-6)

    def test_validation(self):
        with pytest.raises(AudioError):
            CDHMM(0)
        with pytest.raises(AudioError):
            CDHMM(2, topology="ring")
        with pytest.raises(AudioError):
            CDHMM(2).fit([])
        with pytest.raises(AudioError, match="frames"):
            CDHMM(5).fit([np.zeros((2, 3))])
        with pytest.raises(AudioError, match="not fitted"):
            CDHMM(2).score(np.zeros((5, 2)))

    def _bimodal_sequences(self, count, seed):
        r = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            first = np.where(
                r.random((14, 1)) < 0.5,
                r.normal(-3, 0.3, (14, 2)),
                r.normal(3, 0.3, (14, 2)),
            )
            second = r.normal(0, 0.3, (14, 2))
            out.append(np.vstack([first, second]))
        return out

    def test_mixture_emissions_model_bimodal_states(self, monkeypatch):
        """The *continuous density mixture* part of CD-HMM: two Gaussians
        per state capture a bimodal emission a single Gaussian cannot."""
        train = self._bimodal_sequences(8, seed=1)
        test = self._bimodal_sequences(3, seed=99)
        single = CDHMM(2).fit(train)
        monkeypatch.setattr(hmm_module, "NUM_MIXTURES", 2)
        double = CDHMM(2).fit(train)
        assert sum(double.score(s) for s in test) > sum(single.score(s) for s in test) + 10

    def test_mixture_weights_normalized(self, monkeypatch):
        monkeypatch.setattr(hmm_module, "NUM_MIXTURES", 3)
        hmm = CDHMM(2).fit(self._bimodal_sequences(4, seed=2))
        assert np.allclose(np.exp(hmm.log_mix).sum(axis=1), 1.0, atol=1e-6)

    def test_single_mixture_matches_legacy_shape(self):
        hmm = CDHMM(2).fit(self._sequences())
        assert hmm.means.shape == (2, 1, 2)
        path, _ = hmm.viterbi(self._sequences(count=1, seed=9)[0])
        assert path == sorted(path)


class TestWordSpotting:
    def test_keywords_detected_across_speakers(self, word_spotter):
        hits = 0
        cases = [(word, speaker) for word in KEYWORDS for speaker in TRIO]
        for word, speaker in cases:
            result = word_spotter.spot(synth_word(word, speaker, seed=555))
            hits += result.keyword == word
        assert hits >= len(cases) - 1  # allow one borderline miss

    def test_fillers_not_flagged(self, word_spotter):
        false_alarms = 0
        for filler in ("filler_a", "filler_b", "filler_c"):
            for speaker in TRIO:
                result = word_spotter.spot(synth_word(filler, speaker, seed=321))
                false_alarms += result.keyword is not None
        assert false_alarms <= 1

    def test_spot_segments_skips_non_speech(self, word_spotter):
        signal, _ = (
            ConversationBuilder(seed=4)
            .pause(0.3).say(ADAMS, "urgent").music(0.8).pause(0.3)
        ).build()
        segments = segment_audio(signal)
        results = word_spotter.spot_segments(signal, segments)
        assert len(results) == 1
        assert results[0][1].keyword == "urgent"

    def test_training_is_reproducible_across_processes(self):
        """``str`` hashes are salted per process: nothing that seeds
        training may depend on one, or the same seed trains a different
        model under another ``PYTHONHASHSEED``."""
        src = str(Path(__file__).resolve().parents[2] / "src")

        def train(hash_seed: str) -> str:
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            return subprocess.run(
                [sys.executable, "-c", _TRAIN_AND_DIGEST],
                env=env, capture_output=True, text=True, check=True,
            ).stdout

        assert train("1") == train("2")

    def test_untrained_rejected(self):
        with pytest.raises(AudioError, match="not trained"):
            WordSpotter(("lesion",)).spot(synth_word("lesion", ADAMS))

    def test_training_validation(self):
        with pytest.raises(AudioError):
            WordSpotter(())
        spotter = WordSpotter(("lesion",))
        with pytest.raises(AudioError, match=">= 2"):
            spotter.train({"lesion": [synth_word("lesion", ADAMS)]}, [])


class TestSpeakerSpotting:
    def test_identification_accuracy(self, speaker_spotter):
        correct = total = 0
        for speaker in TRIO:
            for word in ("lesion", "urgent", "filler_b"):
                decision = speaker_spotter.identify(synth_word(word, speaker, seed=808))
                correct += decision.speaker == speaker.name
                total += 1
        assert correct / total >= 0.85

    def test_unenrolled_speaker_rejected(self, speaker_spotter):
        decision = speaker_spotter.identify(synth_word("lesion", CHILD, seed=5))
        assert decision.speaker is None

    def test_text_independence(self, speaker_spotter):
        """Recognizes the speaker on words enrolled in different order/seed."""
        decision = speaker_spotter.identify(synth_word("urgent", BAKER, seed=12345))
        assert decision.speaker == BAKER.name

    def test_counts_conversation_speakers(self, speaker_spotter):
        signal, _ = (
            ConversationBuilder(seed=11)
            .pause(0.3).say(ADAMS, "lesion").pause(0.3)
            .say(BAKER, "filler_a").pause(0.3).say(ADAMS, "normal").pause(0.3)
        ).build()
        segments = segment_audio(signal)
        assert speaker_spotter.count_speakers(signal, segments) == 2

    def test_unready_rejected(self):
        with pytest.raises(AudioError):
            SpeakerSpotter().identify(synth_word("lesion", ADAMS))
        spotter = SpeakerSpotter()
        with pytest.raises(AudioError):
            spotter.finalize()

    def test_enrollment_validation(self):
        with pytest.raises(AudioError, match="no enrollment"):
            SpeakerSpotter().enroll("x", [])
