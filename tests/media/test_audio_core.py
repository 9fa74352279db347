"""Unit tests for audio signals, synthesis, features and segmentation."""

import numpy as np
import pytest

from repro.errors import AudioError
from repro.media.audio import (
    AudioSignal,
    ConversationBuilder,
    mfcc,
    segment_audio,
    synth_music,
    synth_noise,
    synth_word,
)
from repro.media.audio.features import (
    frame_signal,
    frame_times,
    mel_filterbank,
    power_spectrum,
    spectral_flatness,
)
from repro.media.audio import segmentation
from repro.media.audio.segmentation import segment_accuracy
from repro.media.audio.signal import PEAK
from repro.media.audio.synth import DEFAULT_SPEAKERS, WORDS

ADAMS = DEFAULT_SPEAKERS[0]


class TestAudioSignal:
    def test_construction(self):
        signal = AudioSignal(np.zeros(800), rate=8000)
        assert signal.duration_s == pytest.approx(0.1)
        assert len(signal) == 800

    def test_validation(self):
        with pytest.raises(AudioError):
            AudioSignal(np.zeros((2, 2)))
        with pytest.raises(AudioError):
            AudioSignal(np.zeros(10), rate=0)

    def test_concat(self):
        joined = AudioSignal.silence(0.1).concat(AudioSignal.silence(0.2))
        assert joined.duration_s == pytest.approx(0.3)

    def test_concat_rate_mismatch(self):
        with pytest.raises(AudioError):
            AudioSignal.silence(0.1).concat(AudioSignal(np.zeros(1600), 16000))

    def test_slice_seconds(self):
        signal = synth_word("lesion", ADAMS)
        clip = signal.slice_seconds(0.1, 0.2)
        assert clip.duration_s == pytest.approx(0.1, abs=1e-3)

    def test_slice_validation(self):
        signal = AudioSignal.silence(0.5)
        with pytest.raises(AudioError):
            signal.slice_seconds(0.4, 0.3)
        with pytest.raises(AudioError):
            signal.slice_seconds(0.6, 0.9)

    def test_bytes_round_trip(self):
        signal = synth_word("lesion", ADAMS)
        restored = AudioSignal.from_bytes(signal.to_bytes())
        assert restored.rate == signal.rate
        assert np.allclose(restored.samples, signal.samples, atol=1e-4)

    def test_normalized(self):
        signal = AudioSignal(np.array([0.1, -0.2, 0.05]))
        assert np.max(np.abs(signal.normalized().samples)) == pytest.approx(PEAK)
        silent = AudioSignal(np.zeros(5)).normalized()
        assert np.all(silent.samples == 0)


class TestSynthesis:
    def test_word_deterministic(self):
        first = synth_word("lesion", ADAMS, seed=3)
        second = synth_word("lesion", ADAMS, seed=3)
        assert np.array_equal(first.samples, second.samples)

    def test_unknown_word(self):
        with pytest.raises(AudioError, match="unknown word"):
            synth_word("zebra", ADAMS)

    def test_word_duration_matches_phones(self):
        expected = sum(p.duration_s for p in WORDS["lesion"])
        assert synth_word("lesion", ADAMS).duration_s == pytest.approx(expected, abs=0.01)

    def test_speakers_differ(self):
        a = synth_word("lesion", DEFAULT_SPEAKERS[0], seed=1)
        b = synth_word("lesion", DEFAULT_SPEAKERS[1], seed=1)
        assert not np.allclose(a.samples[: len(b.samples)], b.samples[: len(a.samples)])

    def test_music_and_noise(self):
        assert synth_music(0.5).duration_s == pytest.approx(0.5, abs=0.01)
        noise = synth_noise(0.5)
        assert np.std(noise.samples) < 0.2

    def test_conversation_ground_truth_contiguous(self):
        signal, truth = (
            ConversationBuilder(seed=1).pause(0.2).say(ADAMS, "lesion").music(0.4).build()
        )
        assert truth[0].start_s == 0.0
        for before, after in zip(truth, truth[1:]):
            assert after.start_s == pytest.approx(before.end_s)
        assert truth[-1].end_s == pytest.approx(signal.duration_s)
        assert [t.label for t in truth] == ["silence", "speech", "music"]
        assert truth[1].speaker == ADAMS.name and truth[1].word == "lesion"

    def test_empty_conversation_rejected(self):
        with pytest.raises(AudioError):
            ConversationBuilder().build()


class TestFeatures:
    def test_framing_shape(self):
        signal = AudioSignal.silence(1.0)
        frames = frame_signal(signal)
        assert frames.shape[1] == 200  # 25 ms at 8 kHz
        assert len(frames) == len(frame_times(len(frames)))

    def test_short_signal_rejected(self):
        with pytest.raises(AudioError, match="shorter"):
            frame_signal(AudioSignal(np.zeros(10)))

    def test_mfcc_shape(self):
        features = mfcc(synth_word("lesion", ADAMS))
        assert features.shape[1] == 14  # 13 cepstra + energy

    def test_mfcc_mean_normalization(self):
        features = mfcc(synth_word("lesion", ADAMS), include_energy=False)
        assert np.allclose(features.mean(axis=0), 0.0, atol=1e-9)

    def test_mel_filterbank_partition(self):
        bank = mel_filterbank(20, 101, 8000)
        assert bank.shape == (20, 101)
        assert np.all(bank >= 0)

    def test_filterbank_validation(self):
        # Nyquist at or below the filterbank's fixed low edge leaves no band.
        with pytest.raises(AudioError):
            mel_filterbank(20, 101, 160)

    def test_flatness_separates_noise_from_tone(self):
        tone = synth_word("normal", ADAMS)
        noise = synth_noise(0.5)
        tone_flatness = np.median(spectral_flatness(power_spectrum(frame_signal(tone))))
        noise_flatness = np.median(spectral_flatness(power_spectrum(frame_signal(noise))))
        assert noise_flatness > 10 * tone_flatness


class TestSegmentation:
    @pytest.fixture(scope="class")
    def conversation(self):
        builder = (
            ConversationBuilder(seed=9)
            .pause(0.5)
            .say(ADAMS, "lesion")
            .pause(0.4)
            .say(DEFAULT_SPEAKERS[1], "biopsy")
            .music(1.0)
            .pause(0.4)
        )
        return builder.build()

    def test_covers_whole_signal(self, conversation):
        signal, _ = conversation
        segments = segment_audio(signal)
        assert segments[0].start_s == 0.0
        assert segments[-1].end_s == pytest.approx(signal.duration_s)

    def test_labels_match_truth(self, conversation):
        signal, truth = conversation
        segments = segment_audio(signal)
        assert segment_accuracy(segments, list(truth), signal.duration_s) > 0.8

    def test_finds_music(self, conversation):
        signal, _ = conversation
        labels = {s.label for s in segment_audio(signal)}
        assert "music" in labels and "speech" in labels and "silence" in labels

    def test_speech_count_matches(self, conversation):
        signal, _ = conversation
        speech = [s for s in segment_audio(signal) if s.label == "speech"]
        assert len(speech) == 2

    def test_min_segment_absorption(self, conversation, monkeypatch):
        monkeypatch.setattr(segmentation, "MIN_SEGMENT_S", 0.15)
        signal, _ = conversation
        segments = segment_audio(signal)
        assert all(s.duration_s >= 0.15 or len(segments) == 1 for s in segments)

    def test_pure_silence(self):
        segments = segment_audio(AudioSignal.silence(1.0))
        assert [s.label for s in segments] == ["silence"]
