"""Tests for continuous-speech (sliding-window) word spotting."""

import pytest

from repro.errors import AudioError
from repro.media.audio import AudioSignal, ConversationBuilder, WordSpotter, wordspot
from repro.media.audio.synth import DEFAULT_SPEAKERS, KEYWORDS

ADAMS, BAKER, COSTA, _ = DEFAULT_SPEAKERS


@pytest.fixture(scope="module")
def spotter():
    return WordSpotter.train_default(KEYWORDS, (ADAMS, BAKER, COSTA), seed=2)


@pytest.fixture(scope="module")
def conversation():
    return (
        ConversationBuilder(seed=8)
        .pause(0.4).say(ADAMS, "lesion").pause(0.5)
        .say(BAKER, "filler_b").pause(0.5)
        .say(COSTA, "urgent").pause(0.4)
    ).build()


class TestStreamFlags:
    def test_keywords_flagged_at_roughly_right_times(self, spotter, conversation):
        signal, truth = conversation
        flags = spotter.spot_stream(signal)
        found = {flag.keyword for flag in flags}
        assert found == {"lesion", "urgent"}
        truth_spans = {t.word: (t.start_s, t.end_s) for t in truth if t.word}
        for flag in flags:
            t0, t1 = truth_spans[flag.keyword]
            # Flag span overlaps the true utterance.
            assert flag.start_s < t1 and t0 < flag.end_s

    def test_filler_not_flagged(self, spotter, conversation):
        signal, _ = conversation
        flags = spotter.spot_stream(signal)
        assert all(flag.keyword in KEYWORDS for flag in flags)

    def test_silence_never_flagged(self, spotter):
        flags = spotter.spot_stream(AudioSignal.silence(2.0))
        assert flags == []

    def test_overlapping_windows_merge(self, spotter, conversation, monkeypatch):
        monkeypatch.setattr(wordspot, "STREAM_HOP_S", 0.05)
        signal, truth = conversation
        flags = spotter.spot_stream(signal)
        # Fine hops produce many positive windows but they merge per word.
        assert len([f for f in flags if f.keyword == "lesion"]) == 1

    def test_flags_ordered_in_time(self, spotter, conversation):
        signal, _ = conversation
        flags = spotter.spot_stream(signal)
        starts = [flag.start_s for flag in flags]
        assert starts == sorted(starts)

    def test_stricter_threshold_drops_flags(self, spotter, conversation, monkeypatch):
        monkeypatch.setattr(wordspot, "STREAM_THRESHOLD", 1000.0)
        signal, _ = conversation
        assert spotter.spot_stream(signal) == []

    def test_untrained_rejected(self):
        with pytest.raises(AudioError, match="not trained"):
            WordSpotter(("lesion",)).spot_stream(AudioSignal.silence(1.0))
