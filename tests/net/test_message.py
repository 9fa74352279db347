"""Unit tests for network messages."""

import pytest

from repro.net import Message


class TestMessage:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message("a", "b", "x", size_bytes=-1)

    def test_str_mentions_route_and_size(self):
        message = Message("client-1", "server", "choice", size_bytes=42)
        text = str(message)
        assert "client-1->server" in text
        assert "42B" in text
        assert "choice" in text

    def test_frozen(self):
        message = Message("a", "b", "x")
        with pytest.raises(AttributeError):
            message.kind = "y"

    def test_payload_default_none(self):
        assert Message("a", "b", "x").payload is None

    def test_copies_keep_their_fields(self):
        message = Message("a", "b", "x", {"k": 1}, 4)
        stamped = message._replace(seq=3, checksum=5)
        retry = stamped._replace(attempt=1)
        corrupted = retry._replace(payload={"garbage": True})
        assert (retry.seq, retry.checksum, retry.attempt) == (3, 5, 1)
        assert isinstance(corrupted, Message) and "retry#1" in str(corrupted)

    def test_unknown_field_names_refused(self):
        with pytest.raises(TypeError):
            Message("a", "b", "x", colour="red")
        with pytest.raises(ValueError):
            Message("a", "b", "x")._replace(colour="red")
