"""Frames for tests that drive the network, a batcher or the reliable
layer by hand."""

from typing import Any

from repro.net.codec import Frame, encode_message


def frame_of(kind: str, payload: Any = None, size_bytes: int | None = None) -> Frame:
    """``encode_message(kind, payload)``, charged *size_bytes* on the wire
    when the test models a message of that size."""
    frame = encode_message(kind, payload)
    if size_bytes is not None:
        frame.size_bytes = size_bytes
    return frame
