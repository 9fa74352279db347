"""Per-subscriber layer selection over the multi-layer media codec.

Simulcast semantics: the server encodes each payload's layers once and
hands every subscriber the longest layer prefix their §4.4
``tuning.bandwidth`` level admits. The byte plan mirrors the real
:class:`~repro.media.image.codec.MultiLayerCodec` geometry (3 layers,
``codec.STEP_DECAY`` = 4): each residual layer carries ~4x the bytes of the one
before it, so the cumulative layer weights are 1 : 5 : 21. A one-layer
prefix is the coarse wavelet approximation (~5% of the stream), two
layers add the first residual (~24%), all three are the full stream.

Payloads below :data:`SIMULCAST_FLOOR` ship whole — at icon size the
header overhead of a layered stream costs more than it saves.
"""

from __future__ import annotations

from repro.errors import CodecError
from repro.presentation.tuning import (
    BANDWIDTH_HIGH,
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
)

#: Layer count of the wire plan (matches MultiLayerCodec's default).
NUM_LAYERS = 3

#: Per-layer byte weights under codec.STEP_DECAY = 4 quantization.
_LAYER_WEIGHTS = (1, 4, 16)
_TOTAL_WEIGHT = sum(_LAYER_WEIGHTS)

#: Payloads smaller than this ship as a single blob, never layered.
SIMULCAST_FLOOR = 32 * 1024

_LEVEL_LAYERS = {
    BANDWIDTH_HIGH: 3,
    BANDWIDTH_MEDIUM: 2,
    BANDWIDTH_LOW: 1,
}


def layers_for_level(level: str) -> int:
    """Layer prefix a tuning level admits (unknown levels get it all)."""
    return _LEVEL_LAYERS.get(level, NUM_LAYERS)


def layer_prefix_size(total_bytes: int, num_layers: int) -> int:
    """Bytes of the first *num_layers* layers of a *total_bytes* stream.

    Integer arithmetic only — both ends of the wire (and a replica
    replaying the op log) compute identical sizes.
    """
    if not 1 <= num_layers <= NUM_LAYERS:
        raise CodecError(f"layer prefix {num_layers} not in 1..{NUM_LAYERS}")
    if total_bytes <= 0:
        return 0
    if num_layers == NUM_LAYERS:
        return total_bytes
    cumulative = sum(_LAYER_WEIGHTS[:num_layers])
    return max(1, total_bytes * cumulative // _TOTAL_WEIGHT)


def layer_sizes(total_bytes: int) -> tuple[int, ...]:
    """Individual layer sizes; sums exactly to *total_bytes*."""
    prefixes = [layer_prefix_size(total_bytes, n) for n in range(1, NUM_LAYERS + 1)]
    return tuple(
        prefix - (prefixes[i - 1] if i else 0) for i, prefix in enumerate(prefixes)
    )
