"""Interest management: per-session subscriptions and layer selection.

The paper's §5.3 propagates "only the relevant parts of the object" —
this package decides, per session, *which* parts are relevant (the
subscription registry, seeded from CP-net preferences and overridden by
explicit SUBSCRIBE/UNSUBSCRIBE) and *at what quality* they travel (layer
selection over the multi-layer media codec, driven by the §4.4
``tuning.bandwidth`` variable).
"""

from repro.interest.defaults import default_subscriptions
from repro.interest.layers import (
    NUM_LAYERS,
    SIMULCAST_FLOOR,
    layer_prefix_size,
    layers_for_level,
)
from repro.interest.registry import ALL, InterestRegistry

__all__ = [
    "ALL",
    "InterestRegistry",
    "NUM_LAYERS",
    "SIMULCAST_FLOOR",
    "default_subscriptions",
    "layer_prefix_size",
    "layers_for_level",
]
