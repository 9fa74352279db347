"""Scripted viewer behaviour.

Viewer sessions are sequences of explicit presentation choices. Real
viewers mostly follow their interests *within* what the author laid out
(click the form the author ranked next), with occasional surprises; the
``rationality`` knob controls that mix, which is exactly the axis the
prefetch predictor's value depends on.
"""

from __future__ import annotations

import random

from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument

#: Chance the next touched component sits in the previous one's section.
LOCALITY = 0.7


def consultation_events(
    document: MultimediaDocument,
    num_events: int = 10,
    rationality: float = 0.8,
    seed: int = 0,
) -> list[tuple[str, str]]:
    """A plausible consultation: choices biased toward the author's order.

    With probability *rationality* the viewer picks, for the attended
    component, the author's next-preferred alternative given the current
    configuration; otherwise a uniformly random alternative. Attention
    has locality: with probability :data:`LOCALITY` the next touched
    component sits in the same top-level section as the previous one
    (physicians drill into imaging, then move to labs, ...).
    """
    if not 0 <= rationality <= 1:
        raise ValueError(f"rationality must be in [0,1], got {rationality}")
    rng = random.Random(seed)
    primitives = [
        path
        for path, node in document.components().items()
        if isinstance(node, PrimitiveMultimediaComponent)
    ]
    if not primitives:
        raise ValueError("document has no primitive components")
    events: list[tuple[str, str]] = []
    evidence: dict[str, str] = {}
    outcome = document.default_presentation()
    last_section: str | None = None
    for _ in range(num_events):
        pool = primitives
        if last_section is not None and rng.random() < LOCALITY:
            local = [p for p in primitives if p.split(".")[0] == last_section]
            if local:
                pool = local
        path = rng.choice(pool)
        last_section = path.split(".")[0]
        current = outcome[path]
        order = document.network.cpt(path).order_for(outcome)
        alternatives = [value for value in order if value != current]
        if not alternatives:
            continue
        if rng.random() < rationality:
            value = alternatives[0]  # the author's next-best form
        else:
            value = rng.choice(alternatives)
        events.append((path, value))
        evidence[path] = value
        outcome = document.reconfig_presentation(evidence)
    return events
