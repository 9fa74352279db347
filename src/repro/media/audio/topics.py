"""Subject detection for the audio browser.

"... and answer questions such as: ... What is the subject of the talk?"
(paper §3). With the keyword list a priori known (the word-spotting
premise), the subject falls out of *which* keywords fire and how
strongly: each keyword votes for the clinical topics it signals, votes
are weighted by the spotting margins, and the ranked topics summarize
the conversation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

#: Keyword -> the topics it signals (positive weights express specificity).
TOPIC_MAP: dict[str, dict[str, float]] = {
    "lesion": {"imaging-findings": 1.0},
    "normal": {"imaging-findings": 0.6, "routine-review": 0.8},
    "biopsy": {"intervention-planning": 1.0},
    "urgent": {"triage": 1.0, "intervention-planning": 0.4},
}

UNKNOWN_SUBJECT = "unknown"


@dataclass(frozen=True)
class TopicScore:
    """One ranked subject."""

    topic: str
    score: float
    supporting_keywords: tuple[str, ...]


def rank_subjects(spotted: list) -> list[TopicScore]:
    """Rank conversation subjects from spotting results.

    *spotted* is any list of objects with ``keyword`` and ``score_margin``
    attributes — per-segment :class:`SpotResult` pairs' second elements,
    or :class:`StreamFlag` instances. Keywords absent from the topic map
    are ignored (they flag vocabulary, not subject).
    """
    scores: dict[str, float] = defaultdict(float)
    support: dict[str, set[str]] = defaultdict(set)
    for item in spotted:
        keyword = getattr(item, "keyword", None)
        if keyword is None:
            continue
        margin = max(float(getattr(item, "score_margin", 0.0)), 0.0)
        for topic, weight in TOPIC_MAP.get(keyword, {}).items():
            scores[topic] += weight * (1.0 + margin)
            support[topic].add(keyword)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        TopicScore(
            topic=topic,
            score=score,
            supporting_keywords=tuple(sorted(support[topic])),
        )
        for topic, score in ranked
    ]


def subject_of(spotted: list) -> str:
    """The single best subject, or :data:`UNKNOWN_SUBJECT`."""
    ranked = rank_subjects(spotted)
    return ranked[0].topic if ranked else UNKNOWN_SUBJECT
