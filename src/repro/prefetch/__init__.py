"""Preference-based pre-fetching (paper §4.4, second option; ref. [12]).

"We download components most likely to be requested by the user, using
the user's buffer as a cache. Thus, the model for CP-net based multimedia
systems is extended by a preference-based optimized pre-fetching of the
document components."

:mod:`repro.prefetch.predictor` ranks presentation payloads by how likely
the viewer is to request them next, straight off the CP-net. The study
that prefetches them into a live client's buffer is
:func:`repro.workloads.run_prefetch_session`.
"""

from repro.prefetch.predictor import CPNetPredictor, PrefetchCandidate

__all__ = ["CPNetPredictor", "PrefetchCandidate"]
