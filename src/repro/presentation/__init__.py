"""The presentation module (paper Section 4).

Binds together the document, the author CP-network, the viewers' choices
and the network conditions:

* :class:`~repro.presentation.spec.PresentationSpec` — one computed
  presentation configuration with its derived measures;
* :class:`~repro.presentation.engine.PresentationEngine` — per-document
  reasoning state: shared (room-wide) choices, per-viewer choices and
  per-viewer CP-net extensions, producing a spec per viewer;
* :mod:`repro.presentation.tuning` — the §4.4 "tuning variables"
  option: a bandwidth variable injected into the preference model, with
  automatically generated ordering templates for heavy components.
"""

from repro.presentation.engine import PresentationEngine, ViewerChoice
from repro.presentation.explain import Explanation, explain_for_viewer, explain_outcome
from repro.presentation.spec import PresentationSpec, diff_presentations
from repro.presentation.tuning import (
    BANDWIDTH_HIGH,
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
    TUNING_VARIABLE,
    install_bandwidth_tuning,
    level_for_bandwidth,
)

__all__ = [
    "BANDWIDTH_HIGH",
    "BANDWIDTH_LOW",
    "BANDWIDTH_MEDIUM",
    "Explanation",
    "PresentationEngine",
    "explain_for_viewer",
    "explain_outcome",
    "PresentationSpec",
    "TUNING_VARIABLE",
    "ViewerChoice",
    "diff_presentations",
    "install_bandwidth_tuning",
    "level_for_bandwidth",
]
