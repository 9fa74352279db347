"""Alternative presentations of a primitive component (paper Fig. 6).

``MMPresentation`` "is an abstract class, ground specifications of which
represent different alternative presentations, such as Text, JPGImage,
SegmentedJPGImage, etc." Each presentation knows its label (the CP-net
domain value), an estimated transfer size in bytes (driving the bandwidth
reasoning of §4.4), and an optional reference to the blob holding the
actual media in the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.validation import check_identifier

#: Conventional label for the "do not show this component" alternative.
HIDDEN_LABEL = "hidden"


@dataclass(frozen=True)
class MMPresentation:
    """One way of presenting a primitive component.

    Parameters
    ----------
    label:
        The CP-net domain value naming this alternative (unique within the
        component).
    size_bytes:
        Estimated bytes that must reach the client to render this form.
    media_ref:
        Optional database reference (``"<table>:<id>"``) of the payload.
    metadata:
        Free-form renderer hints (resolution, codec layer, ...).
    """

    label: str
    size_bytes: int = 0
    media_ref: str | None = None
    metadata: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_identifier(self.label, "presentation label")
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")
        if isinstance(self.metadata, dict):
            object.__setattr__(self, "metadata", tuple(sorted(self.metadata.items())))

    @property
    def kind(self) -> str:
        """Presentation type name (the concrete class)."""
        return type(self).__name__

    @property
    def meta(self) -> dict[str, Any]:
        """Metadata as a plain dict."""
        return dict(self.metadata)

    @property
    def is_hidden(self) -> bool:
        """True for the zero-cost "component not displayed" alternative."""
        return False

    def __str__(self) -> str:
        return f"{self.kind}({self.label}, {self.size_bytes}B)"


@dataclass(frozen=True)
class Text(MMPresentation):
    """Plain or formatted text content (reports, test results)."""


@dataclass(frozen=True)
class JPGImage(MMPresentation):
    """A raster image at a given resolution level.

    ``resolution`` indexes the multi-layer codec's progressive layers:
    0 is the coarse main approximation, higher adds residual layers.
    """

    resolution: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resolution < 0:
            raise ValueError(f"resolution must be >= 0, got {self.resolution}")


@dataclass(frozen=True)
class SegmentedJPGImage(JPGImage):
    """An image shown with its segmentation grid overlaid."""


@dataclass(frozen=True)
class Icon(MMPresentation):
    """A thumbnail stand-in ("presented as a small icon", paper §4)."""


@dataclass(frozen=True)
class AudioFragment(MMPresentation):
    """A playable voice/audio fragment.

    ``duration_s`` is the playing time; transfer size is still
    ``size_bytes``.
    """

    duration_s: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")


@dataclass(frozen=True)
class Hidden(MMPresentation):
    """The component is not displayed at all (costs nothing to transfer)."""

    label: str = field(default=HIDDEN_LABEL, init=False)
    size_bytes: int = field(default=0, init=False)

    @property
    def is_hidden(self) -> bool:
        return True
