"""Interactive image operations (paper Section 3, image module).

"The main operations they can perform are: zooming of a selected part of
image; deleting of text elements and line elements; adding segmentation
grid ...". Annotations are kept as *elements* over an immutable base
image, so deleting an element is exact (re-render without it), exactly
like the prototype's vector overlay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import MediaError
from repro.media.image.image import WHITE, Image

#: 5x7 bitmap font subset: enough to burn legible annotation markers.
_GLYPH_HEIGHT = 7
_GLYPH_WIDTH = 5


@dataclass(frozen=True)
class TextElement:
    """A text annotation anchored at (row, col); ids count per image."""

    element_id: int
    text: str
    row: int
    col: int


@dataclass(frozen=True)
class LineElement:
    """A straight line annotation between two points; ids count per image."""

    element_id: int
    row0: int
    col0: int
    row1: int
    col1: int


class AnnotatedImage:
    """A base image plus deletable annotation elements, burnt in :data:`WHITE`."""

    def __init__(self, base: Image) -> None:
        self.base = base
        self._elements: dict[int, TextElement | LineElement] = {}
        self._ids = itertools.count(1)

    @property
    def elements(self) -> tuple[TextElement | LineElement, ...]:
        return tuple(self._elements.values())

    def add_text(self, text: str, row: int, col: int) -> TextElement:
        """Write text on the image (visible to all partners)."""
        element = TextElement(next(self._ids), text, row, col)
        self._elements[element.element_id] = element
        return element

    def add_line(self, row0: int, col0: int, row1: int, col1: int) -> LineElement:
        element = LineElement(next(self._ids), row0, col0, row1, col1)
        self._elements[element.element_id] = element
        return element

    def delete_element(self, element_id: int) -> None:
        """The paper's "deleting of text elements and line elements"."""
        if element_id not in self._elements:
            raise MediaError(f"no annotation element {element_id}")
        del self._elements[element_id]

    def render(self) -> Image:
        """Burn every element into a copy of the base image."""
        pixels = self.base.pixels.copy()
        for element in self._elements.values():
            if isinstance(element, LineElement):
                _draw_line(pixels, element)
            else:
                _draw_text(pixels, element)
        return Image(pixels)


def _draw_line(pixels: np.ndarray, line: LineElement) -> None:
    """Bresenham rasterization, clipped to the image."""
    r0, c0, r1, c1 = line.row0, line.col0, line.row1, line.col1
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    step_r = 1 if r1 >= r0 else -1
    step_c = 1 if c1 >= c0 else -1
    error = dr - dc
    r, c = r0, c0
    height, width = pixels.shape
    while True:
        if 0 <= r < height and 0 <= c < width:
            pixels[r, c] = WHITE
        if r == r1 and c == c1:
            return
        doubled = 2 * error
        if doubled > -dc:
            error -= dc
            r += step_r
        if doubled < dr:
            error += dr
            c += step_c


def _draw_text(pixels: np.ndarray, element: TextElement) -> None:
    """Burn a simple block marker per character (legible at thumbnail scale)."""
    height, width = pixels.shape
    for index, _char in enumerate(element.text):
        top = element.row
        left = element.col + index * (_GLYPH_WIDTH + 1)
        bottom = min(top + _GLYPH_HEIGHT, height)
        right = min(left + _GLYPH_WIDTH, width)
        if top >= height or left >= width or top < 0 or left < 0:
            continue
        # Hollow box: distinguishable from a filled segmentation region.
        pixels[top:bottom, left:right][0, :] = WHITE
        pixels[top:bottom, left:right][-1, :] = WHITE
        pixels[top:bottom, left:right][:, 0] = WHITE
        pixels[top:bottom, left:right][:, -1] = WHITE


def zoom(image: Image, top: int, left: int, height: int, width: int, factor: int = 2) -> Image:
    """Zoom a selected part: crop and magnify by pixel replication.

    Replication (nearest-neighbour) matches the prototype's behaviour and
    keeps intensities exact for later measurement overlays.
    """
    if factor < 1:
        raise MediaError(f"zoom factor must be >= 1, got {factor}")
    region = image.crop(top, left, height, width)
    magnified = np.repeat(np.repeat(region.pixels, factor, axis=0), factor, axis=1)
    return Image(magnified)
