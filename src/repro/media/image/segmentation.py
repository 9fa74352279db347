"""Image segmentation support.

Two facilities from the paper's image module:

* the interactive *segmentation grid* — "adding segmentation grid with
  possibility to fill different segments of the segmentation with
  different colors or patterns";
* automatic region labelling (the "segmentation of the image" method a
  stored object may carry), implemented as threshold quantization
  followed by connected-component labelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MediaError
from repro.media.image.image import WHITE, Image

#: :func:`label_regions` quantizes intensities into this many bands, and
#: folds regions smaller than :data:`MIN_REGION` pixels into label 0.
LEVELS = 5
MIN_REGION = 16


@dataclass(frozen=True)
class SegmentationGrid:
    """A rows x cols grid over an image."""

    rows: int
    cols: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise MediaError(f"grid needs >= 1 rows and cols, got {self.rows}x{self.cols}")
        if self.rows > self.height or self.cols > self.width:
            raise MediaError(
                f"grid {self.rows}x{self.cols} finer than image {self.height}x{self.width}"
            )

    def cell_bounds(self, row: int, col: int) -> tuple[int, int, int, int]:
        """(top, left, bottom, right) pixel bounds of one cell (half-open)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise MediaError(f"cell ({row},{col}) outside grid {self.rows}x{self.cols}")
        top = row * self.height // self.rows
        bottom = (row + 1) * self.height // self.rows
        left = col * self.width // self.cols
        right = (col + 1) * self.width // self.cols
        return top, left, bottom, right


def overlay_grid(image: Image, rows: int, cols: int) -> tuple[Image, SegmentationGrid]:
    """Draw the grid lines onto a copy of the image; returns (image, grid)."""
    grid = SegmentationGrid(rows=rows, cols=cols, height=image.height, width=image.width)
    pixels = image.pixels.copy()
    for row in range(1, rows):
        pixels[row * image.height // rows, :] = WHITE
    for col in range(1, cols):
        pixels[:, col * image.width // cols] = WHITE
    return Image(pixels), grid


def fill_segment(
    image: Image,
    grid: SegmentationGrid,
    row: int,
    col: int,
    value: float | None = None,
    pattern: str = "solid",
) -> Image:
    """Fill one grid cell with a colour or pattern (returns a new image)."""
    if (grid.height, grid.width) != image.shape:
        raise MediaError("grid does not match this image")
    top, left, bottom, right = grid.cell_bounds(row, col)
    pixels = image.pixels.copy()
    fill = WHITE if value is None else float(value)
    cell = pixels[top:bottom, left:right]
    if pattern == "solid":
        cell[:, :] = fill
    elif pattern == "hatch":
        ys, xs = np.mgrid[0 : cell.shape[0], 0 : cell.shape[1]]
        cell[(ys + xs) % 4 == 0] = fill
    elif pattern == "checker":
        ys, xs = np.mgrid[0 : cell.shape[0], 0 : cell.shape[1]]
        cell[((ys // 4) + (xs // 4)) % 2 == 0] = fill
    else:
        raise MediaError(f"unknown fill pattern {pattern!r}; know solid/hatch/checker")
    return Image(pixels)


def label_regions(image: Image) -> np.ndarray:
    """Automatic segmentation: quantize intensities into :data:`LEVELS`
    bands, then label connected components (4-connectivity). Regions below
    :data:`MIN_REGION` pixels merge into label 0 (background/noise).
    Returns an int label map.
    """
    quantized = np.minimum((image.pixels / (256.0 / LEVELS)).astype(np.int32), LEVELS - 1)
    labels = np.zeros(image.shape, dtype=np.int32)
    visited = np.zeros(image.shape, dtype=bool)
    next_label = 1
    height, width = image.shape
    for start_row in range(height):
        for start_col in range(width):
            if visited[start_row, start_col]:
                continue
            level = quantized[start_row, start_col]
            # Iterative flood fill (recursion would blow the stack).
            stack = [(start_row, start_col)]
            member: list[tuple[int, int]] = []
            visited[start_row, start_col] = True
            while stack:
                r, c = stack.pop()
                member.append((r, c))
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < height and 0 <= nc < width:
                        if not visited[nr, nc] and quantized[nr, nc] == level:
                            visited[nr, nc] = True
                            stack.append((nr, nc))
            if len(member) >= MIN_REGION:
                label = next_label
                next_label += 1
                for r, c in member:
                    labels[r, c] = label
    return labels
