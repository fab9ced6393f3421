"""Coarse-grid bookkeeping shared by the losses, matcher and data generator.
`GridSpec` alone decides which grid sizes are valid and which images fit one.

Pixel (i, j) has its centre at continuous coordinates (u, v) = (j, i); rays
are cast through integer coordinates. Coarse cell (r, c) covers the pixel
block [r*w, (r+1)*w) x [c*w, (c+1)*w) and its centre is the pixel
(r*w + w//2, c*w + w//2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDimensions, check_count


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    patch_width: int = 8

    def __post_init__(self):
        for name in ("rows", "cols", "patch_width"):
            check_count(name, getattr(self, name), 1)

    @property
    def m(self):
        return self.rows * self.cols

    def cell_centers(self):
        """(m, 2) array of (u, v) centres in row-major cell order. Built once
        per (rows, cols, patch_width) and shared, so it is read-only."""
        return _cell_centers(self.rows, self.cols, self.patch_width)

    @staticmethod
    def for_image(height, width, patch_width=8):
        if height % patch_width or width % patch_width:
            raise BadDimensions(f"image {height}x{width} not a multiple of patch width {patch_width}")
        return GridSpec(height // patch_width, width // patch_width, patch_width)


@lru_cache(maxsize=16)
def _cell_centers(rows, cols, w):
    us = np.arange(cols) * w + w // 2
    vs = np.arange(rows) * w + w // 2
    uu, vv = np.meshgrid(us, vs)
    centers = np.column_stack([uu.ravel(), vv.ravel()]).astype(float)
    centers.setflags(write=False)
    return centers
