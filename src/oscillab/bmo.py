"""Mean oscillation and BMO-type seminorms over finite cube families.

All averages are cell-measured (block sum over member cells divided by the
count), matching the cube conventions in `grid`.
"""

from __future__ import annotations

import numpy as np

from .grid import CubeFamily, FamilySup, GridFunction, common_grid


def _oscillations(blocks: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Average of |f - f_Q| over each block stacked along axis 0."""
    size = blocks[0].size
    fq = blocks.sum(axis=axes, keepdims=True) / size
    return np.abs(blocks - fq).sum(axis=axes) / size


def bmo_seminorm(f: GridFunction, family: CubeFamily) -> FamilySup:
    """sup over the family of the mean oscillation; exact for the finite family."""
    common_grid(f, family)
    return FamilySup.of(family, family.reduce(f.values, _oscillations).tolist())
