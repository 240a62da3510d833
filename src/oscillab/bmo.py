"""Mean oscillation and BMO-type seminorms over finite cube families.

All averages are cell-measured (block sum over member cells divided by the
count), matching the cube conventions in `grid`.
"""

from __future__ import annotations

import numpy as np

from .fixtures import make_symbol as symbol_library  # the named symbols live in the fixture table
from .grid import Cube, CubeFamily, FamilySup, GridFunction, cube_average, cube_slices


def _oscillations(blocks: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Average of |f - f_Q| over each block stacked along axis 0."""
    size = blocks[0].size
    fq = blocks.sum(axis=axes, keepdims=True) / size
    return np.abs(blocks - fq).sum(axis=axes) / size


def mean_oscillation(f: GridFunction, cube: Cube) -> float:
    """Average of |f - f_Q| over Q, with f_Q the cell average on Q."""
    block = f.values[cube_slices(f.grid, cube)]
    return float(_oscillations(block[None], tuple(range(1, block.ndim + 1)))[0])


def mean_oscillation_shifted(f: GridFunction, cube: Cube, reference: Cube) -> float:
    """Average over Q of |f - f_R| for a reference cube R.

    Dominates mean_oscillation(f, cube) but never by more than
    2 |f_Q - f_R| plus the plain oscillation; useful when the constant is
    pinned elsewhere, as in the commutator lower-bound chain.
    """
    block = f.values[cube_slices(f.grid, cube)]
    fr = cube_average(f, reference)
    return float(np.sum(np.abs(block - fr)) / block.size)


def bmo_seminorm(f: GridFunction, family: CubeFamily) -> FamilySup:
    """sup over the family of the mean oscillation; exact for the finite family."""
    family.check_grid(f.grid)
    return FamilySup.of(family, family.reduce(f.values, _oscillations).tolist())
