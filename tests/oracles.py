"""Single-cube scalar oracles that the family-wide library functions are
checked against. Each reads one cube's slice of the grid directly, with no
CubeFamily indexing, so a test that compares the two checks the one-pass
family arithmetic against an independent computation."""

import numpy as np

from oscillab import Cube, Grid, GridFunction, Variable, conjugate_exponent, cube_average, cube_slices
from oscillab.grid import cube_index_ranges


def cube_cell_count(grid: Grid, cube: Cube) -> int:
    return int(np.prod([k1 - k0 + 1 for k0, k1 in cube_index_ranges(grid, cube)]))


def mean_oscillation(f: GridFunction, cube: Cube) -> float:
    """Average of |f - f_Q| over Q, with f_Q the cell average on Q."""
    block = f.values[cube_slices(f.grid, cube)]
    return float(np.sum(np.abs(block - np.sum(block) / block.size)) / block.size)


def mean_oscillation_shifted(f: GridFunction, cube: Cube, reference: Cube) -> float:
    """Average over Q of |f - f_R| for a reference cube R.

    Dominates mean_oscillation(f, cube) but never by more than
    2 |f_Q - f_R| plus the plain oscillation.
    """
    block = f.values[cube_slices(f.grid, cube)]
    return float(np.sum(np.abs(block - cube_average(f, reference))) / block.size)


def ap_cube(w: GridFunction, p: float, cube: Cube) -> float:
    """A_p quantity of a single cube."""
    pp = conjugate_exponent(p)
    block = w.values[cube_slices(w.grid, cube)]
    fa_w = float(np.sum(block) / block.size)
    fa_dual = float(np.sum(block ** (1.0 - pp)) / block.size)
    return fa_w * fa_dual ** (p - 1.0)


def harmonic_mean_over(space: Variable, cube: Cube) -> float:
    """p_Q with 1/p_Q = cell average over Q of 1/p, p the space's exponent."""
    block = space.exponent.values[cube_slices(space.grid, cube)]
    return 1.0 / float(np.mean(1.0 / block))
