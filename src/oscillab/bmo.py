"""Mean oscillation and BMO-type seminorms over finite cube families.

All averages are cell-measured (block sum over member cells divided by the
count), matching the cube conventions in `grid`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Cube, CubeFamily, Grid, GridFunction, cube_average, cube_slices


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


@dataclass(frozen=True)
class OscillationReport:
    """sup of mean oscillation over a family, with the achieving cube."""

    value: float
    argmax: Cube
    per_cube: tuple[float, ...]
    provenance: str


def bmo_seminorm(f: GridFunction, family: CubeFamily) -> OscillationReport:
    """sup over the family of the mean oscillation; exact for the finite family."""
    vals = family.index(f.grid).reduce(f.values, _oscillations).tolist()
    best = int(np.argmax(vals))
    return OscillationReport(float(vals[best]), family.cubes[best], tuple(vals), family.provenance)


def symbol_library(name: str, grid: Grid) -> GridFunction:
    """Named symbols: log_abs, abs, sgn_log, constant:c.

    log_abs = log|x| and sgn_log = sgn(x_1) log|x| blow up at the origin;
    they are only defined on grids whose cell centers avoid it (any even-m
    grid whose box is symmetric about 0 qualifies).
    """
    meshes = grid.meshes()
    r = np.sqrt(sum(m * m for m in meshes))
    if name == "abs":
        return GridFunction(grid, r)
    if name.startswith("constant:"):
        c = float(name.split(":", 1)[1])
        return GridFunction(grid, np.full(grid.shape, c))
    if name in ("log_abs", "sgn_log"):
        if np.any(r == 0.0):
            raise ValueError(f"symbol {name!r} undefined: a cell center sits at the origin")
        vals = np.log(r)
        if name == "sgn_log":
            vals = np.sign(meshes[0]) * vals
        return GridFunction(grid, vals)
    raise ValueError(f"unknown symbol {name!r}")
