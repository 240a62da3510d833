"""Brute-force oracles that the library functions are checked against.

The single-cube scalar oracles read one cube's slice of the grid directly,
with no CubeFamily indexing, so a test that compares the two checks the
one-pass family arithmetic against an independent computation. The kernel
tensor oracle evaluates K at every coordinate difference, with no table of
lattice offsets."""

import numpy as np

from oscillab import Cube, Grid, GridFunction, KernelSpec, Variable, conjugate_exponent, cube_slices

_DEFECT_SAMPLES = 64  # random (u, s) pairs of homogeneity_defect
_DEFECT_SEED = 7


def from_callable(grid: Grid, fn) -> GridFunction:
    """fn of the grid's coordinate meshes, sampled at cell centers."""
    return GridFunction(grid, np.asarray(fn(*grid.meshes())))


def integrate(f: GridFunction) -> float | complex:
    """Box integral: sum of values times h^n (numpy pairwise summation)."""
    return np.sum(f.values) * f.grid.cell_volume


def cube_index_ranges(grid: Grid, cube: Cube) -> tuple[tuple[int, int], ...]:
    """Per-axis inclusive index range [k0, k1] of cells inside the cube."""
    return tuple((s.start, s.stop - 1) for s in cube_slices(grid, cube))


def cube_cell_count(grid: Grid, cube: Cube) -> int:
    return int(np.prod([k1 - k0 + 1 for k0, k1 in cube_index_ranges(grid, cube)]))


def cube_measure(grid: Grid, cube: Cube) -> float:
    """Cell-counted measure |Q| = (number of member cells) * h^n."""
    return cube_cell_count(grid, cube) * grid.cell_volume


def cube_average(f: GridFunction, cube: Cube):
    """Cell-measured average over Q: (sum of member values) / count."""
    block = f.values[cube_slices(f.grid, cube)]
    return np.sum(block) / block.size


def homogeneity_defect(kernel: KernelSpec) -> float:
    """max relative |K(s u) - s^(-d) K(u)| over random u, s; ~1e-15."""
    rng = np.random.default_rng(_DEFECT_SEED)
    u = rng.standard_normal((_DEFECT_SAMPLES, kernel.D))
    s = rng.uniform(0.25, 4.0, _DEFECT_SAMPLES)
    base = kernel.evaluate(u)
    scaled = kernel.evaluate(u * s[:, None])
    return float(np.max(np.abs(scaled - s ** (-kernel.degree) * base) / np.abs(base)))


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


def kernel_tensor_at_coordinates(kernel: KernelSpec, x: np.ndarray, *ys: np.ndarray) -> np.ndarray:
    """K(x - y_1, ..., x - y_k) as an (X, Y_1, ..., Y_k) tensor over cell
    coordinates x and y_i, each of shape (cells, n): K evaluated once per
    (x, y_1, ..., y_k) at coordinate differences, with no offset table."""
    shape = (x.shape[0], *(y.shape[0] for y in ys), x.shape[1])
    offsets = []
    for i, y in enumerate(ys):
        u = x[:, None, :] - y[None, :, :]  # (X, Y_i, n), spread over the other y axes
        others = tuple(j + 1 for j in range(len(ys)) if j != i)
        offsets.append(np.broadcast_to(np.expand_dims(u, others), shape))
    return kernel.evaluate(np.concatenate(offsets, axis=-1))
