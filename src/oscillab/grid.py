"""Uniform cell-centered grids, cubes, and cube families.

A Grid covers an axis-aligned box in R^n (n = 1 or 2) with m cells per axis,
all axes sharing the spacing h. Samples live at cell centers a + (k + 1/2)h.
Cubes are axis-aligned with half-open membership: a cell belongs to
Q(x0, r) iff x0 - r/2 <= c < x0 + r/2 holds per axis for its center c.
Integrals are cell sums times h^n, so |Q| means count * h^n throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Iterator

import numpy as np

from .errors import EmptyCube, GridMismatch, OutOfDomain, ResolutionTooCoarse, UncoveredPoint

# Absolute snap tolerance on the cell-index scale. Cell centers that land on
# a cube face within this tolerance are resolved by the half-open rule
# (included at the lower face, excluded at the upper) so dyadic children
# partition their parent's cells exactly even when m is not a power of two.
_SNAP = 1e-9
# Relative slack of Cube.contains_cube on each face, in units of max(1, side).
_CONTAIN_SLACK = 1e-12


def _as_tuple(x) -> tuple[float, ...]:
    if np.isscalar(x):
        return (float(x),)
    return tuple(float(v) for v in x)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a box with equal per-axis width and m cells per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_tuple(self.lo))
        object.__setattr__(self, "hi", _as_tuple(self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if not 1 <= len(self.lo) <= 2:
            raise ValueError(f"dimension must be 1 or 2, got {len(self.lo)}")
        if self.m < 4:
            raise ValueError(f"need m >= 4 cells per axis, got {self.m}")
        widths = [b - a for a, b in zip(self.lo, self.hi)]
        if min(widths) <= 0:
            raise ValueError(f"degenerate box: {self.lo}..{self.hi}")
        w0 = widths[0]
        if any(abs(w - w0) > 1e-12 * abs(w0) for w in widths):
            raise ValueError(f"box must be square (equal widths), got {widths}")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def h(self) -> float:
        return (self.hi[0] - self.lo[0]) / self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    def axis_centers(self, axis: int) -> np.ndarray:
        return self.lo[axis] + (np.arange(self.m) + 0.5) * self.h

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape `self.shape`, one per axis."""
        axes = [self.axis_centers(i) for i in range(self.n)]
        if self.n == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def box_cube(self) -> "Cube":
        c = tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))
        return Cube(c, self.hi[0] - self.lo[0])


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube Q(center, side) with half-open cell membership."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "side", float(self.side))
        if self.side <= 0:
            raise ValueError(f"cube side must be positive, got {self.side}")

    @property
    def n(self) -> int:
        return len(self.center)

    def lo_faces(self) -> tuple[float, ...]:
        return tuple(c - self.side / 2 for c in self.center)

    def hi_faces(self) -> tuple[float, ...]:
        return tuple(c + self.side / 2 for c in self.center)

    def dilate(self, factor: float) -> "Cube":
        return Cube(self.center, self.side * factor)

    def translate(self, shift: Sequence[float]) -> "Cube":
        s = _as_tuple(shift)
        return Cube(tuple(c + d for c, d in zip(self.center, s)), self.side)

    def contains_cube(self, other: "Cube") -> bool:
        pad = _CONTAIN_SLACK * max(1.0, self.side)
        return all(
            ol >= sl - pad and oh <= sh + pad
            for ol, sl, oh, sh in zip(
                other.lo_faces(), self.lo_faces(), other.hi_faces(), self.hi_faces()
            )
        )

    def disjoint_from(self, other: "Cube") -> bool:
        """True when the open interiors do not meet (touching faces count)."""
        return any(
            oh <= sl + 1e-15 or ol >= sh - 1e-15
            for ol, oh, sl, sh in zip(
                other.lo_faces(), other.hi_faces(), self.lo_faces(), self.hi_faces()
            )
        )

    def __str__(self):
        c = ",".join(f"{v:.6g}" for v in self.center)
        return f"Q({c};{self.side:.6g})"


def _index_ranges(grid: Grid, centers: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Inclusive cell index ranges [k0, k1] of the cubes Q(centers[i], sides[i]),
    centers (cubes, n) and sides (cubes,), as a (cubes, n, 2) array.

    A face at t = (face - lo) / h - 1/2 on the cell-index scale snaps to the
    nearest integer within _SNAP (np.rint rounds half to even, as Python's
    round does), else rounds up. The first cube that leaves the box or holds
    no cell center raises OutOfDomain or EmptyCube, axis by axis, box first.
    """
    if centers.shape[1] != grid.n:
        raise GridMismatch(f"cube dim {centers.shape[1]} on grid dim {grid.n}")
    h, pad = grid.h, _SNAP * grid.h
    box = np.array([grid.lo, grid.hi]).T  # (n, [lo, hi])
    # faces (cubes, n, [lo, hi]) = c -/+ side / 2, since side * 0.5 is side / 2
    faces = centers[:, :, None] + sides[:, None, None] * (-0.5, 0.5)
    t = (faces - box[:, :1]) / h - 0.5
    r = np.rint(t)
    # [k0, k1]: the snapped first cell at or above each face, less one on the upper; then the clamps
    with np.errstate(invalid="ignore"):  # inf - inf on infinite faces, which leave the box
        k = np.where(np.abs(t - r) <= _SNAP, r, np.ceil(t)) - (0, 1)
    k = np.minimum(np.maximum(k, (0, -np.inf)), (np.inf, grid.m - 1))
    inside = (faces[..., 0] >= box[:, 0] - pad) & (faces[..., 1] <= box[:, 1] + pad)
    # the first (cube, axis) that leaves the box or holds no cell raises; NaN faces leave it
    bad = ~inside | (k[..., 1] < k[..., 0])
    if bad.any():
        i, ax = np.unravel_index(np.argmax(bad), bad.shape)
        cube = Cube(centers[i], sides[i])
        if inside[i, ax]:
            raise EmptyCube(f"{cube} holds no cell center (h = {h:.6g})")
        raise OutOfDomain(f"{cube} exceeds box [{grid.lo[ax]:.6g}, {grid.hi[ax]:.6g}] on axis {ax}")
    return k.astype(np.intp)


def cube_index_ranges(grid: Grid, cube: Cube) -> tuple[tuple[int, int], ...]:
    """Per-axis inclusive index range [k0, k1] of cells inside the cube.

    Raises OutOfDomain when the cube leaves the grid box and EmptyCube when
    no cell center falls inside.
    """
    k = _index_ranges(grid, np.array([cube.center]), np.array([cube.side]))
    return tuple((k0, k1) for k0, k1 in k[0].tolist())


def cube_slices(grid: Grid, cube: Cube) -> tuple[slice, ...]:
    return tuple(slice(k0, k1 + 1) for k0, k1 in cube_index_ranges(grid, cube))


def cube_measure(grid: Grid, cube: Cube) -> float:
    """Cell-counted measure |Q| = (number of member cells) * h^n."""
    return int(np.prod([k1 - k0 + 1 for k0, k1 in cube_index_ranges(grid, cube)])) * grid.cell_volume


class GridFunction:
    """Samples at cell centers, read as zero outside the box.

    values has shape grid.shape (row-major), real or complex, all finite.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values)
        if arr.shape != grid.shape:
            raise GridMismatch(f"values shape {arr.shape} != grid shape {grid.shape}")
        if arr.dtype.kind != "c":
            arr = arr.astype(np.float64, copy=False)
        if not np.isfinite(arr).all():
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = arr

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        return cls(grid, np.asarray(fn(*grid.meshes())))

    def _coerce(self, other):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise GridMismatch("grid functions live on different grids")
            return other.values
        return other

    def __add__(self, other):
        return GridFunction(self.grid, self.values + self._coerce(other))

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - self._coerce(other))

    def __mul__(self, other):
        return GridFunction(self.grid, self.values * self._coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return GridFunction(self.grid, self.values / self._coerce(other))


def integrate(f: GridFunction) -> float | complex:
    """Box integral: sum of values times h^n (numpy pairwise summation)."""
    return np.sum(f.values) * f.grid.cell_volume


def cube_average(f: GridFunction, cube: Cube):
    """Cell-measured average over Q: (sum of member values) / count."""
    block = f.values[cube_slices(f.grid, cube)]
    return np.sum(block) / block.size


def indicator(grid: Grid, cube: Cube) -> GridFunction:
    vals = np.zeros(grid.shape)
    vals[cube_slices(grid, cube)] = 1.0
    return GridFunction(grid, vals)


@dataclass(eq=False)
class CubeArray(Sequence):
    """The cubes Q(centers[i], sides[i]) as arrays, centers (cubes, n) and
    sides (cubes,): a sequence of Cube that builds each one when it is read."""

    centers: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.sides)

    def __getitem__(self, i: int) -> Cube:
        return Cube(self.centers[i], self.sides[i])


def _cube_array(grid: Grid, cubes: tuple[Cube, ...]) -> CubeArray:
    """The cubes as arrays; the first of another dimension than the grid's
    raises GridMismatch, unless a cube before it raises first."""
    ok = next((i for i, q in enumerate(cubes) if q.n != grid.n), len(cubes))
    arr = CubeArray(
        np.reshape([q.center for q in cubes[:ok]], (ok, grid.n)), np.array([q.side for q in cubes[:ok]])
    )
    if ok < len(cubes):
        _index_ranges(grid, arr.centers, arr.sides)
        raise GridMismatch(f"cube dim {cubes[ok].n} on grid dim {grid.n}")
    return arr


class CubeFamily:
    """A finite cube collection on one grid, with provenance and optional
    level tags, and its cells indexed for one-pass reductions.

    The cubes are held as arrays (a CubeArray, which builds a Cube only when
    one is read; an explicit cube list is converted), their cell index
    ranges computed in one array pass at construction, and they are grouped
    by block shape. Each group of equal-shaped cubes is gathered from the
    grid as one (cubes, cells) array, cells in row-major order, at most one
    grid's worth of cells at a time. A row reduction is bit-identical to the
    same reduction over the cube's slice only when numpy reduces the slice
    in one pass too: the slice is contiguous in the grid, or numpy copies it
    into a single buffer of np.getbufsize() cells. `reduce` takes every
    other cube through its own slice. Prefix sums are not used: on steep
    weights they differ from np.sum in the sixth digit.
    """

    def __init__(
        self,
        grid: Grid,
        cubes: Sequence[Cube],
        provenance: str = "explicit",
        levels: Sequence[int] | None = None,
    ):
        self.grid = grid
        self.cubes = cubes if isinstance(cubes, CubeArray) else _cube_array(grid, tuple(cubes))
        self.provenance = provenance
        self.levels = None if levels is None else tuple(int(v) for v in levels)
        if self.levels is not None and len(self.levels) != len(self.cubes):
            raise ValueError("levels must tag every cube")
        if not len(self.cubes):
            raise ValueError("cube family is empty")
        # inclusive cell index range [k0, k1] per cube and axis: (cubes, n, 2);
        # raises for a cube that is empty or leaves the box
        self.ranges = _index_ranges(grid, self.cubes.centers, self.cubes.sides)
        lo = self.ranges[:, :, 0]
        shapes = self.ranges[:, :, 1] - lo + 1
        self.counts = np.prod(shapes, axis=1)
        # cube_measure's arithmetic: member cells times h^n
        self.measures = (self.counts * grid.cell_volume).tolist()
        # a row-major key per block shape, in np.unique(shapes, axis=0) order; a set, as 1-D np.unique imports numpy.ma
        keys = np.ravel_multi_index(tuple(shapes.T - 1), grid.shape)
        # (block shape, member cube indices, their lowest cells (cubes, n))
        self.groups: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
        for key in sorted(set(keys.tolist())):
            shape = tuple(int(v) + 1 for v in np.unravel_index(key, grid.shape))
            members = np.flatnonzero(keys == key)
            per_chunk = max(1, grid.m**grid.n // math.prod(shape))
            for start in range(0, len(members), per_chunk):
                chunk = members[start : start + per_chunk]
                self.groups.append((shape, chunk, lo[chunk]))

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def check_grid(self, grid: Grid):
        """Raise GridMismatch unless `grid` is the grid the family was built on."""
        if grid != self.grid:
            raise GridMismatch(f"{self.provenance} family was built on {self.grid}, not on {grid}")

    def _cells(self, shape: tuple[int, ...], lo: np.ndarray) -> np.ndarray:
        """Row-major flat grid indices of the cells of cubes with lowest
        cells lo (cubes, n) and the given block shape, one row per cube."""
        flat = np.zeros((len(lo),) + (1,) * len(shape), dtype=np.intp)
        for ax, size in enumerate(shape):
            axis_shape = [1] * len(shape)
            axis_shape[ax] = size
            start = lo[:, ax].reshape((-1,) + (1,) * len(shape))
            flat = flat * self.grid.m + start + np.arange(size).reshape(axis_shape)
        return flat.reshape(len(lo), -1)

    def slices(self, i: int) -> tuple[slice, ...]:
        """The cell slices of cube i, as `cube_slices` gives them."""
        return tuple(slice(k0, k1 + 1) for k0, k1 in self.ranges[i].tolist())

    def gather(self, values: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(members, rows) per group chunk: row j holds the cells of cube
        members[j] in row-major order, as `values[slices].reshape(-1)` would."""
        flat = values.reshape(-1)
        for shape, members, lo in self.groups:
            yield members, flat[self._cells(shape, lo)]

    def reduce(self, values: np.ndarray, fn: Callable) -> np.ndarray:
        """fn(blocks, axes) for every cube, in family order.

        blocks stacks cubes along axis 0 and fn reduces it over `axes`, the
        other axes. A group whose numpy sums match the cube's slice bit for
        bit arrives as gathered (cubes, cells) rows, any other cube alone as
        a (1, *shape) view of its slice, so the results equal fn applied to
        each cube's slice.
        """
        n, m = self.grid.n, self.grid.m
        one_pass = values.flags.c_contiguous
        parts = []
        for shape, members, lo in self.groups:
            if one_pass and (math.prod(shape) <= np.getbufsize() or shape[1:] == (m,) * (n - 1)):
                parts.append((members, fn(values.reshape(-1)[self._cells(shape, lo)], (1,))))
                continue
            for i in members:
                block = values[self.slices(int(i))][None]
                parts.append(([i], fn(block, tuple(range(1, n + 1)))))
        out = np.empty(len(self), dtype=np.result_type(*(r for _, r in parts)))
        for members, r in parts:
            out[members] = r
        return out

    def sums(self, values: np.ndarray) -> np.ndarray:
        """np.sum(values[cube slice]) for every cube, bit for bit."""
        return self.reduce(values, lambda blocks, axes: blocks.sum(axis=axes))

    def means(self, values: np.ndarray) -> np.ndarray:
        """Cell averages (block sum / count), as cube_average computes them."""
        return self.sums(values) / self.counts

    def scatter_max(self, per_cube: Sequence[float]) -> np.ndarray:
        """At each cell, the max of per_cube over the cubes containing it.
        Raises UncoveredPoint when some cell lies in no cube."""
        out = np.zeros(self.grid.m**self.grid.n)
        covered = np.zeros(out.shape, dtype=bool)
        vals = np.asarray(per_cube, dtype=float)
        for shape, members, lo in self.groups:
            cells = self._cells(shape, lo)
            np.maximum.at(out, cells, vals[members][:, None])
            covered[cells] = True
        if not covered.all():
            raise UncoveredPoint(f"{(~covered).sum()} cells lie in no family cube")
        return out.reshape(self.grid.shape)


@dataclass(frozen=True)
class FamilySup:
    """The max of a per-cube quantity over a finite family, with the cube
    that attains it (the first one on ties)."""

    value: float
    argmax: Cube
    per_cube: tuple[float, ...]

    @classmethod
    def of(cls, family: CubeFamily, per_cube: Sequence[float]) -> "FamilySup":
        """per_cube holds one value per family cube, in family order."""
        arg = int(np.argmax(per_cube))
        return cls(float(per_cube[arg]), family.cubes[arg], tuple(per_cube))


VERDICTS = ("stable", "growing", "undetermined")


def trend_verdict(values: Sequence[float]) -> str:
    """Read per-level family maxima, in level order, as one of VERDICTS.

    "stable" when every value is zero, when max/min - 1 <= 10%, or when the
    last step rises less than 5%; "growing" when strictly increasing with a
    total rise above 25%; "undetermined" otherwise. Fewer than two levels,
    or a value <= 0 among nonzero ones, read "undetermined" first.
    """
    if len(values) < 2:
        return "undetermined"
    if not any(values):
        return "stable"  # no oscillation at any level
    if min(values) <= 0:
        return "undetermined"
    if max(values) / min(values) - 1.0 <= 0.10 or values[-1] / values[-2] - 1.0 < 0.05:
        return "stable"
    if all(b > a for a, b in zip(values, values[1:])) and values[-1] / values[0] - 1.0 > 0.25:
        return "growing"
    return "undetermined"


def enumerate_dyadic(
    grid: Grid, level_min: int, level_max: int, base: Cube | None = None
) -> CubeFamily:
    """Dyadic generations level_min..level_max of the base cube (default: box).

    Generation l splits the base into 2^l congruent cubes per axis, x outer
    and y inner, with centers computed as arrays; the family builds a Cube
    only when one is read. Every cube is checked nonempty;
    ResolutionTooCoarse fires when the finest generation has side below h.
    """
    if not 0 <= level_min <= level_max:
        raise ValueError(f"need 0 <= level_min <= level_max, got {level_min}..{level_max}")
    if base is None:
        base = grid.box_cube()
    if base.n != grid.n:
        raise GridMismatch(f"base cube dim {base.n} on grid dim {grid.n}")
    finest = base.side / 2**level_max
    if finest < grid.h * (1 - 1e-12):
        raise ResolutionTooCoarse(
            f"generation {level_max} cubes have side {finest:.6g} < h = {grid.h:.6g}"
        )
    centers: list[np.ndarray] = []
    levels: list[int] = []
    base_lo = base.lo_faces()
    for lvl in range(level_min, level_max + 1):
        side = base.side / 2**lvl
        per_axis = [base_lo[ax] + (np.arange(2**lvl) + 0.5) * side for ax in range(grid.n)]
        # x outer, y inner: the ij mesh in row-major order
        centers.append(np.stack(np.meshgrid(*per_axis, indexing="ij"), axis=-1).reshape(-1, grid.n))
        levels.extend([lvl] * len(centers[-1]))
    cubes = CubeArray(np.concatenate(centers), base.side / 2.0 ** np.array(levels))
    tag = f"dyadic[{level_min}..{level_max}] of {base}"
    return CubeFamily(grid, cubes, tag, levels)


def centered_family(
    grid: Grid,
    center: Sequence[float] | float,
    base_side: float,
    level_min: int,
    level_max: int,
) -> CubeFamily:
    """Shrinking cubes Q(center, base_side / 2^l) for l = level_min..level_max.

    Dyadic cubes never center on a fixed point, so symbol singularities are
    probed with this family instead.
    """
    if not 0 <= level_min <= level_max:
        raise ValueError(f"need 0 <= level_min <= level_max, got {level_min}..{level_max}")
    c = _as_tuple(center)
    levels = range(level_min, level_max + 1)
    Cube(c, base_side / 2**level_min)  # refuses a side that is not positive
    cubes = CubeArray(np.tile(c, (len(levels), 1)), base_side / 2.0 ** np.array(levels))
    tag = f"centered[{level_min}..{level_max}] at ({','.join(f'{v:.6g}' for v in c)})"
    return CubeFamily(grid, cubes, tag, levels)
