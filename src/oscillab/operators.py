"""Discrete maximal, fractional, and singular operators with commutators.

Conventions. A kernel of k = 1 or 2 inputs on R^n is homogeneous on R^(kn),
K(u) = Omega(u/|u|) / |u|^d with d = kn - alpha; alpha = 0 is the singular
case and needs a mean-zero Omega. Quadrature treats grid functions as zero
outside the box.

T acts on f chi_box: every path sums the kernel over all in-box offsets,
with no window and no mask. The discrete operator is thus the compression to
the box of a convolution on the whole lattice, and no probe ratio exceeds
that convolution's norm (for `hilbert` its symbol is bounded by pi, the norm
of the continuum operator). The singular path (alpha = 0) omits the self
cell, where the principal value of a mean-zero kernel vanishes. The
fractional path (alpha > 0) adds the integral of K over the self cell:
closed form on 1D lines, refined midpoint sub-quadrature in higher ambient
dimension.

The linear quadrature takes its inputs as columns of one stacked array, so
`OperatorHandle.each(fs)` applies a one-input kernel to many inputs in one
pass, bit for bit as one call per input. `operator_norm_estimate(probes,
outputs, in_spaces, out_space)` takes the outputs already computed, so a
caller applies T once per distinct input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DivisionByZeroNorm,
    GridMismatch,
    MeanZeroViolation,
)
from .grid import Cube, CubeFamily, Grid, GridFunction, cube_measure, cube_slices
from .spaces import SpaceSpec, _alpha_check, norm

_MAX_TENSOR = 4_000_000  # cap on kernel-tensor entries per evaluation chunk
_SPHERE_COUNT = 2048  # sphere samples for the mean-zero check
_SPHERE_SEED = 20240811
_DEFECT_SAMPLES = 64  # random (u, s) pairs of homogeneity_defect
_DEFECT_SEED = 7


# ---- Kernels ----


def _sphere_points(D: int, count: int, seed: int) -> np.ndarray:
    """Points on the unit sphere of R^D: the two points of S^0, count
    equally spaced angles on S^1, and otherwise count // 2 seeded Gaussian
    directions with their negatives, so odd parts cancel exactly."""
    if D == 1:
        return np.array([[1.0], [-1.0]])
    if D == 2:
        t = (np.arange(count) + 0.5) * (2 * np.pi / count)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count // 2, D))
    g = np.concatenate([g, -g], axis=0)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass(frozen=True)
class KernelSpec:
    """Homogeneous kernel Omega(u/|u|) / |u|^d of k inputs on R^n, a kernel
    on R^D with D = k n and k = 1 or 2."""

    inputs: int  # k
    ndim: int  # base dimension n
    alpha: float
    omega: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    tag: str = ""  # "distance" marks the |u|+|v| bilinear profile

    def __post_init__(self):
        if self.inputs not in (1, 2):
            raise ValueError(f"a kernel takes 1 or 2 inputs, got {self.inputs}")
        _alpha_check(self.alpha, self.D)
        pts = _sphere_points(self.D, _SPHERE_COUNT, _SPHERE_SEED)
        vals = np.asarray(self.omega(pts), dtype=float)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if self.alpha == 0.0 and abs(float(np.mean(vals))) > 1e-6 * scale:
            raise MeanZeroViolation(
                f"kernel {self.name or '<anon>'}: sphere mean "
                f"{float(np.mean(vals)):.3e} is not zero"
            )

    @property
    def D(self) -> int:
        return self.inputs * self.ndim

    @property
    def degree(self) -> float:
        return self.D - self.alpha

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """K at offset vectors u of shape (..., D); K(0) reads as 0."""
        u = np.asarray(u, dtype=float)
        r = np.sqrt(np.sum(u * u, axis=-1))
        out = np.zeros(r.shape)
        hit = r > 0
        if np.any(hit):
            theta = u[hit] / r[hit][..., None]
            out[hit] = np.asarray(self.omega(theta)) * r[hit] ** (-self.degree)
        return out

    def homogeneity_defect(self) -> float:
        """max relative |K(s u) - s^(-d) K(u)| over random u, s; ~1e-15."""
        rng = np.random.default_rng(_DEFECT_SEED)
        u = rng.standard_normal((_DEFECT_SAMPLES, self.D))
        s = rng.uniform(0.25, 4.0, _DEFECT_SAMPLES)
        base = self.evaluate(u)
        scaled = self.evaluate(u * s[:, None])
        return float(np.max(np.abs(scaled - s ** (-self.degree) * base) / np.abs(base)))


# The entry point for (inputs, singular). OperatorHandle looks the name up
# in the module globals at call time, so a wrapper installed there is used;
# each entry point refuses a kernel this table does not send to it.
_ENTRY_POINTS = {
    (1, True): "singular_integral",
    (1, False): "fractional_integral",
    (2, True): "bilinear_singular_integral",
    (2, False): "bilinear_fractional_integral",
}


@dataclass(frozen=True)
class OperatorHandle:
    """A kernel bound to quadrature; call with the kernel's grid functions,
    one per input."""

    kernel: KernelSpec

    def __call__(self, *fs: GridFunction) -> GridFunction:
        k = self.kernel
        if len(fs) != k.inputs:
            raise ValueError(f"kernel {k.name or '<anon>'} takes {k.inputs} input(s), got {len(fs)}")
        return globals()[_ENTRY_POINTS[(k.inputs, k.alpha == 0.0)]](*fs, k)

    def each(self, fs: Iterable[GridFunction]) -> list[GridFunction]:
        """[self(f) for f in fs] for a one-input kernel, bit for bit, with
        the quadrature run once over the stacked inputs of each dtype."""
        k = self.kernel
        if k.inputs != 1:
            raise ValueError(f"each applies a 1-input kernel, and {k.name or '<anon>'} takes {k.inputs}")
        return _linear_apply(_ENTRY_POINTS[(1, k.alpha == 0.0)], fs, k)


# ---- Linear quadrature ----


def _self_cell(kernel: KernelSpec, h: float) -> float:
    """Integral of K over the centered cell [-h/2, h/2]^D, for the fractional
    case: closed forms on a 1D line and for the 1D distance kernel, a
    midpoint sum otherwise."""
    a = kernel.alpha
    if kernel.D == 1:
        # int_{-h/2}^{h/2} Omega(sgn y) |y|^(a-1) dy
        wsum = float(kernel.omega(np.array([[1.0]]))[0] + kernel.omega(np.array([[-1.0]]))[0])
        return wsum * (h / 2) ** a / a
    if kernel.ndim == 1 and kernel.tag == "distance":
        s = h / 2
        if abs(a - 1.0) < 1e-12:
            return 8 * s * np.log(2.0)
        return 4 * ((2 * s) ** a - 2 * s**a) / (a * (a - 1.0))
    sub = 16 if kernel.D == 2 else 8
    step = h / sub
    c = (np.arange(sub) + 0.5) * step - h / 2
    axes = np.meshgrid(*([c] * kernel.D), indexing="ij")
    pts = np.stack([ax.reshape(-1) for ax in axes], axis=1)
    return float(np.sum(kernel.evaluate(pts)) * step**kernel.D)


def _linear_body(fv: np.ndarray, kernel: KernelSpec, h: float) -> np.ndarray:
    """T over the columns of fv, shape (m,)*n + (N,), each read as zero
    outside the box: out[x] = h^n sum_{k != 0} K(k h) f[x - k] over every
    in-box offset, plus the self-cell term when alpha > 0.

    The offset table K(k h) over (2m - 1)^n offsets, with the self-cell
    integral at offset 0, and the columns are multiplied as spectra of size
    2m per axis, which holds the whole linear convolution on the kept slice
    [m - 1, 2m - 1). Complex columns go through as Re, Im float columns.
    Each array is let go once transformed, so the input of a caller that
    passes its only reference is freed before the inverse transform."""
    m = fv.shape[0]
    n = kernel.ndim
    axes = tuple(range(n))
    size = (2 * m,) * n
    pairs = np.iscomplexobj(fv)
    cols = fv.astype(np.complex128, copy=False).view(np.float64) if pairs else fv
    del fv
    spectrum = np.fft.rfftn(cols, size, axes=axes)
    del cols
    offs = np.arange(-(m - 1), m) * h
    table = kernel.evaluate(np.stack(np.meshgrid(*([offs] * n), indexing="ij"), axis=-1))
    table *= h**n
    if kernel.alpha != 0.0:
        table[(m - 1,) * n] = _self_cell(kernel, h)
    spectrum *= np.fft.rfftn(table, size, axes=axes)[..., None]
    del table
    # back one column at a time, so no (2m,)^n x N array is alive beside the spectrum
    out = np.empty((m,) * n + spectrum.shape[n:])
    for j in range(out.shape[-1]):
        out[..., j] = np.fft.irfftn(spectrum[..., j], size, axes=axes)[(slice(m - 1, 2 * m - 1),) * n]
    return out.view(np.complex128) if pairs else out


def _linear_apply(name: str, fs: Iterable[GridFunction], kernel: KernelSpec) -> list[GridFunction]:
    """T f for each f of fs on one grid, for the entry point `name`: the
    inputs of each dtype are stacked along a trailing axis and sent through
    `_linear_body` in one call. Every column's arithmetic is that of a lone
    input, so each output is bit for bit what a call on its input alone
    gives. The inputs are let go once stacked, so those of a generator are
    freed before the body allocates its own arrays."""
    fs = list(fs)
    if not fs:
        return []
    grid = _grid_of(fs)
    _check_entry(name, grid, kernel)
    groups: dict = {}
    for i, dtype in enumerate([f.values.dtype for f in fs]):
        groups.setdefault(dtype, []).append(i)
    stacks = [(group, np.stack([fs[i].values for i in group], axis=-1)) for group in groups.values()]
    outs: list = [None] * len(fs)
    del fs  # the stacks hold the inputs now
    while stacks:
        group = stacks[-1][0]
        # the body gets the only reference to the stack, so it frees it once transformed
        vals = _linear_body(stacks.pop()[1], kernel, grid.h)
        for j, i in enumerate(group):
            outs[i] = GridFunction(grid, np.ascontiguousarray(vals[..., j]))
    return outs


def singular_integral(f: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Principal-value convolution with a mean-zero homogeneous kernel."""
    return _linear_apply("singular_integral", (f,), kernel)[0]


def fractional_integral(f: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Zero-extended convolution with a kernel of order alpha > 0, e.g.
    I_alpha f for the fixture frac_alpha:<alpha>."""
    return _linear_apply("fractional_integral", (f,), kernel)[0]


# ---- Bilinear quadrature ----


def _flat_cells(grid: Grid) -> np.ndarray:
    """(M, n) coordinates of all cells, row-major."""
    return np.stack([m.reshape(-1) for m in grid.meshes()], axis=1)


def kernel_tensor(kernel: KernelSpec, x: np.ndarray, *ys: np.ndarray) -> np.ndarray:
    """K(x - y_1, ..., x - y_k) as an (X, Y_1, ..., Y_k) tensor over cell
    coordinates x and y_i, each of shape (cells, n)."""
    shape = (x.shape[0], *(y.shape[0] for y in ys), x.shape[1])
    offsets = []
    for i, y in enumerate(ys):
        u = x[:, None, :] - y[None, :, :]  # (X, Y_i, n), spread over the other y axes
        others = tuple(j + 1 for j in range(len(ys)) if j != i)
        offsets.append(np.broadcast_to(np.expand_dims(u, others), shape))
    return kernel.evaluate(np.concatenate(offsets, axis=-1))


def _kernel_chunks(grid: Grid, kernel: KernelSpec, ysel: np.ndarray, zsel: np.ndarray):
    """Yield (start, stop, K2, here) per _MAX_TENSOR slice of output cells.

    K2 is the (X, Y, Z) kernel tensor over the nonzero cells ysel of f and
    zsel of g, viewed as an (X, Y*Z) matrix; its doubly-singular pair
    y = z = x is the zero offset, where K reads 0. here holds the flat
    indices of the slice's cells in both ysel and zsel (the fractional
    self-cell correction). ysel, zsel and the output cells are all sorted
    flat row-major indices."""
    coords = _flat_cells(grid)
    ycoord, zcoord = coords[ysel], coords[zsel]
    both = np.intersect1d(ysel, zsel, assume_unique=True)
    chunk = max(1, _MAX_TENSOR // max(1, len(ysel) * len(zsel)))
    for start in range(0, coords.shape[0], chunk):
        stop = min(start + chunk, coords.shape[0])
        K = kernel_tensor(kernel, coords[start:stop], ycoord, zcoord)
        here = both[(both >= start) & (both < stop)]
        yield start, stop, K.reshape(stop - start, -1), here


# The last kernel table built, as one (key, plan) entry. The estimate chain
# applies T(f, g) and T(b f, g) for every Fourier mode of a cube, all on the
# same nonzero sets, so one slot serves every mode after the first. The key
# is the exact nonzero sets, not their support box, so a reused table holds
# exactly the entries a fresh build would.
_plans: list[tuple[tuple, tuple]] = []


def _bilinear_plan(grid: Grid, kernel: KernelSpec, ysel: np.ndarray, zsel: np.ndarray):
    """The chunks of `_kernel_chunks` for the nonzero cells ysel of f and
    zsel of g. Plans whose table fits in one _MAX_TENSOR chunk are kept for
    reuse; larger tables are rebuilt chunk by chunk on every call, so they
    never hold more than one chunk in memory."""
    key = (grid, kernel, ysel.tobytes(), zsel.tobytes())
    if _plans and _plans[0][0] == key:
        return _plans[0][1]
    chunks = _kernel_chunks(grid, kernel, ysel, zsel)
    if grid.m**grid.n * len(ysel) * len(zsel) > _MAX_TENSOR:
        return chunks
    plan = tuple(chunks)
    _plans[:] = [(key, plan)]
    return plan


def _bilinear_apply(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    """T(f, g) as one real matrix product per chunk: the plan's K2 (X, Y*Z)
    against w = f_y g_z over the nonzero cells, K2 @ w for real inputs and
    K2 @ [Re w, Im w] for complex ones, plus the fractional self-cell
    correction. The sums run through BLAS, so their last digits depend on
    its thread count."""
    grid = _grid_of((f, g))
    h = grid.h

    fflat = f.values.reshape(-1)
    gflat = g.values.reshape(-1)
    ysel = fflat.nonzero()[0]
    zsel = gflat.nonzero()[0]
    out = np.zeros(fflat.shape[0], dtype=np.result_type(fflat, gflat))
    if len(ysel) == 0 or len(zsel) == 0:
        return GridFunction(grid, out.reshape(grid.shape))

    w = np.multiply.outer(fflat[ysel], gflat[zsel]).reshape(-1)
    pairs = np.iscomplexobj(w)
    if pairs:  # the two columns Re w, Im w
        w = w.astype(np.complex128, copy=False).view(np.float64).reshape(-1, 2)
    cell2 = h**kernel.D
    correction = 0.0 if kernel.alpha == 0.0 else _self_cell(kernel, h)
    for start, stop, K2, here in _bilinear_plan(grid, kernel, ysel, zsel):
        s = K2 @ w
        out[start:stop] = (s.view(np.complex128).reshape(-1) if pairs else s) * cell2
        if correction != 0.0:
            out[here] += correction * fflat[here] * gflat[here]
    return GridFunction(grid, out.reshape(grid.shape))


def bilinear_singular_integral(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    _check_entry("bilinear_singular_integral", f.grid, kernel)
    return _bilinear_apply(f, g, kernel)


def bilinear_fractional_integral(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Bilinear fractional integral, e.g. with `distance_kernel`'s
    (|u| + |v|)^(alpha - 2n)."""
    _check_entry("bilinear_fractional_integral", f.grid, kernel)
    return _bilinear_apply(f, g, kernel)


def distance_kernel(n: int, alpha: float) -> KernelSpec:
    """(|u| + |v|)^(alpha - 2n) written as a homogeneous profile."""

    def omega(theta: np.ndarray) -> np.ndarray:
        un = np.sqrt(np.sum(theta[..., :n] ** 2, axis=-1))
        vn = np.sqrt(np.sum(theta[..., n:] ** 2, axis=-1))
        return (un + vn) ** (alpha - 2 * n)

    return KernelSpec(2, n, alpha, omega, name=f"distance(alpha={alpha:g})", tag="distance")


# ---- Averaging and maximal operators ----


def _grid_of(fs: Sequence[GridFunction]) -> Grid:
    grid = fs[0].grid
    if any(f.grid != grid for f in fs[1:]):
        raise GridMismatch("operands live on different grids")
    return grid


def _averaging(fs: Sequence[GridFunction], cube: Cube, alpha: float) -> GridFunction:
    grid = _grid_of(fs)
    _alpha_check(alpha, len(fs) * grid.n)
    sl = cube_slices(grid, cube)
    blocks = [f.values[sl] for f in fs]
    val = math.prod([cube_measure(grid, cube) ** (alpha / grid.n), *(np.sum(b) / b.size for b in blocks)])
    out = np.zeros(grid.shape, dtype=np.result_type(*(f.values for f in fs)))
    out[sl] = val
    return GridFunction(grid, out)


def averaging(f: GridFunction, cube: Cube, alpha: float = 0.0) -> GridFunction:
    """A^Q_alpha f = |Q|^(alpha/n) (cell average of f on Q) chi_Q."""
    return _averaging((f,), cube, alpha)


def bilinear_averaging(f: GridFunction, g: GridFunction, cube: Cube, alpha: float = 0.0) -> GridFunction:
    """A^Q_alpha (f, g) = |Q|^(alpha/n) (average of f on Q) (average of g on Q) chi_Q."""
    return _averaging((f, g), cube, alpha)


def _maximal(fs: Sequence[GridFunction], alpha: float, family: CubeFamily) -> GridFunction:
    grid = _grid_of(fs)
    _alpha_check(alpha, len(fs) * grid.n)
    family.check_grid(grid)
    means = [family.means(np.abs(f.values)).tolist() for f in fs]
    e = alpha / grid.n
    vals = [math.prod([meas**e, *avgs]) for meas, *avgs in zip(family.measures, *means)]
    return GridFunction(grid, family.scatter_max(vals))


def maximal(f: GridFunction, alpha: float, family: CubeFamily) -> GridFunction:
    """M_alpha f(x) = max over family cubes containing x of
    |Q|^(alpha/n) * (cell average of |f| on Q). The family must cover the grid."""
    return _maximal((f,), alpha, family)


def bilinear_maximal(f: GridFunction, g: GridFunction, alpha: float, family: CubeFamily) -> GridFunction:
    """M_alpha (f, g)(x): as `maximal`, with the product of the averages of |f| and |g|."""
    return _maximal((f, g), alpha, family)


# ---- Commutators ----


def commutator(b: GridFunction, op: OperatorHandle | Callable, *fs: GridFunction, slot: int = 1) -> GridFunction:
    """[b, T]_slot (f_1, ..., f_k) = b T(f_1, ..., f_k) - T(..., b f_slot, ...)
    for T = op: b moves onto input `slot`, and for one input this is
    [b, T] f = b (T f) - T(b f). Vanishes identically for constant b.

    The moved input b f_slot is a checked GridFunction, as every operator
    input is; the two terms are combined on their value arrays, in the
    order of the formula, into the one checked result, so a non-finite
    b (T f) still raises there."""
    if not 1 <= slot <= len(fs):
        raise ValueError(f"slot must be 1..{len(fs)}, got {slot}")
    moved = list(fs)
    moved[slot - 1] = b * fs[slot - 1]
    return GridFunction(b.grid, b.values * op(*fs).values - op(*moved).values)


# ---- Probe-based norm estimates ----


def operator_norm_estimate(
    probes: Iterable[tuple],
    outputs: Iterable[GridFunction],
    in_spaces: Sequence[SpaceSpec],
    out_space: SpaceSpec,
) -> float:
    """max over probes of ||T probe||_Y / product of input norms: a lower
    bound for the operator norm, with no tightness claimed. Each probe is a
    tuple of inputs, one per input space, and outputs yields T of each probe
    in turn. Generators for both keep one probe and one output alive at a
    time."""
    ratios = []
    for args, out in zip(probes, outputs, strict=True):
        if len(args) != len(in_spaces):
            raise ValueError(f"probe has {len(args)} input(s) for {len(in_spaces)} input space(s)")
        norms = [norm(a, X) for a, X in zip(args, in_spaces)]
        if 0.0 in norms:
            raise DivisionByZeroNorm("zero-norm probe")
        ratios.append(norm(out, out_space) / math.prod(norms))
    return float(np.max(ratios))


def _check_entry(name: str, grid: Grid, kernel: KernelSpec):
    """Refuse a kernel that _ENTRY_POINTS does not send to `name`, and one
    whose base dimension is not the grid's."""
    if _ENTRY_POINTS[(kernel.inputs, kernel.alpha == 0.0)] != name:
        raise ValueError(f"{name} cannot apply a {kernel.inputs}-input kernel with alpha = {kernel.alpha:g}")
    if grid.n != kernel.ndim:
        raise GridMismatch(f"kernel base dimension {kernel.ndim} on grid of dimension {grid.n}")
