"""Discrete maximal, fractional, and singular operators with commutators.

Conventions. A kernel is homogeneous, K(u) = Omega(u/|u|) / |u|^d with
d = n - alpha (linear) or 2n - alpha (bilinear); alpha = 0 is the singular
case and needs a mean-zero Omega. Quadrature treats grid functions as zero
outside the box.

Principal value: the singular path omits the self cell and sums offsets over
the largest per-axis-symmetric window around each output point, pairing +-u.
For odd kernels the pair is evaluated as K(u) * (f(x-u) - f(x+u)), which
kills constants exactly. Output masks mark the points whose window covers
the input's support; values elsewhere saw truncated data.

Fractional operators (alpha > 0) use plain zero-extension plus a self-cell
correction: closed form on 1D lines, refined midpoint sub-quadrature in
higher ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DivisionByZeroNorm,
    GridMismatch,
    MeanZeroViolation,
)
from .grid import Cube, CubeFamily, Grid, GridFunction, cube_measure, cube_slices
from .spaces import SpaceSpec, norm

_MAX_TENSOR = 4_000_000  # cap on kernel-tensor entries per evaluation chunk


# ---- Kernels ----


def _sphere_samples(D: int, count: int = 2048) -> np.ndarray:
    if D == 1:
        return np.array([[1.0], [-1.0]])
    if D == 2:
        t = (np.arange(count) + 0.5) * (2 * np.pi / count)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    rng = np.random.default_rng(20240811)
    g = rng.standard_normal((count // 2, D))
    g = np.concatenate([g, -g], axis=0)  # symmetric so odd parts cancel exactly
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass(frozen=True)
class KernelSpec:
    """Homogeneous kernel Omega(u/|u|) / |u|^d on R^D, D = n or 2n."""

    arity: str  # "linear" | "bilinear"
    ndim: int  # base dimension n
    alpha: float
    omega: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    tag: str = ""  # "distance" marks the |u|+|v| bilinear profile
    omega_odd: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.arity not in ("linear", "bilinear"):
            raise ValueError(f"bad arity {self.arity!r}")
        limit = self.ndim if self.arity == "linear" else 2 * self.ndim
        if not 0.0 <= self.alpha < limit:
            raise AlphaOutOfRange(
                f"{self.arity} kernel needs 0 <= alpha < {limit}, got {self.alpha}"
            )
        pts = _sphere_samples(self.D)
        vals = np.asarray(self.omega(pts), dtype=float)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if self.alpha == 0.0 and abs(float(np.mean(vals))) > 1e-6 * scale:
            raise MeanZeroViolation(
                f"kernel {self.name or '<anon>'}: sphere mean "
                f"{float(np.mean(vals)):.3e} is not zero"
            )
        odd = bool(np.max(np.abs(vals + self.omega(-pts))) <= 1e-12 * scale)
        object.__setattr__(self, "omega_odd", odd)

    @property
    def D(self) -> int:
        return self.ndim if self.arity == "linear" else 2 * self.ndim

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

    def homogeneity_defect(self, samples: int = 64, seed: int = 7) -> float:
        """max relative |K(s u) - s^(-d) K(u)| over random u, s; ~1e-15."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((samples, self.D))
        s = rng.uniform(0.25, 4.0, samples)
        base = self.evaluate(u)
        scaled = self.evaluate(u * s[:, None])
        return float(np.max(np.abs(scaled - s ** (-self.degree) * base) / np.abs(base)))


@dataclass(frozen=True)
class OperatorHandle:
    """A kernel bound to quadrature; call with one (linear) or two (bilinear)
    grid functions."""

    kernel: KernelSpec
    name: str = ""

    def __call__(self, *fs: GridFunction) -> GridFunction:
        if self.kernel.arity == "linear":
            (f,) = fs
            if self.kernel.alpha == 0.0:
                return singular_integral(f, self.kernel)
            return fractional_integral(f, self.kernel.alpha, self.kernel)
        f, g = fs
        if self.kernel.alpha == 0.0:
            return bilinear_singular_integral(f, g, self.kernel)
        return bilinear_fractional_integral(f, g, self.kernel.alpha, self.kernel)


# ---- Support and window bookkeeping ----


def _support_ranges(values: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    nz = np.nonzero(values)
    if len(nz[0]) == 0:
        return None
    return tuple((int(ix.min()), int(ix.max())) for ix in nz)


def _window_mask_1axis(m: int, lo: int, hi: int) -> np.ndarray:
    """True at indices whose symmetric reach min(i, m-1-i) covers [lo, hi]."""
    i = np.arange(m)
    reach = np.minimum(i, m - 1 - i)
    need = np.maximum(i - lo, hi - i)
    return reach >= need


def coverage_mask(grid: Grid, support: tuple[tuple[int, int], ...] | None) -> np.ndarray:
    """Validity mask: symmetric windows covering the input's support box."""
    if support is None:
        return np.ones(grid.shape, dtype=bool)
    axes = [_window_mask_1axis(grid.m, lo, hi) for lo, hi in support]
    if grid.n == 1:
        return axes[0]
    return np.outer(axes[0], axes[1])


# ---- Linear quadrature ----


def _self_cell_linear(kernel: KernelSpec, h: float) -> float:
    """integral of K over the centered cell, for the fractional case."""
    a = kernel.alpha
    if kernel.ndim == 1:
        # int_{-h/2}^{h/2} Omega(sgn y) |y|^(a-1) dy
        wsum = float(kernel.omega(np.array([[1.0]]))[0] + kernel.omega(np.array([[-1.0]]))[0])
        return wsum * (h / 2) ** a / a
    sub = 16
    step = h / sub
    c = (np.arange(sub) + 0.5) * step - h / 2
    xx, yy = np.meshgrid(c, c, indexing="ij")
    pts = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
    return float(np.sum(kernel.evaluate(pts)) * step**2)


def _singular_1d(fv: np.ndarray, kernel: KernelSpec, h: float) -> np.ndarray:
    m = fv.shape[0]
    out = np.zeros(m, dtype=fv.dtype)
    kpos = kernel.evaluate(np.array([[1.0]]))[0]
    for k in range(1, m):
        coef = kpos * (k * h) ** (-kernel.degree)
        lo, hi = k, m - k
        if lo >= hi:
            break
        if kernel.omega_odd:
            out[lo:hi] += coef * (fv[: m - 2 * k] - fv[2 * k :]) * h
        else:
            kneg = kernel.evaluate(np.array([[-(k * h)]]))[0]
            out[lo:hi] += (coef * fv[: m - 2 * k] + kneg * fv[2 * k :]) * h
    return out


def _fractional_1d(fv: np.ndarray, kernel: KernelSpec, h: float) -> np.ndarray:
    m = fv.shape[0]
    offsets = (np.arange(2 * m - 1) - (m - 1)) * h
    krow = kernel.evaluate(offsets[:, None])
    krow[m - 1] = 0.0
    conv = np.convolve(fv, krow)
    out = conv[m - 1 : 2 * m - 1] * h
    out += _self_cell_linear(kernel, h) * fv
    return out


def _linear_2d(fv: np.ndarray, kernel: KernelSpec, h: float, windowed: bool) -> np.ndarray:
    """Offset-sliced sum for n = 2, windowed (singular) or zero-extended."""
    m = fv.shape[0]
    out = np.zeros_like(fv)
    sup = _support_ranges(fv)
    if sup is None:
        return out
    cell = h * h
    # table[k1 + m - 1, k2 + m - 1] = K(-k h): the partner y = x + k h
    # contributes K(x - y) f(y)
    offs = np.arange(m - 1, -m, -1) * h
    o1, o2 = np.meshgrid(offs, offs, indexing="ij")
    table = kernel.evaluate(np.stack([o1, o2], axis=-1))
    for k1 in range(-(m - 1), m):
        # partner x + (k1, k2) h must be able to hit the support box
        if k1 > sup[0][1] or k1 < sup[0][0] - (m - 1):
            continue
        for k2 in range(-(m - 1), m):
            if k1 == 0 and k2 == 0:
                continue
            a1, a2 = abs(k1), abs(k2)
            if windowed:
                xlo1, xhi1 = a1, m - a1
                xlo2, xhi2 = a2, m - a2
            else:
                xlo1, xhi1 = max(0, -k1), min(m, m - k1)
                xlo2, xhi2 = max(0, -k2), min(m, m - k2)
            if xlo1 >= xhi1 or xlo2 >= xhi2:
                continue
            # clip to x whose partner x + k lies in the support box
            xlo1 = max(xlo1, sup[0][0] - k1)
            xhi1 = min(xhi1, sup[0][1] - k1 + 1)
            xlo2 = max(xlo2, sup[1][0] - k2)
            xhi2 = min(xhi2, sup[1][1] - k2 + 1)
            if xlo1 >= xhi1 or xlo2 >= xhi2:
                continue
            kv = table[k1 + m - 1, k2 + m - 1]
            if kv == 0.0:
                continue
            out[xlo1:xhi1, xlo2:xhi2] += (
                kv * fv[xlo1 + k1 : xhi1 + k1, xlo2 + k2 : xhi2 + k2] * cell
            )
    if not windowed:
        out += _self_cell_linear(kernel, h) * fv
    return out


def singular_integral(f: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Principal-value convolution with a mean-zero homogeneous kernel."""
    _require(kernel.arity == "linear", "singular_integral needs a linear kernel")
    _require(kernel.alpha == 0.0, "singular kernel must have alpha = 0")
    _check_dim(f.grid, kernel)
    if f.grid.n == 1:
        vals = _singular_1d(f.values, kernel, f.grid.h)
    else:
        vals = _linear_2d(f.values, kernel, f.grid.h, windowed=True)
    return GridFunction(f.grid, vals, coverage_mask(f.grid, _support_ranges(f.values)))


def fractional_integral(
    f: GridFunction, alpha: float, kernel: KernelSpec | None = None
) -> GridFunction:
    """I_alpha f with the positive kernel |u|^(alpha - n) unless one is given."""
    if kernel is None:
        kernel = KernelSpec("linear", f.grid.n, alpha, lambda t: np.ones(t.shape[:-1]), name="frac")
    _require(kernel.arity == "linear", "fractional_integral needs a linear kernel")
    _require(kernel.alpha > 0.0, "fractional kernel must have alpha > 0")
    _check_dim(f.grid, kernel)
    if f.grid.n == 1:
        vals = _fractional_1d(f.values, kernel, f.grid.h)
    else:
        vals = _linear_2d(f.values, kernel, f.grid.h, windowed=False)
    return GridFunction(f.grid, vals)


# ---- Bilinear quadrature ----


def _flat_cells(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(coords (M, n), integer indices (M, n)) for all cells, row-major."""
    coords = np.stack([m.reshape(-1) for m in grid.meshes()], axis=1)
    if grid.n == 1:
        idx = np.arange(grid.m)[:, None]
    else:
        ii, jj = np.meshgrid(np.arange(grid.m), np.arange(grid.m), indexing="ij")
        idx = np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1)
    return coords, idx


def _self_cell_bilinear(kernel: KernelSpec, h: float) -> float:
    a = kernel.alpha
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


def bilinear_kernel_tensor(kernel: KernelSpec, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """K(x - y, x - z) as an (X, Y, Z) tensor over cell coordinates x, y and
    z, each of shape (cells, n)."""
    u = x[:, None, :] - y[None, :, :]  # (X, Y, n)
    v = x[:, None, :] - z[None, :, :]  # (X, Z, n)
    shape = (u.shape[0], u.shape[1], v.shape[1], x.shape[1])
    W = np.concatenate([np.broadcast_to(u[:, :, None, :], shape), np.broadcast_to(v[:, None, :, :], shape)], axis=-1)
    return kernel.evaluate(W)


def _kernel_chunks(grid: Grid, kernel: KernelSpec, ysel: np.ndarray, zsel: np.ndarray):
    """Yield (start, stop, K, here) per _MAX_TENSOR slice of output cells.

    K is the (X, Y, Z) kernel tensor over the nonzero cells ysel of f and
    zsel of g, with the principal-value window applied on the singular path
    and the pair y = z = x zeroed; here holds the flat indices of the
    slice's cells where y = x and z = x both occur (the fractional
    self-cell correction)."""
    m = grid.m
    coords, idx = _flat_cells(grid)
    ycoord, yidx = coords[ysel], idx[ysel]
    zcoord, zidx = coords[zsel], idx[zsel]
    chunk = max(1, _MAX_TENSOR // max(1, len(ysel) * len(zsel)))
    for start in range(0, coords.shape[0], chunk):
        stop = min(start + chunk, coords.shape[0])
        xi = idx[start:stop]
        K = bilinear_kernel_tensor(kernel, coords[start:stop], ycoord, zcoord)
        if kernel.alpha == 0.0:
            reach = np.minimum(xi, m - 1 - xi)  # (X, n)
            wy = np.all(np.abs(xi[:, None, :] - yidx[None, :, :]) <= reach[:, None, :], axis=-1)
            wz = np.all(np.abs(xi[:, None, :] - zidx[None, :, :]) <= reach[:, None, :], axis=-1)
            K = K * wy[:, :, None] * wz[:, None, :]
        # drop the doubly-singular pair y = z = x (K(0) already reads 0,
        # but y = x with z = x arrives as two separate cells here)
        eq_y = np.all(xi[:, None, :] == yidx[None, :, :], axis=-1)
        eq_z = np.all(xi[:, None, :] == zidx[None, :, :], axis=-1)
        K = np.where(eq_y[:, :, None] & eq_z[:, None, :], 0.0, K)
        here = start + np.flatnonzero(eq_y.any(axis=1) & eq_z.any(axis=1))
        yield start, stop, K, here


# Recently built kernel tables, newest first. The estimate chain applies
# T(f, g) and T(b f, g) for every Fourier mode of a cube, all on the same
# nonzero sets, so two slots serve every mode after the first. The key is
# the exact nonzero sets, not their support box, so a reused table holds
# exactly the entries a fresh build would.
_PLAN_SLOTS = 2
_plans: list[tuple[tuple, tuple]] = []


def _bilinear_plan(grid: Grid, kernel: KernelSpec, ysel: np.ndarray, zsel: np.ndarray):
    """The chunks of `_kernel_chunks`, kept for reuse when they fit in one
    _MAX_TENSOR chunk; larger tables are rebuilt chunk by chunk on every
    call, so they never hold more than one chunk in memory."""
    key = (grid, kernel, ysel.tobytes(), zsel.tobytes())
    for plan_key, chunks in _plans:
        if plan_key == key:
            return chunks
    chunks = _kernel_chunks(grid, kernel, ysel, zsel)
    if grid.m**grid.n * len(ysel) * len(zsel) > _MAX_TENSOR:
        return chunks
    chunks = tuple(chunks)
    _plans[:] = [(key, chunks)] + _plans[: _PLAN_SLOTS - 1]
    return chunks


def _bilinear_apply(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    _require(kernel.arity == "bilinear", "need a bilinear kernel")
    if f.grid != g.grid:
        raise GridMismatch("bilinear operands live on different grids")
    grid = f.grid
    _check_dim(grid, kernel)
    n, h = grid.n, grid.h
    singular = kernel.alpha == 0.0

    fflat = f.values.reshape(-1)
    gflat = g.values.reshape(-1)
    ysel = np.flatnonzero(fflat)
    zsel = np.flatnonzero(gflat)
    out = np.zeros(fflat.shape[0], dtype=np.result_type(fflat, gflat))
    sup_f = _support_ranges(f.values)
    sup_g = _support_ranges(g.values)
    if len(ysel) == 0 or len(zsel) == 0:
        vals = out.reshape(grid.shape)
        mask = None
        if singular:
            mask = coverage_mask(grid, None)
        return GridFunction(grid, vals, mask)

    fy = fflat[ysel]
    gz = gflat[zsel]
    cell2 = h ** (2 * n)
    correction = 0.0 if singular else _self_cell_bilinear(kernel, h)
    for start, stop, K, here in _bilinear_plan(grid, kernel, ysel, zsel):
        out[start:stop] = np.einsum("xyz,y,z->x", K, fy, gz) * cell2
        if correction != 0.0:
            for i in here:
                out[i] += correction * fflat[i] * gflat[i]

    vals = out.reshape(grid.shape)
    mask = None
    if singular:
        both = _merge_support(sup_f, sup_g)
        mask = coverage_mask(grid, both)
    return GridFunction(grid, vals, mask)


def _merge_support(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return tuple((min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(a, b))


def bilinear_singular_integral(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    _require(kernel.alpha == 0.0, "bilinear singular kernel must have alpha = 0")
    return _bilinear_apply(f, g, kernel)


def bilinear_fractional_integral(
    f: GridFunction, g: GridFunction, alpha: float, kernel: KernelSpec | None = None
) -> GridFunction:
    """Bilinear I_alpha with the kernel (|u| + |v|)^(alpha - 2n) by default."""
    if kernel is None:
        kernel = distance_kernel(f.grid.n, alpha)
    _require(kernel.alpha > 0.0, "bilinear fractional kernel must have alpha > 0")
    return _bilinear_apply(f, g, kernel)


def distance_kernel(n: int, alpha: float) -> KernelSpec:
    """(|u| + |v|)^(alpha - 2n) written as a homogeneous profile."""

    def omega(theta: np.ndarray) -> np.ndarray:
        un = np.sqrt(np.sum(theta[..., :n] ** 2, axis=-1))
        vn = np.sqrt(np.sum(theta[..., n:] ** 2, axis=-1))
        return (un + vn) ** (alpha - 2 * n)

    return KernelSpec("bilinear", n, alpha, omega, name=f"distance(alpha={alpha:g})", tag="distance")


# ---- Averaging and maximal operators ----


def _alpha_check(alpha: float, n: int, arity: str):
    limit = n if arity == "linear" else 2 * n
    if not 0.0 <= alpha < limit:
        raise AlphaOutOfRange(f"need 0 <= alpha < {limit}, got {alpha}")


def averaging(f: GridFunction, cube: Cube, alpha: float = 0.0) -> GridFunction:
    """A^Q_alpha f = |Q|^(alpha/n) (cell average of f on Q) chi_Q."""
    g = f.grid
    _alpha_check(alpha, g.n, "linear")
    sl = cube_slices(g, cube)
    block = f.values[sl]
    val = cube_measure(g, cube) ** (alpha / g.n) * (np.sum(block) / block.size)
    out = np.zeros(g.shape, dtype=f.values.dtype)
    out[sl] = val
    return GridFunction(g, out)


def bilinear_averaging(f: GridFunction, g: GridFunction, cube: Cube, alpha: float = 0.0) -> GridFunction:
    if f.grid != g.grid:
        raise GridMismatch("bilinear operands live on different grids")
    gr = f.grid
    _alpha_check(alpha, gr.n, "bilinear")
    sl = cube_slices(gr, cube)
    fb = f.values[sl]
    gb = g.values[sl]
    val = (
        cube_measure(gr, cube) ** (alpha / gr.n)
        * (np.sum(fb) / fb.size)
        * (np.sum(gb) / gb.size)
    )
    out = np.zeros(gr.shape, dtype=np.result_type(f.values, g.values))
    out[sl] = val
    return GridFunction(gr, out)


def maximal(f: GridFunction, alpha: float, family: CubeFamily) -> GridFunction:
    """M_alpha f(x) = max over family cubes containing x of
    |Q|^(alpha/n) * (cell average of |f| on Q). The family must cover the grid."""
    g = f.grid
    _alpha_check(alpha, g.n, "linear")
    index = family.index(g)
    means = index.means(np.abs(f.values)).tolist()
    vals = [meas ** (alpha / g.n) * a for meas, a in zip(index.measures, means)]
    return GridFunction(g, index.scatter_max(vals))


def bilinear_maximal(f: GridFunction, g: GridFunction, alpha: float, family: CubeFamily) -> GridFunction:
    if f.grid != g.grid:
        raise GridMismatch("bilinear operands live on different grids")
    gr = f.grid
    _alpha_check(alpha, gr.n, "bilinear")
    index = family.index(gr)
    means_f = index.means(np.abs(f.values)).tolist()
    means_g = index.means(np.abs(g.values)).tolist()
    vals = [
        meas ** (alpha / gr.n) * a * b
        for meas, a, b in zip(index.measures, means_f, means_g)
    ]
    return GridFunction(gr, index.scatter_max(vals))


# ---- Commutators ----


def commutator(b: GridFunction, op: OperatorHandle | Callable, f: GridFunction) -> GridFunction:
    """[b, T] f = b (T f) - T(b f). Vanishes identically for constant b."""
    T = op if callable(op) else op.__call__
    return b * T(f) - T(b * f)


def bilinear_commutator(
    b: GridFunction,
    op: OperatorHandle | Callable,
    f: GridFunction,
    g: GridFunction,
    slot: int = 1,
) -> GridFunction:
    """[b, T]_1 (f, g) = b T(f, g) - T(b f, g); slot 2 moves b onto g."""
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot}")
    T = op if callable(op) else op.__call__
    if slot == 1:
        return b * T(f, g) - T(b * f, g)
    return b * T(f, g) - T(f, b * g)


# ---- Probe-based norm estimates ----


@dataclass(frozen=True)
class NormEstimate:
    """A lower bound for an operator norm: the largest achieved probe ratio.

    No tightness is claimed; the true norm can only be larger.
    """

    value: float
    best_index: int
    per_probe: tuple[float, ...]


def operator_norm_estimate(
    apply_fn: Callable,
    in_spaces: Sequence[SpaceSpec],
    out_space: SpaceSpec,
    probes: Sequence,
) -> NormEstimate:
    """max over probes of ||T probe||_Y / product of input norms."""
    ratios = []
    for probe in probes:
        if isinstance(probe, GridFunction):
            args = (probe,)
        else:
            args = tuple(probe)
        if len(args) != len(in_spaces):
            raise ValueError("probe arity does not match in_spaces")
        denom = 1.0
        for a, X in zip(args, in_spaces):
            na = norm(a, X)
            if na == 0.0:
                raise DivisionByZeroNorm("zero-norm probe")
            denom *= na
        ratios.append(norm(apply_fn(*args), out_space) / denom)
    best = int(np.argmax(ratios))
    return NormEstimate(float(ratios[best]), best, tuple(ratios))


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _check_dim(grid: Grid, kernel: KernelSpec):
    if grid.n != kernel.ndim:
        raise GridMismatch(
            f"kernel base dimension {kernel.ndim} on grid of dimension {grid.n}"
        )
