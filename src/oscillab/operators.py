"""Discrete maximal, fractional, and singular operators with commutators.

Conventions. A kernel of k = 1 or 2 inputs on R^n is homogeneous on R^(kn),
K(u) = Omega(u/|u|) / |u|^d with d = kn - alpha; alpha = 0 is the singular
case and needs a mean-zero Omega. Quadrature treats grid functions as zero
outside the box.

T acts on f chi_box: every path sums the kernel over all in-box offsets,
with no window and no mask, and reads K at the lattice offsets h k, from a
table of the offsets that occur. The discrete operator is thus the
compression to the box of a convolution on the whole lattice, and no probe
ratio exceeds that convolution's norm (for `hilbert` its symbol is bounded
by pi, the norm of the continuum operator). The singular path (alpha = 0)
omits the self cell, where the principal value of a mean-zero kernel
vanishes; the fractional path (alpha > 0) adds the integral of K over it,
read for every kernel by one rule: s / alpha times the integral of K over
the faces of the cell [-s, s]^D, by Gauss-Legendre nodes.

A bilinear application keeps one plan per pair of nonzero sets: the
(X, Y*Z) kernel tensor, or, above 2^18 entries where it is smaller, the
whole offset table T[a, c] = K(h a, h (a + c)) for a = x - y and
c = y - z, applied as one matrix product and a gather (see `_plan`).

`OperatorHandle(kernel)` calls one of the four entry points by its plain
global name, chosen by the input count and by alpha = 0, so a wrapper
installed on that name sees every application; an entry point applies any
kernel of its input count and refuses one of another count or base
dimension. The linear quadrature takes its inputs as columns of one stacked
array, so `OperatorHandle.each(fs)` applies a one-input kernel to many
inputs in one pass, bit for bit as one call per input, so a caller that
estimates norms from probes applies T once per distinct input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    GridMismatch,
    MeanZeroViolation,
)
from .grid import Cube, CubeFamily, Grid, GridFunction, common_grid, cube_slices, on_block
from .spaces import _alpha_check

# Bilinear tensors of more entries are applied through the offset table
# when it is smaller. Measured per call, with a kept plan, at m = 512 on
# c-cell supports, complex inputs (2 cores, Python 3.11.7, numpy 2.4.6, one
# BLAS thread; tensor / table, microseconds): c = 16 (131,072 entries)
# 30 / 42, c = 20 (204,800) 45 / 52, c = 24 (294,912) 74 / 68, c = 32
# (524,288) 277 / 100, c = 64 (2,097,152) 1,066 / 346. Real inputs cross
# between c = 16 and c = 20 (25 / 28 and 38 / 34).
_TABLE_FORM = 1 << 18
_MAX_POINTS = 4_096  # kernel points evaluated at once, for a table or a tensor
_SPHERE_COUNT = 2048  # sphere samples for the mean-zero check
_BALL_SEED = 20240817  # the seed of every fixed sample of `_ball_sequence`
_FACE_NODES = 8  # Gauss-Legendre nodes per half-axis on a self-cell face


# ---- Kernels ----


def _ball_sequence(D: int, count: int, seed: int) -> np.ndarray:
    """The first count points of the closed unit ball of R^D met by the
    additive recurrence z_k = frac(s + k alpha) mapped to [-1, 1]^D, with
    alpha_j = phi^(-j) for phi the positive root of x^(D+1) = x + 1 (the
    R_D sequence) and the shift s = frac(seed sqrt(2) alpha).

    A Kronecker sequence with these irrational steps is uniformly
    distributed in the cube (Kuipers-Niederreiter, 1974), so the kept points
    are uniformly distributed in the ball, in closed form: the samples are
    quadrature sets, and no pseudo-random stream is needed. No multiple of
    sqrt(2) alpha is an integer multiple of alpha modulo 1, so the points
    of two seeds differ."""
    phi = 2.0
    for _ in range(64):  # a contraction with factor below 1/2
        phi = (1.0 + phi) ** (1.0 / (D + 1))
    alpha = phi ** -np.arange(1.0, D + 1)
    shift = np.modf(seed * math.sqrt(2.0) * alpha)[0]
    # the ball holds pi^(D/2) / (Gamma(D/2 + 1) 2^D) of the cube: n points
    # of the sequence give about count in the ball, and n doubles if too few
    n = int(count * 2**D * math.gamma(D / 2 + 1) / math.pi ** (D / 2)) + 64
    while True:
        z = shift + np.arange(n)[:, None] * alpha
        z -= np.floor(z)
        z = 2.0 * z - 1.0
        z = z[np.sum(z * z, axis=1) <= 1.0]
        if len(z) >= count:
            return z[:count]
        n *= 2


def _sphere_points(D: int, count: int, seed: int) -> np.ndarray:
    """Points on the unit sphere of R^D: the two points of S^0, count
    equally spaced angles on S^1, and otherwise the directions of the
    count // 2 points of `_ball_sequence`, uniformly distributed on the
    sphere, with their negatives, so odd parts cancel exactly."""
    if D == 1:
        return np.array([[1.0], [-1.0]])
    if D == 2:
        t = (np.arange(count) + 0.5) * (2 * np.pi / count)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    g = _ball_sequence(D, count // 2, seed)
    g = np.concatenate([g, -g], axis=0)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass(frozen=True)
class KernelSpec:
    """Homogeneous kernel Omega(u/|u|) / |u|^d of k inputs on R^n, a kernel
    on R^D with D = k n and k = 1 or 2; quadrature reads it only through
    `evaluate`, the fractional self cell included."""

    inputs: int  # k
    ndim: int  # base dimension n
    alpha: float
    omega: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.inputs not in (1, 2):
            raise ValueError(f"a kernel takes 1 or 2 inputs, got {self.inputs}")
        _alpha_check(self.alpha, self.D)
        pts = _sphere_points(self.D, _SPHERE_COUNT, _BALL_SEED)
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


@dataclass(frozen=True)
class OperatorHandle:
    """A kernel bound to quadrature; call with the kernel's grid functions,
    one per input."""

    kernel: KernelSpec

    def __call__(self, *fs: GridFunction) -> GridFunction:
        k = self.kernel
        if len(fs) != k.inputs:
            raise ValueError(f"kernel {k.name or '<anon>'} takes {k.inputs} input(s), got {len(fs)}")
        if k.inputs == 1:
            return singular_integral(*fs, k) if k.alpha == 0.0 else fractional_integral(*fs, k)
        return bilinear_singular_integral(*fs, k) if k.alpha == 0.0 else bilinear_fractional_integral(*fs, k)

    def each(self, fs: Iterable[GridFunction]) -> list[GridFunction]:
        """[self(f) for f in fs] for a one-input kernel, bit for bit, with
        the quadrature run once over one stack of the inputs."""
        return _linear_apply(fs, self.kernel)


# ---- Linear quadrature ----


def _self_cell(kernel: KernelSpec, h: float) -> float:
    """Integral of K over the centered cell [-s, s]^D, s = h/2, for alpha > 0.

    K is homogeneous of degree alpha - D, so div(u K) = alpha K, and u . n = s
    on every face: the integral is s / alpha times that of K over the 2D
    faces, where K is smooth (in D = 1, the points -s and s). Gauss-Legendre
    nodes on both halves of every axis keep a kink on a coordinate plane
    between nodes. numpy loads np.polynomial lazily, on first use here, so a
    run that applies no fractional kernel does not import it."""
    s = h / 2
    x, w = np.polynomial.legendre.leggauss(_FACE_NODES)
    x, w = np.concatenate([x - 1, x + 1]) * (s / 2), np.concatenate([w, w]) * (s / 2)
    node = np.indices((len(x),) * (kernel.D - 1)).reshape(kernel.D - 1, len(x) ** (kernel.D - 1)).T  # (nodes, D - 1)
    face, weights = x[node], np.prod(w[node], axis=1)
    u = np.concatenate([np.insert(face, i, side, axis=1) for i in range(kernel.D) for side in (s, -s)])
    return float(np.sum(kernel.evaluate(u).reshape(2 * kernel.D, -1) @ weights)) * s / kernel.alpha


def _linear_body(fv: np.ndarray, kernel: KernelSpec, h: float) -> np.ndarray:
    """T over the columns of fv, shape (m,)*n + (N,), each read as zero
    outside the box: out[x] = h^n sum_{k != 0} K(k h) f[x - k] over every
    in-box offset, plus the self-cell term when alpha > 0.

    The offset table K(k h) over (2m - 1)^n offsets, from `_offset_table`
    as for every quadrature, with the self-cell integral at offset 0, and
    the columns are multiplied as spectra of size 2m per axis, which holds
    the whole linear convolution on the kept slice [m - 1, 2m - 1). Complex
    columns go through as Re, Im float columns. Each array is let go once
    transformed, so the input of a caller that passes its only reference
    is freed before the inverse transform."""
    m = fv.shape[0]
    n = kernel.ndim
    axes = tuple(range(n))
    size = (2 * m,) * n
    pairs = np.iscomplexobj(fv)
    cols = fv.astype(np.complex128, copy=False).view(np.float64) if pairs else fv
    del fv
    spectrum = np.fft.rfftn(cols, size, axes=axes)
    del cols
    table = _offset_table(kernel, h, [np.full(n, 1 - m)], [(2 * m - 1,) * n]).reshape((2 * m - 1,) * n)
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


def _linear_apply(fs: Iterable[GridFunction], kernel: KernelSpec) -> list[GridFunction]:
    """T f for each f of fs on one grid, for a one-input kernel: the inputs
    are stacked once along a trailing axis, complex when any input is, and
    sent through `_linear_body` in one call; a real input is read back as
    the real part of its column. Every column's arithmetic is that of a lone
    input, so each output is bit for bit what a call on its input alone
    gives, in its input's dtype. The inputs are let go once stacked, so
    those of a generator are freed before the body allocates its own arrays."""
    fs = list(fs)
    if not fs:
        return []
    grid = common_grid(*fs)
    _check_kernel(kernel, 1, grid)
    real = [not np.iscomplexobj(f.values) for f in fs]
    stack = [np.stack([f.values for f in fs], axis=-1)]
    del fs  # the stack holds the inputs now
    # the body gets the only reference to the stack, so it frees it once transformed
    vals = _linear_body(stack.pop(), kernel, grid.h)
    return [GridFunction(grid, np.ascontiguousarray(vals[..., j].real if r else vals[..., j])) for j, r in enumerate(real)]


def singular_integral(f: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Principal-value convolution with a mean-zero homogeneous kernel."""
    return _linear_apply((f,), kernel)[0]


def fractional_integral(f: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Zero-extended convolution with a kernel of order alpha > 0, e.g.
    I_alpha f for the fixture frac_alpha:<alpha>."""
    return _linear_apply((f,), kernel)[0]


# ---- Bilinear quadrature ----


def _pairs(k: int) -> list[tuple[int, int]]:
    """The offset table's axes as pairs (s, t) of cell sets (x, y_1, ...,
    y_k): axis (s, t) holds cells[s] - cells[t], so a = x - y_1 and, for
    i >= 2, c_i = y_1 - y_i."""
    return [(0, 1), *((1, i) for i in range(2, k + 1))]


def _offset_boxes(cells: list[np.ndarray]) -> tuple[list[np.ndarray], list[tuple]]:
    """Low corner and dims of each table axis: the box of cell offsets that
    its pair of (count, n) coordinate sets spans."""
    pairs = _pairs(len(cells) - 1)
    lo = [cells[s].min(axis=0) - cells[t].max(axis=0) for s, t in pairs]
    dims = [tuple(cells[s].max(axis=0) - cells[t].min(axis=0) - low + 1) for (s, t), low in zip(pairs, lo)]
    return lo, dims


def _pair_index(cells: list[np.ndarray], lo: list[np.ndarray], dims: list[tuple]) -> list[np.ndarray]:
    """Each table axis's flat row-major index of cells[s] - cells[t], as a
    (count_s, count_t) array."""
    return [
        np.ravel_multi_index(tuple(np.moveaxis(cells[s][:, None] - cells[t][None] - low, -1, 0)), d)
        for (s, t), low, d in zip(_pairs(len(cells) - 1), lo, dims)
    ]


def _evaluate(kernel: KernelSpec, h: float, shape: tuple, points: Callable) -> np.ndarray:
    """K at h points(index) over the row-major indices of shape, flat, for
    points mapping index arrays to integer rows (count, D), in blocks of
    _MAX_POINTS points, so K's work arrays stay small whatever the shape."""
    out = np.empty(math.prod(shape))
    for p in range(0, out.size, _MAX_POINTS):
        q = min(p + _MAX_POINTS, out.size)
        out[p:q] = kernel.evaluate(points(np.unravel_index(np.arange(p, q), shape)) * h)
    return out


def _offset_table(kernel: KernelSpec, h: float, lo: list[np.ndarray], dims: list[tuple]) -> np.ndarray:
    """The offset table, one axis per table axis a, c_2, ..., c_k, each
    flattened row-major: K at h (a, a + c_2, ..., a + c_k), with K(0) = 0."""
    low = np.concatenate(lo)

    def points(index):  # rows (a, c_2, ..., c_k) to (a, a + c_2, ..., a + c_k), as x - y_i = a + c_i
        offs = (np.stack(index, axis=-1) + low).reshape(-1, len(dims), len(lo[0]))
        offs[:, 1:] += offs[:, :1]
        return offs.reshape(len(offs), -1)

    return _evaluate(kernel, h, sum(dims, ()), points).reshape([math.prod(d) for d in dims])


def kernel_tensor(kernel: KernelSpec, grid: Grid, x: np.ndarray, *ys: np.ndarray) -> np.ndarray:
    """K(x - y_1, ..., x - y_k) as an (X, Y_1, ..., Y_k) tensor over flat
    row-major cell indices x and y_i, read at lattice offsets: K is
    evaluated once on a table of the offsets that occur, whose axes are
    a = x - y_1 and, for i >= 2, c_i = y_1 - y_i (the boxes of cell offsets
    the sets span), at the points h (a, a + c_2, ..., a + c_k), and the
    tensor is gathered from it. Where that table would hold more points
    than the tensor has entries (sparse sets spread over the box), K is
    read at each entry's own lattice offset instead, in the same blocks."""
    cells = [np.stack(np.unravel_index(v, grid.shape), axis=-1) for v in (x, *ys)]  # (count, n)
    k, shape = len(ys), tuple(len(c) for c in cells)
    if 0 in shape:
        return np.zeros(shape)
    lo, dims = _offset_boxes(cells)
    if math.prod(sum(dims, ())) > math.prod(shape):
        entries = lambda index: np.concatenate([cells[0][index[0]] - c[i] for c, i in zip(cells[1:], index[1:])], axis=1)
        return _evaluate(kernel, grid.h, shape, entries).reshape(shape)
    table = _offset_table(kernel, grid.h, lo, dims)
    index = [  # each pair's table index, on the tensor axes s and t
        np.expand_dims(flat, tuple(j for j in range(k + 1) if j not in (s, t)))
        for (s, t), flat in zip(_pairs(k), _pair_index(cells, lo, dims))
    ]
    return table[tuple(index)]


class _Table(NamedTuple):
    """The table form of a plan: table[a, c] = K(h a, h (a + c)) for every
    offset a = x - y and c = y - z that the supports span; a_index (X, Y) is
    the flat index of (a(x, y), y) in an (A, Y) array, c_index (Y, Z) that
    of (c(y, z), y) in a (C, Y) array."""

    table: np.ndarray
    a_index: np.ndarray
    c_index: np.ndarray


def _plan_sum(K: np.ndarray | _Table, fy: np.ndarray, gz: np.ndarray) -> np.ndarray:
    """sum over y, z of K(x - y, x - z) f_y g_z at every output cell x, over
    the nonzero values fy of f and gz of g, for a plan K of `_plan`.

    Tensor form: K is the (X, Y*Z) tensor, contracted with w = f_y g_z as one
    real product, K @ w, or K @ [Re w, Im w] for complex inputs. Table form:
    G[c, y] = g(y - c) is scattered from g, H = table @ G is one real matrix
    product (complex G through its Re, Im columns), and out[x] = sum_y f(y)
    H[a(x, y), y] is a gather and an einsum over each output cell's own
    row."""
    if isinstance(K, _Table):
        pairs = np.iscomplexobj(gz)
        G = np.zeros((K.table.shape[1], len(fy)), dtype=np.complex128 if pairs else np.float64)
        G.reshape(-1)[K.c_index] = gz
        H = K.table @ G.view(np.float64)  # (A, 2Y) Re, Im pairs for complex G
        return np.einsum("xy,y->x", (H.view(np.complex128) if pairs else H).reshape(-1).take(K.a_index), fy)
    w = np.multiply.outer(fy, gz).reshape(-1)
    if np.iscomplexobj(w):  # the two columns Re w, Im w
        return (K @ w.astype(np.complex128, copy=False).view(np.float64).reshape(-1, 2)).view(np.complex128).reshape(-1)
    return K @ w


def _plan(grid: Grid, kernel: KernelSpec, ysel: np.ndarray, zsel: np.ndarray) -> np.ndarray | _Table:
    """The plan of the nonzero cells ysel of f and zsel of g (sorted flat
    row-major indices) for `_plan_sum`, over all X output cells: above
    _TABLE_FORM tensor entries, where it is the smaller, the table form,
    the whole (A, C) offset table T[a, c] = K(h a, h (a + c)), a = x - y
    and c = y - z, over the box of offsets the supports span, with the
    (X, Y) and (Y, Z) indices of each pair's offset; otherwise the tensor
    form, `kernel_tensor` of every cell against ysel and zsel as an
    (X, Y*Z) matrix. So a plan of more than 2^18 entries is the smaller of
    its tensor and its table, and sparse sets spread over the box, whose
    table is the larger, keep their tensor. Either way, the doubly-singular
    pair y = z = x is the zero offset, where K reads 0."""
    X, Y, Z = grid.m**grid.n, len(ysel), len(zsel)
    cells = [np.stack(np.unravel_index(v, grid.shape), axis=-1) for v in (np.arange(X), ysel, zsel)]
    lo, dims = _offset_boxes(cells)
    if X * Y * Z <= _TABLE_FORM or math.prod(sum(dims, ())) >= X * Y * Z:
        return kernel_tensor(kernel, grid, np.arange(X), ysel, zsel).reshape(X, -1)
    a_flat, c_flat = _pair_index(cells, lo, dims)
    return _Table(_offset_table(kernel, grid.h, lo, dims), a_flat * Y + np.arange(Y), c_flat * Y + np.arange(Y)[:, None])


# The last plan built, as one (key, plan) entry. The estimate chain
# applies T(f, g) and T(b f, g) for every Fourier mode of a cube, all on the
# same nonzero sets, so one slot serves every mode after the first. The key
# is the exact nonzero sets, not their support box, so a reused plan holds
# exactly the entries a fresh build would.
_plans: list[tuple[tuple, np.ndarray | _Table]] = []


def _bilinear_plan(grid: Grid, kernel: KernelSpec, ysel: np.ndarray, zsel: np.ndarray) -> np.ndarray | _Table:
    """The plan of `_plan` for ysel and zsel, kept in the one slot. The slot
    is emptied before a plan is built, so at most one plan is alive."""
    key = (grid, kernel, ysel.tobytes(), zsel.tobytes())
    if not _plans or _plans[0][0] != key:
        _plans.clear()
        _plans.append((key, _plan(grid, kernel, ysel, zsel)))
    return _plans[0][1]


def _bilinear_apply(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    """T(f, g) from the one kept plan of `_bilinear_plan`, by `_plan_sum`,
    times the cell volume h^(2n); for alpha > 0, the self-cell term
    `_self_cell` f g is added at the cells in both supports. The products
    run through BLAS, so their last digits depend on its thread count."""
    grid = common_grid(f, g)
    _check_kernel(kernel, 2, grid)
    h = grid.h

    fflat = f.values.reshape(-1)
    gflat = g.values.reshape(-1)
    ysel = fflat.nonzero()[0]
    zsel = gflat.nonzero()[0]
    dtype = np.result_type(fflat, gflat)
    if len(ysel) == 0 or len(zsel) == 0:
        return GridFunction(grid, np.zeros(grid.shape, dtype=dtype))

    plan = _bilinear_plan(grid, kernel, ysel, zsel)
    out = (_plan_sum(plan, fflat[ysel], gflat[zsel]) * h**kernel.D).astype(dtype, copy=False)
    if kernel.alpha != 0.0:
        both = np.intersect1d(ysel, zsel, assume_unique=True)
        if len(both):
            out[both] += _self_cell(kernel, h) * fflat[both] * gflat[both]
    return GridFunction(grid, out.reshape(grid.shape))


def bilinear_singular_integral(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    return _bilinear_apply(f, g, kernel)


def bilinear_fractional_integral(f: GridFunction, g: GridFunction, kernel: KernelSpec) -> GridFunction:
    """Bilinear fractional integral, e.g. with `distance_kernel`'s
    (|u| + |v|)^(alpha - 2n)."""
    return _bilinear_apply(f, g, kernel)


def distance_kernel(n: int, alpha: float) -> KernelSpec:
    """(|u| + |v|)^(alpha - 2n) written as a homogeneous profile; its self
    cell comes from the one rule, which splits each face where u or v is 0."""

    def omega(theta: np.ndarray) -> np.ndarray:
        un = np.sqrt(np.sum(theta[..., :n] ** 2, axis=-1))
        vn = np.sqrt(np.sum(theta[..., n:] ** 2, axis=-1))
        return (un + vn) ** (alpha - 2 * n)

    return KernelSpec(2, n, alpha, omega, name=f"distance(alpha={alpha:g})")


# ---- Averaging and maximal operators ----


def _averaging(fs: Sequence[GridFunction], cube: Cube, alpha: float) -> GridFunction:
    grid = common_grid(*fs)
    _alpha_check(alpha, len(fs) * grid.n)
    sl = cube_slices(grid, cube)
    blocks = [f.values[sl] for f in fs]
    val = math.prod([(blocks[0].size * grid.cell_volume) ** (alpha / grid.n), *(np.sum(b) / b.size for b in blocks)])
    return on_block(grid, sl, np.asarray(val, dtype=np.result_type(*(f.values for f in fs))))


def averaging(f: GridFunction, cube: Cube, alpha: float = 0.0) -> GridFunction:
    """A^Q_alpha f = |Q|^(alpha/n) (cell average of f on Q) chi_Q."""
    return _averaging((f,), cube, alpha)


def bilinear_averaging(f: GridFunction, g: GridFunction, cube: Cube, alpha: float = 0.0) -> GridFunction:
    """A^Q_alpha (f, g) = |Q|^(alpha/n) (average of f on Q) (average of g on Q) chi_Q."""
    return _averaging((f, g), cube, alpha)


def _maximal(fs: Sequence[GridFunction], alpha: float, family: CubeFamily) -> GridFunction:
    grid = common_grid(*fs, family)
    _alpha_check(alpha, len(fs) * grid.n)
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


def _check_kernel(kernel: KernelSpec, inputs: int, grid: Grid):
    """Refuse a kernel that does not take `inputs` inputs, and one whose
    base dimension is not the grid's."""
    if kernel.inputs != inputs:
        raise ValueError(f"entry point for a {inputs}-input kernel, and {kernel.name or '<anon>'} takes {kernel.inputs}")
    if grid.n != kernel.ndim:
        raise GridMismatch(f"kernel base dimension {kernel.ndim} on grid of dimension {grid.n}")
