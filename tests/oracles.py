"""Brute-force oracles that the library functions are checked against.

The single-cube scalar oracles read one cube's slice of the grid directly,
with no CubeFamily indexing, so a test that compares the two checks the
one-pass family arithmetic against an independent computation. The kernel
tensor oracle evaluates K at every coordinate difference, with no table of
lattice offsets. The self-cell oracles integrate K over the cell in polar
coordinates (D = 2) or over the radii of its two planes (D = 4), not over
the cell's faces. The 1/K expansion oracle sums every point's modes in one
(points, modes) phase array, with no blocks."""

import numpy as np

from oscillab import Cube, Grid, GridFunction, KernelSpec, Variable, conjugate_exponent, cube_slices

_DEFECT_SAMPLES = 64  # random (u, s) pairs of homogeneity_defect
_DEFECT_SEED = 7
_ORACLE_NODES = 32  # Gauss-Legendre nodes per smooth piece of a self-cell oracle


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


def amemiya_norm(g: GridFunction, space: Variable, steps: int = 200) -> float:
    """The associate norm of g for the Luxemburg norm of `space`, by
    Amemiya's formula: inf over k > 0 of (1 + integral Phi*(k |g|)) / k,
    with Phi*(s) = (p-1)/p * s * (s/p)^(1/(p-1)) the conjugate of s^p.
    Ternary search over log k, which the minimand is unimodal in."""
    p = space.exponent.values
    a = np.abs(g.values)

    def amemiya(log_k: float) -> float:
        s = np.exp(log_k) * a
        return (1.0 + float(np.sum((p - 1.0) / p * s * (s / p) ** (1.0 / (p - 1.0)))) * g.grid.cell_volume) / np.exp(log_k)

    lo, hi = -20.0, 20.0
    for _ in range(steps):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if amemiya(m1) <= amemiya(m2):
            hi = m2
        else:
            lo = m1
    return amemiya(0.5 * (lo + hi))


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


def expansion_at(expansion, points: np.ndarray) -> np.ndarray:
    """A FourierExpansion at points of shape (..., D) in one shot:
    exp(1j * (w @ freqs.T)) @ coeffs over all points at once."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, pts.shape[-1])
    return (np.exp(1j * (flat @ expansion.freqs.T)) @ expansion.coeffs).reshape(pts.shape[:-1])


def folded_spectrum(W: np.ndarray, center: np.ndarray, L: float) -> np.ndarray:
    """The DFT of the period box samples W, of half-side L around center,
    scaled by 1/M^D, times the cell-centred sampling phase and the
    box-corner phase of each axis, so its frequencies are absolute."""
    M, D = W.shape[0], W.ndim
    qs = np.fft.fftfreq(M, d=1.0 / M)
    F = np.fft.fftn(W) / M**D
    for ax in range(D):
        shape = [1] * D
        shape[ax] = M
        F *= np.exp(-1j * (np.pi * qs / M + np.pi * qs / L * (center[ax] - L))).reshape(shape)
    return F


def sorted_box_modes(F: np.ndarray, L: float, count: int) -> np.ndarray:
    """The (count, D) frequencies of the `count` largest |F| of a period box
    spectrum of half-side L, by a full stable sort of -|F|: ties keep FFT
    order."""
    M = F.shape[0]
    order = np.argsort(-np.abs(F).reshape(-1), kind="stable")
    omega_axis = np.pi * np.fft.fftfreq(M, d=1.0 / M) / L
    return omega_axis[np.stack(np.unravel_index(order[:count], F.shape), axis=1)]


def _gauss(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(_ORACLE_NODES)
    return (hi - lo) / 2 * x + (hi + lo) / 2, (hi - lo) / 2 * w


def polar_square_integral(profile, alpha: float, side: float, angles) -> float:
    """Integral over the part of the square [-side, side]^2 that the angles
    sweep of a function homogeneous of degree alpha - 2 with angular profile
    `profile`: int profile(phi) rho(phi)^alpha / alpha dphi with
    rho(phi) = side / max(|cos phi|, |sin phi|), by Gauss-Legendre between
    consecutive angles, where the integrand must be smooth."""
    total = 0.0
    for lo, hi in zip(angles[:-1], angles[1:]):
        phi, w = _gauss(lo, hi)
        rho = side / np.maximum(np.abs(np.cos(phi)), np.abs(np.sin(phi)))
        total += float(np.sum(w * profile(phi) * rho**alpha)) / alpha
    return total


def self_cell_2d(kernel: KernelSpec, h: float) -> float:
    """Integral of a kernel on R^2 over [-h/2, h/2]^2 in polar coordinates,
    split at the eight angles where rho has a kink."""
    omega = lambda phi: kernel.omega(np.stack([np.cos(phi), np.sin(phi)], axis=-1))
    return polar_square_integral(omega, kernel.alpha, h / 2, np.arange(9) * np.pi / 4)


def distance_self_cell_4d(alpha: float, h: float) -> float:
    """Integral of (|u| + |v|)^(alpha - 4), u and v in R^2, over [-s, s]^4
    with s = h/2: the integral over the radii a = |u|, b = |v| in
    [0, S], S = s sqrt 2, of g(a) g(b) (a + b)^(alpha - 4), where g(rho), the
    length of the circle of radius rho inside [-s, s]^2, is 2 pi rho up to s
    and 2 pi rho - 8 rho arccos(s / rho) beyond.

    With F0 = 4 pi^2 a b (a + b)^(alpha - 4), homogeneous of degree
    alpha - 2, and c = g / (2 pi rho), the integrand is F0 c(a) c(b): F0 is
    integrated over [0, S]^2 in polar coordinates, and F0 (c(a) c(b) - 1),
    zero on [0, s]^2, over the three rectangles left, away from the
    singularity; there rho = s + (S - s) t^2 smooths arccos's square-root
    edge at rho = s."""
    s = h / 2
    S = s * np.sqrt(2.0)
    f0 = lambda a, b: 4 * np.pi**2 * a * b * (a + b) ** (alpha - 4)
    c = lambda rho: 1 - 4 / np.pi * np.arccos(np.minimum(1.0, s / rho))
    whole = polar_square_integral(lambda phi: f0(np.cos(phi), np.sin(phi)), alpha, S, [0.0, np.pi / 4, np.pi / 2])
    t, wt = _gauss(0.0, 1.0)
    outer, wo = s + (S - s) * t**2, 2 * (S - s) * t * wt  # radii in [s, S]
    inner, wi = _gauss(0.0, s)
    strip = wo @ ((c(outer) - 1)[:, None] * f0(outer[:, None], inner[None])) @ wi  # [s, S] x [0, s], twice
    corner = wo @ ((np.multiply.outer(c(outer), c(outer)) - 1) * f0(outer[:, None], outer[None])) @ wo
    return float(whole + 2 * strip + corner)
