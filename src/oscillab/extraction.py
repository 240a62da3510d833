"""Lower bounds for mean oscillation through commutator action.

The pipeline turns the qualitative statement "commutator bounded implies
bounded mean oscillation" into per-cube arithmetic:

1. `select_geometry` fixes a base point on the annulus 2 sqrt(n) < |c| <
   4 sqrt(n) where the kernel stays away from zero on a small ball, plus a
   scale parameter delta in (0, 1).
2. `fourier_reciprocal` expands 1/K in exponentials on that ball. Offsets
   between a cube Q and its shifted partners land, after rescaling by
   delta/r, in the ball at the antipode -c, so the expansion is sampled
   there; a Gaussian-profile taper flattens the samples to ~0 before the
   period box repeats, and a least-squares pass over a dense ball sample
   polishes the kept coefficients (the expansion is only ever used on the
   ball, so on-ball residual is the right target).
3. `build_test_functions` makes modulated indicators whose moduli are plain
   cube indicators, so their norms match the norms of their supports.
4. `verify_master_chain` evaluates the five-stage estimate chain

   (i)   integral over Q of |b - b_{Q'}|
   (ii)  the same quantity rewritten through K * (1/K) as a double or
         triple cell sum (an identity, and a check that K never vanishes
         on the sampled offsets)
   (iii) the Fourier-resummed form: sum_j a_j int h_j [b,T](f_j, g_j)
   (iv)  the term-by-term Hoelder bound with |a_j| and norm products
   (v)   the closing bound with a probe estimate of the commutator norm
         and indicator norms of the fixed dilate P of Q

   reporting every stage, every gap, and the truncation-error budget.
5. `necessity_experiment` runs the chain over a cube family and classifies
   the per-cube oscillation ratios as stable or growing.

Cell conventions follow `grid`: all measures are cell counts times h^n, and
stage prefactors use those exact counts, so stages (i) and (ii) agree to
rounding and the orderings (iii) <= (iv) <= (v) hold by construction
whenever the probe set contains the chain's own test pairs (it always does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadDelta,
    KernelVanishes,
    OutOfDomain,
    TailTooLarge,
    UncoveredPoint,
)
from .grid import (
    Cube,
    CubeFamily,
    GridFunction,
    cube_average,
    cube_measure,
    cube_slices,
)
from .operators import (
    KernelSpec,
    OperatorHandle,
    bilinear_commutator,
    bilinear_kernel_tensor,
    commutator,
)
from .spaces import SpaceSpec, associate, chi_norm, norm

_BALL_SEED = 20240817


# ---- Geometry ----


@dataclass(frozen=True)
class ExtractionGeometry:
    """Base point, scale, and per-cube derived cubes for the chain.

    base_point c lives on the annulus 2 sqrt(n) < |c| < 4 sqrt(n) in R^D
    (D = n for linear kernels, 2n for bilinear). For a cube Q = Q(x0, r)
    the derived cubes sit at x0 + r c_i / delta with side r; both fit in
    sqrt(n) (1 + 8/delta) Q, and P = 2 sqrt(n) (1 + 8/delta) Q.
    """

    arity: str
    ndim: int
    delta: float
    base_point: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise BadDelta(f"delta must lie in (0, 1), got {self.delta}")
        if self.arity not in ("linear", "bilinear"):
            raise ValueError(f"bad arity {self.arity!r}")
        if len(self.base_point) != self.D:
            raise ValueError(
                f"base point has {len(self.base_point)} components, expected {self.D}"
            )
        rho = math.sqrt(sum(v * v for v in self.base_point))
        lo, hi = 2 * math.sqrt(self.ndim), 4 * math.sqrt(self.ndim)
        if not lo < rho < hi:
            raise ValueError(f"|base point| = {rho:.6g} outside ({lo:.6g}, {hi:.6g})")
        if rho - self.ball_radius <= 0:
            raise ValueError("ball around the base point reaches the origin")

    @property
    def D(self) -> int:
        return self.ndim if self.arity == "linear" else 2 * self.ndim

    @property
    def ball_radius(self) -> float:
        """delta * sqrt(2n): the validity ball radius at the original scale."""
        return self.delta * math.sqrt(2 * self.ndim)

    @property
    def expansion_center(self) -> tuple[float, ...]:
        """Antipode -c: rescaled cube offsets land in the ball there."""
        return tuple(-v for v in self.base_point)

    @property
    def y1(self) -> tuple[float, ...]:
        return tuple(v / self.delta for v in self.base_point[: self.ndim])

    @property
    def z1(self) -> tuple[float, ...] | None:
        if self.arity == "linear":
            return None
        return tuple(v / self.delta for v in self.base_point[self.ndim :])

    @property
    def containment_factor(self) -> float:
        return math.sqrt(self.ndim) * (1 + 8 / self.delta)

    def derived_cubes(self, q: Cube) -> tuple[Cube, ...]:
        shifts = [self.y1] if self.arity == "linear" else [self.y1, self.z1]
        return tuple(
            q.translate([q.side * s for s in shift]) for shift in shifts
        )

    def outer_cube(self, q: Cube) -> Cube:
        return q.dilate(self.containment_factor)

    def p_cube(self, q: Cube) -> Cube:
        return q.dilate(2 * self.containment_factor)

    def verify_for_cube(self, q: Cube) -> dict:
        """Exact interval arithmetic for the per-cube invariants.

        The block of the base point with norm >= sqrt(2n) pushes its derived
        cube at least sqrt(2n)/delta * r away, hence off Q; containment in
        the outer dilate follows from |c| < 4 sqrt(n). Both are re-checked
        on the actual cubes here rather than trusted.
        """
        derived = self.derived_cubes(q)
        outer = self.outer_cube(q)
        blocks = [self.base_point[: self.ndim]]
        if self.arity == "bilinear":
            blocks.append(self.base_point[self.ndim :])
        norms = [math.sqrt(sum(v * v for v in blk)) for blk in blocks]
        far = int(np.argmax(norms))
        checks = {
            "far_block_norm_ok": norms[far] >= math.sqrt(2 * self.ndim),
            "far_cube_disjoint": derived[far].disjoint_from(q),
            "some_cube_disjoint": any(d.disjoint_from(q) for d in derived),
            "containment": all(outer.contains_cube(d) for d in derived),
        }
        checks["ok"] = all(checks.values())
        return checks


def _unit_ball_points(D: int, count: int, seed: int = _BALL_SEED) -> np.ndarray:
    """Deterministic points in the closed unit ball, boundary included."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, D))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, count) ** (1.0 / D)
    pts = g * radii[:, None]
    shell = g[: max(8, count // 16)] * 0.999
    return np.concatenate([np.zeros((1, D)), pts, shell], axis=0)


def _scan_directions(D: int) -> np.ndarray:
    if D == 1:
        return np.array([[1.0], [-1.0]])
    if D == 2:
        t = (np.arange(128) + 0.5) * (2 * np.pi / 128)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    rng = np.random.default_rng(_BALL_SEED)
    g = rng.standard_normal((128, D))
    g = np.concatenate([g, -g], axis=0)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def select_geometry(
    kernel: KernelSpec, delta: float, threshold_rel: float = 1e-3
) -> ExtractionGeometry:
    """Pick the annulus point where |K| stays largest on the validity ball.

    Scans a coarse direction set at radius 3 sqrt(n), measures min |K| over
    a deterministic ball sample around the candidate and its antipode
    (the expansion lives at the antipode), and keeps the best. Raises
    KernelVanishes when no direction clears threshold_rel relative to the
    natural kernel scale at that radius.
    """
    if not 0.0 < delta < 1.0:
        raise BadDelta(f"delta must lie in (0, 1), got {delta}")
    n = kernel.ndim
    D = kernel.D
    rho = 3 * math.sqrt(n)
    radius = delta * math.sqrt(2 * n)
    ball = _unit_ball_points(D, 256) * radius
    scale = rho ** (-kernel.degree)
    best_val = -1.0
    best_dir = None
    for direction in _scan_directions(D):
        c = rho * direction
        lo = min(
            float(np.min(np.abs(kernel.evaluate(c + ball)))),
            float(np.min(np.abs(kernel.evaluate(-c + ball)))),
        )
        if lo > best_val:
            best_val = lo
            best_dir = c
    if best_val < threshold_rel * scale:
        raise KernelVanishes(
            f"kernel {kernel.name or '<anon>'}: best direction keeps only "
            f"min|K| = {best_val:.3e} (threshold {threshold_rel * scale:.3e})"
        )
    return ExtractionGeometry(kernel.arity, n, delta, tuple(float(v) for v in best_dir))


# ---- Fourier expansion of 1/K ----


_erfc = np.vectorize(math.erfc)


def _erf_window(rad: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    """Radial taper: 1 on [0, r_in] up to an erfc tail, ~0 beyond r_out.

    The ramp midpoint sits halfway between r_in and r_out with width sigma
    chosen so the residual at both ends is below 2e-8; the Gaussian profile
    is what buys spectral decay fast enough for small truncation counts.
    """
    mid = 0.5 * (r_in + r_out)
    sigma = (r_out - r_in) / 11.0
    return 0.5 * _erfc((rad - mid) / (sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class FourierExpansion:
    """Truncated expansion 1/K(w) ~ sum_j coeffs[j] exp(i freqs[j] . w),
    valid on the ball B(center, radius) only.

    epsilon is the measured sup residual on a dense deterministic ball
    sample; l1_tail sums the dropped |a_j| and l1_total all of them.
    """

    coeffs: np.ndarray
    freqs: np.ndarray
    N: int
    epsilon: float
    l1_tail: float
    l1_total: float
    center: tuple[float, ...]
    radius: float
    geometry: ExtractionGeometry

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        phases = flat @ self.freqs.T
        out = np.exp(1j * phases) @ self.coeffs
        return out.reshape(pts.shape[:-1])


_FFT_SIZE = {1: 4096, 2: 256, 4: 32}


def fourier_reciprocal(
    kernel: KernelSpec,
    geometry: ExtractionGeometry,
    N_per_axis: int,
    tol: float = 1e-5,
    fft_size: int | None = None,
    pad: float = 3.0,
    sample_count: int = 4096,
) -> FourierExpansion:
    """Fourier coefficients of 1/K, valid on the expansion ball.

    Samples the period box (half-side pad * ball radius, centered at the
    antipode of the base point, shrunk if it would reach the kernel
    singularity at 0), multiplies by a radial taper that is ~1 on the ball
    and ~0 before the box edge, and takes the exact DFT of the samples.
    Modes are sorted by |a_j| descending and truncated to N_per_axis^D
    (ties keep FFT order so runs are reproducible); the kept coefficients
    are then re-fit by least squares against 1/K on a dense ball sample,
    and the residual is measured on a second, independent sample.
    """
    if kernel.arity != geometry.arity or kernel.ndim != geometry.ndim:
        raise ValueError("kernel and geometry disagree on arity or dimension")
    D = geometry.D
    M = fft_size if fft_size is not None else _FFT_SIZE[D]
    center = np.array(geometry.expansion_center)
    R = geometry.ball_radius
    L = pad * R
    # keep the taper support strictly inside |w| < |c|, where K is smooth
    max_L = 0.98 * float(np.linalg.norm(center)) / 0.97
    L = min(L, max_L)
    if 0.97 * L <= R:
        raise BadDelta("no taper room: ball radius reaches the period box edge")
    floor = 1e-12 * float(np.linalg.norm(center)) ** (-kernel.degree)

    # shrink the taper toward the ball if the kernel happens to vanish in
    # the slack region between the ball and the box edge
    for _ in range(4):
        r_out = 0.97 * L
        step = 2 * L / M
        axis = -L + (np.arange(M) + 0.5) * step
        grids = np.meshgrid(*([axis] * D), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1) + center
        rad = np.linalg.norm(pts - center, axis=1)
        window = _erf_window(rad, R, r_out)
        window[rad >= r_out] = 0.0
        window = window.reshape((M,) * D)
        kvals = kernel.evaluate(pts).reshape((M,) * D)
        supp = window > 0
        if float(np.min(np.abs(kvals[supp]))) >= floor:
            break
        L = R + 0.7 * (L - R)
    else:
        raise KernelVanishes("kernel vanishes arbitrarily close to the ball")
    W = np.zeros((M,) * D)
    W[supp] = window[supp] / kvals[supp]

    F = np.fft.fftn(W) / M**D
    qs = np.fft.fftfreq(M, d=1.0 / M)  # shifted integers -M/2 .. M/2 - 1
    omega_axis = np.pi * qs / L
    # cell-centered sampling phase, then fold the box-corner phase so the
    # stored frequencies are absolute
    corner = center - L
    coeff = F
    for ax in range(D):
        shape = [1] * D
        shape[ax] = M
        phase = np.exp(-1j * (np.pi * qs / M + omega_axis * corner[ax])).reshape(shape)
        coeff = coeff * phase
    if D == 1:
        freqs = omega_axis[:, None]
    else:
        mesh = np.meshgrid(*([omega_axis] * D), indexing="ij")
        freqs = np.stack([g.reshape(-1) for g in mesh], axis=1)
    flat = coeff.reshape(-1)

    order = np.argsort(-np.abs(flat), kind="stable")
    keep = order[: N_per_axis**D]
    drop = order[N_per_axis**D :]
    kept_freqs = freqs[keep].copy()

    # on-ball least-squares polish of the kept coefficients; the sets of
    # kept modes are nested in N, so the fit residual refines monotonically
    fit = _unit_ball_points(D, sample_count, _BALL_SEED) * R + center
    target = 1.0 / kernel.evaluate(fit)
    design = np.exp(1j * (fit @ kept_freqs.T))
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=1e-10)

    expansion = FourierExpansion(
        coeffs=coeffs,
        freqs=kept_freqs,
        N=len(keep),
        epsilon=0.0,
        l1_tail=float(np.sum(np.abs(flat[drop]))),
        l1_total=float(np.sum(np.abs(coeffs)) + np.sum(np.abs(flat[drop]))),
        center=tuple(center),
        radius=R,
        geometry=geometry,
    )
    sample = _unit_ball_points(D, sample_count, _BALL_SEED + 1) * R + center
    resid = np.abs(1.0 / kernel.evaluate(sample) - expansion.evaluate(sample))
    eps = float(np.max(resid))
    expansion = replace(expansion, epsilon=eps)
    if eps > tol:
        raise TailTooLarge(
            f"residual {eps:.3e} > {tol:.3e} at N = {expansion.N}; raise N_per_axis "
            "or the FFT size"
        )
    return expansion


# ---- Test functions ----


@dataclass(frozen=True)
class TestFunctionTriple:
    """Modulated indicators (f, g, h) for one frequency; g is None in the
    linear case. Moduli are exactly the indicators of Q', Q'', and Q
    (h also carries the sign pattern of b - b_{Q'})."""

    f: GridFunction
    g: GridFunction | None
    h: GridFunction
    frequency: np.ndarray


def _modulated_indicator(grid, cube: Cube, vec: np.ndarray, sign: float = -1.0) -> GridFunction:
    vals = np.zeros(grid.shape, dtype=np.complex128)
    sl = cube_slices(grid, cube)
    meshes = grid.meshes()
    phase = sum(float(v) * m[sl] for v, m in zip(vec, meshes))
    vals[sl] = np.exp(sign * 1j * phase)
    return GridFunction(grid, vals)


def build_test_functions(
    q: Cube, geometry: ExtractionGeometry, nu: np.ndarray, b: GridFunction
) -> TestFunctionTriple:
    """f = e^{-i (delta/r) nu^1 . y} chi_{Q'}, g likewise on Q'', and
    h = e^{+i (delta/r) nu . (x, x)} sgn(b - b_{Q'}) chi_Q."""
    grid = b.grid
    n = grid.n
    nu = np.asarray(nu, dtype=float)
    scale = geometry.delta / q.side
    derived = geometry.derived_cubes(q)
    qp = derived[0]
    f = _modulated_indicator(grid, qp, scale * nu[:n])
    g = None
    if geometry.arity == "bilinear":
        g = _modulated_indicator(grid, derived[1], scale * nu[n:])
    hvec = scale * (nu[:n] + nu[n:]) if geometry.arity == "bilinear" else scale * nu
    h = _modulated_indicator(grid, q, hvec, sign=+1.0)
    bqp = cube_average(b, qp)
    sl = cube_slices(grid, q)
    sigma = np.sign(b.values[sl] - bqp)
    hv = h.values.copy()
    hv[sl] *= sigma
    h = GridFunction(grid, hv)
    pairs = [(f, qp), (h, q)]
    if g is not None:
        pairs.insert(1, (g, derived[1]))
    for fn, supp in pairs:
        mod = np.abs(fn.values[cube_slices(grid, supp)])
        live = mod > 0  # h is 0 where b equals its Q' average exactly
        if live.any() and np.max(np.abs(mod[live] - 1.0)) > 1e-12:
            raise AssertionError("modulated indicator lost unit modulus")
    return TestFunctionTriple(f, g, h, nu)


# ---- The estimate chain ----


@dataclass(frozen=True)
class ChainReport:
    """All five stages for one cube, with gaps and the truncation budget.

    stage_iii is the real part of the resummed form; its (small) imaginary
    part is folded into gap_23 = |stage_ii - stage_iii_complex|, which the
    truncation bound bound_23 = (r/delta)^d eps_N * (oscillation-kernel
    triple mass) must dominate. stage_v is None when the dilate P leaves
    the grid box; ordering gaps are signed (nonnegative means the ordering
    holds)."""

    cube: Cube
    derived: tuple[Cube, ...]
    p: Cube
    stage_i: float
    stage_ii: float
    stage_iii: float
    stage_iii_imag: float
    stage_iv: float
    stage_v: float | None
    gap_12: float
    gap_23: float
    bound_23: float
    gap_34: float
    gap_45: float | None
    probe_norm: float
    oscillation_ratio: float
    bound_ratio: float | None
    n_modes: int
    epsilon: float
    geometry_checks: dict
    min_kernel_on_offsets: float


def _cells_of(grid, cube: Cube):
    sl = cube_slices(grid, cube)
    meshes = grid.meshes()
    coords = np.stack([m[sl].reshape(-1) for m in meshes], axis=1)
    return sl, coords


def verify_master_chain(
    b: GridFunction,
    T: OperatorHandle,
    X1: SpaceSpec,
    X2: SpaceSpec | None,
    Y: SpaceSpec,
    q: Cube,
    geometry: ExtractionGeometry,
    expansion: FourierExpansion,
) -> ChainReport:
    """Evaluate the five-stage chain on one cube. See the module docstring."""
    grid = b.grid
    kernel = T.kernel
    if kernel.arity != geometry.arity:
        raise ValueError("operator and geometry disagree on arity")
    bilinear = geometry.arity == "bilinear"
    delta = geometry.delta
    d = kernel.degree
    r = q.side

    checks = geometry.verify_for_cube(q)
    if not checks["ok"]:
        raise ValueError(f"geometry invariants fail on {q}: {checks}")
    derived = geometry.derived_cubes(q)
    qp = derived[0]

    sl_q, xc = _cells_of(grid, q)
    _, yc = _cells_of(grid, qp)
    bq_block = b.values[sl_q].reshape(-1)
    bqp = cube_average(b, qp)
    sigma = np.sign(bq_block - bqp)
    cell = grid.cell_volume
    stage_i = float(np.sum(np.abs(bq_block - bqp)) * cell)

    by = b.values[cube_slices(grid, qp)].reshape(-1)
    bdiff = bq_block[:, None] - by[None, :]  # (X, Y)
    if bilinear:
        _, zc = _cells_of(grid, derived[1])
        K = bilinear_kernel_tensor(kernel, xc, yc, zc)
        navg = K.shape[1] * K.shape[2]
        meas_prod = cube_measure(grid, qp) * cube_measure(grid, derived[1])
    else:
        K = kernel.evaluate(xc[:, None, :] - yc[None, :, :])
        navg = K.shape[1]
        meas_prod = cube_measure(grid, qp)
    min_k = float(np.min(np.abs(K)))
    if min_k == 0.0:
        raise KernelVanishes(f"kernel vanishes on a sampled offset of {q}")
    ratio = K * (1.0 / K)
    if bilinear:
        inner = np.sum(bdiff[:, :, None] * ratio, axis=(1, 2))
        mass = float(np.sum(np.abs(bdiff)[:, :, None] * np.abs(K)) * cell / navg)
    else:
        inner = np.sum(bdiff * ratio, axis=1)
        mass = float(np.sum(np.abs(bdiff) * np.abs(K)) * cell / navg)
    stage_ii = float(np.sum(sigma * inner) * cell / navg)

    Yp = associate(Y)
    scale_pref = (r / delta) ** d
    c_pref = scale_pref / meas_prod
    nfg = chi_norm(X1, qp, grid) * (chi_norm(X2, derived[1], grid) if bilinear else 1.0)

    def one_mode(j: int):
        nu = expansion.freqs[j]
        triple = build_test_functions(q, geometry, nu, b)
        if bilinear:
            C = bilinear_commutator(b, T, triple.f, triple.g, slot=1)
        else:
            C = commutator(b, T, triple.f)
        if C.mask is not None and not C.mask[sl_q].all():
            raise UncoveredPoint(
                f"commutator window does not cover the test supports on {q}"
            )
        integral = complex(np.sum(triple.h.values[sl_q] * C.values[sl_q]) * cell)
        return integral, norm(triple.h, Yp), norm(C, Y), nfg

    mode_rows = [one_mode(j) for j in range(expansion.N)]
    a = expansion.coeffs
    resum = complex(sum(a[j] * mode_rows[j][0] for j in range(expansion.N)))
    stage_iii_c = c_pref * resum
    stage_iv = c_pref * float(
        sum(abs(a[j]) * mode_rows[j][1] * mode_rows[j][2] for j in range(expansion.N))
    )
    ratios = [
        row[2] / row[3] if row[3] > 0 else 0.0 for row in mode_rows
    ]
    probe_norm = float(max(ratios)) if ratios else 0.0

    p = geometry.p_cube(q)
    l1 = float(np.sum(np.abs(a)))
    try:
        pn = chi_norm(Yp, p, grid) * chi_norm(X1, p, grid)
        if bilinear:
            pn *= chi_norm(X2, p, grid)
        stage_v = c_pref * probe_norm * l1 * pn
    except OutOfDomain:
        stage_v = None

    bound_23 = scale_pref * expansion.epsilon * mass
    gap_23 = abs(stage_ii - stage_iii_c)
    meas_q = cube_measure(grid, q)
    return ChainReport(
        cube=q,
        derived=derived,
        p=p,
        stage_i=stage_i,
        stage_ii=stage_ii,
        stage_iii=float(stage_iii_c.real),
        stage_iii_imag=float(stage_iii_c.imag),
        stage_iv=stage_iv,
        stage_v=stage_v,
        gap_12=abs(stage_i - stage_ii),
        gap_23=float(gap_23),
        bound_23=float(bound_23),
        gap_34=stage_iv - abs(stage_iii_c),
        gap_45=None if stage_v is None else stage_v - stage_iv,
        probe_norm=probe_norm,
        oscillation_ratio=stage_i / meas_q,
        bound_ratio=None if stage_v is None else stage_v / meas_q,
        n_modes=expansion.N,
        epsilon=expansion.epsilon,
        geometry_checks=checks,
        min_kernel_on_offsets=min_k,
    )


# ---- Family-level necessity runs ----


@dataclass(frozen=True)
class NecessityReport:
    """Chain results over a family with stability verdicts.

    ratio_by_level maps generation -> max oscillation ratio; the verdicts
    read "stable" (total drift of the per-level maxima within 10%),
    "growing" (strictly increasing with more than 25% total rise), or
    "undetermined". sup_bound_ratio is None when no cube kept its P dilate
    inside the box.
    """

    per_cube: tuple[ChainReport, ...]
    ratios: tuple[float, ...]
    probe_norms: tuple[float, ...]
    ratio_by_level: dict[int, float]
    probe_by_level: dict[int, float]
    ratio_verdict: str
    probe_verdict: str
    sup_ratio: float
    sup_probe: float
    sup_bound_ratio: float | None
    provenance: str


def _trend_verdict(by_level: dict[int, float]) -> str:
    levels = sorted(by_level)
    vals = [by_level[l] for l in levels]
    if len(vals) < 2 or min(vals) <= 0:
        return "undetermined"
    total = vals[-1] / vals[0] - 1.0
    if all(b > a for a, b in zip(vals, vals[1:])) and total > 0.25:
        return "growing"
    if max(vals) / min(vals) - 1.0 <= 0.10:
        return "stable"
    return "undetermined"


def necessity_experiment(
    b: GridFunction,
    T: OperatorHandle,
    X1: SpaceSpec,
    X2: SpaceSpec | None,
    Y: SpaceSpec,
    family: CubeFamily,
    geometry: ExtractionGeometry,
    expansion: FourierExpansion,
) -> NecessityReport:
    """Run the chain on every family cube and classify the ratio trend.

    Oscillation ratios are stage (i) over |Q|; a bounded symbol keeps the
    per-level maxima flat while a symbol with unbounded oscillation on the
    family forces them, and with them the commutator probe norms, upward.
    """
    reports = [verify_master_chain(b, T, X1, X2, Y, qc, geometry, expansion) for qc in family]
    levels = family.levels if family.levels is not None else (0,) * len(reports)
    ratio_by: dict[int, float] = {}
    probe_by: dict[int, float] = {}
    for lvl, rep in zip(levels, reports):
        ratio_by[lvl] = max(ratio_by.get(lvl, 0.0), rep.oscillation_ratio)
        probe_by[lvl] = max(probe_by.get(lvl, 0.0), rep.probe_norm)
    bounds = [rep.bound_ratio for rep in reports if rep.bound_ratio is not None]
    return NecessityReport(
        per_cube=tuple(reports),
        ratios=tuple(rep.oscillation_ratio for rep in reports),
        probe_norms=tuple(rep.probe_norm for rep in reports),
        ratio_by_level=ratio_by,
        probe_by_level=probe_by,
        ratio_verdict=_trend_verdict(ratio_by),
        probe_verdict=_trend_verdict(probe_by),
        sup_ratio=float(max(rep.oscillation_ratio for rep in reports)),
        sup_probe=float(max(rep.probe_norm for rep in reports)),
        sup_bound_ratio=float(max(bounds)) if bounds else None,
        provenance=family.provenance,
    )
