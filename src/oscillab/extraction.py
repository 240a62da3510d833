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
   sets the kept modes' coefficients (the expansion is only used on the
   ball, so on-ball residual is the right target). The expansion keeps the
   kernel and the geometry it was fitted on and is the chain's one set-up
   object; it is refused when its residual exceeds EPS_TOL. Its memory rule:
   no whole least-squares design; the fit's design rows come in blocks of
   _MAX_BLOCK entries, but never fewer than n + 1 rows for n modes, each
   reduced with the rows before it to one (n + 1, n + 1) triangle by a
   tall-skinny QR; the period box's sample points come in row-major flat
   blocks of _MAX_BLOCK points, and the residual check's phases in blocks
   of _MAX_BLOCK; and the period box is gone before the fit.
3. `build_test_functions` makes, for one mode, modulated indicators whose
   moduli are plain cube indicators, so their norms match the norms of
   their supports, and the block of h on the cells of Q, where alone h is
   read. It makes no exponential: a `ChainCube`, built once per cube before
   the mode loop, holds one `CubeFamily` of Q and its derived cubes, whose
   measures, averages and indicator norms the chain reads too, and one
   phase table per cube of that family with a row for every mode, each
   table from one np.exp.
4. `verify_master_chain` evaluates, on one cube and from one expansion
   (whose geometry places the derived cubes, and whose kernel is the
   operator T the chain applies), the five-stage estimate chain

   (i)   integral over Q of |b - b_{Q'}|
   (ii)  the same quantity rewritten through K * (1/K) as a double or
         triple cell sum (an identity, and a check that K never vanishes
         on the sampled offsets)
   (iii) the Fourier-resummed form: sum_j a_j int h_j [b,T](f_j, g_j)
   (iv)  the term-by-term Hoelder bound with |a_j| and norm products
   (v)   the closing bound with a probe estimate of the commutator norm
         and indicator norms of the fixed dilate P of Q, cut to the box

   reporting every stage and one table of checks, the one slack rule that
   report rows and tests read: each link with the tolerance it is held to.
5. `necessity_experiment` runs the chain once over a cube family, keeps
   every cube's report, and reads the per-level maxima of the oscillation
   ratios and probe norms as stable or growing. Both the `chain` and the
   `necessity` experiment read their rows from this one pass.

Cell conventions follow `grid`: all measures are cell counts times h^n, and
stage prefactors use those exact counts, so stages (i) and (ii) agree to
rounding. The orderings (iii) <= (iv) <= (v) hold by construction whenever
the probe set contains the chain's own test pairs (it always does) and Y' is
the exact associate space of Y, as for Lebesgue and Weighted ((iv) <= (v)
as Q and its derived cubes lie in P and in the box, and every norm is a
lattice norm). For Variable, Y' is Variable(p'(.)), whose norm is only
equivalent to the associate norm (a Hoelder defect of 1.01647 has been
measured; ROADMAP item 1), so (iii) <= (iv), which is Hoelder's inequality
for Y and Y', holds there only up to that equivalence constant.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadDelta, KernelVanishes, OscillabError, TailTooLarge
from .grid import Cube, CubeFamily, GridFunction, clipped_slices, common_grid, on_block, trend_verdict
from .operators import _BALL_SEED, KernelSpec, OperatorHandle, _ball_sequence, _sphere_points, commutator, kernel_tensor
from .spaces import SpaceSpec, associate, chi_norms, norm

# select_geometry: the least min |K| near the base point and its antipode,
# relative to the kernel scale at the scan radius
_MIN_KERNEL_REL = 1e-3
# fourier_reciprocal: the largest sup residual of the 1/K expansion on its ball
EPS_TOL = 1e-2
# the chain's checks: the relative rounding slack of (i) = (ii), (iii) <= (iv)
# and (iv) <= (v); the rounding allowance of |(ii) - (iii)| <= bound_23 per unit
# of the summed terms' size, (i) for those of (ii) and (iv) for those of (iii);
# the largest stage of a constant symbol; the floor of a stage divided by
_RELATION_REL, _ROUNDING, _ZERO_TOL, _TINY = 1e-9, 1e-12, 1e-10, 1e-300


# ---- Geometry ----


@dataclass(frozen=True)
class ExtractionGeometry:
    """Base point, scale, and per-cube derived cubes for the chain.

    base_point c lives on the annulus 2 sqrt(n) < |c| < 4 sqrt(n) in R^D,
    where D = k n, the length of c, for a kernel of k = 1 or 2 inputs, so
    the validity ball, of radius delta sqrt(2n) < |c|, misses the origin. For
    a cube Q = Q(x0, r) the derived cubes sit at x0 + r c_i / delta with
    side r; they fit in sqrt(n) (1 + 8/delta) Q, and P = 2 sqrt(n) (1 + 8/delta) Q.
    """

    ndim: int
    delta: float
    base_point: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise BadDelta(f"delta must lie in (0, 1), got {self.delta}")
        if self.D not in (self.ndim, 2 * self.ndim):
            raise ValueError(f"base point has {self.D} components, expected {self.ndim} or {2 * self.ndim}")
        rho = math.sqrt(sum(v * v for v in self.base_point))
        lo, hi = 2 * math.sqrt(self.ndim), 4 * math.sqrt(self.ndim)
        if not lo < rho < hi:
            raise ValueError(f"|base point| = {rho:.6g} outside ({lo:.6g}, {hi:.6g})")

    @property
    def D(self) -> int:
        return len(self.base_point)

    @property
    def ball_radius(self) -> float:
        """delta * sqrt(2n): the validity ball radius at the original scale."""
        return self.delta * math.sqrt(2 * self.ndim)

    @property
    def expansion_center(self) -> tuple[float, ...]:
        """Antipode -c: rescaled cube offsets land in the ball there."""
        return tuple(-v for v in self.base_point)

    @property
    def containment_factor(self) -> float:
        return math.sqrt(self.ndim) * (1 + 8 / self.delta)

    def _blocks(self) -> list[tuple[float, ...]]:
        """The base point cut into one n-block per input."""
        return [self.base_point[i : i + self.ndim] for i in range(0, self.D, self.ndim)]

    def derived_cubes(self, q: Cube) -> tuple[Cube, ...]:
        """One cube per input: Q shifted by r c_i / delta for each block c_i."""
        return tuple(
            q.translate([q.side * (v / self.delta) for v in block]) for block in self._blocks()
        )

    def p_cube(self, q: Cube) -> Cube:
        return q.dilate(2 * self.containment_factor)

    def check_cube(self, q: Cube):
        """Raise ValueError, naming q, unless the derived cube of the
        farthest block misses Q and every derived cube lies in the outer
        dilate sqrt(n) (1 + 8/delta) Q.

        The farthest block has norm >= sqrt(2n) (the annulus check of
        __post_init__), which pushes its derived cube at least
        sqrt(2n)/delta * r away, hence off Q; containment follows from
        |c| < 4 sqrt(n). Both are re-checked on the actual cubes here
        rather than trusted.
        """
        derived = self.derived_cubes(q)
        outer = q.dilate(self.containment_factor)
        far = int(np.argmax([math.sqrt(sum(v * v for v in blk)) for blk in self._blocks()]))
        if not derived[far].disjoint_from(q):
            raise ValueError(f"derived cube {derived[far]} of {q} meets {q}")
        if not all(outer.contains_cube(d) for d in derived):
            raise ValueError(f"a derived cube of {q} leaves the outer dilate {outer}")


def _unit_ball_points(D: int, count: int, seed: int = _BALL_SEED) -> np.ndarray:
    """A fixed quadrature set of the closed unit ball: the origin, count
    interior points of `_ball_sequence` (a closed-form low-discrepancy
    sequence, whose shift the seed sets), and max(8, count // 16) shell
    points at radius 0.999 along the directions of the first of them. The
    set is the same on every call and needs no pseudo-random stream."""
    pts = _ball_sequence(D, count, seed)
    g = pts[: max(8, count // 16)]
    shell = g * (0.999 / np.linalg.norm(g, axis=1, keepdims=True))
    return np.concatenate([np.zeros((1, D)), pts, shell], axis=0)


def select_geometry(kernel: KernelSpec, delta: float) -> ExtractionGeometry:
    """Pick the annulus point where |K| stays largest on the validity ball.

    Scans a coarse direction set at radius 3 sqrt(n), measures min |K| over
    a deterministic ball sample around each candidate and its antipode
    (the expansion lives at the antipode) in one kernel evaluation over all
    directions, and keeps the best. Raises
    KernelVanishes when no direction clears _MIN_KERNEL_REL relative to the
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
    cs = rho * _sphere_points(D, 128 if D == 2 else 256, _BALL_SEED)
    lo = np.minimum(
        np.min(np.abs(kernel.evaluate(cs[:, None, :] + ball)), axis=1),
        np.min(np.abs(kernel.evaluate(-cs[:, None, :] + ball)), axis=1),
    )
    lo[np.isnan(lo)] = -np.inf  # a direction whose minimum is NaN is never kept
    best = int(np.argmax(lo))  # the first of equal maxima
    best_val = float(lo[best])
    if best_val < _MIN_KERNEL_REL * scale:
        raise KernelVanishes(
            f"kernel {kernel.name or '<anon>'}: best direction keeps only "
            f"min|K| = {best_val:.3e} (threshold {_MIN_KERNEL_REL * scale:.3e})"
        )
    return ExtractionGeometry(n, delta, tuple(float(v) for v in cs[best]))


# ---- Fourier expansion of 1/K ----


def _erf_window(rad: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    """Radial taper: 1 on [0, r_in] up to an erfc tail, ~0 beyond r_out.

    The ramp midpoint sits halfway between r_in and r_out with width sigma
    chosen so the residual at both ends is below 2e-8; the Gaussian profile
    is what buys spectral decay fast enough for small truncation counts.
    """
    mid = 0.5 * (r_in + r_out)
    sigma = (r_out - r_in) / 11.0
    x = (rad - mid) / (sigma * math.sqrt(2.0))
    return 0.5 * np.fromiter(map(math.erfc, x.tolist()), float, len(x))


@dataclass(frozen=True)
class FourierExpansion:
    """Truncated expansion 1/K(w) ~ sum_j coeffs[j] exp(i freqs[j] . w),
    valid only on the ball of radius geometry.ball_radius around
    geometry.expansion_center, for the kernel and the geometry it was
    fitted on.

    epsilon is the sup residual |1/K - expansion|, measured once, on a
    dense deterministic ball sample that is not the fit's; l1_total is
    sum_j |a_j| over coeffs, the constant of the chain's closing bound.
    """

    coeffs: np.ndarray
    freqs: np.ndarray
    geometry: ExtractionGeometry
    kernel: KernelSpec

    @cached_property
    def epsilon(self) -> float:
        geo = self.geometry
        sample = _unit_ball_points(geo.D, _SAMPLE_COUNT, _BALL_SEED + 1) * geo.ball_radius + np.array(geo.expansion_center)
        return float(np.max(np.abs(1.0 / self.kernel.evaluate(sample) - self.evaluate(sample))))

    @property
    def l1_total(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The expansion at points of shape (..., D): exp(1j * (w @ freqs.T))
        @ coeffs, taken over blocks of at most _MAX_BLOCK phase entries, so no
        (points, modes) array outlives its block."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        out = np.empty(len(flat), dtype=np.complex128)
        step = max(1, _MAX_BLOCK // len(self.freqs))
        for start in range(0, len(flat), step):
            phases = 1j * (flat[start : start + step] @ self.freqs.T)
            np.exp(phases, out=phases)
            out[start : start + step] = phases @ self.coeffs
        return out.reshape(pts.shape[:-1])


# samples per axis of the period box, by total dimension D
_FFT_SIZE = {1: 4096, 2: 256, 4: 32}
# half-side of the period box in ball radii
_PAD = 3.0
# points of each ball sample (least-squares fit and residual check)
_SAMPLE_COUNT = 4096
# cap on the points of one period-box block, on the (points x modes)
# entries of one block of the fit and of one phase block of
# FourierExpansion.evaluate; a fit block is never fewer than modes + 1 rows
_MAX_BLOCK = 16_384


def _sample_box(kernel: KernelSpec, center: np.ndarray, R: float, L: float, floor: float) -> np.ndarray | None:
    """The taper over K on the (M,)*D cells of the period box of half-side L
    around center: window / K where the taper is positive and 0 elsewhere,
    sampled in row-major flat blocks of _MAX_BLOCK points, K read only on
    the taper's support. None when |K| < floor, or is NaN, somewhere on that
    support."""
    D = len(center)
    M = _FFT_SIZE[D]
    r_out = 0.97 * L
    step = 2 * L / M
    axis = -L + (np.arange(M) + 0.5) * step
    W = np.zeros(M**D)
    for start in range(0, M**D, _MAX_BLOCK):
        cells = np.unravel_index(np.arange(start, min(start + _MAX_BLOCK, M**D)), (M,) * D)
        pts = np.stack([axis[k] for k in cells], axis=1) + center
        rad = np.linalg.norm(pts - center, axis=1)
        window = np.zeros_like(rad)
        inside = rad < r_out
        window[inside] = _erf_window(rad[inside], R, r_out)
        supp = window > 0
        kvals = kernel.evaluate(pts[supp])
        if not np.all(np.abs(kvals) >= floor):  # a NaN fails too
            return None
        W[start : start + _MAX_BLOCK][supp] = window[supp] / kvals
    return W.reshape((M,) * D)


def _box_modes(kernel: KernelSpec, geometry: ExtractionGeometry, count: int) -> np.ndarray:
    """The (count, D) frequencies of the `count` largest DFT magnitudes |F|
    of the tapered 1/K on the period box, ties in FFT order. The DFT only
    picks the modes, as the fit sets every coefficient, so no phase is
    computed. The box is sampled in flat blocks, so no (box points, D) array
    is ever alive, and the real samples are let go once transformed.
    """
    D = geometry.D
    M = _FFT_SIZE[D]
    center = np.array(geometry.expansion_center)
    R = geometry.ball_radius
    L = _PAD * R
    # keep the taper support strictly inside |w| < |c|, where K is smooth;
    # the taper still has room, 0.97 L > R, as R < sqrt(2n) < 0.98 |c|
    max_L = 0.98 * float(np.linalg.norm(center)) / 0.97
    L = min(L, max_L)
    floor = 1e-12 * float(np.linalg.norm(center)) ** (-kernel.degree)

    # shrink the taper toward the ball if the kernel happens to vanish in
    # the slack region between the ball and the box edge
    for _ in range(4):
        W = _sample_box(kernel, center, R, L, floor)
        if W is not None:
            break
        L = R + 0.7 * (L - R)
    else:
        raise KernelVanishes("kernel vanishes arbitrarily close to the ball")

    mag = np.abs(np.fft.fftn(W)).reshape(-1)
    del W
    # the order of a full stable sort of -|F|, but only the modes at the cut or above it are sorted
    kth = max(mag.size - count, 0)
    cand = np.flatnonzero(mag >= np.partition(mag, kth)[kth])
    order = cand[np.argsort(-mag[cand], kind="stable")[:count]]
    qs = np.fft.fftfreq(M, d=1.0 / M)  # shifted integers -M/2 .. M/2 - 1
    omega_axis = np.pi * qs / L
    return omega_axis[np.stack(np.unravel_index(order, (M,) * D), axis=1)]


def _fit_coeffs(kernel: KernelSpec, fit: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The least-squares coefficients c of design @ c ~ 1/K on the fit
    points, design = exp(i fit @ freqs.T), with lstsq's rank cut rcond=1e-10.

    The rows of the augmented design [design | 1/K], for n modes, are taken
    in blocks of _MAX_BLOCK entries, but never fewer than n + 1 rows, and
    each block is stacked under the running (n + 1, n + 1) triangle R of
    their QR factorisation (a tall-skinny QR); the solve then runs on
    R[:n, :n] against R[:n, n]. R[:n, :n] has the design's singular values
    and R[:n, n] is the target's component in the design's range, so the
    rank cut and the minimum-norm solution are those of lstsq on the whole
    design."""
    n = len(freqs)
    rows = max(n + 1, _MAX_BLOCK // (n + 1))
    R = np.empty((0, n + 1), dtype=np.complex128)
    for start in range(0, len(fit), rows):
        pts = fit[start : start + rows]
        block = np.empty((len(pts), n + 1), dtype=np.complex128)
        np.exp(1j * (pts @ freqs.T), out=block[:, :n])
        block[:, n] = 1.0 / kernel.evaluate(pts)
        R = np.linalg.qr(np.concatenate([R, block]), mode="r")
    return np.linalg.lstsq(R[:n, :n], R[:n, n], rcond=1e-10)[0]


def fourier_reciprocal(kernel: KernelSpec, geometry: ExtractionGeometry, N_per_axis: int) -> FourierExpansion:
    """Fourier coefficients of 1/K, valid on the expansion ball.

    Samples the period box (half-side _PAD ball radii, centered at the
    antipode of the base point, shrunk if it would reach the kernel
    singularity at 0), multiplies by a radial taper that is ~1 on the ball
    and ~0 before the box edge, and takes the exact DFT of the samples.
    Modes are ranked by the DFT magnitude descending, with no phase computed,
    and truncated to N_per_axis^D (ties keep FFT order so runs are
    reproducible); the fit sets their coefficients by least squares against
    1/K on a dense ball sample, and `epsilon` is measured on another. Raises
    TailTooLarge unless that residual is at most EPS_TOL (so also when it
    is NaN), and ValueError, before the period box is sampled, when the
    N_per_axis^D modes outnumber the fit points, as the fit would then be
    underdetermined.

    The period box lives only inside `_box_modes`, and the fit takes its
    design in row blocks of _MAX_BLOCK entries or n + 1 rows, whichever is
    more (`_fit_coeffs`).
    """
    if kernel.D != geometry.D or kernel.ndim != geometry.ndim:
        raise ValueError("kernel and geometry disagree on dimension")
    D = geometry.D
    center = np.array(geometry.expansion_center)
    R = geometry.ball_radius
    fit = _unit_ball_points(D, _SAMPLE_COUNT, _BALL_SEED) * R + center
    if N_per_axis**D > len(fit):
        raise ValueError(f"{N_per_axis}^{D} = {N_per_axis**D} modes outnumber the {len(fit)} fit points")
    kept_freqs = _box_modes(kernel, geometry, N_per_axis**D)

    # the sets of kept modes are nested in N, so the fit residual refines monotonically
    expansion = FourierExpansion(_fit_coeffs(kernel, fit, kept_freqs), kept_freqs, geometry, kernel)
    if not expansion.epsilon <= EPS_TOL:  # a NaN residual is refused too
        raise TailTooLarge(
            f"residual {expansion.epsilon:.3e} > {EPS_TOL:.3e} at N = {len(kept_freqs)}; raise N_per_axis"
        )
    return expansion


# ---- Test functions ----


def _phase_table(axes: tuple[np.ndarray, ...], vecs: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign i vecs[j] . y) at the cells y of one cube, for every row j of
    the (N, n) array vecs, as one (N, *cells) table from one np.exp. Each
    row is, bit for bit, the single-mode exp(sign * 1j * sum(v_a * y_a)):
    the sum starts from 0 as that one does."""
    return np.exp(sign * 1j * sum(np.multiply.outer(vecs[:, a], ax) for a, ax in enumerate(axes)))


@dataclass(frozen=True)
class ChainCube:
    """What the chain needs on one cube Q, built once before the mode loop:
    the family (Q, Q_1, ..., Q_k) of Q and its derived cubes, indexed once;
    b_{Q'} and sigma = sgn(b - b_{Q'}) on the cells of Q; and the phases of
    every mode j of the expansion, one table of shape (N, *cells) per cube:
    phases[i][j] is e^{-i (delta/r) nu_j^i . y} on the cells of Q_i, with
    nu_j^i the i-th n-block of nu_j, and phases[0][j] is
    e^{+i (delta/r) nu_j . (x, ..., x)} sigma on the cells of Q. Cube 0 is Q
    and cube i the derived cube of input i."""

    family: CubeFamily
    b_avg: float
    sigma: np.ndarray
    phases: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, b: GridFunction, q: Cube, geometry: ExtractionGeometry, freqs: np.ndarray) -> "ChainCube":
        """The cube Q for the (N, D) mode frequencies freqs; one np.exp per
        cube of the family makes all N modes' phases."""
        family = CubeFamily(b.grid, (q, *geometry.derived_cubes(q)))
        meshes = b.grid.meshes()
        axes = tuple(tuple(m[family.slices(i)] for m in meshes) for i in range(len(family)))
        bqp = family.means(b.values)[1]
        sigma = np.sign(b.values[family.slices(0)] - bqp)
        scale = geometry.delta / q.side
        blocks = np.asarray(freqs, dtype=float).reshape(len(freqs), len(family) - 1, b.grid.n)
        h = _phase_table(axes[0], scale * np.sum(blocks, axis=1), +1.0)
        h *= sigma
        fs = [_phase_table(axes[i], scale * blocks[:, i - 1], -1.0) for i in range(1, len(family))]
        return cls(family, bqp, sigma, (h, *fs))


def build_test_functions(cube: ChainCube, j: int) -> tuple[tuple[GridFunction, ...], np.ndarray]:
    """(fs, h) for mode j of the frequencies `cube` was built for. fs holds
    f_i = e^{-i (delta/r) nu^i . y} chi_{Q_i} on each derived cube Q_i: the
    moduli are exactly the indicators of the Q_i. h is the block of
    e^{+i (delta/r) nu . (x, ..., x)} sgn(b - b_{Q'}) on the cells of Q, in
    their shape; h is 0 off Q and read only there.

    The phases come from the tables of `cube`, so a mode makes no
    exponential: it puts row j of each derived cube's table on that cube's
    block of cells and reads row j of h's table."""
    family = cube.family
    fs = tuple(on_block(family.grid, family.slices(i), cube.phases[i][j]) for i in range(1, len(family)))
    return fs, cube.phases[0][j]


# ---- The estimate chain ----


@dataclass(frozen=True)
class Check:
    """One link of the chain on one cube: the value and tolerance its report
    row prints (a signed ordering gap prints none), and whether it holds."""

    name: str
    value: float
    tolerance: float | None
    holds: bool


@dataclass(frozen=True)
class ChainReport:
    """All five stages of one cube, its truncation budget, |Q| and its checks.

    stage_iii is the real part of the resummed form; its (small) imaginary
    part is folded into gap_truncation's |stage_ii - stage_iii_complex|,
    which the truncation bound bound_23 = (r/delta)^d eps_N *
    (oscillation-kernel triple mass) must dominate. stage_v reads the dilate
    P cut to the grid box. checks holds, in row order, gap_identity_rel,
    gap_truncation, ordering_holder and ordering_probe_bound, or, for a
    symbol constant on the grid, all_stages_zero alone."""

    cube: Cube
    stage_i: float
    stage_ii: float
    stage_iii: float
    stage_iv: float
    stage_v: float
    bound_23: float
    probe_norm: float
    measure: float
    min_kernel_on_offsets: float
    checks: tuple[Check, ...]

    @property
    def oscillation_ratio(self) -> float:
        return self.stage_i / self.measure

    @property
    def bound_ratio(self) -> float:
        return self.stage_v / self.measure


@contextmanager
def _stage(q: Cube, name: str):
    """Prefix an OscillabError raised in the block with the cube and the chain
    stage; the exception keeps its type and attributes (a ConvergenceFailure its residual)."""
    try:
        yield
    except OscillabError as e:
        e.args = (f"{q}, {name}: {e.args[0] if e.args else ''}", *e.args[1:])
        raise


def verify_master_chain(b: GridFunction, Xs: tuple[SpaceSpec, ...], Y: SpaceSpec, q: Cube, expansion: FourierExpansion) -> ChainReport:
    """Evaluate the five-stage chain on one cube. See the module docstring.

    The operator T is that of expansion.kernel, the kernel whose 1/K the
    expansion holds; the derived cubes and delta come from
    expansion.geometry, the geometry it was fitted on. Xs holds one input
    space per kernel input (ValueError otherwise). An OscillabError raised
    on the way names the cube and the stage it came from: geometry, kernel
    tensor, norms (the mode-invariant ||h||_{Y'} and ||chi_{Q_i}||_{X_i}),
    mode j, or closing bound."""
    grid = b.grid
    kernel = expansion.kernel
    T = OperatorHandle(kernel)
    geometry = expansion.geometry
    if kernel.D != geometry.D or len(Xs) != kernel.inputs:
        raise ValueError(f"{kernel.inputs}-input kernel on R^{kernel.D}, geometry on R^{geometry.D}, {len(Xs)} input space(s)")
    cell = grid.cell_volume

    with _stage(q, "geometry"):
        geometry.check_cube(q)
        cube = ChainCube.build(b, q, geometry, expansion.freqs)
        axes = tuple(range(1, len(cube.family)))  # the derived-cube axes of K
        sl_q = cube.family.slices(0)
        bq_block = b.values[sl_q].reshape(-1)
        sigma = cube.sigma.reshape(-1)
        stage_i = float(np.sum(np.abs(bq_block - cube.b_avg)) * cell)
        meas_q, *meas_derived = cube.family.measures
        meas_prod = math.prod(meas_derived)

    with _stage(q, "kernel tensor"):
        by = b.values[cube.family.slices(1)].reshape(-1)
        bdiff = np.expand_dims(bq_block[:, None] - by[None, :], axes[1:])  # (X, Y, 1, ...)
        cells = np.arange(grid.m**grid.n).reshape(grid.shape)
        K = kernel_tensor(kernel, grid, *(cells[cube.family.slices(i)].reshape(-1) for i in range(len(cube.family))))
        navg = math.prod(K.shape[1:])
        min_k = float(np.min(np.abs(K)))
        if min_k == 0.0:
            raise KernelVanishes("kernel vanishes on a sampled offset")
        ratio = K * (1.0 / K)
        inner = np.sum(bdiff * ratio, axis=axes)
        mass = float(np.sum(np.abs(bdiff) * np.abs(K)) * cell / navg)
        stage_ii = float(np.sum(sigma * inner) * cell / navg)

    Yp = associate(Y)
    with _stage(q, "norms"):
        # |h| is |sigma| chi_Q for every mode, up to rounding of |e^{i t}|,
        # so ||h||_{Y'} is taken once per cube
        h_norm = norm(on_block(grid, sl_q, np.abs(cube.sigma)), Yp)
        nfg = math.prod(chi_norms(X, cube.family)[i] for i, X in enumerate(Xs, start=1))

    def one_mode(j: int):
        fs, h = build_test_functions(cube, j)
        C = commutator(b, T, *fs, slot=1)
        integral = complex(np.sum(h * C.values[sl_q]) * cell)
        return integral, norm(C, Y)

    mode_rows = []
    for j in range(len(expansion.freqs)):
        with _stage(q, f"mode {j}"):
            mode_rows.append(one_mode(j))

    a = expansion.coeffs
    scale_pref = (q.side / geometry.delta) ** kernel.degree
    c_pref = scale_pref / meas_prod
    stage_iii_c = c_pref * complex(sum(aj * row[0] for aj, row in zip(a, mode_rows)))
    stage_iv = c_pref * float(sum(abs(aj) * h_norm * row[1] for aj, row in zip(a, mode_rows)))
    probe_norm = float(max(row[1] for row in mode_rows) / nfg) if nfg > 0 else 0.0

    with _stage(q, "closing bound"):
        chi_p = on_block(grid, clipped_slices(grid, geometry.p_cube(q)), 1.0)
        stage_v = c_pref * probe_norm * expansion.l1_total * math.prod(norm(chi_p, S) for S in (Yp, *Xs))

    bound_23 = float(scale_pref * expansion.epsilon * mass)
    stages = (stage_i, stage_ii, float(stage_iii_c.real), stage_iv, stage_v)
    if np.all(b.values == b.values.flat[0]):
        allz = max(abs(s) for s in stages)
        checks = (Check("all_stages_zero", allz, _ZERO_TOL, allz <= _ZERO_TOL),)
    else:
        rel12, gap_23 = abs(stage_i - stage_ii) / max(stage_i, _TINY), float(abs(stage_ii - stage_iii_c))
        tol23 = bound_23 + _ROUNDING * (stage_i + stage_iv)
        gap_34, gap_45 = stage_iv - abs(stage_iii_c), stage_v - stage_iv
        checks = (
            Check("gap_identity_rel", rel12, _RELATION_REL, rel12 <= _RELATION_REL),
            Check("gap_truncation", gap_23, tol23, gap_23 <= tol23),
            Check("ordering_holder", gap_34, None, gap_34 >= -_RELATION_REL * stage_iv),
            Check("ordering_probe_bound", gap_45, None, gap_45 >= -_RELATION_REL * stage_v),
        )
    return ChainReport(q, *stages, bound_23, probe_norm, meas_q, min_k, checks)


# ---- Family-level necessity runs ----


@dataclass(frozen=True)
class NecessityReport:
    """One chain pass over a family, with stability verdicts.

    per_cube holds each cube's ChainReport in family order, and every
    per-cube number is read from there. ratio_by_level maps generation ->
    max oscillation ratio, and probe_by_level generation -> max commutator
    probe norm, so a family maximum is the max of their values; each verdict
    is grid.trend_verdict of those maxima in level order: "stable",
    "growing" or "undetermined". sup_bound_ratio is the max bound_ratio, and
    worst_truncation_rel the max gap_truncation over stage (i), or 0.
    """

    per_cube: tuple[ChainReport, ...]
    ratio_by_level: dict[int, float]
    probe_by_level: dict[int, float]
    ratio_verdict: str
    probe_verdict: str
    sup_bound_ratio: float
    worst_truncation_rel: float


def necessity_experiment(b: GridFunction, Xs: tuple[SpaceSpec, ...], Y: SpaceSpec, family: CubeFamily, expansion: FourierExpansion) -> NecessityReport:
    """Run the chain on every family cube, for the operator of
    expansion.kernel, and classify the ratio trend.

    Oscillation ratios are stage (i) over |Q|; a bounded symbol keeps the
    per-level maxima flat while a symbol with unbounded oscillation on the
    family forces them, and with them the commutator probe norms, upward.
    b, the family and the spaces share one grid (GridMismatch otherwise).
    """
    common_grid(b, family, *Xs, Y)
    reports = [verify_master_chain(b, Xs, Y, qc, expansion) for qc in family]
    levels = family.levels if family.levels is not None else (0,) * len(reports)
    ratio_by: dict[int, float] = {}
    probe_by: dict[int, float] = {}
    for lvl, rep in zip(levels, reports):
        ratio_by[lvl] = max(ratio_by.get(lvl, 0.0), rep.oscillation_ratio)
        probe_by[lvl] = max(probe_by.get(lvl, 0.0), rep.probe_norm)
    ordered = sorted(ratio_by)
    return NecessityReport(
        per_cube=tuple(reports),
        ratio_by_level=ratio_by,
        probe_by_level=probe_by,
        ratio_verdict=trend_verdict([ratio_by[lvl] for lvl in ordered]),
        probe_verdict=trend_verdict([probe_by[lvl] for lvl in ordered]),
        sup_bound_ratio=max(rep.bound_ratio for rep in reports),
        worst_truncation_rel=max((c.value / max(r.stage_i, _TINY) for r in reports for c in r.checks if c.name == "gap_truncation"), default=0.0),
    )
