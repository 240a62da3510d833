"""Geometry, reciprocal-kernel expansion, and the five-stage estimate chain.

The expansion identity has an internal oracle: Sum_j a_j e^{i xi_j . w} must
multiply back against K(w) to give 1 on the validity ball, and that product
is checked here point by point on a fresh sample, not the fitting one.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oscillab import (
    BadDelta,
    ConvergenceFailure,
    Cube,
    CubeFamily,
    Grid,
    GridFunction,
    GridMismatch,
    KernelSpec,
    KernelVanishes,
    Lebesgue,
    OutOfDomain,
    TailTooLarge,
    Weighted,
    associate,
    centered_family,
    chi_norm,
    chi_norms,
    condition_bilinear,
    cube_slices,
    norm,
    on_block,
    trend_verdict,
)
from oscillab import extraction, fixtures, operators, spaces
from oscillab import grid as grid_module
from oscillab.fixtures import make_symbol
from oscillab.operators import distance_kernel
from oscillab.extraction import (
    ChainCube,
    ExtractionGeometry,
    _unit_ball_points,
    build_test_functions,
    fourier_reciprocal,
    necessity_experiment,
    select_geometry,
    verify_master_chain,
)
from oracles import cube_average, expansion_at, folded_spectrum, mean_oscillation_shifted, sorted_box_modes

HILBERT = fixtures.make_kernel("hilbert", 1)
BIRIESZ = fixtures.make_kernel("bilinear_riesz", 1)


# ---- geometry ----


def test_geometry_validation():
    with pytest.raises(BadDelta):
        ExtractionGeometry(1, 0.0, (3.0,))
    with pytest.raises(BadDelta):
        ExtractionGeometry(1, 1.0, (3.0,))
    with pytest.raises(ValueError):
        ExtractionGeometry(1, 0.5, (1.0,))  # inside the annulus
    with pytest.raises(ValueError):
        ExtractionGeometry(1, 0.5, (5.0,))  # outside
    with pytest.raises(ValueError):
        ExtractionGeometry(1, 0.5, (1.5, 1.5, 1.5))  # 3 components: neither n nor 2n
    with pytest.raises(ValueError):
        ExtractionGeometry(2, 0.5, (3.0,))  # needs n or 2n components


def test_geometry_derived_cubes_linear():
    geo = ExtractionGeometry(1, 0.5, (3.0,))
    assert geo.expansion_center == (-3.0,)
    q = Cube((0.25,), 0.5)
    (qp,) = geo.derived_cubes(q)
    assert qp.side == q.side
    assert qp.center[0] == pytest.approx(0.25 + 0.5 * 6.0)
    geo.check_cube(q)
    assert q.dilate(geo.containment_factor).contains_cube(qp)
    assert geo.p_cube(q).side == pytest.approx(2 * geo.containment_factor * q.side)


def test_geometry_derived_cubes_bilinear():
    geo = ExtractionGeometry(1, 0.5, (2.2, 2.2))
    q = Cube((-0.5,), 1.0)
    qp, qpp = geo.derived_cubes(q)
    assert qp.center[0] == pytest.approx(-0.5 + 2.2 / 0.5)
    assert qpp.center[0] == pytest.approx(-0.5 + 2.2 / 0.5)
    geo.check_cube(q)
    assert geo.ball_radius == pytest.approx(0.5 * math.sqrt(2.0))


def test_select_geometry_hilbert():
    geo = select_geometry(HILBERT, 0.5)
    assert geo.D == 1
    assert geo.base_point == (3.0,)
    assert geo.delta == 0.5
    with pytest.raises(BadDelta):
        select_geometry(HILBERT, 1.5)


def test_select_geometry_refuses_a_vanishing_kernel():
    # min |K| near +-3 is about 3e-10, far below 1e-3 of the scale 1/3
    faint = KernelSpec(1, 1, 0.0, lambda t: 1e-9 * t[..., 0], name="faint")
    with pytest.raises(KernelVanishes, match=r"^kernel faint: best direction"):
        select_geometry(faint, 0.5)


@pytest.mark.parametrize(
    "derived, message",
    [
        (lambda q: (q.translate((q.side / 2,)),), "meets"),  # overlaps Q
        (lambda q: (q.translate((100 * q.side,)),), "leaves the outer dilate"),  # far out
    ],
    ids=["meets-q", "outside-dilate"],
)
def test_check_cube_names_the_cube(monkeypatch, derived, message):
    geo = ExtractionGeometry(1, 0.5, (3.0,))
    q = Cube((0.25,), 0.5)
    monkeypatch.setattr(ExtractionGeometry, "derived_cubes", lambda self, cube: derived(cube))
    with pytest.raises(ValueError, match=message) as info:
        geo.check_cube(q)
    assert str(q) in str(info.value)


@pytest.mark.parametrize("count", [64, extraction._SAMPLE_COUNT])
@pytest.mark.parametrize("D", [1, 2, 4])
def test_unit_ball_points_are_a_fixed_quadrature_set(D, count):
    """The origin, count interior points filling the closed ball evenly,
    and max(8, count // 16) shell points at radius 0.999, the same on every
    call; the fit's seed and the residual check's share no interior point."""
    pts = _unit_ball_points(D, count)
    assert pts.shape == (1 + count + max(8, count // 16), D)
    r = np.linalg.norm(pts, axis=1)
    assert r[0] == 0.0 and np.all(r <= 1.0)
    assert r[1 + count :] == pytest.approx(0.999, abs=1e-15)
    assert pts.tobytes() == _unit_ball_points(D, count).tobytes()
    other = _unit_ball_points(D, count, extraction._BALL_SEED + 1)
    assert not set(map(bytes, pts[1 : 1 + count])) & set(map(bytes, other[1 : 1 + count]))
    if count == extraction._SAMPLE_COUNT:  # half the ball's volume lies inside radius 2^(-1/D)
        assert abs(np.mean(r[1 : 1 + count] ** D <= 0.5) - 0.5) < 0.01


def test_sphere_points_in_4d_are_antipodal_unit_pairs():
    """D = 4 directions come in antipodal pairs, so odd parts of Omega
    cancel in the mean-zero check, and spread evenly: each coordinate's
    second moment is near 1/4."""
    pts = operators._sphere_points(4, 2048, operators._BALL_SEED)
    assert pts.shape == (2048, 4)
    assert np.linalg.norm(pts, axis=1) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(pts[1024:], -pts[:1024])
    assert np.abs(np.mean(pts**2, axis=0) - 0.25).max() < 0.01


def _scan_base_point(kernel, delta):
    """The direction scan as a loop: one kernel evaluation per direction and
    ball, keeping a direction only on a strict gain. The reference for the
    base point of select_geometry."""
    n, D = kernel.ndim, kernel.D
    rho = 3 * math.sqrt(n)
    ball = _unit_ball_points(D, 256) * delta * math.sqrt(2 * n)
    best_val, best = -1.0, None
    for direction in operators._sphere_points(D, 128 if D == 2 else 256, extraction._BALL_SEED):
        c = rho * direction
        lo = min(
            float(np.min(np.abs(kernel.evaluate(c + ball)))),
            float(np.min(np.abs(kernel.evaluate(-c + ball)))),
        )
        if lo > best_val:
            best_val, best = lo, c
    return tuple(float(v) for v in best)


@pytest.mark.parametrize(
    "make",
    [
        lambda: HILBERT,
        lambda: BIRIESZ,
        lambda: fixtures.make_kernel("bilinear_riesz", 2),
        lambda: fixtures.make_kernel("riesz_1", 2),
        lambda: distance_kernel(1, 1.2),
    ],
    ids=["hilbert", "bilinear_riesz-1d", "bilinear_riesz-2d", "riesz_1-2d", "distance-1.2"],
)
def test_select_geometry_matches_a_direction_scan(make):
    kernel = make()
    assert select_geometry(kernel, 0.5).base_point == _scan_base_point(kernel, 0.5)


def test_select_geometry_never_keeps_a_nan_minimum():
    # K is NaN within about 8 degrees of +x; a loop taking min(lo(c), lo(-c))
    # with Python's min kept the direction -x, whose antipode ball meets the cone
    kernel = KernelSpec(2, 1, 0.0, lambda t: np.where(t[..., 0] > 0.99, np.nan, t[..., 0]), name="cone")
    geo = select_geometry(kernel, 0.5)
    ball = _unit_ball_points(2, 256) * geo.ball_radius
    c = np.array(geo.base_point)
    for center in (c, -c):
        assert np.isfinite(kernel.evaluate(center + ball)).all()


def test_select_geometry_bilinear_riesz():
    geo = select_geometry(BIRIESZ, 0.5)
    assert geo.ndim == 1
    assert geo.D == 2
    rho = math.hypot(*geo.base_point)
    assert 2.0 < rho < 4.0
    # the kernel really is bounded away from zero on the chosen ball
    ball = _unit_ball_points(2, 512) * geo.ball_radius
    c = np.array(geo.base_point)
    for center in (c, -c):
        vals = np.abs(BIRIESZ.evaluate(center + ball))
        assert vals.min() > 1e-3


# ---- reciprocal expansion ----


def test_reciprocal_eps_at_64_modes():
    geo = select_geometry(HILBERT, 0.5)
    exp = fourier_reciprocal(HILBERT, geo, 64)
    assert exp.epsilon <= 1e-6
    assert len(exp.coeffs) == 64
    assert exp.l1_total < 50.0


def test_reciprocal_identity_on_fresh_ball_sample():
    geo = select_geometry(HILBERT, 0.5)
    exp = fourier_reciprocal(HILBERT, geo, 64)
    pts = _unit_ball_points(1, 1000, seed=999) * geo.ball_radius + np.array(geo.expansion_center)
    prod = exp.evaluate(pts) * HILBERT.evaluate(pts)
    assert np.max(np.abs(prod - 1.0)) <= 1e-5


def test_reciprocal_eps_shrinks_with_doubling():
    geo = select_geometry(HILBERT, 0.5)
    eps = [fourier_reciprocal(HILBERT, geo, N).epsilon for N in (16, 32, 64, 128)]
    # once the residual hits the conditioning floor (~1e-10) doubling only
    # jitters it, so allow a floor-sized slack
    for a, b in zip(eps, eps[1:]):
        assert b <= a + 1e-9


def test_reciprocal_bilinear_quality():
    geo = select_geometry(BIRIESZ, 0.5)
    exp = fourier_reciprocal(BIRIESZ, geo, 10)
    assert exp.epsilon <= 1e-5
    assert len(exp.coeffs) == 100
    pts = _unit_ball_points(2, 500, seed=31) * geo.ball_radius + np.array(geo.expansion_center)
    prod = exp.evaluate(pts) * BIRIESZ.evaluate(pts)
    assert np.max(np.abs(prod - 1.0)) <= 1e-3


def test_reciprocal_tail_too_large():
    # the residual budget is extraction.EPS_TOL = 1e-2: five modes meet it
    # (eps ~ 2.6e-3), four miss it (eps ~ 1.26e-2)
    assert extraction.EPS_TOL == 1e-2
    geo = select_geometry(HILBERT, 0.5)
    exp = fourier_reciprocal(HILBERT, geo, 5)
    assert len(exp.coeffs) == 5
    assert 1e-3 < exp.epsilon <= extraction.EPS_TOL
    assert exp.geometry is geo
    with pytest.raises(TailTooLarge, match=r"^residual 1\.260e-02 > 1\.000e-02 at N = 4"):
        fourier_reciprocal(HILBERT, geo, 4)


def test_reciprocal_refuses_more_modes_than_fit_points(monkeypatch):
    """66^2 = 4356 modes against 4353 fit points would leave the fit
    underdetermined: refused before the period box is sampled."""
    geo = select_geometry(BIRIESZ, 0.5)
    assert len(_unit_ball_points(2, extraction._SAMPLE_COUNT)) == 4353
    monkeypatch.setattr(extraction, "_box_modes", lambda *args: pytest.fail("the period box was sampled"))
    with pytest.raises(ValueError, match=r"^66\^2 = 4356 modes outnumber the 4353 fit points$"):
        fourier_reciprocal(BIRIESZ, geo, 66)


def test_reciprocal_refuses_a_nan_residual(monkeypatch):
    """A NaN residual is not within EPS_TOL, so it is refused like a large one."""
    monkeypatch.setattr(extraction.FourierExpansion, "evaluate", lambda self, pts: np.full(len(pts), np.nan))
    with pytest.raises(TailTooLarge, match=r"^residual nan > 1\.000e-02 at N = 5"):
        fourier_reciprocal(HILBERT, select_geometry(HILBERT, 0.5), 5)


def test_reciprocal_shrinks_the_taper_off_a_vanishing_sector():
    """K = 0 on the sector theta_2 < cut, which the taper support reaches
    and the ball (theta_2 > -0.25 there) does not: the taper shrinks toward
    the ball until it clears the sector, and a sector too close for four
    shrinks is refused. A kernel NaN, not 0, on the sector takes the same
    shrinks: its expansion is bit for bit the vanishing kernel's."""
    geo = ExtractionGeometry(2, 0.5, (4.0, 0.0))
    sector = lambda cut, fill=0.0: KernelSpec(1, 2, 1.0, lambda t: np.where(t[..., 1] < cut, fill, 1.0), name="sector")
    want = fourier_reciprocal(sector(-0.45), geo, 8)
    assert want.epsilon <= extraction.EPS_TOL
    got = fourier_reciprocal(sector(-0.45, np.nan), geo, 8)
    assert (got.coeffs.tobytes(), got.freqs.tobytes()) == (want.coeffs.tobytes(), want.freqs.tobytes())
    assert (got.epsilon, got.l1_total) == (want.epsilon, want.l1_total)
    with pytest.raises(KernelVanishes, match="arbitrarily close"):
        fourier_reciprocal(sector(-0.3), geo, 8)


@pytest.mark.parametrize("kernel, n_per_axis", [(HILBERT, 64), (BIRIESZ, 10)], ids=["D=1", "D=2"])
def test_blocked_evaluate_matches_the_one_shot_formula(kernel, n_per_axis):
    """evaluate takes its points in blocks; every value is bit for bit the
    one-shot formula's, and the leading point shape is kept."""
    geo = select_geometry(kernel, 0.5)
    exp = fourier_reciprocal(kernel, geo, n_per_axis)
    D = geo.D
    pts = (_unit_ball_points(D, 2000, seed=5)[:2000] * geo.ball_radius + np.array(geo.expansion_center)).reshape(40, 50, D)
    assert 2000 > extraction._MAX_BLOCK // len(exp.freqs)  # more points than one block
    got = exp.evaluate(pts)
    assert got.shape == (40, 50)
    assert got.tobytes() == expansion_at(exp, pts).tobytes()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reciprocal_holds_no_full_design():
    """The fit takes its (sample, modes) design in row blocks, reduced to
    one triangle, so its 4,353 x 100 complex entries (6.96 MB) are never
    alive at once: the whole set-up, period box and residual check included,
    peaks under four complex period boxes of 256^2 points."""
    geo = select_geometry(BIRIESZ, 0.5)
    assert len(_unit_ball_points(2, extraction._SAMPLE_COUNT)) * 100 * 16 > 4 * 16 * 256**2
    assert _traced_peak(lambda: fourier_reciprocal(BIRIESZ, geo, 10)) <= 4 * 16 * 256**2


def test_period_box_of_a_2d_bilinear_kernel_is_sampled_in_flat_blocks():
    """In D = 4 the box has 32^4 points: it is sampled in flat blocks, so
    the stage holds no (box points, D) array, only the real samples and the
    two complex arrays of one fftn axis pass, and some block arrays: under
    three complex box arrays."""
    kernel = fixtures.make_kernel("bilinear_riesz", 2)
    geo = select_geometry(kernel, 0.5)
    box_bytes = 16 * extraction._FFT_SIZE[4] ** 4
    assert _traced_peak(lambda: extraction._box_modes(kernel, geo, 16)) <= 3 * box_bytes


def _recorded_boxes(monkeypatch) -> list:
    """Every (W, center, L) of `_sample_box`, W None where the taper shrinks."""
    boxes = []
    sample = extraction._sample_box

    def recording(kernel, center, R, L, floor):
        boxes.append((sample(kernel, center, R, L, floor), center, L))
        return boxes[-1][0]

    monkeypatch.setattr(extraction, "_sample_box", recording)
    return boxes


@pytest.mark.parametrize(
    "name, n, n_per_axis",
    [
        ("hilbert", 1, 5),
        ("hilbert", 1, 10),
        ("hilbert", 1, 20),
        ("bilinear_riesz", 1, 5),
        ("bilinear_riesz", 1, 10),
        ("riesz_1", 2, 5),
        ("riesz_1", 2, 10),
        ("riesz_2", 2, 10),
        ("frac_alpha:1.5", 2, 5),
        ("frac_alpha:0.5", 1, 10),
        ("bilinear_riesz", 2, 4),
        ("bilinear_frac_alpha:1.5", 1, 10),
    ],
)
def test_box_modes_keep_the_modes_of_the_folded_spectrum(monkeypatch, name, n, n_per_axis):
    """The period box only picks the kept modes: the largest |F| of the bare
    DFT are the modes of the scaled, phase-folded spectrum, and they come in
    the order of a full stable sort of -|F|."""
    kernel = fixtures.make_kernel(name, n)
    geo = select_geometry(kernel, 0.5)
    boxes = _recorded_boxes(monkeypatch)
    count = n_per_axis**geo.D
    got = extraction._box_modes(kernel, geo, count)
    W, center, L = boxes[-1]
    assert sorted(map(tuple, got)) == sorted(map(tuple, sorted_box_modes(folded_spectrum(W, center, L), L, count)))
    assert got.tobytes() == sorted_box_modes(np.fft.fftn(W), L, count).tobytes()


def test_box_modes_keep_tied_magnitudes_in_fft_order(monkeypatch):
    """A spectrum whose cut falls in a run of 3,994 equal magnitudes keeps
    the first modes of the run in FFT order, after the larger ones, as a
    full stable sort keeps them; a selection that is not stable fails."""
    M = extraction._FFT_SIZE[1]
    F = np.ones(M, dtype=complex)
    F[::-41] = 2.0
    F[7] = F[M - 7] = 3.0
    boxes = _recorded_boxes(monkeypatch)
    monkeypatch.setattr(np.fft, "fftn", lambda W: F.copy())
    got = extraction._box_modes(HILBERT, select_geometry(HILBERT, 0.5), 150)
    L = boxes[-1][2]
    assert got.tobytes() == sorted_box_modes(F, L, 150).tobytes()


def test_erf_window_of_no_points_is_empty():
    assert extraction._erf_window(np.empty(0), 1.0, 2.0).shape == (0,)


def test_flat_blocks_of_a_2d_bilinear_box_match_wider_blocks(monkeypatch):
    """In D = 4 a block of _MAX_BLOCK points is half of one leading-axis row
    of 32^3 points, and the first block lies wholly outside the taper, so
    the taper is asked for no points there; the modes are bit for bit those
    of blocks of four rows."""
    kernel = fixtures.make_kernel("bilinear_riesz", 2)
    geo = select_geometry(kernel, 0.5)
    assert extraction._MAX_BLOCK < extraction._FFT_SIZE[4] ** 3
    sizes = []
    window = extraction._erf_window
    monkeypatch.setattr(extraction, "_erf_window", lambda rad, *a: sizes.append(len(rad)) or window(rad, *a))
    freqs = extraction._box_modes(kernel, geo, 16)
    assert sizes[0] == 0
    monkeypatch.setattr(extraction, "_MAX_BLOCK", 4 * extraction._FFT_SIZE[4] ** 3)
    assert freqs.tobytes() == extraction._box_modes(kernel, geo, 16).tobytes()


def _fit_setup(kernel, n_per_axis):
    """The fit points and kept frequencies of `fourier_reciprocal`."""
    geo = select_geometry(kernel, 0.5)
    fit = _unit_ball_points(geo.D, extraction._SAMPLE_COUNT) * geo.ball_radius + np.array(geo.expansion_center)
    freqs = extraction._box_modes(kernel, geo, n_per_axis**geo.D)
    return fit, freqs


def _solve_with_ranks(fn):
    """fn's result and the (design shape, rank) of every lstsq it calls."""
    calls = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond):
        out = lstsq(a, b, rcond=rcond)
        calls.append((a.shape, out[2]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", recording)
        return fn(), calls


def _full_lstsq(kernel, fit, freqs):
    """The fit as one lstsq on the whole design: (coeffs, rank, design)."""
    design = np.exp(1j * (fit @ freqs.T))
    coeffs, _, rank, _ = np.linalg.lstsq(design, 1.0 / kernel.evaluate(fit), rcond=1e-10)
    return coeffs, rank, design


@pytest.mark.parametrize(
    "kernel, n_per_axis",
    [(BIRIESZ, 10), (HILBERT, 64), (HILBERT, 128), (fixtures.make_kernel("riesz_1", 2), 5)],
    ids=["bilinear_riesz", "hilbert", "hilbert-wide", "riesz_1-2d"],
)
def test_blocked_qr_fit_matches_lstsq_on_the_whole_design(kernel, n_per_axis):
    """The QR solve runs on the (n, n) triangle, with the rank and, at the
    fit points, the fitted values of lstsq on the whole design; at n = 128,
    n + 1 rows outgrow one block, so the blocks are n + 1 rows."""
    fit, freqs = _fit_setup(kernel, n_per_axis)
    n = len(freqs)
    want, rank, design = _full_lstsq(kernel, fit, freqs)
    got, calls = _solve_with_ranks(lambda: extraction._fit_coeffs(kernel, fit, freqs))
    assert calls == [((n, n), rank)]
    assert np.max(np.abs(design @ got - design @ want)) <= 1e-12 * np.max(np.abs(design @ want))


def test_blocked_qr_fit_of_a_rank_deficient_design_is_the_minimum_norm_one():
    """Three modes repeated: both solves cut the design to the same rank and
    agree on the fitted values and on the minimum-norm coefficients, which
    split a repeated mode's coefficient evenly between its copies."""
    fit, freqs = _fit_setup(BIRIESZ, 10)
    freqs = np.concatenate([freqs, freqs[[3, 40, 77]]])
    want, rank, design = _full_lstsq(BIRIESZ, fit, freqs)
    assert rank == 100
    got, calls = _solve_with_ranks(lambda: extraction._fit_coeffs(BIRIESZ, fit, freqs))
    assert calls == [((103, 103), rank)]
    assert np.max(np.abs(design @ got - design @ want)) <= 1e-12 * np.max(np.abs(design @ want))
    assert np.allclose(got[[3, 40, 77]], got[100:], rtol=1e-6, atol=0.0)
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(want), rel=1e-6)


# ---- test functions ----


def test_test_functions_unit_modulus():
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    geo = select_geometry(HILBERT, 0.5)
    q = Cube((0.140625,), 0.28125)
    fs, h = build_test_functions(ChainCube.build(b, q, geo, np.array([[1.7]])), 0)
    assert len(fs) == 1
    sl = cube_slices(g, geo.derived_cubes(q)[0])
    assert np.allclose(np.abs(fs[0].values[sl]), 1.0)
    outside = np.abs(fs[0].values).copy()
    outside[sl] = 0.0
    assert np.all(outside == 0.0)
    # h is the block on Q and carries sgn(b - b_{Q'}), so |h| is 0 or 1
    assert h.shape == b.values[cube_slices(g, q)].shape
    mod = np.abs(h)
    assert np.all((mod == 0.0) | (np.abs(mod - 1.0) <= 1e-12))


def test_test_functions_zero_frequency():
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    geo = select_geometry(HILBERT, 0.5)
    q = Cube((0.140625,), 0.28125)
    cube = ChainCube.build(b, q, geo, np.array([[0.0]]))
    fs, h = build_test_functions(cube, 0)
    sl = cube_slices(g, geo.derived_cubes(q)[0])
    assert np.all(fs[0].values[sl] == 1.0)  # e^0 = 1 exactly
    assert np.all(h == cube.sigma)


def _per_mode_test_functions(q, geometry, nu, b):
    """The construction as it was before ChainCube: every cube, slice,
    mesh and b_{Q'} derived again for each nu. Returns (fs values, h values),
    all on the full grid."""
    grid = b.grid
    scale = geometry.delta / q.side
    derived = geometry.derived_cubes(q)
    blocks = np.asarray(nu, dtype=float).reshape(len(derived), grid.n)

    def modulated(cube, vec, sign):
        vals = np.zeros(grid.shape, dtype=np.complex128)
        sl = cube_slices(grid, cube)
        vals[sl] = np.exp(sign * 1j * sum(float(v) * m[sl] for v, m in zip(vec, grid.meshes())))
        return vals

    fs = [modulated(d, scale * blk, -1.0) for d, blk in zip(derived, blocks)]
    h = modulated(q, scale * np.sum(blocks, axis=0), +1.0)
    sl = cube_slices(grid, q)
    h[sl] *= np.sign(b.values[sl] - cube_average(b, derived[0]))
    return fs, h


def _bilinear_1d_cube():
    g = Grid((-6.0,), (6.0,), 512)
    return make_symbol("log_abs", g), select_geometry(BIRIESZ, 0.5), Cube((0.140625,), 0.28125)


def _riesz_2d_cube():
    g = Grid((-6.0, -6.0), (6.0, 6.0), 48)
    geo = select_geometry(fixtures.make_kernel("riesz_1", 2), 0.5)
    return make_symbol("log_abs", g), geo, Cube((0.1875, 0.1875), 0.375)


@pytest.mark.parametrize(
    "setup, nus",
    [
        (_bilinear_1d_cube, [[1.7, -0.6], [-13.25, 40.1], [0.0, 0.0]]),
        (_riesz_2d_cube, [[0.9, -2.3], [17.5, 3.0], [0.0, 0.0]]),
    ],
    ids=["bilinear-1d", "riesz_1-2d"],
)
def test_test_functions_match_per_mode_construction(setup, nus):
    b, geo, q = setup()
    cube = ChainCube.build(b, q, geo, np.array(nus))
    sl = cube_slices(b.grid, q)
    for j, nu in enumerate(nus):
        fs, h = build_test_functions(cube, j)
        want_fs, want_h = _per_mode_test_functions(q, geo, np.array(nu), b)
        assert len(fs) == len(want_fs)
        for got, want in zip(fs, want_fs):
            assert got.values.tobytes() == want.tobytes(), nu
        # the block is h on Q, and h is zero off Q
        assert h.shape == want_h[sl].shape
        assert h.tobytes() == want_h[sl].tobytes(), nu
        off = want_h.copy()
        off[sl] = 0.0
        assert np.all(off == 0.0), nu


@pytest.mark.parametrize(
    "setup, kernel, n_per_axis",
    [
        (_bilinear_1d_cube, BIRIESZ, 10),
        (_riesz_2d_cube, fixtures.make_kernel("riesz_1", 2), 5),
    ],
    ids=["bilinear-1d", "riesz_1-2d"],
)
def test_test_functions_match_per_mode_construction_on_every_fitted_mode(setup, kernel, n_per_axis):
    """Each row of the phase tables, sign, sum order and signed zeros
    included, is the exponential the construction makes for that mode alone."""
    b, geo, q = setup()
    exp = fourier_reciprocal(kernel, geo, n_per_axis)
    cube = ChainCube.build(b, q, geo, exp.freqs)
    sl = cube_slices(b.grid, q)
    assert len(exp.freqs) == n_per_axis**kernel.D
    for j, nu in enumerate(exp.freqs):
        fs, h = build_test_functions(cube, j)
        want_fs, want_h = _per_mode_test_functions(q, geo, nu, b)
        assert [f.values.tobytes() for f in fs] == [w.tobytes() for w in want_fs], j
        assert h.tobytes() == want_h[sl].tobytes(), j


@pytest.mark.parametrize(
    "make",
    [
        lambda g: Lebesgue(2.0),
        lambda g: Weighted(2.0, fixtures.make_weight("power:0.5", g)),
        lambda g: fixtures.make_exponent("arctan_profile", g),
    ],
    ids=["lebesgue", "weighted", "variable"],
)
def test_hoisted_h_norm_matches_per_mode_norm(make):
    b, geo, q = _bilinear_1d_cube()
    Yp = associate(make(b.grid))
    nus = [[1.7, -0.6], [-13.25, 40.1], [0.0, 0.0]]
    cube = ChainCube.build(b, q, geo, np.array(nus))
    hoisted = norm(on_block(b.grid, cube.family.slices(0), np.abs(cube.sigma)), Yp)
    assert hoisted > 0.0
    for j in range(len(nus)):
        h = np.zeros(b.grid.shape, dtype=np.complex128)
        h[cube_slices(b.grid, q)] = build_test_functions(cube, j)[1]
        per_mode = norm(GridFunction(b.grid, h), Yp)
        assert hoisted == pytest.approx(per_mode, rel=1e-12)


# ---- the chain ----

CHAIN_CHECKS = ("gap_identity_rel", "gap_truncation", "ordering_holder", "ordering_probe_bound")


def assert_checks_hold(rep, names=CHAIN_CHECKS):
    """The cube's check table names `names`, in order, and every check holds."""
    assert tuple(c.name for c in rep.checks) == names, rep.checks
    assert all(c.holds for c in rep.checks), rep.checks


@pytest.fixture(scope="module")
def linear_chain():
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    geo = select_geometry(HILBERT, 0.5)
    exp = fourier_reciprocal(HILBERT, geo, 64)
    return g, b, geo, exp


def test_chain_single_cube_linear(linear_chain):
    g, b, geo, exp = linear_chain
    q = Cube((0.140625,), 0.28125)
    rep = verify_master_chain(b, (Lebesgue(2.0),), Lebesgue(2.0), q, exp)
    assert_checks_hold(rep)
    assert rep.stage_i > 0.0
    assert len(exp.coeffs) == 64
    assert rep.min_kernel_on_offsets > 0.0
    # stage (i) is the oscillation against the average on the derived cube
    assert rep.oscillation_ratio == pytest.approx(
        mean_oscillation_shifted(b, q, geo.derived_cubes(q)[0]), rel=1e-12
    )


def test_chain_constant_symbol_all_zero(linear_chain):
    g, _, geo, exp = linear_chain
    b = make_symbol("constant:3.0", g)
    q = Cube((0.140625,), 0.28125)
    rep = verify_master_chain(b, (Lebesgue(2.0),), Lebesgue(2.0), q, exp)
    assert_checks_hold(rep, ("all_stages_zero",))


def test_chain_out_of_domain(linear_chain):
    g, b, geo, exp = linear_chain
    # the derived cube Q' = Q + 6 r e_1 leaves the box for this cube
    q = Cube((4.921875,), 0.28125)
    with pytest.raises(OutOfDomain):
        verify_master_chain(b, (Lebesgue(2.0),), Lebesgue(2.0), q, exp)


def test_chain_bilinear_cube():
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    geo = select_geometry(BIRIESZ, 0.5)
    exp = fourier_reciprocal(BIRIESZ, geo, 10)
    q = Cube((0.140625,), 0.28125)
    rep = verify_master_chain(
        b, (Lebesgue(4.0), Lebesgue(4.0)), Lebesgue(2.0), q, exp
    )
    assert_checks_hold(rep)
    assert len(geo.derived_cubes(q)) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda g, p: Weighted(p, fixtures.make_weight("power:0.5", g)),
        lambda g, p: fixtures.make_exponent("arctan_profile", g),
    ],
    ids=["weighted-power-0.5", "variable-arctan"],
)
def test_chain_bilinear_stage_by_stage_in_other_spaces(make):
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    geo = select_geometry(BIRIESZ, 0.5)
    exp = fourier_reciprocal(BIRIESZ, geo, 10)
    q = Cube((0.140625,), 0.28125)
    X1, X2, Y = make(g, 4.0), make(g, 4.0), make(g, 2.0)
    rep = verify_master_chain(b, (X1, X2), Y, q, exp)
    assert rep.stage_i > 0.0
    assert_checks_hold(rep)
    lebesgue = verify_master_chain(
        b, (Lebesgue(4.0), Lebesgue(4.0)), Lebesgue(2.0), q, exp
    )
    assert rep.stage_iv != lebesgue.stage_iv  # the space enters from stage (iv) on


def test_chain_stage_by_stage_2d_riesz():
    g = Grid((-6.0, -6.0), (6.0, 6.0), 48)
    b = make_symbol("log_abs", g)
    kernel = fixtures.make_kernel("riesz_1", 2)
    geo = select_geometry(kernel, 0.5)
    exp = fourier_reciprocal(kernel, geo, 5)
    q = Cube((0.1875, 0.1875), 0.375)
    rep = verify_master_chain(b, (Lebesgue(4.0),), Lebesgue(2.0), q, exp)
    assert len(geo.derived_cubes(q)) == 1 and len(exp.coeffs) == 25
    assert rep.stage_i > 0.0
    # P = 2 sqrt(2) (1 + 8/delta) Q has side about 18 > 12, so it leaves the
    # box; stage (v) reads the indicator norms of P cut to the box
    assert_checks_hold(rep)


def test_chain_stage_by_stage_linear_fractional(monkeypatch):
    """The frac_alpha:0.5 chain holds stage by stage on every cube of a
    shrinking family, and its operator, the one of the expansion's kernel,
    applies fractional_integral twice per mode."""
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    kernel = fixtures.make_kernel("frac_alpha:0.5", 1)
    geo = select_geometry(kernel, 0.5)
    exp = fourier_reciprocal(kernel, geo, 10)
    fam = centered_family(g, (0.0,), 3.0, 2, 5)
    calls = []
    apply = operators.fractional_integral
    monkeypatch.setattr(operators, "fractional_integral", lambda f, k: calls.append(k) or apply(f, k))
    report = necessity_experiment(b, (Lebesgue(2.0),), Lebesgue(2.0), fam, exp)
    assert len(calls) == 2 * len(exp.coeffs) * len(fam) and all(k is kernel for k in calls)
    for q, rep in zip(fam, report.per_cube):
        assert rep.stage_i > 0.0
        assert_checks_hold(rep)
        assert rep.oscillation_ratio == pytest.approx(
            mean_oscillation_shifted(b, q, geo.derived_cubes(q)[0]), rel=1e-12
        )
    assert report.ratio_verdict == "stable"


def test_chain_arity_mismatch(linear_chain):
    g, b, geo, exp = linear_chain
    q = Cube((0.140625,), 0.28125)
    with pytest.raises(ValueError):
        verify_master_chain(b, (Lebesgue(2.0), Lebesgue(2.0)), Lebesgue(2.0), q, exp)


def test_chain_error_names_cube_and_stage(monkeypatch):
    g = Grid((-6.0,), (6.0,), 512)
    b = make_symbol("log_abs", g)
    geo = select_geometry(BIRIESZ, 0.5)
    exp = fourier_reciprocal(BIRIESZ, geo, 5)
    q = Cube((0.140625,), 0.28125)
    V = fixtures.make_exponent("arctan_profile", g)
    # no Newton solve can meet a negative tolerance: the first Variable norm,
    # taken once per cube before the modes, raises
    monkeypatch.setattr(spaces, "MODULAR_TOL", -1.0)
    with pytest.raises(ConvergenceFailure) as info:
        verify_master_chain(b, (V, V), V, q, exp)
    assert str(info.value).startswith(f"{q}, norms: modular misses 1 by")
    assert f"by {info.value.residual:.3e} after" in str(info.value)  # the residual is kept
    monkeypatch.undo()

    # a failure inside the mode loop names its mode
    def norm_failing_on_complex(f, space):
        if np.iscomplexobj(f.values):
            raise ConvergenceFailure("modular misses 1", 0.5)
        return norm(f, space)

    monkeypatch.setattr(extraction, "norm", norm_failing_on_complex)
    with pytest.raises(ConvergenceFailure) as info:
        verify_master_chain(b, (V, V), V, q, exp)
    assert str(info.value) == f"{q}, mode 0: modular misses 1"
    assert info.value.residual == 0.5
    monkeypatch.undo()

    # Q' leaves the box: the geometry stage
    far = Cube((4.921875,), 0.28125)
    with pytest.raises(OutOfDomain, match=r"^Q\(4\.92188;0\.28125\), geometry: "):
        verify_master_chain(b, (V, V), V, far, exp)


def _bilinear_1d_chain():
    b, geo, q = _bilinear_1d_cube()
    V = fixtures.make_exponent("arctan_profile", b.grid)
    W = Weighted(2.0, fixtures.make_weight("power:0.5", b.grid))
    return b, (V, W), V, q, fourier_reciprocal(BIRIESZ, geo, 5)


def _riesz_2d_chain():
    b, geo, q = _riesz_2d_cube()
    kernel = fixtures.make_kernel("riesz_1", 2)
    return b, (Lebesgue(4.0),), Lebesgue(2.0), q, fourier_reciprocal(kernel, geo, 5)


@pytest.mark.parametrize("setup", [_bilinear_1d_chain, _riesz_2d_chain], ids=["bilinear-1d", "riesz_1-2d"])
def test_chain_indexes_each_cube_once(monkeypatch, setup):
    """One index pass for Q and its derived cubes, one for P: their cells,
    measures, b_{Q'} and indicator norms all come from the two families."""
    args = setup()
    calls = []
    index_ranges = grid_module._index_ranges

    def counted(*a):
        calls.append(a)
        return index_ranges(*a)

    monkeypatch.setattr(grid_module, "_index_ranges", counted)
    verify_master_chain(*args)
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "make",
    [
        lambda g: Lebesgue(3.0),
        lambda g: Weighted(2.0, fixtures.make_weight("power:0.5", g)),
        lambda g: fixtures.make_exponent("arctan_profile", g),
    ],
    ids=["lebesgue", "weighted", "variable"],
)
@pytest.mark.parametrize("grid", [Grid((-6.0,), (6.0,), 512), Grid((-6.0, -6.0), (6.0, 6.0), 48)], ids=["1d", "2d"])
def test_member_family_norm_is_the_family_row(make, grid):
    """chi_norms of the one-cube family of member i is, bit for bit, entry i
    of chi_norms of the whole family: the chain's norms stage reads row i of
    its cube's family."""
    side = 0.28125 if grid.n == 1 else 0.375
    cubes = [Cube((0.0,) * grid.n, side), Cube((1.0,) * grid.n, side), Cube((-2.5,) * grid.n, 2 * side)]
    family = CubeFamily(grid, cubes)
    space = make(grid)
    whole = chi_norms(space, family)
    for i in range(len(family)):
        assert chi_norms(space, CubeFamily(grid, (family.cubes[i],))) == [whole[i]]


@pytest.mark.parametrize(
    "make",
    [
        lambda g: Weighted(2.0, fixtures.make_weight("power:0.5", g)),
        lambda g: fixtures.make_exponent("arctan_profile", g),
    ],
    ids=["weighted", "variable"],
)
def test_chain_refuses_an_input_space_on_another_grid(make):
    b, geo, q = _bilinear_1d_cube()
    exp = fourier_reciprocal(BIRIESZ, geo, 5)
    other = make(Grid((-6.0,), (6.0,), 256))
    with pytest.raises(GridMismatch) as info:
        verify_master_chain(b, (Lebesgue(4.0), other), Lebesgue(2.0), q, exp)
    assert str(info.value).startswith(f"{q}, norms: ")


def test_grid_mismatch_names_the_space_and_both_grids():
    b, geo, q = _bilinear_1d_cube()
    exp = fourier_reciprocal(BIRIESZ, geo, 5)
    other = Weighted(2.0, fixtures.make_weight("power:0.5", Grid((-6.0,), (6.0,), 256)))
    with pytest.raises(GridMismatch) as info:
        verify_master_chain(b, (Lebesgue(4.0), other), Lebesgue(2.0), q, exp)
    assert str(info.value) == f"{q}, norms: Weighted on {other.grid}, CubeFamily on {b.grid}"
    assert "m=512" in str(b.grid) and "m=256" in str(other.grid)


# ---- trend classification and the necessity report ----


def test_trend_verdict_rules():
    assert trend_verdict([1.0, 1.02, 0.98]) == "stable"
    assert trend_verdict([1.0, 1.4, 2.0]) == "growing"
    assert trend_verdict([1.0, 1.18]) == "undetermined"  # 18% drift, not monotone enough
    assert trend_verdict([1.0]) == "undetermined"
    assert trend_verdict([0.0, 1.0]) == "undetermined"
    assert trend_verdict([0.0, 0.0]) == "stable"  # flat at zero: a constant symbol


def test_trend_verdict_joins_the_last_step_and_the_spread():
    # a last step below +5% reads stable whatever the spread
    assert trend_verdict([1.0, 2.0, 2.04]) == "stable"
    assert trend_verdict([4.0, 2.0, 1.0, 0.5]) == "stable"
    # each step above +5% but under 25% in total: no verdict
    assert trend_verdict([1.0, 1.06, 1.13, 1.2]) == "undetermined"
    # a rise of 44% that dips on the way: no verdict
    assert trend_verdict([1.0, 1.3, 1.2, 1.44]) == "undetermined"
    assert trend_verdict([1.0, 1.1, 1.25, 1.4]) == "growing"
    assert trend_verdict([]) == "undetermined"
    assert trend_verdict([1.0, -1.0]) == "undetermined"


def test_necessity_contrast_linear():
    # bounded-oscillation symbol stays flat, odd-log grows, on the same
    # shrinking centered family
    g = Grid((-6.0,), (6.0,), 512)
    geo = select_geometry(HILBERT, 0.5)
    exp = fourier_reciprocal(HILBERT, geo, 32)
    fam = centered_family(g, (0.0,), 3.0, 2, 5)
    stable = necessity_experiment(
        make_symbol("log_abs", g), (Lebesgue(2.0),), Lebesgue(2.0), fam, exp
    )
    growing = necessity_experiment(
        make_symbol("sgn_log", g), (Lebesgue(2.0),), Lebesgue(2.0), fam, exp
    )
    assert stable.ratio_verdict == "stable"
    assert growing.ratio_verdict == "growing"
    assert set(stable.ratio_by_level) == {2, 3, 4, 5}
    # the max of the level maxima is the max over the cubes, the same float
    assert max(stable.ratio_by_level.values()) == max(r.oscillation_ratio for r in stable.per_cube)
    assert len(stable.per_cube) == len(fam)


def test_necessity_levels_keep_the_largest_cube_of_each_level():
    """On a dyadic family with 4 and 8 cubes per level, ratio_by_level and
    probe_by_level hold each level's largest per-cube value, and at least
    one level's last cube is not its largest."""
    g = Grid((-6.0,), (6.0,), 512)
    exp = fourier_reciprocal(HILBERT, select_geometry(HILBERT, 0.5), 32)
    fam = grid_module.enumerate_dyadic(g, 2, 3, Cube((0.0,), 1.125))
    report = necessity_experiment(make_symbol("log_abs", g), (Lebesgue(2.0),), Lebesgue(2.0), fam, exp)
    for by_level, field in ((report.ratio_by_level, "oscillation_ratio"), (report.probe_by_level, "probe_norm")):
        per_level = {}
        for level, rep in zip(fam.levels, report.per_cube):
            per_level.setdefault(level, []).append(getattr(rep, field))
        assert [len(v) for v in per_level.values()] == [4, 8]
        assert by_level == {level: max(v) for level, v in per_level.items()}
        assert any(v[-1] < max(v) for v in per_level.values()), field


@pytest.fixture(scope="module")
def biriesz_expansion():
    geo = select_geometry(BIRIESZ, 0.5)
    return geo, fourier_reciprocal(BIRIESZ, geo, 10)


@pytest.mark.parametrize(
    "x, y",
    [("lebesgue:4", "lebesgue:2"), ("weighted:4:power:0.5", "weighted:2:power:0.5"), ("variable:arctan_profile",) * 2],
    ids=["lebesgue", "weighted", "variable"],
)
def test_default_necessity_family_has_every_stage_on_every_cube(biriesz_expansion, x, y):
    """The necessity defaults: log_abs on [-6, 6] with m = 512 and the
    centered family of base side 3, levels 2-5. P leaves the box on the
    two coarsest cubes; stage (v) reads chi_P cut to the box, so every
    report field is a finite float and (iv) <= (v) on every cube. Where P
    fits, the Lebesgue stage (v) is, bit for bit, the one read from the
    indicator norms of P itself."""
    g = Grid((-6.0,), (6.0,), 512)
    geo, exp = biriesz_expansion
    X, Y = fixtures.make_space(x, g), fixtures.make_space(y, g)
    fam = centered_family(g, (0.0,), 3.0, 2, 5)
    report = necessity_experiment(make_symbol("log_abs", g), (X, X), Y, fam, exp)
    fits = 0
    for q, rep in zip(fam, report.per_cube):
        values = [getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name not in ("cube", "checks")]
        assert all(type(v) is float and math.isfinite(v) for v in values), rep
        assert rep.stage_iv <= rep.stage_v
        p = geo.p_cube(q)
        if x.startswith("lebesgue") and g.box_cube().contains_cube(p):
            meas_prod = math.prod(CubeFamily(g, geo.derived_cubes(q)).measures)
            c_pref = (q.side / geo.delta) ** BIRIESZ.degree / meas_prod
            pn = math.prod([chi_norm(associate(Y), p, g), chi_norm(X, p, g), chi_norm(X, p, g)])
            assert rep.stage_v == c_pref * rep.probe_norm * exp.l1_total * pn
            fits += 1
    assert type(report.sup_bound_ratio) is float and math.isfinite(report.sup_bound_ratio)
    assert fits == (2 if x.startswith("lebesgue") else 0)


def test_bilinear_bound_ratio_and_condition_stay_flat_together():
    # on the Hoelder-balanced triple L^4 x L^4 -> L^2 the chain's bound ratio
    # stage (v) / |Q| is free of scale, and so must be condition_bilinear on
    # the same cubes: both move by less than 10% between the cubes whose P
    # dilate stays in the box
    g = Grid((-6.0,), (6.0,), 512)
    geo = select_geometry(BIRIESZ, 0.5)
    exp = fourier_reciprocal(BIRIESZ, geo, 10)
    fam = centered_family(g, (0.0,), 3.0, 2, 5)
    X, Y = Lebesgue(4.0), Lebesgue(2.0)
    rep = necessity_experiment(
        make_symbol("log_abs", g), (X, X), Y, fam, exp
    )
    cond = condition_bilinear(X, X, Y, 0.0, fam)
    box = g.box_cube()
    kept = [(r.bound_ratio, c) for q, r, c in zip(fam, rep.per_cube, cond.per_cube) if box.contains_cube(geo.p_cube(q))]
    assert len(kept) >= 2
    for (b0, c0), (b1, c1) in zip(kept, kept[1:]):
        assert abs(b1 / b0 - 1.0) < 0.1
        assert abs(c1 / c0 - 1.0) < 0.1


def test_fourier_reciprocal_refuses_a_geometry_of_another_dimension():
    with pytest.raises(ValueError, match="^kernel and geometry disagree on dimension$"):
        fourier_reciprocal(HILBERT, select_geometry(BIRIESZ, 0.5), 5)
