"""The release gate: ten numbered criteria, each one test, each at its
stated tolerance and budget.  Run with -s to see the one-line summaries.

These tests re-derive nothing; expected values are closed forms (log 3,
2, 4/3-type constants live in the per-module suites) or structural facts
(identities that must be exact, orderings that must hold cube by cube).
"""

import json
import math
import time

import numpy as np
import pytest

from oscillab import (
    Cube,
    Grid,
    GridFunction,
    Lebesgue,
    OperatorHandle,
    averaging,
    bilinear_averaging,
    bilinear_maximal,
    centered_family,
    commutator,
    enumerate_dyadic,
    fractional_integral,
    indicator,
    maximal,
    singular_integral,
)
from oscillab import fixtures
from oscillab.fixtures import make_symbol
from oscillab.extraction import (
    _unit_ball_points,
    fourier_reciprocal,
    necessity_experiment,
    select_geometry,
    verify_master_chain,
)
from oscillab.grid import trend_verdict
from oscillab.spaces import chi_norm, condition_linear, luxemburg_norm, norm
from oscillab.weights import ap_constant, ap_duality_gap
from oracles import cube_average, cube_measure, from_callable, harmonic_mean_over


def report(k, detail):
    print(f"criterion {k}: pass ({detail})")


def test_criterion_01_exact_algebra():
    t0 = time.perf_counter()
    g = Grid((-1.0,), (1.0,), 256)
    fam = enumerate_dyadic(g, 0, 6)
    for p in (1.5, 2.0, 4.0):
        rep = condition_linear(Lebesgue(p), Lebesgue(p), 0.0, fam)
        assert abs(rep.value - 1.0) <= 1e-10, f"condition_linear p={p}: {rep.value}"
    w = GridFunction(g, np.sqrt(np.abs(g.meshes()[0])))
    assert ap_duality_gap(w, 2.0, fam) <= 1e-12
    ones = GridFunction(g, np.ones(g.shape))
    assert ap_constant(ones, 2.0, fam).value == 1.0
    for q in fam:
        assert cube_average(indicator(g, q), q) == 1.0
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(1, f"{len(fam)} cubes, {dt:.2f}s")


def test_criterion_02_luxemburg():
    t0 = time.perf_counter()
    g = Grid((-1.0,), (1.0,), 256)
    xs = g.meshes()[0]
    profile = fixtures.make_exponent("arctan_profile", g)
    rng = np.random.default_rng(52)
    worst_closed, worst_hom, worst_mod = 0.0, 0.0, 0.0
    for _ in range(50):
        vals = np.zeros(g.shape)
        for _ in range(4):
            c, s, a = rng.uniform(-0.8, 0.8), rng.uniform(0.05, 0.4), rng.normal()
            vals += a * np.exp(-((xs - c) ** 2) / (2 * s * s))
        f = GridFunction(g, vals)
        p = float(rng.uniform(1.2, 4.0))
        pe = fixtures.make_exponent(f"constant:{p}", g)
        lux = luxemburg_norm(f, pe)
        closed = norm(f, Lebesgue(p))
        worst_closed = max(worst_closed, abs(lux - closed) / closed)
        c = float(rng.uniform(0.1, 10.0))
        lam = luxemburg_norm(f, profile)
        lam_c = luxemburg_norm(GridFunction(g, c * vals), profile)
        worst_hom = max(worst_hom, abs(lam_c - c * lam) / (c * lam))
        mod = float(
            np.sum((np.abs(vals) / lam) ** profile.exponent.values) * g.cell_volume
        )
        worst_mod = max(worst_mod, abs(mod - 1.0))
    assert worst_closed <= 1e-6
    assert worst_hom <= 1e-8
    assert worst_mod <= 1e-8
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(2, f"closed {worst_closed:.1e}, hom {worst_hom:.1e}, modular {worst_mod:.1e}, {dt:.2f}s")


def test_criterion_03_indicator_ratio_uniformity():
    g = Grid((-1.0,), (1.0,), 256)
    X = fixtures.make_exponent("arctan_profile", g)
    spread = {}
    for lmax in (5, 6):
        ratios = [
            chi_norm(X, q, g) / cube_measure(g, q) ** (1.0 / harmonic_mean_over(X, q))
            for q in enumerate_dyadic(g, 0, lmax)
        ]
        spread[lmax] = max(ratios) / min(ratios)
    assert math.isfinite(spread[6]) and spread[6] < 100.0
    drift = abs(spread[6] / spread[5] - 1.0)
    assert drift < 0.02
    report(3, f"spread {spread[6]:.4f}, drift {drift:.2e}")


def test_criterion_04_operator_oracles():
    hilbert = fixtures.make_kernel("hilbert", 1)
    g = Grid((-8.0,), (8.0,), 4096)
    out = singular_integral(indicator(g, Cube((0.0,), 2.0)), hilbert)
    x = g.axis_centers(0)
    step = out.values[int(np.argmin(np.abs(x - 2.0)))]
    assert step == pytest.approx(math.log(3.0), rel=0.02)

    gf = Grid((-2.0,), (2.0,), 16384)
    frac = fractional_integral(indicator(gf, Cube((0.5,), 1.0)), fixtures.make_kernel("frac_alpha:0.5", 1))
    xf = gf.axis_centers(0)
    near0 = frac.values[int(np.where((xf > 0) & (xf < 1))[0][0])]
    assert near0 == pytest.approx(2.0, rel=0.02)

    # T acts on f chi_box, so T(2.5) = 2.5 log((x + 4)/(4 - x)); on the
    # middle half of the box the quadrature error is O(h^2)
    g5 = Grid((-4.0,), (4.0,), 512)
    const = GridFunction(g5, np.full(g5.shape, 2.5))
    x5 = g5.axis_centers(0)
    middle = np.abs(x5) <= 2.0
    box = singular_integral(const, hilbert).values[middle]
    box_err = np.max(np.abs(box - 2.5 * np.log((x5[middle] + 4.0) / (4.0 - x5[middle]))))
    assert box_err <= g5.h**2
    f = from_callable(g5, lambda t: np.sin(2 * t) * np.exp(-t * t))
    comm = commutator(const, OperatorHandle(hilbert), f)
    czero = np.max(np.abs(comm.values))
    assert czero <= 1e-10
    report(
        4,
        f"step rel {abs(step - math.log(3)) / math.log(3):.1e}, "
        f"frac rel {abs(near0 - 2) / 2:.1e}, box {box_err:.1e} (h^2 {g5.h**2:.1e}), zero {czero:.1e}",
    )


def test_criterion_05_weight_dichotomy():
    values = {}
    for wname in ("power:0.5", "power:3"):
        vals = []
        for level in (6, 7, 8):
            g = Grid((-1.0,), (1.0,), 16 * 2**level)
            w = fixtures.make_weight(wname, g)
            vals.append(ap_constant(w, 2.0, enumerate_dyadic(g, 0, level)).value)
        values[wname] = vals
    stable_growth = values["power:0.5"][-1] / values["power:0.5"][-2] - 1.0
    assert stable_growth < 0.05
    assert trend_verdict(values["power:0.5"]) == "stable"
    steps = [(b - a) / a for a, b in zip(values["power:3"], values["power:3"][1:])]
    assert all(s > 0.5 for s in steps)
    assert trend_verdict(values["power:3"]) == "growing"
    report(5, f"|x|^0.5 growth {stable_growth:.2%}, |x|^3 steps {['%.0f%%' % (100 * s) for s in steps]}")


def test_criterion_06_pointwise_domination():
    g = Grid((-2.0,), (2.0,), 128)
    fam = enumerate_dyadic(g, 0, 4)
    rng = np.random.default_rng(1789)
    violations = 0
    for _ in range(20):
        f = GridFunction(g, rng.standard_normal(g.shape))
        h = GridFunction(g, rng.standard_normal(g.shape))
        q = fam.cubes[int(rng.integers(len(fam)))]
        alpha = float(rng.uniform(0.0, 1.0))
        a = averaging(f, q, alpha)
        m = maximal(f, alpha, fam)
        violations += int(np.sum(np.abs(a.values) > m.values + 1e-14))
        ab = bilinear_averaging(f, h, q, 2 * alpha)
        mb = bilinear_maximal(f, h, 2 * alpha, fam)
        violations += int(np.sum(np.abs(ab.values) > mb.values + 1e-14))
    assert violations == 0
    report(6, "20 samples, linear and bilinear, zero violations")


def test_criterion_07_fourier_reciprocal():
    hilbert = fixtures.make_kernel("hilbert", 1)
    geo = select_geometry(hilbert, 0.5)
    exp = fourier_reciprocal(hilbert, geo, 64)
    assert len(exp.coeffs) <= 64
    assert exp.epsilon <= 1e-6
    pts = _unit_ball_points(1, 1000, seed=1861) * geo.ball_radius + np.array(geo.expansion_center)
    resid = np.max(np.abs(exp.evaluate(pts) * hilbert.evaluate(pts) - 1.0))
    assert resid <= 1e-5
    report(7, f"eps {exp.epsilon:.1e} at N=64, identity residual {resid:.1e} on {len(pts)} points")


@pytest.fixture(scope="module")
def bilinear_setup():
    g = Grid((-6.0,), (6.0,), 512)
    k = fixtures.make_kernel("bilinear_riesz", 1)
    geo = select_geometry(k, 0.5)
    exp = fourier_reciprocal(k, geo, 10)
    return g, exp, Lebesgue(4.0), Lebesgue(4.0), Lebesgue(2.0)


def test_criterion_08_master_chain(bilinear_setup):
    t0 = time.perf_counter()
    g, exp, X1, X2, Y = bilinear_setup
    b = make_symbol("log_abs", g)
    fam = enumerate_dyadic(g, 2, 4, Cube((0.0,), 1.125))
    worst_rel = 0.0
    for q in fam:
        rep = verify_master_chain(b, (X1, X2), Y, q, exp)
        assert [c.name for c in rep.checks] == ["gap_identity_rel", "gap_truncation", "ordering_holder", "ordering_probe_bound"]
        assert all(c.holds for c in rep.checks), (q, rep.checks)
        worst_rel = max(worst_rel, abs(rep.stage_i - rep.stage_iii) / rep.stage_i)
    bc = make_symbol("constant:2.0", g)
    rep = verify_master_chain(bc, (X1, X2), Y, fam.cubes[0], exp)
    assert [(c.name, c.holds) for c in rep.checks] == [("all_stages_zero", True)], rep.checks
    dt = time.perf_counter() - t0
    assert dt < 300.0
    report(8, f"{len(fam)} cubes, worst (i)/(iii) gap {worst_rel:.1e}, {dt:.1f}s")


def test_criterion_09_necessity_contrast(bilinear_setup):
    g, exp, X1, X2, Y = bilinear_setup
    fam = centered_family(g, (0.0,), 3.0, 2, 5)
    stable = necessity_experiment(
        make_symbol("log_abs", g), (X1, X2), Y, fam, exp
    )
    growing = necessity_experiment(
        make_symbol("sgn_log", g), (X1, X2), Y, fam, exp
    )
    assert stable.ratio_verdict == "stable"
    assert growing.ratio_verdict == "growing"
    seq = [growing.ratio_by_level[l] for l in (2, 3, 4, 5)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    report(
        9,
        f"log|x| {stable.ratio_verdict} "
        f"(sup {max(stable.ratio_by_level.values()):.3f}), sgn log {growing.ratio_verdict} "
        f"({' < '.join('%.3f' % v for v in seq)})",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    import os

    from oscillab.cli import main

    (tmp_path / "all.json").write_text(json.dumps({"experiment": "all", "seed": 20240818}))
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["run", "all.json", "--set", "csv_path=r1.csv"]) == 0
        assert main(["run", "all.json", "--set", "csv_path=r2.csv"]) == 0
    finally:
        os.chdir(old)
    b1 = (tmp_path / "r1.csv").read_bytes()
    b2 = (tmp_path / "r2.csv").read_bytes()
    assert b1 == b2
    n_rows = b1.count(b"\n") - 1
    report(10, f"two full-suite runs, {n_rows} rows, identical bytes")
