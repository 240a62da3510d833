"""Norm layer: closed forms, the Luxemburg Newton solve, associates, conditions.

The one nontrivial pinned constant: for p(x) = 2 + chi_{x>0} on [-1,1] and
f = chi_[-1,1], the Luxemburg norm lambda solves 1/l^2 + 1/l^3 = 1, whose
root is the plastic number 1.32471795724474602596..., frozen below.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import (
    ConvergenceFailure,
    Cube,
    Grid,
    GridFunction,
    Lebesgue,
    OutOfDomain,
    Variable,
    Weighted,
    associate,
    centered_family,
    chi_norm,
    chi_norms,
    condition_bilinear,
    condition_linear,
    conjugate_exponent,
    cube_measure,
    cube_slices,
    duality_gap,
    enumerate_dyadic,
    holder_defect,
    indicator,
    integrate,
    luxemburg_norm,
    norm,
)
from oscillab import spaces

PLASTIC = 1.3247179572447460


@pytest.fixture(scope="module")
def g256():
    return Grid((-1.0,), (1.0,), 256)


def _rand_fn(grid, rng, complex_ok=False):
    vals = rng.standard_normal(grid.shape)
    return GridFunction(grid, vals)


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(1.5) == pytest.approx(3.0)
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)


def test_luxemburg_plastic_number(g256):
    p = Variable(GridFunction.from_callable(g256, lambda x: 2.0 + (x > 0)))
    f = GridFunction(g256, np.ones(g256.shape))
    lam = luxemburg_norm(f, p)
    assert lam == pytest.approx(PLASTIC, rel=1e-9)


def test_luxemburg_matches_lebesgue_closed_form(g256):
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.7):
        pe = Variable(GridFunction(g256, np.full(g256.shape, p)))
        for _ in range(5):
            f = _rand_fn(g256, rng)
            assert luxemburg_norm(f, pe) == pytest.approx(norm(f, Lebesgue(p)), rel=1e-8)


def test_weighted_norm_closed_form(g256):
    w = GridFunction.from_callable(g256, lambda x: np.abs(x) ** 0.5)
    W = Weighted(2.0, w)
    f = GridFunction.from_callable(g256, lambda x: x)
    wanted = float(np.sqrt(np.sum(f.values**2 * w.values) * g256.cell_volume))
    assert norm(f, W) == pytest.approx(wanted)


def _smooth_exponent(g):
    return Variable(GridFunction.from_callable(g, lambda x: 2.0 + np.arctan(x) / np.pi))


def _jumping_exponent(g):
    # p jumps between 1.01 and 40 from cell to cell
    return Variable(GridFunction(g, np.where(np.arange(g.m) % 2 == 0, 1.01, 40.0)))


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("make_exponent", [_smooth_exponent, _jumping_exponent])
def test_newton_lambda_meets_the_unit_modular(scale, make_exponent):
    # the modular at the returned lambda, recomputed with plain powers, is
    # within MODULAR_TOL of 1: functions of size `scale` on a box of length
    # `scale`, cubes down to a single cell, and a single nonzero cell
    g = Grid((0.0,), (scale,), 256)
    p = make_exponent(g)
    spike = np.zeros(g.shape)
    spike[37] = scale
    for f in (np.random.default_rng(5).standard_normal(g.shape) * scale, spike):
        lam = luxemburg_norm(GridFunction(g, f), p)
        modular = np.sum(g.cell_volume * (np.abs(f) / lam) ** p.exponent.values)
        assert abs(modular - 1.0) <= spaces.MODULAR_TOL
    fam = enumerate_dyadic(g, 0, 8)
    assert min(fam.counts) == 1
    for q, lam in zip(fam, chi_norms(p, fam)):
        modular = np.sum(g.cell_volume * (1.0 / lam) ** p.exponent.values[cube_slices(g, q)])
        assert abs(modular - 1.0) <= spaces.MODULAR_TOL


def test_chi_norm_of_a_cube_leaving_the_box_raises(g256):
    # the chain's closing bound reads OutOfDomain as "no stage (v)"
    q = Cube((0.9,), 0.5)
    for space in (
        Lebesgue(2.0),
        Weighted(2.0, GridFunction.from_callable(g256, lambda x: np.exp(x))),
        _smooth_exponent(g256),
    ):
        with pytest.raises(OutOfDomain):
            chi_norm(space, q, g256)


def test_chi_norm_closed_forms(g256):
    q = Cube((0.25,), 0.5)
    chi = indicator(g256, q)
    for space in (
        Lebesgue(1.7),
        Weighted(2.5, GridFunction.from_callable(g256, lambda x: np.exp(x))),
        Variable(GridFunction.from_callable(g256, lambda x: 2.0 + np.arctan(x) / np.pi)),
    ):
        assert chi_norm(space, q, g256) == pytest.approx(norm(chi, space), rel=1e-9)


def test_associate_pairs(g256):
    L = Lebesgue(3.0)
    assert isinstance(associate(L), Lebesgue)
    assert associate(L).p == pytest.approx(1.5)

    w = GridFunction.from_callable(g256, lambda x: 1.0 + x * x)
    W = Weighted(3.0, w)
    Wp = associate(W)
    assert Wp.p == pytest.approx(1.5)
    # dual weight w^{1-p'}
    assert np.allclose(Wp.weight.values, w.values ** (1.0 - 1.5))

    V = Variable(GridFunction.from_callable(g256, lambda x: 2.0 + np.arctan(x) / np.pi))
    Vp = associate(V)
    assert np.allclose(
        1.0 / V.exponent.values + 1.0 / Vp.exponent.values, 1.0
    )


def test_associate_is_involutive_object_identity(g256):
    for space in (Lebesgue(2.5), Variable(GridFunction(g256, np.full(g256.shape, 3.0)))):
        assert associate(associate(space)) is space


def test_holder_defect_at_most_one(g256):
    rng = np.random.default_rng(3)
    space = Lebesgue(2.0)
    for _ in range(10):
        f, h = _rand_fn(g256, rng), _rand_fn(g256, rng)
        d = holder_defect(f, h, space)
        assert 0.0 < d <= 1.0 + 1e-12


def test_duality_gap_attains_one_for_lebesgue(g256):
    # the probe set contains the analytic extremizer, so the sup pairing
    # ratio is exactly 1 up to quadrature rounding
    f = GridFunction.from_callable(g256, lambda x: np.cos(3 * x))
    gap = duality_gap(f, Lebesgue(2.0), trials=16, seed=1)
    assert gap == pytest.approx(1.0, abs=1e-9)


def test_norm_lattice_monotone(g256):
    # |f| <= |g| pointwise forces ||f|| <= ||g||
    rng = np.random.default_rng(11)
    f = _rand_fn(g256, rng)
    bigger = GridFunction(g256, np.abs(f.values) * (1.0 + rng.uniform(0, 1, g256.shape)))
    V = Variable(GridFunction.from_callable(g256, lambda x: 2.0 + np.arctan(x) / np.pi))
    for space in (Lebesgue(1.8), V):
        assert norm(f, space) <= norm(bigger, space) + 1e-12


def test_condition_linear_lebesgue_identity(g256):
    fam = enumerate_dyadic(g256, 0, 6)
    for p in (1.5, 2.0, 4.0):
        rep = condition_linear(Lebesgue(p), Lebesgue(p), 0.0, fam)
        assert rep.value == pytest.approx(1.0, abs=1e-10)


def test_condition_bilinear_exponent_balance(g256):
    # the Hoelder-balanced triple 1/y = 1/x1 + 1/x2 makes the measure powers
    # cancel cube by cube
    fam = enumerate_dyadic(g256, 0, 4)
    rep = condition_bilinear(Lebesgue(4.0), Lebesgue(4.0), Lebesgue(2.0), 0.0, fam)
    assert rep.per_cube == pytest.approx([1.0] * len(fam), abs=1e-10)
    # 1/x1 + 1/x2 = 1 + 1/y leaves one power of |Q|, so the sup sits on the
    # root cube, |Q| = 2
    rep2 = condition_bilinear(Lebesgue(1.5), Lebesgue(1.5), Lebesgue(3.0), 0.0, fam)
    assert rep2.per_cube == pytest.approx([cube_measure(g256, q) for q in fam], rel=1e-9)
    assert rep2.argmax.side == pytest.approx(2.0)
    assert rep2.value == pytest.approx(2.0, rel=1e-9)


def test_condition_bilinear_power_weight_oracle():
    # L^4(w) x L^4(w) -> L^2(w) with w = |x|^(1/2): the per-cube value is
    # (fa(w) fa(w^-1))^(1/2) = A_2(w)^(1/2), sqrt(4/3) on centered intervals
    # (the A_2 oracle of test_weights)
    g = Grid((-1.0,), (1.0,), 4096)
    w = GridFunction(g, np.abs(g.meshes()[0]) ** 0.5)
    fam = centered_family(g, (0.0,), 2.0, 0, 5)
    rep = condition_bilinear(Weighted(4.0, w), Weighted(4.0, w), Weighted(2.0, w), 0.0, fam)
    assert rep.per_cube == pytest.approx([(4.0 / 3.0) ** 0.5] * len(fam), rel=0.02)


def test_condition_bilinear_weighted_is_the_multiple_weight_quantity():
    # Weighted(p1, w1) x Weighted(p2, w2) -> Weighted(p, v), v = w1^(p/p1) w2^(p/p2),
    # reads fa(v^(1-p'))^(1/p') fa(w1)^(1/p1) fa(w2)^(1/p2) on every cube
    g = Grid((-1.0,), (1.0,), 256)
    fam = enumerate_dyadic(g, 0, 5)
    rng = np.random.default_rng(11)
    w1, w2 = (np.exp(rng.standard_normal(g.shape)) for _ in range(2))
    p1, p2 = 3.0, 4.0
    p = 1.0 / (1.0 / p1 + 1.0 / p2)
    pp = conjugate_exponent(p)
    v = w1 ** (p / p1) * w2 ** (p / p2)
    rep = condition_bilinear(
        Weighted(p1, GridFunction(g, w1)),
        Weighted(p2, GridFunction(g, w2)),
        Weighted(p, GridFunction(g, v)),
        0.0,
        fam,
    )

    def fa(vals, q):
        return float(np.mean(vals[cube_slices(g, q)]))

    want = [
        fa(v ** (1.0 - pp), q) ** (1.0 / pp) * fa(w1, q) ** (1.0 / p1) * fa(w2, q) ** (1.0 / p2)
        for q in fam
    ]
    assert rep.per_cube == pytest.approx(want, rel=1e-14)


def test_condition_fractional_scaling(g256):
    # alpha = 1/2, X = Y = L^2: per-cube value is |Q|^{-1/2}, so the sup
    # sits on the smallest cube
    fam = enumerate_dyadic(g256, 0, 4)
    rep = condition_linear(Lebesgue(2.0), Lebesgue(2.0), 0.5, fam)
    smallest = min(q.side for q in fam.cubes)
    assert rep.argmax.side == pytest.approx(smallest)
    assert rep.value == pytest.approx(smallest ** -0.5, rel=1e-9)


def test_luxemburg_of_zero_function():
    g = Grid((0.0,), (1.0,), 16)
    p = Variable(GridFunction(g, np.full(g.shape, 2.0)))
    z = GridFunction(g, np.zeros(16))
    assert luxemburg_norm(z, p) == 0.0


def test_bisection_that_misses_the_tolerance_raises(g256, monkeypatch):
    # no modular is within a negative tolerance of 1, so every Newton solve
    # runs out of steps; both a function's norm and a family's chi norms
    # must say so
    monkeypatch.setattr(spaces, "MODULAR_TOL", -1.0)
    p = Variable(GridFunction.from_callable(g256, lambda x: 2.0 + (x > 0)))
    with pytest.raises(ConvergenceFailure) as scalar:
        luxemburg_norm(GridFunction(g256, np.ones(g256.shape)), p)
    assert 0.0 <= scalar.value.residual < 1e-9
    with pytest.raises(ConvergenceFailure) as lockstep:
        chi_norms(p, enumerate_dyadic(g256, 0, 3))
    assert 0.0 <= lockstep.value.residual < 1e-9


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 2**16))
def test_homogeneity_property(scale, seed):
    g = Grid((-1.0,), (1.0,), 64)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(64))
    V = Variable(GridFunction.from_callable(g, lambda x: 2.0 + np.arctan(x) / np.pi))
    n1 = luxemburg_norm(f, V)
    n2 = luxemburg_norm(scale * f, V)
    assert n2 == pytest.approx(scale * n1, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_triangle_inequality_property(seed):
    g = Grid((-1.0,), (1.0,), 64)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(64))
    h = GridFunction(g, rng.standard_normal(64))
    for space in (Lebesgue(2.5), Variable(GridFunction(g, np.full(g.shape, 3.0)))):
        assert norm(f + h, space) <= norm(f, space) + norm(h, space) + 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_holder_pairing_property(seed):
    # |int f g| <= ||f||_X ||g||_X' for the variable-exponent pair
    g = Grid((-1.0,), (1.0,), 64)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(64))
    h = GridFunction(g, rng.standard_normal(64))
    X = Variable(GridFunction.from_callable(g, lambda x: 2.0 + np.arctan(x) / np.pi))
    lhs = abs(integrate(f * h))
    # the discrete pairing constant for Luxemburg norms is at most 2
    assert lhs <= 2.0 * norm(f, X) * norm(h, associate(X)) + 1e-10
