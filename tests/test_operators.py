"""Operator layer oracles.

Frozen continuum values:
  - Hilbert-type step response: for K(u) = 1/u, (T chi_[-1,1])(2) = log 3.
  - Riesz potential: (I_{1/2} chi_[0,1])(0) = int_0^1 y^{-1/2} dy = 2.
  - [x, T]f = int f less the self cell, exactly, since (x-y)K(x-y) = 1.
Everything else is either an algebraic zero or a cross-check between two
independent code paths (tensor contraction vs explicit python loops).
"""

import math

import numpy as np
import pytest

from oscillab import (
    AlphaOutOfRange,
    Cube,
    Grid,
    GridFunction,
    GridMismatch,
    KernelSpec,
    Lebesgue,
    MeanZeroViolation,
    OperatorHandle,
    UncoveredPoint,
    averaging,
    bilinear_averaging,
    bilinear_fractional_integral,
    bilinear_maximal,
    bilinear_singular_integral,
    commutator,
    distance_kernel,
    enumerate_dyadic,
    fractional_integral,
    indicator,
    maximal,
    singular_integral,
)
from oscillab import fixtures, operators
from oscillab.cli import _probe_estimates
from oracles import (
    distance_self_cell_4d,
    from_callable,
    homogeneity_defect,
    kernel_tensor_at_coordinates,
    self_cell_2d,
)


HILBERT = fixtures.make_kernel("hilbert", 1)


def test_kernel_spec_validation():
    with pytest.raises(MeanZeroViolation):
        KernelSpec(1, 1, 0.0, lambda t: np.ones(t.shape[:-1]))
    with pytest.raises(AlphaOutOfRange):
        KernelSpec(1, 1, 1.5, lambda t: t[..., 0])
    with pytest.raises(ValueError, match="1 or 2 inputs, got 3"):
        KernelSpec(3, 1, 0.0, lambda t: t[..., 0])
    assert HILBERT.degree == pytest.approx(1.0)


def test_kernel_homogeneity_defect_zero():
    for name, n in (("hilbert", 1), ("riesz_1", 2), ("bilinear_riesz", 1), ("frac_alpha:0.5", 1)):
        k = fixtures.make_kernel(name, n)
        assert homogeneity_defect(k) <= 1e-12


def test_hilbert_step_response_log3():
    g = Grid((-8.0,), (8.0,), 4096)
    out = OperatorHandle(HILBERT)(indicator(g, Cube((0.0,), 2.0)))
    x = g.axis_centers(0)
    val = out.values[int(np.argmin(np.abs(x - 2.0)))]
    assert val == pytest.approx(math.log(3.0), rel=0.02)


def test_singular_odd_symmetry():
    # odd kernel, even function -> odd output up to grid reflection
    g = Grid((-4.0,), (4.0,), 256)
    f = from_callable(g, lambda x: np.exp(-x * x))
    out = singular_integral(f, HILBERT).values
    assert np.max(np.abs(out + out[::-1])) <= 1e-12


def test_riesz_potential_step_oracle():
    # continuum value at x inside [0,1] is 2 sqrt(x) + 2 sqrt(1-x), which
    # leaves 2 at rate sqrt(x); the first interior grid point needs a fine
    # mesh before the limit 2 shows up at the 2% level
    g = Grid((-2.0,), (2.0,), 16384)
    chi = indicator(g, Cube((0.5,), 1.0))
    out = fractional_integral(chi, fixtures.make_kernel("frac_alpha:0.5", 1))
    x = g.axis_centers(0)
    j = int(np.where((x > 0) & (x < 1))[0][0])
    assert out.values[j] == pytest.approx(2.0, rel=0.02)


def test_fractional_alpha_range():
    g = Grid((-1.0,), (1.0,), 64)
    f = GridFunction(g, np.ones(64))
    with pytest.raises(AlphaOutOfRange):
        fractional_integral(f, fixtures.make_kernel("frac_alpha:1.0", 1))


def test_commutator_with_constant_symbol_is_zero():
    g = Grid((-4.0,), (4.0,), 512)
    T = OperatorHandle(HILBERT)
    b = GridFunction(g, np.full(g.shape, -1.25))
    f = from_callable(g, lambda x: np.sin(3 * x) * np.exp(-x * x))
    out = commutator(b, T, f)
    assert np.max(np.abs(out.values)) <= 1e-10


def test_linear_symbol_commutator_gives_integral():
    # [x, T]f(x) = int K(x-y)(x-y) f(y) dy = int f, at every point
    g = Grid((-4.0,), (4.0,), 2048)
    xs = g.meshes()[0]
    f = GridFunction(g, np.exp(-xs * xs) * (np.abs(xs) <= 1.0))
    b = GridFunction(g, xs)
    out = commutator(b, OperatorHandle(HILBERT), f)
    intf = float(np.sum(f.values) * g.cell_volume)
    # the only quadrature defect is the omitted self-cell, of size h*|f|_inf
    tol = 2.0 * g.h * float(np.max(np.abs(f.values)))
    assert np.max(np.abs(out.values - intf)) <= tol


def test_singular_2d_riesz_odd_symmetry():
    # x_1 / |x|^3 is odd in x_1 and even in x_2, so an input even in both
    # gives an output odd in x_1 and even in x_2, up to grid reflection
    g = Grid((-2.0, -2.0), (2.0, 2.0), 64)
    k = fixtures.make_kernel("riesz_1", 2)
    for f in (GridFunction(g, np.ones(g.shape)), indicator(g, Cube((0.0, 0.0), 1.0))):
        out = singular_integral(f, k).values
        assert np.max(np.abs(out)) > 0.1
        assert np.max(np.abs(out + out[::-1, :])) <= 1e-12
        assert np.max(np.abs(out - out[:, ::-1])) <= 1e-12


# ---- Both forms of a bilinear application ----

# _TABLE_FORM values that select each form for every support pair whose
# offset table is smaller than its tensor, as every pair here is
_FORMS = {"tensor": 1 << 62, "table": 0}


def _each_form(monkeypatch):
    """Yield each form's name with operators._TABLE_FORM set to select it
    and no plan kept from an earlier call."""
    for form, at in _FORMS.items():
        monkeypatch.setattr(operators, "_TABLE_FORM", at)
        operators._plans.clear()
        yield form
    operators._plans.clear()


def _form(K):
    return "table" if isinstance(K, operators._Table) else "tensor"


def _kept_form():
    """The form of the one kept plan."""
    ((_, K),) = operators._plans
    return _form(K)


def test_bilinear_singular_matches_bruteforce(monkeypatch):
    g = Grid((-2.0,), (2.0,), 32)
    k = fixtures.make_kernel("bilinear_riesz", 1)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(32) * (np.abs(g.meshes()[0]) <= 1.0))
    h = GridFunction(g, rng.standard_normal(32) * (np.abs(g.meshes()[0] - 0.5) <= 0.5))
    x = g.axis_centers(0)
    vol = g.cell_volume
    for form in _each_form(monkeypatch):
        out = bilinear_singular_integral(f, h, k)
        assert _kept_form() == form
        # every in-box pair but y = z = x, at points near both ends and inside
        for i in (0, 7, 20, 31):
            acc = 0.0
            for jy in range(32):
                for jz in range(32):
                    if jy == i and jz == i:
                        continue
                    u = np.array([x[i] - x[jy], x[i] - x[jz]])
                    acc += float(k.evaluate(u)) * f.values[jy] * h.values[jz] * vol * vol
            assert out.values[i] == pytest.approx(acc, rel=1e-12, abs=1e-12), form


def test_bilinear_singular_direct_sum_neither_odd_nor_even(monkeypatch):
    # Omega = cos t + sin 2t on the (u, v) circle: mean zero, neither odd nor
    # even, so a kernel read as K(y - x, z - x) cannot pass
    k = KernelSpec(2, 1, 0.0, lambda t: t[..., 0] + 2 * t[..., 0] * t[..., 1])
    g = Grid((-2.0,), (2.0,), 32)
    x = g.axis_centers(0)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(32) * (np.abs(x) <= 0.5))
    h = GridFunction(g, rng.standard_normal(32) * (np.abs(x - 0.25) <= 0.25))
    points = np.arange(32)
    u = x[points, None, None] - x[None, :, None]
    v = x[points, None, None] - x[None, None, :]
    K = k.evaluate(np.stack(np.broadcast_arrays(u, v), axis=-1))
    K[np.arange(len(points)), points, points] = 0.0  # the pair y = z = x is omitted
    want = np.einsum("pyz,y,z->p", K, f.values, h.values) * g.cell_volume**2
    for form in _each_form(monkeypatch):
        out = bilinear_singular_integral(f, h, k)
        assert _kept_form() == form
        assert np.max(np.abs(out.values[points] - want)) <= 1e-12 * np.max(np.abs(want)), form


def test_bilinear_fractional_matches_bruteforce_distance(monkeypatch):
    g = Grid((-2.0,), (2.0,), 32)
    alpha = 1.2
    k = distance_kernel(1, alpha)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.standard_normal(32))
    h = GridFunction(g, rng.standard_normal(32))
    x = g.axis_centers(0)
    vol = g.cell_volume
    i = 7
    acc = 0.0
    for jy in range(32):
        for jz in range(32):
            if jy == i and jz == i:
                continue  # the self-pair cell carries the closed-form patch
            u = np.array([x[i] - x[jy], x[i] - x[jz]])
            acc += float(k.evaluate(u)) * f.values[jy] * h.values[jz] * vol * vol
    s = g.h / 2
    self_cell = 4 * ((2 * s) ** alpha - 2 * s**alpha) / (alpha * (alpha - 1.0))
    acc += self_cell * f.values[i] * h.values[i]
    for form in _each_form(monkeypatch):
        out = bilinear_fractional_integral(f, h, k)
        assert _kept_form() == form
        assert out.values[i] == pytest.approx(acc, rel=1e-10), form


def test_averaging_signed_vs_maximal_domination():
    g = Grid((-2.0,), (2.0,), 128)
    fam = enumerate_dyadic(g, 0, 4)
    rng = np.random.default_rng(20240818)
    for trial in range(20):
        f = GridFunction(g, rng.standard_normal(g.shape))
        q = fam.cubes[int(rng.integers(len(fam)))]
        alpha = float(rng.uniform(0.0, 1.0))
        a = averaging(f, q, alpha)
        m = maximal(f, alpha, fam)
        assert np.all(np.abs(a.values) <= m.values + 1e-14), f"trial {trial}"


def test_bilinear_domination():
    g = Grid((-2.0,), (2.0,), 128)
    fam = enumerate_dyadic(g, 0, 4)
    rng = np.random.default_rng(77)
    for _ in range(20):
        f = GridFunction(g, rng.standard_normal(g.shape))
        h = GridFunction(g, rng.standard_normal(g.shape))
        q = fam.cubes[int(rng.integers(len(fam)))]
        alpha = float(rng.uniform(0.0, 2.0))
        a = bilinear_averaging(f, h, q, alpha)
        m = bilinear_maximal(f, h, alpha, fam)
        assert np.all(np.abs(a.values) <= m.values + 1e-14)


def test_maximal_of_indicator_is_one_inside():
    g = Grid((-1.0,), (1.0,), 64)
    fam = enumerate_dyadic(g, 0, 4)
    q = [c for c, level in zip(fam, fam.levels) if level == 2][1]
    m = maximal(indicator(g, q), 0.0, fam)
    inside = indicator(g, q).values == 1.0
    assert np.all(m.values[inside] == 1.0)
    assert np.all(m.values <= 1.0 + 1e-14)


def test_maximal_uncovered_point():
    g = Grid((-1.0,), (1.0,), 64)
    half = Cube((-0.5,), 1.0)
    from oscillab.grid import CubeFamily

    fam = CubeFamily(g, (half,), levels=(0,))
    f = GridFunction(g, np.ones(64))
    with pytest.raises(UncoveredPoint):
        maximal(f, 0.0, fam)


def test_hilbert_l2_norm_estimate():
    # continuum operator norm of K = 1/u on L^2 is pi; the commutator
    # experiment's modulated Gaussian probes get within a few percent from
    # below at this resolution, and a constant symbol commutes with T
    g = Grid((-8.0,), (8.0,), 1024)
    est, cb_est = _probe_estimates(g, OperatorHandle(HILBERT), GridFunction(g, np.full(g.shape, 2.5)))
    assert 0.9 * math.pi <= est <= 1.05 * math.pi
    assert cb_est <= 1e-12


def test_bilinear_commutator_slots_disagree():
    g = Grid((-2.0,), (2.0,), 64)
    k = fixtures.make_kernel("bilinear_riesz", 1)
    T = OperatorHandle(k)
    xs = g.meshes()[0]
    b = GridFunction(g, xs**2)
    f = GridFunction(g, np.exp(-xs * xs) * (np.abs(xs) <= 1.0))
    h = GridFunction(g, np.cos(xs) * (np.abs(xs) <= 1.0))
    c1 = commutator(b, T, f, h, slot=1)
    c2 = commutator(b, T, f, h, slot=2)
    assert np.max(np.abs(c1.values - c2.values)) > 1e-6


def _commutator_case(name, n, complex_inputs):
    g = Grid((-2.0,) * n, (2.0,) * n, 64 if n == 1 else 16)
    k = fixtures.make_kernel(name, n)
    rng = np.random.default_rng(11)
    xs = g.meshes()
    near = sum(x * x for x in xs) <= 1.0

    def supported():
        vals = rng.standard_normal(g.shape) * near
        return vals + 1j * rng.standard_normal(g.shape) * near if complex_inputs else vals

    b = GridFunction(g, np.log(sum(x * x for x in xs) + 0.25))
    return b, OperatorHandle(k), [GridFunction(g, supported()) for _ in range(k.inputs)]


@pytest.mark.parametrize("complex_inputs", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name, n", [("hilbert", 1), ("bilinear_riesz", 1), ("riesz_1", 2)])
def test_commutator_is_the_formula_in_grid_function_arithmetic(name, n, complex_inputs):
    b, T, fs = _commutator_case(name, n, complex_inputs)
    got = commutator(b, T, *fs)
    want = b * T(*fs) - T(b * fs[0], *fs[1:])
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()


def test_commutator_refuses_a_slot_the_operator_lacks():
    g = Grid((-2.0,), (2.0,), 64)
    xs = g.meshes()[0]
    b, f = GridFunction(g, xs**2), GridFunction(g, np.exp(-xs * xs))
    with pytest.raises(ValueError, match=r"^slot must be 1\.\.1, got 2$"):
        commutator(b, OperatorHandle(HILBERT), f, slot=2)


def test_commutator_refuses_an_overflowing_b_times_tf():
    g = Grid((-4.0,), (4.0,), 256)
    inside = np.abs(g.meshes()[0]) <= 1.0
    f = GridFunction(g, 10.0 * inside)
    # b is huge only where f vanishes, so b f is finite and b (T f) is not
    b = GridFunction(g, np.where(inside, 1.0, 1e308))
    assert np.isfinite((b * f).values).all()
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        commutator(b, OperatorHandle(HILBERT), f)


def test_operator_handle_dispatch():
    g = Grid((-2.0,), (2.0,), 64)
    lin = OperatorHandle(HILBERT)
    bil = OperatorHandle(fixtures.make_kernel("bilinear_riesz", 1))
    f = GridFunction(g, np.ones(64))
    with pytest.raises(ValueError, match=r"takes 1 input\(s\), got 2"):
        lin(f, f)
    with pytest.raises(ValueError, match=r"takes 2 input\(s\), got 1"):
        bil(f)


_ENTRY_NAMES = {
    "hilbert": "singular_integral",
    "frac_alpha:0.5": "fractional_integral",
    "bilinear_riesz": "bilinear_singular_integral",
    "bilinear_frac_alpha:0.5": "bilinear_fractional_integral",
}


@pytest.mark.parametrize("name", sorted(_ENTRY_NAMES))
def test_one_application_reaches_its_entry_point_name_once(name, monkeypatch):
    """The benchmark counts applications by wrapping the four entry-point
    names in `oscillab.operators`, so OperatorHandle must call its entry
    point by that name, once per application, and no other one."""
    calls = dict.fromkeys(_ENTRY_NAMES.values(), 0)
    for entry in calls:

        def counted(*args, _entry=entry, _original=getattr(operators, entry)):
            calls[_entry] += 1
            return _original(*args)

        monkeypatch.setattr(operators, entry, counted)
    g = Grid((-2.0,), (2.0,), 32)
    kernel = fixtures.make_kernel(name, 1)
    fs = [GridFunction(g, np.exp(-g.meshes()[0] ** 2))] * kernel.inputs
    out = OperatorHandle(kernel)(*fs)
    assert calls == {entry: int(entry == _ENTRY_NAMES[name]) for entry in calls}
    assert np.max(np.abs(out.values)) > 0.0


def test_entry_points_refuse_another_input_count_or_base_dimension():
    g = Grid((-2.0,), (2.0,), 32)
    f = GridFunction(g, np.exp(-g.meshes()[0] ** 2))
    with pytest.raises(ValueError, match="1-input kernel"):
        singular_integral(f, fixtures.make_kernel("bilinear_riesz", 1))
    with pytest.raises(ValueError, match="2-input kernel"):
        bilinear_singular_integral(f, f, HILBERT)
    with pytest.raises(GridMismatch):
        singular_integral(f, fixtures.make_kernel("frac_alpha:0.5", 2))
    with pytest.raises(GridMismatch):
        bilinear_singular_integral(f, f, fixtures.make_kernel("bilinear_riesz", 2))


# ---- Brute-force direct sums in 2D ----


def _block_input(g, rng):
    """Random values on a 3 x 4 cell block, off centre so reflections show."""
    vals = np.zeros(g.shape)
    vals[13:16, 17:21] = rng.standard_normal((3, 4))
    return GridFunction(g, vals)


def _direct_sum_2d(f, k, points):
    """sum over y != x of K(x - y) f(y) h^2, one kernel call per term."""
    g = f.grid
    x0, x1 = g.axis_centers(0), g.axis_centers(1)
    cells = list(zip(*np.nonzero(f.values)))
    out = []
    for i, j in points:
        acc = 0.0
        for a, b in cells:
            if (a, b) == (i, j):
                continue
            u = np.array([[x0[i] - x0[a], x1[j] - x1[b]]])
            acc += float(k.evaluate(u)[0]) * f.values[a, b] * g.cell_volume
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize(
    "k",
    [
        fixtures.make_kernel("riesz_1", 2),
        # cos t + sin 2t: mean zero, neither odd nor even
        KernelSpec(1, 2, 0.0, lambda t: t[..., 0] + 2 * t[..., 0] * t[..., 1]),
    ],
    ids=["riesz_1", "cos+sin2"],
)
def test_singular_2d_matches_direct_sum(k):
    g = Grid((-2.0, -2.0), (2.0, 2.0), 32)
    f = _block_input(g, np.random.default_rng(11))
    out = singular_integral(f, k)
    points = list(np.ndindex(g.shape))
    got = np.array([out.values[p] for p in points])
    want = _direct_sum_2d(f, k, points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _lopsided_2d(alpha):
    """2 + cos t + sin 2t: positive, and neither odd nor even."""
    return KernelSpec(1, 2, alpha, lambda t: 2.0 + t[..., 0] + 2 * t[..., 0] * t[..., 1])


def test_fractional_2d_matches_direct_sum():
    # points off the input's support carry no self-cell term; on it, the
    # oracle's polar integral of K over the cell is added
    g = Grid((-2.0, -2.0), (2.0, 2.0), 32)
    k = _lopsided_2d(1.0)
    f = _block_input(g, np.random.default_rng(12))
    out = fractional_integral(f, k)
    points = list(zip(*np.nonzero(f.values == 0.0)))
    got = np.array([out.values[p] for p in points])
    want = _direct_sum_2d(f, k, points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    points = list(zip(*np.nonzero(f.values)))
    got = np.array([out.values[p] for p in points])
    want = _direct_sum_2d(f, k, points) + self_cell_2d(k, g.h) * np.array([f.values[p] for p in points])
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


# ---- The fractional self cell against values it does not compute ----


@pytest.mark.parametrize(
    "kernel",
    [fixtures.make_kernel("frac_alpha:0.5", 1), KernelSpec(1, 1, 0.3, lambda t: np.where(t[..., 0] > 0, 2.0, 0.5))],
    ids=["frac_alpha", "neither_odd_nor_even"],
)
def test_self_cell_1d_closed_form(kernel):
    ends = kernel.omega(np.array([[1.0], [-1.0]]))
    for h in (0.125, 0.1):
        want = (ends[0] + ends[1]) * (h / 2) ** kernel.alpha / kernel.alpha
        assert operators._self_cell(kernel, h) == pytest.approx(want, rel=1e-10)


def test_self_cell_2d_closed_forms():
    for h in (0.125, 0.1):
        s = h / 2
        for alpha in (0.5, 1.5):
            want = 4 * ((2 * s) ** alpha - 2 * s**alpha) / (alpha * (alpha - 1.0))
            assert operators._self_cell(distance_kernel(1, alpha), h) == pytest.approx(want, rel=1e-10)
        riesz = fixtures.make_kernel("frac_alpha:1", 2)
        for value in (operators._self_cell(riesz, h), self_cell_2d(riesz, h)):
            assert value == pytest.approx(8 * s * math.asinh(1.0), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_self_cell_2d_matches_the_polar_integral(alpha):
    k = _lopsided_2d(alpha)
    for h in (0.125, 0.1):
        assert operators._self_cell(k, h) == pytest.approx(self_cell_2d(k, h), rel=1e-10)


def test_self_cell_4d_distance_kernel():
    h = 0.125
    assert distance_self_cell_4d(4.0, h) == pytest.approx(h**4, rel=1e-12)  # K = 1: the cell's volume
    for alpha in (0.5, 1.0, 2.0):
        assert operators._self_cell(distance_kernel(2, alpha), h) == pytest.approx(distance_self_cell_4d(alpha, h), rel=1e-4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: fixtures.make_kernel("frac_alpha:0.5", 1),
        lambda: _lopsided_2d(0.5),
        lambda: distance_kernel(1, 1.2),
        lambda: distance_kernel(2, 0.5),
    ],
    ids=["1d", "2d", "distance_2d", "distance_4d"],
)
def test_self_cell_is_homogeneous(make):
    k = make()
    base = operators._self_cell(k, 0.125)
    for lam in (0.3, 7.0):
        assert operators._self_cell(k, lam * 0.125) == pytest.approx(lam**k.alpha * base, rel=1e-12)


# ---- Bilinear plan reuse ----


def _cold(k, f, g):
    """The application with no kernel table kept from earlier calls."""
    operators._plans.clear()
    out = OperatorHandle(k)(f, g)
    operators._plans.clear()
    return out


def _same(a, b):
    return np.array_equal(a.values, b.values)


def _on(g, lo, hi, rng):
    x = g.meshes()[0]
    return GridFunction(g, rng.standard_normal(g.shape) * ((x >= lo) & (x < hi)))


def _revalue(fn, rng):
    """New values on the same nonzero cells."""
    return GridFunction(fn.grid, np.where(fn.values != 0, rng.standard_normal(fn.grid.shape), 0.0))


def test_bilinear_plan_reuse_new_values_and_interior_zero():
    g = Grid((-2.0,), (2.0,), 64)
    k = fixtures.make_kernel("bilinear_riesz", 1)
    rng = np.random.default_rng(5)
    f, h = _on(g, -1.0, 0.0, rng), _on(g, 0.0, 0.5, rng)
    f2 = _revalue(f, rng)
    # an interior zero keeps the support box but changes the nonzero set
    hole = f2.values.copy()
    hole[np.flatnonzero(hole)[3]] = 0.0
    f3 = GridFunction(g, hole)
    want2, want3 = _cold(k, f2, h), _cold(k, f3, h)
    OperatorHandle(k)(f, h)
    plan = operators._plans[0]
    assert _same(OperatorHandle(k)(f2, h), want2)
    assert operators._plans[0] is plan
    assert _same(OperatorHandle(k)(f3, h), want3)
    assert operators._plans[0] is not plan


@pytest.mark.parametrize("kernel", [fixtures.make_kernel("bilinear_riesz", 1), distance_kernel(1, 1.2)], ids=["riesz", "fractional"])
def test_bilinear_apply_with_a_zero_input_is_zero(kernel):
    g = Grid((-2.0,), (2.0,), 64)
    rng = np.random.default_rng(8)
    f, zero = _on(g, -1.0, 0.5, rng), GridFunction(g, np.zeros(g.shape))
    for pair in ((zero, f), (f, zero), (zero, 1j * f)):
        out = OperatorHandle(kernel)(*pair)
        assert out.values.dtype == np.result_type(*(p.values for p in pair))
        assert not np.any(out.values)


def test_bilinear_plan_reuse_alternating_pairs_and_kernels():
    g = Grid((-2.0,), (2.0,), 64)
    k1 = fixtures.make_kernel("bilinear_riesz", 1)
    k2 = KernelSpec(2, 1, 0.0, lambda t: t[..., 0] + t[..., 1] ** 3, name="other")
    rng = np.random.default_rng(6)
    a = (_on(g, -1.0, 0.0, rng), _on(g, 0.0, 0.5, rng))
    b = (_on(g, -0.5, 0.25, rng), _on(g, 0.5, 1.0, rng))
    kernels, pairs = {"k1": k1, "k2": k2}, {"a": a, "b": b}
    want = {(kn, pn): _cold(k, *p) for kn, k in kernels.items() for pn, p in pairs.items()}
    assert not _same(want[("k1", "a")], want[("k2", "a")])
    for kn in ("k1", "k2", "k1"):
        for pn in ("a", "b", "a"):
            got = OperatorHandle(kernels[kn])(*pairs[pn])
            assert _same(got, want[(kn, pn)]), (kn, pn)


def test_bilinear_plan_reuse_fractional_self_cell():
    g = Grid((-2.0,), (2.0,), 64)
    k = distance_kernel(1, 1.2)
    rng = np.random.default_rng(7)
    f, h = _on(g, -1.0, 0.5, rng), _on(g, -0.5, 1.0, rng)
    f2, h2 = _revalue(f, rng), _revalue(h, rng)
    want, want2 = _cold(k, f, h), _cold(k, f2, h2)
    OperatorHandle(k)(f, h)
    plan = operators._plans[0]
    assert _same(OperatorHandle(k)(f2, h2), want2)
    assert _same(OperatorHandle(k)(f, h), want)
    assert operators._plans[0] is plan


def test_bilinear_plan_keeps_its_self_cell():
    """Repeated fractional applications on one support pair, which reuse the
    plan's kernel table and add the self cell afresh, agree bit for bit
    with a cold application."""
    g = Grid((-1.0, -1.0), (1.0, 1.0), 16)
    k = distance_kernel(2, 1.5)
    x, y = g.meshes()
    rng = np.random.default_rng(8)
    box = (np.abs(x) < 0.2) & (np.abs(y) < 0.2)  # 4 x 4 cells, in both supports
    f, h = (GridFunction(g, rng.standard_normal(g.shape) * box) for _ in range(2))
    want = _cold(k, f, h)
    for _ in range(5):
        assert _same(OperatorHandle(k)(f, h), want)


@pytest.mark.parametrize(
    "make", [lambda: fixtures.make_kernel("bilinear_riesz", 1), lambda: distance_kernel(1, 1.2)],
    ids=["singular", "fractional"],
)
@pytest.mark.parametrize("applied", [False, True], ids=["built", "kept"])
def test_tensor_plan_on_overlapping_supports(make, applied):
    """Where the supports of f and g overlap, cells with y = z = x occur; the
    tensor plan is still kernel_tensor over all cells, bit for bit (K reads
    0 at the zero offset), whether built by `_plan` ("built") or kept as the
    one plan of two applications ("kept")."""
    g = Grid((-2.0,), (2.0,), 64)
    k = make()
    rng = np.random.default_rng(13)
    f, h = _on(g, -1.0, 0.5, rng), _on(g, -0.5, 1.0, rng)
    ysel, zsel = np.flatnonzero(f.values), np.flatnonzero(h.values)
    both = sorted(set(ysel) & set(zsel))
    assert both
    if applied:
        operators._plans.clear()
        OperatorHandle(k)(f, h)
        ((_, K),) = operators._plans
        OperatorHandle(k)(f, h)
        assert operators._plans[0][1] is K
        operators._plans.clear()
    else:
        K = operators._plan(g, k, ysel, zsel)
    assert _form(K) == "tensor"
    coords = g.meshes()[0].reshape(-1, 1)
    want = kernel_tensor_at_coordinates(k, coords, coords[ysel], coords[zsel])
    got = K.reshape(want.shape)
    assert got.tobytes() == want.tobytes()
    assert all(want[x, list(ysel).index(x), list(zsel).index(x)] == 0.0 for x in both)


# ---- The kernel tensor at lattice offsets ----


def _cell_coords(g):
    return np.stack([m.reshape(-1) for m in g.meshes()], axis=1)


_TENSOR_KERNELS = {
    "hilbert_1d": (lambda: HILBERT, 1),
    "riesz_1_2d": (lambda: fixtures.make_kernel("riesz_1", 2), 2),
    "bilinear_riesz_1d": (lambda: fixtures.make_kernel("bilinear_riesz", 1), 1),
    "bilinear_riesz_2d": (lambda: fixtures.make_kernel("bilinear_riesz", 2), 2),
    "distance_1d": (lambda: distance_kernel(1, 1.2), 1),
}


def _window_sets(g, inputs, rng, x_count):
    """x a run of x_count cells (`_plan` passes every cell), and per
    kernel input 12 random cells of a random window of 16 (a 4 x 4 block in
    2D), so that the sets overlap and the offsets fit a small table."""
    side = 16 if g.n == 1 else 4
    ys = []
    for _ in range(inputs):
        corner = rng.integers(0, g.m - side + 1, size=g.n)
        window = np.ravel_multi_index(tuple(corner[:, None] + np.indices((side,) * g.n).reshape(g.n, -1)), g.shape)
        ys.append(rng.choice(window, size=12, replace=False))
    return np.arange(x_count), ys


def _tensor_and_oracle(k, g, x, ys):
    coords = _cell_coords(g)
    return operators.kernel_tensor(k, g, x, *ys), kernel_tensor_at_coordinates(k, coords[x], *(coords[y] for y in ys))


@pytest.mark.parametrize("case", sorted(_TENSOR_KERNELS))
def test_kernel_tensor_equals_the_coordinate_oracle_on_a_dyadic_grid(case):
    """Cell centers are exact binary fractions, so every coordinate
    difference is its lattice offset and the two tensors agree bit for bit."""
    make, n = _TENSOR_KERNELS[case]
    k = make()
    g = Grid((-2.0,) * n, (2.0,) * n, 64 if n == 1 else 8)
    got, want = _tensor_and_oracle(k, g, *_window_sets(g, k.inputs, np.random.default_rng(31), g.m**n))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(want) > want.size // 2


@pytest.mark.parametrize("case", sorted(_TENSOR_KERNELS))
def test_kernel_tensor_agrees_with_the_coordinate_oracle_on_a_non_dyadic_grid(case):
    """h = 0.02: a coordinate difference is its lattice offset up to about
    one ulp of 1 (2.2e-16), and no offset is shorter than h, so K of degree
    d moves by about d * 1.1e-14 relative at most; the test allows twice
    that at every entry."""
    make, n = _TENSOR_KERNELS[case]
    k = make()
    g = Grid((-1.0,) * n, (1.0,) * n, 100)
    x = g.axis_centers(0)
    assert np.any(x[:, None] - x[None, :] != (np.arange(100)[:, None] - np.arange(100)[None, :]) * g.h)
    got, want = _tensor_and_oracle(k, g, *_window_sets(g, k.inputs, np.random.default_rng(32), 100 if n == 1 else 200))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * max(1.0, k.degree) * np.spacing(1.0) / g.h * np.abs(want))


def _counting_points(monkeypatch):
    """The list of point counts at which KernelSpec.evaluate is called."""
    points = []
    evaluate = KernelSpec.evaluate
    monkeypatch.setattr(KernelSpec, "evaluate", lambda self, u: points.append(math.prod(np.shape(u)[:-1])) or evaluate(self, u))
    return points


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_tensor_of_spread_out_sets_reads_no_more_points_than_entries(n, monkeypatch):
    """Random sets spread over the box span more offsets than the tensor
    has entries; K is then read at the entries themselves, still at lattice
    offsets, so the tensor is the oracle's bit for bit."""
    k = fixtures.make_kernel("bilinear_riesz", n)
    g = Grid((-2.0,) * n, (2.0,) * n, 64 if n == 1 else 16)
    rng = np.random.default_rng(33)
    x, ys = (rng.choice(g.m**n, size=size, replace=False) for size in (24, (2, 6)))
    points = _counting_points(monkeypatch)
    got = operators.kernel_tensor(k, g, x, *ys)
    assert points == [got.size] == [24 * 6 * 6]
    monkeypatch.undo()
    assert got.tobytes() == _tensor_and_oracle(k, g, x, ys)[1].tobytes()


def test_kernel_tensor_of_an_empty_index_set_is_empty():
    g = Grid((-2.0,), (2.0,), 16)
    k = fixtures.make_kernel("bilinear_riesz", 1)
    none, some = np.array([], dtype=np.intp), np.arange(3, 7)
    for args, shape in (((np.arange(16), none, some), (16, 0, 4)), ((none, some, some), (0, 4, 4))):
        got = operators.kernel_tensor(k, g, *args)
        assert got.shape == shape and got.size == 0
    assert operators.kernel_tensor(HILBERT, g, some, none).shape == (4, 0)


@pytest.mark.parametrize(
    "make", [lambda: fixtures.make_kernel("bilinear_riesz", 1), lambda: distance_kernel(1, 1.2)],
    ids=["singular", "fractional"],
)
def test_a_1d_plan_evaluates_k_once_per_lattice_offset(make, monkeypatch):
    """One plan for c-cell supports on m cells reads K on at most
    (m + c - 1)(2c - 1) lattice offsets, not once per (x, y, z) triple
    (m c^2 points), in either form."""
    m, c = 64, 8
    k = make()
    points = _counting_points(monkeypatch)
    for form in _each_form(monkeypatch):
        points.clear()
        K = operators._plan(Grid((-2.0,), (2.0,), m), k, np.arange(10, 10 + c), np.arange(30, 30 + c))
        assert _form(K) == form
        if form == "tensor":
            assert K.size == m * c * c
        else:
            assert K.table.size == sum(points) and K.a_index.shape == (m, c)
        assert 0 < sum(points) <= (m + c - 1) * (2 * c - 1)


@pytest.mark.parametrize(
    "grid", [Grid((-2.0, -2.0), (2.0, 2.0), 8), Grid((-1.0, -1.0), (1.0, 1.0), 10)], ids=["m8-dyadic", "m10"]
)
@pytest.mark.parametrize(
    "make", [lambda: fixtures.make_kernel("bilinear_riesz", 2), lambda: distance_kernel(2, 1.5)],
    ids=["singular", "fractional"],
)
def test_bilinear_2d_matches_a_direct_sum(make, grid, monkeypatch):
    """At every point, h^4 times the sum over the nonzero cells of
    K(x - y, x - z) f(y) g(z) at coordinate offsets (K reads 0 at the pair
    y = z = x), plus the self cell when alpha > 0, in either form; a second
    application reads the one kept plan and gives the same bits."""
    k = make()
    rng = np.random.default_rng(19)
    f, g = (GridFunction(grid, rng.standard_normal(grid.shape) * (rng.uniform(size=grid.shape) < 0.5)) for _ in range(2))
    want = _direct_sum(k, f, g).reshape(-1)
    for form in _each_form(monkeypatch):
        got = OperatorHandle(k)(f, g).values.reshape(-1)
        assert _kept_form() == form
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), form
        plan = operators._plans[0][1]
        again = OperatorHandle(k)(f, g).values.reshape(-1)
        assert operators._plans[0][1] is plan
        assert again.tobytes() == got.tobytes(), form


# ---- Bilinear apply as one real matrix product ----


def _einsum_apply(k, f, g):
    """The contraction as it was before the BLAS product: einsum over the
    (X, Y, Z) kernel tensor of the nonzero cells, which casts the tensor to
    complex for complex inputs, plus the fractional self-cell patch."""
    grid = f.grid
    fflat, gflat = f.values.reshape(-1), g.values.reshape(-1)
    ysel, zsel = np.flatnonzero(fflat), np.flatnonzero(gflat)
    out = np.zeros(fflat.shape[0], dtype=np.result_type(fflat, gflat))
    cell2 = grid.h**k.D
    correction = 0.0 if k.alpha == 0.0 else operators._self_cell(k, grid.h)
    K = operators.kernel_tensor(k, grid, np.arange(grid.m**grid.n), ysel, zsel)
    out[:] = np.einsum("xyz,y,z->x", K, fflat[ysel], gflat[zsel]) * cell2
    for i in sorted(set(ysel) & set(zsel)):
        out[i] += correction * fflat[i] * gflat[i]
    return out.reshape(grid.shape)


def _inputs(g, kind, rng):
    f, h = _on(g, -1.0, 0.5, rng), _on(g, -0.5, 1.0, rng)
    if kind == "real":
        return f, h
    h = GridFunction(g, h.values * np.exp(1j * rng.uniform(0, 2 * np.pi, g.shape)))
    if kind == "mixed":
        return f, h
    return GridFunction(g, f.values * np.exp(1j * rng.uniform(0, 2 * np.pi, g.shape))), h


def _plan_bytes(K):
    return [a.tobytes() for a in (K if isinstance(K, operators._Table) else (K,))]


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
@pytest.mark.parametrize(
    "make", [lambda: fixtures.make_kernel("bilinear_riesz", 1), lambda: distance_kernel(1, 1.2)],
    ids=["singular", "fractional"],
)
@pytest.mark.parametrize("again", [True, False], ids=["kept-plan", "built"])
def test_bilinear_apply_matches_einsum(make, kind, again, monkeypatch):
    """Each form matches the einsum over the whole kernel tensor; the
    application keeps its plan as one object, the one `_plan` builds for
    the pair ("built"), and a second application from it matches too
    ("kept-plan")."""
    g = Grid((-2.0,), (2.0,), 64)
    k = make()
    f, h = _inputs(g, kind, np.random.default_rng(11))
    ysel, zsel = np.flatnonzero(f.values), np.flatnonzero(h.values)
    assert set(ysel) & set(zsel)  # the fractional patch has cells to patch
    want = _einsum_apply(k, f, h)
    for form in _each_form(monkeypatch):
        got = OperatorHandle(k)(f, h)
        assert _kept_form() == form
        assert got.values.dtype == want.dtype
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want)), form
        if again:
            got = OperatorHandle(k)(f, h)
            assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want)), form
        else:
            assert _plan_bytes(operators._plans[0][1]) == _plan_bytes(operators._plan(g, k, ysel, zsel)), form


def _direct_sum(k, f, g):
    """h^(2n) times the sum over the nonzero cells of K(x - y, x - z) f(y)
    g(z) at coordinate offsets (K reads 0 at the pair y = z = x), plus the
    self cell f g when alpha > 0: the oracle of both forms."""
    grid = f.grid
    fflat, gflat = f.values.reshape(-1), g.values.reshape(-1)
    ysel, zsel = np.flatnonzero(fflat), np.flatnonzero(gflat)
    coords = _cell_coords(grid)
    K = kernel_tensor_at_coordinates(k, coords, coords[ysel], coords[zsel])
    out = np.einsum("xyz,y,z->x", K, fflat[ysel], gflat[zsel]) * grid.h ** k.D
    if k.alpha > 0.0:
        out = out + operators._self_cell(k, grid.h) * fflat * gflat
    return out.reshape(grid.shape)


def _direct_cases_bilinear():
    g = Grid((-2.0,), (2.0,), 64)
    rng = np.random.default_rng(23)
    f, h = _on(g, -1.0, 0.5, rng), _on(g, -0.5, 1.0, rng)
    phase = lambda fn: GridFunction(g, fn.values * np.exp(1j * rng.uniform(0, 2 * np.pi, g.shape)))
    # b vanishing on one cell inside Q' keeps the support box of b f but not its nonzero set
    hole = f.values.copy()
    hole[np.flatnonzero(hole)[11]] = 0.0
    return {
        "complex": (fixtures.make_kernel("bilinear_riesz", 1), phase(f), phase(h)),
        "interior_zero": (fixtures.make_kernel("bilinear_riesz", 1), GridFunction(g, hole), h),
        "fractional_self_cell": (distance_kernel(1, 1.2), f, h),
    }


@pytest.mark.parametrize("case", sorted(_direct_cases_bilinear()))
def test_both_forms_match_a_direct_sum(case, monkeypatch):
    """Complex inputs, a nonzero set with a hole, and the fractional self
    cell (the supports overlap): each form, cold and from its kept plan,
    agrees with the direct sum at every point."""
    k, f, h = _direct_cases_bilinear()[case]
    want = _direct_sum(k, f, h)
    for form in _each_form(monkeypatch):
        for _ in range(2):
            got = OperatorHandle(k)(f, h)
            assert _kept_form() == form
            assert got.values.dtype == want.dtype
            assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want)), form


def _level_2_pair():
    """Two 32-cell complex supports on m = 512 cells, the shape of the
    `necessity-variable` level-2 cube: a 524,288-entry tensor, whose offset
    table has 543 x 63 = 34,209 entries."""
    g = Grid((-6.0,), (6.0,), 512)
    rng = np.random.default_rng(29)
    cells = np.arange(512)
    pair = []
    for lo in (240, 256):
        vals = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        pair.append(GridFunction(g, vals * ((cells >= lo) & (cells < lo + 32))))
    return fixtures.make_kernel("bilinear_riesz", 1), *pair


def test_a_large_support_pair_takes_the_table_form_in_little_memory():
    """One cold application at the level-2 shape takes the table form and
    peaks below 1.5 MB of traced memory; the (X, Y*Z) tensor alone would
    hold 4.2 MB."""
    import tracemalloc

    k, f, h = _level_2_pair()
    T = OperatorHandle(k)
    T(f, h)  # numpy's and the kernel's first-use allocations stay outside the trace
    operators._plans.clear()
    tracemalloc.start()
    try:
        T(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    assert _kept_form() == "table"
    operators._plans.clear()


def _keeps_one_table(k, f, h, monkeypatch):
    """Two cold-started applications of k to (f, h): the plan is one kept
    table, on whose entries alone K is evaluated, all in the first call."""
    operators._plans.clear()
    points = _counting_points(monkeypatch)
    outs = []
    for _ in range(2):
        outs.append(OperatorHandle(k)(f, h))
        ((_, table),) = operators._plans
        assert isinstance(table, operators._Table)
        assert sum(points) == table.table.size
    operators._plans.clear()
    assert outs[1].values.tobytes() == outs[0].values.tobytes()
    return outs[0], table


def test_the_level_2_pair_keeps_one_table_built_once(monkeypatch):
    """The level-2 pair takes the table form as one kept plan: K is
    evaluated once per entry of its 543 x 63 table, in the first call, and
    a second call reads the kept table and gives the same bits."""
    _, table = _keeps_one_table(*_level_2_pair(), monkeypatch)
    assert table.table.shape == (543, 63)


def _spread_pair(n, m, step, rng):
    """f and g on the same cells, every step-th along each axis of an
    m-cell grid: few cells spread over the box."""
    grid = Grid((-2.0,) * n, (2.0,) * n, m)
    on = np.all(np.indices(grid.shape) % step == 0, axis=0)
    return grid, *(GridFunction(grid, rng.standard_normal(grid.shape) * on) for _ in range(2))


@pytest.mark.parametrize(
    "n, m, step", [(1, 512, 16), (1, 8192, 1600), (2, 64, 31)], ids=["1d-32-cells", "1d-6-cells", "2d-9-cells"]
)
def test_a_sparse_spread_pair_keeps_its_tensor_not_its_larger_table(n, m, step, monkeypatch):
    """Sparse sets spread over the box, above _TABLE_FORM: their offset
    table is larger than the (X, Y*Z) tensor (in 2D, 127^4 entries against
    331,776), so the pair keeps the tensor. K is evaluated once per tensor
    entry, in blocks of at most _MAX_POINTS points, and never again; the
    result matches the direct sum."""
    grid, f, g = _spread_pair(n, m, step, np.random.default_rng(41))
    k = fixtures.make_kernel("bilinear_riesz", n)
    ysel = np.flatnonzero(f.values)
    X, Y = m**n, len(ysel)
    cells = [np.stack(np.unravel_index(v, grid.shape), axis=-1) for v in (np.arange(X), ysel, ysel)]
    assert operators._TABLE_FORM < X * Y * Y < math.prod(sum(operators._offset_boxes(cells)[1], ()))
    want = _direct_sum(k, f, g)
    operators._plans.clear()
    points = _counting_points(monkeypatch)
    outs = []
    for _ in range(2):
        outs.append(OperatorHandle(k)(f, g).values)
        ((_, K),) = operators._plans
        assert _form(K) == "tensor" and K.shape == (X, Y * Y)
        assert sum(points) == K.size and max(points) <= operators._MAX_POINTS
    operators._plans.clear()
    assert outs[1].tobytes() == outs[0].tobytes()
    assert np.max(np.abs(outs[0] - want)) <= 1e-13 * np.max(np.abs(want))


def test_two_full_2d_supports_keep_one_table(monkeypatch):
    """Two full supports on a 2D m = 10 grid, a 10^6-entry tensor: the pair
    takes the table form as one kept plan, evaluates K once per entry of
    the 19^4-entry table, and matches the direct sum."""
    grid = Grid((-1.0, -1.0), (1.0, 1.0), 10)
    k = fixtures.make_kernel("bilinear_riesz", 2)
    rng = np.random.default_rng(31)
    f, g = (GridFunction(grid, rng.standard_normal(grid.shape)) for _ in range(2))
    assert np.all(f.values) and np.all(g.values)
    want = _direct_sum(k, f, g)
    got, table = _keeps_one_table(k, f, g, monkeypatch)
    assert table.table.size == 19**4
    assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))


def test_the_plan_slot_is_empty_whenever_a_plan_is_built(monkeypatch):
    """Each build of a plan, in either form, starts with no plan alive, so
    the old plan's kernel entries are freed before the new ones are
    evaluated."""
    build, alive = operators._plan, []
    monkeypatch.setattr(operators, "_plan", lambda *args: alive.append(len(operators._plans)) or build(*args))
    k, f, h = _level_2_pair()
    g = Grid((-2.0,), (2.0,), 64)
    rng = np.random.default_rng(37)
    small = (_on(g, -1.0, 0.0, rng), _on(g, 0.0, 0.5, rng))
    operators._plans.clear()
    for pair in (small, (f, h), small, (f, h)):
        OperatorHandle(k)(*pair)
        assert len(operators._plans) == 1
    assert alive == [0] * 4
    operators._plans.clear()


# ---- One stacked pass over many inputs ----


def _bits_equal(a, b):
    """Same values bit for bit (so +0 and -0 differ) and dtype."""
    return a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()


def _stack_cases():
    g1 = Grid((-2.0,), (2.0,), 96)
    g2 = Grid((-2.0, -2.0), (2.0, 2.0), 12)
    x = g1.meshes()[0]
    rng = np.random.default_rng(11)
    # passes the mean-zero check but not the oddness one, so the 1D path
    # takes its K(u) f(x-u) + K(-u) f(x+u) branch
    lopsided = KernelSpec(1, 1, 0.0, lambda t: np.where(t[..., 0] > 0, 1.0, -1.0 + 1e-7), name="lopsided")
    line = [
        GridFunction(g1, np.sin(3 * x) * np.exp(-x * x)),
        _on(g1, -1.0, 0.25, rng),
        _on(g1, 0.5, 1.5, rng),
        GridFunction(g1, np.zeros(g1.shape)),
    ]
    mixed = [line[1], GridFunction(g1, line[0].values * (1 - 2j)), line[2], GridFunction(g1, 1j * line[2].values)]
    plane = []
    for lo, hi in (((0, 0), (3, 4)), ((5, 2), (12, 6)), ((2, 8), (4, 9))):
        vals = np.zeros(g2.shape)
        vals[lo[0] : hi[0], lo[1] : hi[1]] = rng.standard_normal((hi[0] - lo[0], hi[1] - lo[1]))
        plane.append(GridFunction(g2, vals))
    return {
        "hilbert": (HILBERT, line),
        "neither_odd_nor_even": (lopsided, line),
        "riesz_1_2d_supports": (fixtures.make_kernel("riesz_1", 2), plane),
        "fractional_1d": (fixtures.make_kernel("frac_alpha:0.5", 1), line),
        "fractional_2d": (fixtures.make_kernel("frac_alpha:0.5", 2), plane),
        "real_and_complex": (HILBERT, mixed),
        "real_and_complex_2d": (fixtures.make_kernel("riesz_1", 2), [plane[0], 1j * plane[1], plane[2]]),
    }


@pytest.mark.parametrize("case", sorted(_stack_cases()))
def test_each_equals_one_call_per_input_bit_for_bit(case):
    kernel, fs = _stack_cases()[case]
    T = OperatorHandle(kernel)
    if case == "neither_odd_nor_even":
        ends = np.array([[1.0], [-1.0]])
        assert np.max(np.abs(kernel.omega(ends) + kernel.omega(-ends))) > 0.0
    want = [T(f) for f in fs]
    got = T.each(fs)
    assert len(got) == len(fs)
    assert all(_bits_equal(a, b) for a, b in zip(got, want))
    assert all(_bits_equal(a, b) for a, b in zip(T.each(iter(fs)), want))  # a generator works too


def test_each_refuses_a_two_input_kernel_and_takes_no_inputs():
    g = Grid((-2.0,), (2.0,), 16)
    with pytest.raises(ValueError, match="1-input kernel"):
        OperatorHandle(fixtures.make_kernel("bilinear_riesz", 1)).each([GridFunction(g, np.ones(16))])
    assert OperatorHandle(HILBERT).each([]) == []
    with pytest.raises(GridMismatch):
        other = GridFunction(Grid((-1.0,), (1.0,), 16), np.ones(16))
        OperatorHandle(HILBERT).each([GridFunction(g, np.ones(16)), other])


# ---- One FFT body against a direct zero-extended sum ----


def _direct_zero_extended(f, k):
    """h^n times the sum over every in-box y != x of K(x - y) f(y), one row
    of kernel values per output point, plus the self cell when alpha > 0."""
    g = f.grid
    pts = np.stack([m.reshape(-1) for m in g.meshes()], axis=1)
    vals = f.values.reshape(-1)
    out = np.array([np.sum(k.evaluate(x - pts) * vals) for x in pts]) * g.cell_volume  # K(0) reads 0
    if k.alpha > 0.0:
        out = out + operators._self_cell(k, g.h) * vals
    return out.reshape(g.shape)


def _direct_cases():
    g1 = Grid((-2.0,), (2.0,), 96)
    g2 = Grid((-2.0, -2.0), (2.0, 2.0), 12)
    rng = np.random.default_rng(21)
    line = GridFunction(g1, rng.standard_normal(g1.shape))  # nonzero up to both edges
    plane = GridFunction(g2, rng.standard_normal(g2.shape))
    wave = GridFunction(g1, line.values * np.exp(1j * rng.uniform(0, 2 * np.pi, g1.shape)))
    lopsided = KernelSpec(1, 1, 0.0, lambda t: np.where(t[..., 0] > 0, 1.0, -1.0 + 1e-7), name="lopsided")
    return {
        "hilbert": (HILBERT, line),
        "neither_odd_nor_even": (lopsided, line),
        "complex_1d": (HILBERT, wave),
        "fractional_1d": (fixtures.make_kernel("frac_alpha:0.5", 1), line),
        "riesz_1_2d": (fixtures.make_kernel("riesz_1", 2), plane),
        "cos+sin2_2d": (KernelSpec(1, 2, 0.0, lambda t: t[..., 0] + 2 * t[..., 0] * t[..., 1]), plane),
        "complex_2d": (fixtures.make_kernel("riesz_2", 2), GridFunction(g2, (1 - 2j) * plane.values)),
        "fractional_2d": (KernelSpec(1, 2, 1.0, lambda t: 2.0 + t[..., 0] + 2 * t[..., 0] * t[..., 1]), plane),
    }


@pytest.mark.parametrize("case", sorted(_direct_cases()))
def test_linear_body_matches_a_direct_zero_extended_sum(case):
    kernel, f = _direct_cases()[case]
    got = OperatorHandle(kernel)(f).values
    want = _direct_zero_extended(f, kernel)
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

