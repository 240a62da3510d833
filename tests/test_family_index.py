"""The family index against the per-cube loops it replaces.

Every family sup reduces cube blocks through the family's cell index. Each test
here recomputes the same quantity cube by cube from `cube_slices`, as the
lab did before the index, and requires `np.array_equal`: the index may change
how blocks are visited, never a bit of the result.
"""

import numpy as np
import pytest

from oscillab import (
    Cube,
    CubeFamily,
    ExponentFunction,
    Grid,
    GridMismatch,
    GridFunction,
    Lebesgue,
    Variable,
    Weighted,
    ap_constant,
    ap_cube,
    ap_duality_gap,
    apq_constant,
    associate,
    bilinear_maximal,
    bmo_seminorm,
    centered_family,
    chiQ_norm_ratio,
    chi_norm,
    chi_norms,
    condition_bilinear,
    condition_linear,
    conjugate_exponent,
    cube_measure,
    cube_slices,
    enumerate_dyadic,
    maximal,
)
from oscillab import fixtures


def _family(case):
    if case == "dyadic-1d":
        g = Grid((-1.0,), (1.0,), 4096)
        return g, enumerate_dyadic(g, 0, 9)
    if case == "dyadic-2d":
        g = Grid((-1.0, -1.0), (1.0, 1.0), 64)
        return g, enumerate_dyadic(g, 0, 5)
    if case == "over-8192-cells":
        # level 0 is one contiguous 40,000-cell block, level 1 four strided
        # 100 x 100 blocks that numpy sums in buffer-sized pieces
        g = Grid((-1.0, -1.0), (1.0, 1.0), 200)
        return g, enumerate_dyadic(g, 0, 2)
    if case == "over-8192-cells-1d":
        g = Grid((-1.0,), (1.0,), 20000)
        return g, enumerate_dyadic(g, 0, 2)
    if case == "centered-1.125":
        g = Grid((-6.0,), (6.0,), 512)
        return g, centered_family(g, (0.01,), 1.125, 0, 5)
    if case == "dyadic-1.125":
        g = Grid((-6.0,), (6.0,), 512)
        return g, enumerate_dyadic(g, 0, 4, Cube((0.3,), 1.125))
    if case == "centered-1.125-2d":
        g = Grid((-6.0, -6.0), (6.0, 6.0), 96)
        return g, centered_family(g, (0.1, -0.2), 1.125, 0, 3)
    if case == "non-power-of-two":
        g = Grid((-1.0,), (1.0,), 1000)
        return g, enumerate_dyadic(g, 0, 6)
    if case == "non-power-of-two-2d":
        g = Grid((-1.0, -1.0), (1.0, 1.0), 48)
        return g, enumerate_dyadic(g, 0, 4)
    if case == "overlapping-2d":
        g = Grid((-1.0, -1.0), (1.0, 1.0), 32)
        cubes = [Cube((x, y), 0.5) for x in (-0.7, -0.6, 0.2) for y in (-0.1, 0.0, 0.5)]
        return g, CubeFamily(g, cubes + [g.box_cube()])
    raise ValueError(case)


CASES = [
    "dyadic-1d",
    "dyadic-2d",
    "over-8192-cells",
    "over-8192-cells-1d",
    "centered-1.125",
    "dyadic-1.125",
    "centered-1.125-2d",
    "non-power-of-two",
    "non-power-of-two-2d",
    "overlapping-2d",
]
COVERING = [c for c in CASES if c.startswith(("dyadic-1d", "dyadic-2d", "over", "non"))]


def _steep(grid, seed, complex_=False):
    """Values spanning 17 decades, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) * np.exp(rng.uniform(-20, 20, grid.shape))
    if complex_:
        v = v + 1j * rng.standard_normal(grid.shape)
    return v


def _loop(values, grid, family, fn):
    return np.array([fn(values[cube_slices(grid, q)]) for q in family])


def _loop_oscillation(block):
    fq = np.sum(block) / block.size
    return np.sum(np.abs(block - fq)) / block.size


@pytest.mark.parametrize("case", CASES)
def test_sums_means_and_oscillations_bit_equal(case):
    g, fam = _family(case)
    for complex_ in (False, True):
        v = _steep(g, 1, complex_)
        assert np.array_equal(fam.sums(v), _loop(v, g, fam, np.sum))
        assert np.array_equal(fam.means(v), _loop(v, g, fam, lambda b: np.sum(b) / b.size))
        osc = bmo_seminorm(GridFunction(g, v), fam).per_cube
        assert np.array_equal(osc, _loop(v, g, fam, _loop_oscillation))
    assert fam.measures == [cube_measure(g, q) for q in fam]


def test_non_contiguous_values_fall_back_bit_equal():
    g, fam = _family("dyadic-2d")
    v = _steep(g, 2).T  # a view with Fortran strides
    assert np.array_equal(fam.sums(v), _loop(v, g, fam, np.sum))


def test_gather_rows_are_flattened_slices():
    g, fam = _family("centered-1.125-2d")
    v = _steep(g, 3)
    for members, rows in fam.gather(v):
        for i, row in zip(members, rows):
            assert np.array_equal(row, v[cube_slices(g, fam.cubes[i])].reshape(-1))


def test_explicit_family_indexes_like_the_generator():
    g, fam = _family("dyadic-1d")
    explicit = CubeFamily(g, fam.cubes)
    assert np.array_equal(explicit.ranges, fam.ranges)


# ---- operators.maximal and bilinear_maximal ----


def _loop_maximal(f, alpha, family):
    g = f.grid
    out = np.zeros(g.shape)
    av = np.abs(f.values)
    for q in family:
        sl = cube_slices(g, q)
        block = av[sl]
        val = cube_measure(g, q) ** (alpha / g.n) * (np.sum(block) / block.size)
        np.maximum(out[sl], val, out=out[sl])
    return out


def _loop_bilinear_maximal(f, h, alpha, family):
    g = f.grid
    out = np.zeros(g.shape)
    for q in family:
        sl = cube_slices(g, q)
        fb, hb = np.abs(f.values[sl]), np.abs(h.values[sl])
        val = (
            cube_measure(g, q) ** (alpha / g.n)
            * (np.sum(fb) / fb.size)
            * (np.sum(hb) / hb.size)
        )
        np.maximum(out[sl], val, out=out[sl])
    return out


@pytest.mark.parametrize("case", COVERING)
def test_maximal_bit_equal(case):
    g, fam = _family(case)
    f = GridFunction(g, _steep(g, 4))
    h = GridFunction(g, _steep(g, 5))
    for alpha in (0.0, 0.37 * g.n):
        assert np.array_equal(maximal(f, alpha, fam).values, _loop_maximal(f, alpha, fam))
        assert np.array_equal(
            bilinear_maximal(f, h, 1.5 * alpha, fam).values,
            _loop_bilinear_maximal(f, h, 1.5 * alpha, fam),
        )


def test_maximal_overlapping_family_takes_the_max():
    # the overlapping family holds the box, so it covers every cell
    g, fam = _family("overlapping-2d")
    f = GridFunction(g, _steep(g, 6))
    assert np.array_equal(maximal(f, 0.5, fam).values, _loop_maximal(f, 0.5, fam))


# ---- spaces: chi norms, conditions, indicator ratios ----


def _spaces(g):
    w = fixtures.make_weight("power:0.5", g)
    return [
        Lebesgue(3.0),
        Weighted(3.0, w),
        associate(Weighted(3.0, w)),
        Variable(fixtures.make_exponent("arctan_profile", g)),
        associate(Variable(fixtures.make_exponent("arctan_profile", g))),
    ]


@pytest.mark.parametrize(
    "case",
    ["non-power-of-two-2d", "centered-1.125", "dyadic-1.125", "non-power-of-two", "over-8192-cells-1d"],
)
def test_chi_norms_bit_equal(case):
    g, fam = _family(case)
    for space in _spaces(g):
        got = chi_norms(space, fam)
        assert got == [chi_norm(space, q, g) for q in fam], repr(space)


def test_conditions_bit_equal():
    g = Grid((-1.0,), (1.0,), 1024)
    fam = enumerate_dyadic(g, 0, 7)
    X, Xw, Yd, V, Vd = _spaces(g)
    for alpha in (0.0, 0.4):
        rep = condition_linear(V, Vd, alpha, fam)
        want = [
            cube_measure(g, q) ** (-alpha) * chi_norm(associate(Vd), q, g) * chi_norm(V, q, g)
            / cube_measure(g, q)
            for q in fam
        ]
        assert list(rep.per_cube) == want
        rep = condition_bilinear(X, V, Xw, 2 * alpha, fam)
        want = [
            cube_measure(g, q) ** (-2 * alpha)
            * chi_norm(associate(Xw), q, g)
            * chi_norm(X, q, g)
            * chi_norm(V, q, g)
            / cube_measure(g, q)
            for q in fam
        ]
        assert list(rep.per_cube) == want


def test_indicator_ratio_bit_equal():
    g = Grid((-1.0,), (1.0,), 1024)
    fam = enumerate_dyadic(g, 0, 7)
    ex = fixtures.make_exponent("arctan_profile", g)
    rep = chiQ_norm_ratio(ex, fam)
    want = [
        chi_norm(Variable(ex), q) / cube_measure(g, q) ** (1.0 / ex.harmonic_mean_over(q))
        for q in fam
    ]
    assert list(rep.per_cube) == want


# ---- weights: the two constants and the duality gap ----


def _fa(vals, g, q):
    block = vals[cube_slices(g, q)]
    return float(np.sum(block) / block.size)


@pytest.mark.parametrize("case", ["dyadic-1d", "dyadic-1.125", "non-power-of-two-2d"])
def test_weight_constants_bit_equal(case):
    g, fam = _family(case)
    rng = np.random.default_rng(7)
    w1 = GridFunction(g, np.exp(2.0 * rng.standard_normal(g.shape)))
    p, q = 2.0, 3.0
    pp = conjugate_exponent(p)
    w, d = w1.values, w1.values ** (1.0 - pp)
    assert list(ap_constant(w1, p, fam).per_cube) == [
        _fa(w, g, c) * _fa(d, g, c) ** (p - 1.0) for c in fam
    ]
    assert list(apq_constant(w1, p, q, fam).per_cube) == [
        _fa(w**q, g, c) ** (1.0 / q) * _fa(w ** (-pp), g, c) ** (1.0 / pp) for c in fam
    ]
    gap = 0.0
    dual = GridFunction(g, d)
    for c in fam:
        rhs = ap_cube(w1, p, c) ** (pp - 1.0)
        gap = max(gap, abs(ap_cube(dual, pp, c) - rhs) / max(1.0, abs(rhs)))
    assert ap_duality_gap(w1, p, fam) == gap


# ---- a family is used only on the grid it was built on ----


ON_A_GRID = {
    "chi_norm_weighted": lambda fam, w: chi_norm(Weighted(2.0, w), fam.cubes[1], fam.grid),
    "chi_norm_variable": lambda fam, w: chi_norm(Variable(ExponentFunction(w + 1.0)), fam.cubes[1], fam.grid),
    "chi_norms": lambda fam, w: chi_norms(Weighted(2.0, w), fam),
    "condition_linear": lambda fam, w: condition_linear(Weighted(2.0, w), Weighted(2.0, w), 0.0, fam),
    "ap_constant": lambda fam, w: ap_constant(w, 2.0, fam),
    "apq_constant": lambda fam, w: apq_constant(w, 2.0, 3.0, fam),
    "ap_duality_gap": lambda fam, w: ap_duality_gap(w, 2.0, fam),
    "bmo_seminorm": lambda fam, w: bmo_seminorm(w, fam),
    "maximal": lambda fam, w: maximal(w, 0.0, fam),
    "bilinear_maximal": lambda fam, w: bilinear_maximal(w, w, 0.0, fam),
    "chiQ_norm_ratio": lambda fam, w: chiQ_norm_ratio(ExponentFunction(w + 1.0), fam),
}


@pytest.mark.parametrize("entry", sorted(ON_A_GRID))
def test_family_on_another_grid_raises(entry):
    # same box, twice the cells: every cube would still index, so only an
    # explicit check can tell the grids apart
    g, other = Grid((-1.0,), (1.0,), 64), Grid((-1.0,), (1.0,), 128)
    fam = enumerate_dyadic(g, 0, 3)
    ON_A_GRID[entry](fam, GridFunction(g, 1.0 + g.meshes()[0] ** 2))
    with pytest.raises(GridMismatch):
        ON_A_GRID[entry](fam, GridFunction(other, 1.0 + other.meshes()[0] ** 2))
