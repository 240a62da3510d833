"""The family index against the per-cube loops it replaces.

Every family sup reduces cube blocks through the family's cell index. Each test
here recomputes the same quantity cube by cube from `cube_slices`, as the
lab did before the index, and requires `np.array_equal`: the index may change
how blocks are visited, never a bit of the result.
"""

import math
import warnings

import numpy as np
import pytest

from oscillab import (
    Cube,
    CubeFamily,
    EmptyCube,
    Grid,
    GridMismatch,
    GridFunction,
    Lebesgue,
    Variable,
    Weighted,
    ap_constant,
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
    OutOfDomain,
)
from oscillab import fixtures
from oscillab.grid import _SNAP, cube_index_ranges
from oracles import ap_cube, harmonic_mean_over


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


# ---- the array index against the per-cube scalar loop ----


def _scalar_ranges(g, q):
    """The per-cube loop the array pass replaced: Python round (half to
    even) and math.ceil per face, axis by axis, out-of-box before empty."""
    if q.n != g.n:
        raise GridMismatch(f"cube dim {q.n} on grid dim {g.n}")
    h = g.h
    ranges = []
    for ax, lo, hi in zip(range(g.n), q.lo_faces(), q.hi_faces()):
        if lo < g.lo[ax] - _SNAP * h or hi > g.hi[ax] + _SNAP * h:
            raise OutOfDomain(f"{q} exceeds box [{g.lo[ax]:.6g}, {g.hi[ax]:.6g}] on axis {ax}")
        k = []
        for face in (lo, hi):
            t = (face - g.lo[ax]) / h - 0.5
            r = round(t)
            k.append(int(r) if abs(t - r) <= _SNAP else int(math.ceil(t)))
        k0, k1 = max(k[0], 0), min(k[1] - 1, g.m - 1)
        if k1 < k0:
            raise EmptyCube(f"{q} holds no cell center (h = {h:.6g})")
        ranges.append((k0, k1))
    return tuple(ranges)


def _near_center_cubes(g, count, seed):
    """Cubes whose faces sit within a few _SNAP of cell centers (the index
    scale's integers), on both sides of the snap; some leave the box."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        cells = int(rng.integers(1, g.m // 2))
        jitter = rng.choice([-3, -1, -0.5, 0, 0.5, 1, 3], size=g.n + 1) * _SNAP
        side = (cells + jitter[0]) * g.h
        first = rng.integers(-1, g.m - cells + 1, size=g.n)
        center = [g.lo[ax] + (first[ax] + 0.5 + jitter[ax + 1]) * g.h + side / 2 for ax in range(g.n)]
        out.append(Cube(center, side))
    return out


@pytest.mark.parametrize("g", [Grid((-1.0,), (1.0,), 1000), Grid((-0.7, -0.7), (1.3, 1.3), 48)], ids=["1d", "2d"])
def test_array_ranges_equal_the_scalar_loop_cube_by_cube(g):
    near = []  # how far each kept face lies from an integer on the index scale
    for q in _near_center_cubes(g, 400, seed=g.n):
        try:
            want = _scalar_ranges(g, q)
        except (OutOfDomain, EmptyCube) as err:
            with pytest.raises(type(err)) as info:
                cube_index_ranges(g, q)
            assert str(info.value) == str(err)
            continue
        assert cube_index_ranges(g, q) == want
        fam = CubeFamily(g, [q, g.box_cube(), q])
        assert fam.ranges[0].tolist() == fam.ranges[2].tolist() == [list(r) for r in want]
        for faces in (q.lo_faces(), q.hi_faces()):
            near += [abs(t - round(t)) for t in ((f - a) / g.h - 0.5 for f, a in zip(faces, g.lo))]
    # faces off the integers both within the snap and beyond it
    assert sum(0 < d <= _SNAP for d in near) > 100 and sum(_SNAP < d < 1e-6 for d in near) > 100
    # the whole family in one pass, rows in family order
    kept = []
    for q in _near_center_cubes(g, 400, seed=10 + g.n):
        try:
            kept.append((q, _scalar_ranges(g, q)))
        except (OutOfDomain, EmptyCube):
            pass
    fam = CubeFamily(g, [q for q, _ in kept])
    assert [tuple(map(tuple, r)) for r in fam.ranges.tolist()] == [r for _, r in kept]


def _offending(g, third, fifth):
    cubes = list(enumerate_dyadic(g, 1, 1))  # 2^n good cubes
    cubes = (cubes * 3)[:6]
    cubes[2], cubes[4] = third, fifth
    return cubes


_FAR = {1: Cube((0.9,), 0.5), 2: Cube((0.0, 0.9), 0.5)}  # leaves the box
_THIN = {1: Cube((0.13,), 1e-9), 2: Cube((0.13, 0.0), 1e-9)}  # holds no cell center
_FLAT = {1: Cube((0.0, 0.0), 0.5), 2: Cube((0.0,), 0.5)}  # the other dimension


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("third,fifth", [(_FAR, _THIN), (_THIN, _FAR), (_FLAT, _FAR), (_FAR, _FLAT)])
def test_first_offending_cube_raises_its_own_error(n, third, fifth):
    g = Grid((-1.0,) * n, (1.0,) * n, 40)
    with pytest.raises((OutOfDomain, EmptyCube, GridMismatch)) as want:
        cube_index_ranges(g, third[n])
    with pytest.raises(type(want.value)) as got:
        CubeFamily(g, _offending(g, third[n], fifth[n]))
    assert str(got.value) == str(want.value)
    with pytest.raises(type(want.value)) as scalar:
        _scalar_ranges(g, third[n])
    assert str(scalar.value) == str(want.value)


@pytest.mark.parametrize(
    "center,side,error",
    [
        ((0.13, 1.0), 1e-9, EmptyCube),  # empty on axis 0, out on axis 1
        ((1.0, 0.13), 1e-9, OutOfDomain),  # out on axis 0, empty on axis 1
        ((0.125, 0.13), 1e-9, EmptyCube),  # a cell on axis 0, none on axis 1
        ((0.13, 0.9), 0.5, OutOfDomain),  # cells on axis 0, out on axis 1
    ],
)
def test_axes_are_checked_in_order(center, side, error):
    g = Grid((-1.0, -1.0), (1.0, 1.0), 40)
    with pytest.raises(error) as scalar:
        _scalar_ranges(g, Cube(center, side))
    with pytest.raises(error) as got:
        CubeFamily(g, [g.box_cube(), Cube(center, side)])
    assert str(got.value) == str(scalar.value)


@pytest.mark.parametrize("center,side", [(np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf), (0.0, np.nan)])
def test_non_finite_cube_leaves_the_box_without_a_warning(center, side):
    g = Grid((-1.0,), (1.0,), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain, match="exceeds box"):
            CubeFamily(g, [g.box_cube(), Cube((center,), side)])


def _old_dyadic(base, level_min, level_max):
    """The cube tuple the generator built cube by cube, x outer, y inner."""
    cubes = []
    for lvl in range(level_min, level_max + 1):
        side = base.side / 2**lvl
        axes = [[lo + (j + 0.5) * side for j in range(2**lvl)] for lo in base.lo_faces()]
        centers = [(c,) for c in axes[0]] if base.n == 1 else [(x, y) for x in axes[0] for y in axes[1]]
        cubes.extend(Cube(c, side) for c in centers)
    return tuple(cubes)


@pytest.mark.parametrize(
    "g,base,levels",
    [
        (Grid((-1.0,), (1.0,), 1000), None, (0, 6)),
        (Grid((-6.0,), (6.0,), 512), Cube((0.3,), 1.125), (1, 4)),
        (Grid((-1.0, -1.0), (1.0, 1.0), 48), None, (0, 4)),
        (Grid((-1.0, -1.0), (1.0, 1.0), 48), Cube((0.1, -0.3), 0.75), (2, 3)),
    ],
    ids=["1d", "1d-base", "2d", "2d-base"],
)
def test_family_cubes_read_as_the_cube_tuple(g, base, levels):
    fam = enumerate_dyadic(g, *levels, base)
    old = _old_dyadic(base or g.box_cube(), *levels)
    assert len(fam) == len(fam.cubes) == len(old)
    assert list(fam.cubes) == list(fam) == list(old)
    assert [fam.cubes[i] for i in (0, len(old) // 2, -1)] == [old[0], old[len(old) // 2], old[-1]]
    for again in (CubeFamily(g, fam.cubes), CubeFamily(g, list(fam.cubes), fam.provenance, fam.levels)):
        assert list(again.cubes) == list(old) and np.array_equal(again.ranges, fam.ranges)
    centered = centered_family(g, base.center if base else g.box_cube().center, 0.75, *levels)
    assert list(centered.cubes) == [Cube(centered.cubes[0].center, 0.75 / 2**lvl) for lvl in range(levels[0], levels[1] + 1)]


@pytest.mark.parametrize(
    "g,level_max,want",
    [
        (Grid((-1.0,), (1.0,), 1000), 6, "Q(0.375;0.25)"),
        (Grid((-1.0, -1.0), (1.0, 1.0), 48), 4, "Q(0.375,-0.125;0.25)"),
    ],
    ids=["1d", "2d"],
)
def test_family_sup_argmax_prints_as_before(g, level_max, want):
    """log |x - p|, p = (0.3, -0.2): the argmax strings the cube-by-cube
    family gave."""
    r = np.sqrt(sum((x - p) ** 2 for x, p in zip(g.meshes(), (0.3, -0.2))))
    assert str(bmo_seminorm(GridFunction(g, np.log(r)), enumerate_dyadic(g, 0, level_max)).argmax) == want


def test_a_family_builds_a_cube_only_when_one_is_read(monkeypatch):
    built = []
    post_init = Cube.__post_init__
    monkeypatch.setattr(Cube, "__post_init__", lambda self: (built.append(1), post_init(self))[1])
    g = Grid((-1.0,), (1.0,), 16384)
    fam = enumerate_dyadic(g, 0, 11)
    rep = bmo_seminorm(fixtures.make_symbol("log_abs", g), fam)
    assert len(fam) == 4095 and str(rep.argmax) == "Q(0;2)"
    assert len(built) <= 3  # the box, the base of the tag, the argmax


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
        fixtures.make_exponent("arctan_profile", g),
        associate(fixtures.make_exponent("arctan_profile", g)),
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
        chi_norm(ex, q) / cube_measure(g, q) ** (1.0 / harmonic_mean_over(ex, q))
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
    "chi_norm_variable": lambda fam, w: chi_norm(Variable(w + 1.0), fam.cubes[1], fam.grid),
    "chi_norms": lambda fam, w: chi_norms(Weighted(2.0, w), fam),
    "condition_linear": lambda fam, w: condition_linear(Weighted(2.0, w), Weighted(2.0, w), 0.0, fam),
    "ap_constant": lambda fam, w: ap_constant(w, 2.0, fam),
    "apq_constant": lambda fam, w: apq_constant(w, 2.0, 3.0, fam),
    "ap_duality_gap": lambda fam, w: ap_duality_gap(w, 2.0, fam),
    "bmo_seminorm": lambda fam, w: bmo_seminorm(w, fam),
    "maximal": lambda fam, w: maximal(w, 0.0, fam),
    "bilinear_maximal": lambda fam, w: bilinear_maximal(w, w, 0.0, fam),
    "chiQ_norm_ratio": lambda fam, w: chiQ_norm_ratio(Variable(w + 1.0), fam),
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
