import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import (
    Cube,
    CubeFamily,
    EmptyCube,
    Grid,
    GridFunction,
    GridMismatch,
    Lebesgue,
    OperatorHandle,
    OutOfDomain,
    Variable,
    Weighted,
    ap_constant,
    ap_duality_gap,
    apq_constant,
    averaging,
    bilinear_averaging,
    bilinear_maximal,
    bilinear_singular_integral,
    bmo_seminorm,
    centered_family,
    chi_norm,
    chi_norms,
    commutator,
    condition_linear,
    cube_slices,
    enumerate_dyadic,
    fixtures,
    fourier_reciprocal,
    holder_defect,
    indicator,
    luxemburg_norm,
    maximal,
    necessity_experiment,
    norm,
    on_block,
    select_geometry,
)
from oscillab.grid import clipped_slices, common_grid
from oracles import cube_average, cube_cell_count, cube_measure, integrate


def test_grid_basic_geometry():
    g = Grid((-1.0,), (1.0,), 8)
    assert g.n == 1
    assert g.h == pytest.approx(0.25)
    assert g.cell_volume == pytest.approx(0.25)
    x = g.axis_centers(0)
    assert x[0] == pytest.approx(-0.875)
    assert x[-1] == pytest.approx(0.875)


def test_grid_2d_cell_volume():
    g = Grid((-2.0, -2.0), (2.0, 2.0), 16)
    assert g.n == 2
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.shape == (16, 16)


def test_cube_measure_is_cell_counted():
    g = Grid((-1.0,), (1.0,), 8)
    q = Cube((0.0,), 0.5)  # covers exactly 2 cells of width 0.25
    assert cube_cell_count(g, q) == 2
    assert cube_measure(g, q) == pytest.approx(0.5)


def test_cube_membership_is_half_open():
    # a cell center sitting exactly on the upper face belongs to the next cube
    g = Grid((0.0,), (1.0,), 8)
    left = Cube((0.25,), 0.5)   # [0, 0.5)
    right = Cube((0.75,), 0.5)  # [0.5, 1)
    total = cube_cell_count(g, left) + cube_cell_count(g, right)
    assert total == 8
    chi_l = indicator(g, left).values
    chi_r = indicator(g, right).values
    assert np.all(chi_l + chi_r == 1.0)


def test_empty_and_out_of_domain_cubes():
    g = Grid((-1.0,), (1.0,), 8)
    with pytest.raises(OutOfDomain):
        cube_slices(g, Cube((5.0,), 1.0))
    with pytest.raises(EmptyCube):
        cube_slices(g, Cube((0.13,), 1e-9))


def test_grid_mismatch_detected():
    g1 = Grid((-1.0,), (1.0,), 8)
    g2 = Grid((-1.0,), (1.0,), 16)
    f = GridFunction(g1, np.ones(g1.shape))
    h = GridFunction(g2, np.ones(g2.shape))
    with pytest.raises(GridMismatch):
        _ = f + h


def test_integrate_constant():
    g = Grid((-3.0, -3.0), (3.0, 3.0), 12)
    f = GridFunction(g, np.full(g.shape, 2.0))
    assert integrate(f) == pytest.approx(72.0)


def test_cube_average_of_own_indicator_is_one():
    g = Grid((-1.0,), (1.0,), 256)
    for q in enumerate_dyadic(g, 0, 6):
        assert cube_average(indicator(g, q), q) == 1.0


def test_dyadic_family_counts_and_levels():
    g = Grid((-1.0,), (1.0,), 64)
    fam = enumerate_dyadic(g, 0, 3)
    assert len(fam) == 1 + 2 + 4 + 8
    assert sorted(set(fam.levels)) == [0, 1, 2, 3]
    assert {q.side for q, level in zip(fam, fam.levels) if level == 2} == {0.5}


def test_dyadic_children_partition_parent():
    g = Grid((-1.0, -1.0), (1.0, 1.0), 32)
    fam = enumerate_dyadic(g, 0, 2)
    assert fam.levels[0] == 0
    parent_cells = cube_cell_count(g, fam.cubes[0])
    child_cells = sum(cube_cell_count(g, q) for q, level in zip(fam, fam.levels) if level == 1)
    assert parent_cells == child_cells == 32 * 32


def test_centered_family_shares_center():
    g = Grid((-6.0,), (6.0,), 512)
    fam = centered_family(g, (0.0,), 3.0, 2, 5)
    assert [q.side for q in fam.cubes] == [0.75, 0.375, 0.1875, 0.09375]
    assert all(q.center == (0.0,) for q in fam.cubes)


def test_cube_dilate_translate():
    q = Cube((1.0, -1.0), 2.0)
    big = q.dilate(3.0)
    assert big.center == (1.0, -1.0) and big.side == 6.0
    moved = q.translate((0.5, 0.5))
    assert moved.center == (1.5, -0.5) and moved.side == 2.0


def test_gridfunction_rejects_nonfinite():
    g = Grid((0.0,), (1.0,), 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize(
    "bad", [np.inf, -np.inf, complex(1.0, np.nan)], ids=["inf", "minus-inf", "nan-imaginary-part"]
)
def test_gridfunction_rejects_infinities_and_a_nan_imaginary_part(bad):
    g = Grid((0.0,), (1.0,), 4)
    with pytest.raises(ValueError, match="finite"):
        GridFunction(g, np.array([0.0, bad, 0.0, 0.0]))


def test_gridfunction_makes_ints_float64_and_keeps_complex64():
    g = Grid((0.0,), (1.0,), 4)
    assert GridFunction(g, np.arange(4)).values.dtype == np.float64
    assert GridFunction(g, np.ones(4, dtype=np.complex64)).values.dtype == np.complex64


def test_gridfunction_complex_passthrough():
    g = Grid((0.0,), (1.0,), 4)
    f = GridFunction(g, np.exp(1j * np.arange(4.0)))
    assert np.iscomplexobj(f.values)
    assert np.allclose(np.abs(f.values), 1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_on_block_is_its_values_on_the_block_and_zero_elsewhere(n):
    """A real value reads float64 and a complex block keeps its dtype; the
    cells off the block are exactly 0. indicator, and chi_{P cut to the box}
    for a dilate P that leaves the box, equal the zero array with 1.0 put
    on the block, bit for bit. averaging keeps a complex64 input's dtype."""
    g = Grid((-1.0,) * n, (1.0,) * n, 16)
    q = Cube((0.6,) * n, 0.5)
    sl = cube_slices(g, q)
    off = np.ones(g.shape, dtype=bool)
    off[sl] = False
    rng = np.random.default_rng(3)
    block = rng.normal(size=(4,) * n) + 1j * rng.normal(size=(4,) * n)
    for values, dtype in ((1.0, np.float64), (2, np.float64), (block, np.complex128), (block.astype(np.complex64), np.complex64)):
        f = on_block(g, sl, values)
        assert f.values.dtype == dtype
        assert np.array_equal(f.values[sl], np.broadcast_to(values, (4,) * n))
        assert not f.values[off].any()
    p_box = clipped_slices(g, q.dilate(3.0))
    assert not g.box_cube().contains_cube(q.dilate(3.0))
    for got, slices in ((indicator(g, q), sl), (on_block(g, p_box, 1.0), p_box)):
        hand = np.zeros(g.shape)
        hand[slices] = 1.0
        assert got.values.dtype == hand.dtype and got.values.tobytes() == hand.tobytes()
    f = GridFunction(g, np.exp(1j * np.arange(16**n).reshape(g.shape)).astype(np.complex64))
    assert averaging(f, q).values.dtype == np.complex64


@settings(max_examples=50, deadline=None)
@given(
    side=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    k=st.integers(min_value=-3, max_value=3),
)
def test_indicator_mass_equals_cell_measure(side, k):
    """integral of chi_Q equals the cell-counted measure, never the
    continuum side^n, whenever the two disagree."""
    g = Grid((-4.0,), (4.0,), 64)
    q = Cube((k * 0.5,), side)
    assert integrate(indicator(g, q)) == pytest.approx(cube_measure(g, q))


@settings(max_examples=30, deadline=None)
@given(level=st.integers(min_value=1, max_value=4))
def test_dyadic_partition_property(level):
    # every grid cell belongs to exactly one cube per dyadic generation
    g = Grid((-1.0, -1.0), (1.0, 1.0), 32)
    fam = enumerate_dyadic(g, level, level)
    cover = np.zeros(g.shape)
    for q in fam:
        cover += indicator(g, q).values
    assert np.all(cover == 1.0)


# ---- refusals of the grid layer ----


G8 = Grid((-1.0,), (1.0,), 8)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Grid((-1.0,), (1.0, 1.0), 8), ValueError, "lo and hi must have the same length"),
        (lambda: Grid((0.0,) * 3, (1.0,) * 3, 8), ValueError, "dimension must be 1 or 2, got 3"),
        (lambda: Grid((0.0, 0.0), (1.0, 2.0), 8), ValueError, "box must be square (equal widths), got [1.0, 2.0]"),
        (lambda: GridFunction(G8, np.ones(9)), GridMismatch, "values shape (9,) != grid shape (8,)"),
        (lambda: CubeFamily(G8, [Cube((0.0,), 1.0)], levels=(0, 1)), ValueError, "levels must tag every cube"),
        (lambda: CubeFamily(G8, []), ValueError, "cube family is empty"),
        (lambda: enumerate_dyadic(G8, 0, 1, Cube((0.0, 0.0), 1.0)), GridMismatch, "base cube dim 2 on grid dim 1"),
    ],
    ids=["lo-hi", "dimension", "square", "values-shape", "levels", "empty-family", "base-dim"],
)
def test_grid_layer_refusals(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "lo, hi, m, refused",
    [
        (-1e300, 1e300, 16, True),  # the squared width overflows
        (0.0, 1e-150, 1024, False),  # h^2 ~ 1e-306 is still a normal float
        (-1e308, 1e308, 256, True),  # the width overflows
        (0.0, 1e-300, 256, True),  # h^2 underflows
        (0.0, 4 * 2.0**-511, 4, False),  # h^2 = 2^-1022, the least normal float
        (0.0, 4 * 2.0**-511 * (1 - 2.0**-52), 4, True),  # one step below it
    ],
)
def test_a_box_is_refused_when_its_width_or_cell_square_leaves_the_normal_floats(lo, hi, m, refused):
    if not refused:
        assert Grid((lo,), (hi,), m).m == m
        return
    with pytest.raises(ValueError, match=f"^box width .* over {m} cells: need a finite width"):
        Grid((lo,), (hi,), m)


def test_the_squared_diagonal_rule_counts_the_axes():
    """A width whose square is finite but twice its square is not: a 1D box
    holds it, and a 2D box, whose squared diagonal is 2 width^2, refuses it."""
    w = 1.2e154
    assert Grid((0.0,), (w,), 16).m == 16
    with pytest.raises(ValueError, match="squared diagonal 2·width² is finite"):
        Grid((0.0, 0.0), (w, w), 16)


def test_family_faces_that_overflow_the_cell_scale_leave_the_box_without_a_warning():
    g = Grid((-6.0,), (6.0,), 512)
    for base in (Cube((1e308,), 1.0), Cube((-1e308,), 1.0), Cube((0.0,), 1e308)):
        with pytest.raises(OutOfDomain, match="exceeds box"):
            enumerate_dyadic(g, 0, 1, base)


# ---- one grid rule: every place grids meet refuses two of them in one message ----


GA, GB = Grid((-1.0,), (1.0,), 64), Grid((-4.0,), (4.0,), 64)
HILBERT = fixtures.make_kernel("hilbert", 1)
BIRIESZ = fixtures.make_kernel("bilinear_riesz", 1)


def _on(grid):
    return GridFunction(grid, 1.0 + grid.meshes()[0] ** 2)


def _necessity(b, family):
    expansion = fourier_reciprocal(BIRIESZ, select_geometry(BIRIESZ, 0.5), 5)
    return necessity_experiment(b, (Lebesgue(4.0), Lebesgue(4.0)), Lebesgue(2.0), family, expansion)


# each place: a call on f (on GA), o (on GB) and a family on GA, and the
# (type, grid) of the first part with a grid and of the first that differs
MEETINGS = {
    "arithmetic": (lambda f, o, fam: f * o, ("GridFunction", GA, "GridFunction", GB)),
    "norm": (lambda f, o, fam: norm(f, Weighted(2.0, o)), ("GridFunction", GA, "Weighted", GB)),
    "luxemburg_norm": (lambda f, o, fam: luxemburg_norm(f, Variable(o + 1.0)), ("GridFunction", GA, "Variable", GB)),
    "chi_norm": (lambda f, o, fam: chi_norm(Weighted(2.0, o), fam.cubes[1], GA), ("Weighted", GB, "CubeFamily", GA)),
    "chi_norms": (lambda f, o, fam: chi_norms(Variable(o + 1.0), fam), ("Variable", GB, "CubeFamily", GA)),
    "condition_linear": (
        lambda f, o, fam: condition_linear(Lebesgue(2.0), Weighted(2.0, o), 0.0, fam),
        ("Weighted", GB, "CubeFamily", GA),
    ),
    "holder_defect": (lambda f, o, fam: holder_defect(f, o, Lebesgue(2.0)), ("GridFunction", GA, "GridFunction", GB)),
    "bmo_seminorm": (lambda f, o, fam: bmo_seminorm(o, fam), ("GridFunction", GB, "CubeFamily", GA)),
    "ap_constant": (lambda f, o, fam: ap_constant(o, 2.0, fam), ("GridFunction", GB, "CubeFamily", GA)),
    "apq_constant": (lambda f, o, fam: apq_constant(o, 2.0, 3.0, fam), ("GridFunction", GB, "CubeFamily", GA)),
    "ap_duality_gap": (lambda f, o, fam: ap_duality_gap(o, 2.0, fam), ("GridFunction", GB, "CubeFamily", GA)),
    "maximal": (lambda f, o, fam: maximal(o, 0.0, fam), ("GridFunction", GB, "CubeFamily", GA)),
    "bilinear_maximal": (lambda f, o, fam: bilinear_maximal(f, o, 0.0, fam), ("GridFunction", GA, "GridFunction", GB)),
    "bilinear_averaging": (
        lambda f, o, fam: bilinear_averaging(f, o, Cube((0.0,), 0.5)),
        ("GridFunction", GA, "GridFunction", GB),
    ),
    "linear_integral": (lambda f, o, fam: OperatorHandle(HILBERT).each([f, o]), ("GridFunction", GA, "GridFunction", GB)),
    "bilinear_integral": (
        lambda f, o, fam: bilinear_singular_integral(f, o, BIRIESZ),
        ("GridFunction", GA, "GridFunction", GB),
    ),
    "commutator": (lambda f, o, fam: commutator(f, OperatorHandle(HILBERT), o), ("GridFunction", GA, "GridFunction", GB)),
    "necessity_experiment": (
        lambda f, o, fam: _necessity(f, centered_family(GB, 0.0, 0.5, 1, 2)),
        ("GridFunction", GA, "CubeFamily", GB),
    ),
}


@pytest.mark.parametrize("entry", sorted(MEETINGS))
def test_every_meeting_of_grids_refuses_two_in_one_message(entry):
    call, (first, first_grid, other, other_grid) = MEETINGS[entry]
    with pytest.raises(GridMismatch) as info:
        call(_on(GA), _on(GB), enumerate_dyadic(GA, 0, 3))
    assert str(info.value) == f"{first} on {first_grid}, {other} on {other_grid}"
    assert "0x" not in str(info.value)  # no object address: the message is copied into the JSON summary


def test_common_grid_is_the_grid_of_the_parts_that_have_one():
    f = _on(GA)
    assert common_grid(Lebesgue(2.0), f, enumerate_dyadic(GA, 0, 1), Weighted(2.0, f)) == GA
    assert common_grid(Lebesgue(2.0), Lebesgue(3.0)) is None and common_grid() is None
    with pytest.raises(GridMismatch, match=r"^GridFunction on Grid\(lo=\(-1.0,\), hi=\(1.0,\), m=64\), GridFunction on "):
        common_grid(Lebesgue(2.0), f, Lebesgue(3.0), _on(GB))
