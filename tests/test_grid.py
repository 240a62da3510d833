import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import (
    Cube,
    EmptyCube,
    Grid,
    GridFunction,
    GridMismatch,
    OutOfDomain,
    averaging,
    centered_family,
    cube_slices,
    enumerate_dyadic,
    indicator,
    on_block,
)
from oscillab.grid import clipped_slices
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
