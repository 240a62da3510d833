"""Oscillation seminorm oracles.

The anchor constant: for f = log|x| on any interval with one endpoint at 0,
the cell-free mean is log a - 1 and the mean oscillation evaluates to
int_0^1 |log t + 1| dt = 2/e, independent of the interval length.  The same
value holds on symmetric intervals [-a, a].  So the sup over a dyadic family
on [-1, 1] is exactly 2/e in the continuum, achieved at every cube touching
the origin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import Cube, Grid, GridFunction, centered_family, enumerate_dyadic
from oscillab.bmo import bmo_seminorm
from oscillab.fixtures import make_symbol
from oracles import mean_oscillation, mean_oscillation_shifted

TWO_OVER_E = 0.7357588823428847


def test_log_oscillation_root_cube():
    g = Grid((-1.0,), (1.0,), 4096)
    b = make_symbol("log_abs", g)
    assert mean_oscillation(b, Cube((0.0,), 2.0)) == pytest.approx(TWO_OVER_E, rel=2e-3)


def test_log_seminorm_sup_and_argmax():
    g = Grid((-1.0,), (1.0,), 4096)
    b = make_symbol("log_abs", g)
    rep = bmo_seminorm(b, enumerate_dyadic(g, 0, 6))
    assert rep.value == pytest.approx(TWO_OVER_E, rel=2e-3)
    # the sup is achieved on a cube whose closure meets the origin
    lo = rep.argmax.center[0] - rep.argmax.side / 2
    hi = rep.argmax.center[0] + rep.argmax.side / 2
    assert lo <= 0.0 <= hi
    assert len(rep.per_cube) == len(enumerate_dyadic(g, 0, 6))
    assert max(rep.per_cube) == rep.value


def test_log_seminorm_dilation_invariant():
    # log|sx| = log s + log|x| and the grid dilates with the box, so the
    # discrete seminorm is exactly scale invariant
    g1 = Grid((-1.0,), (1.0,), 2048)
    g4 = Grid((-4.0,), (4.0,), 2048)
    v1 = bmo_seminorm(make_symbol("log_abs", g1), enumerate_dyadic(g1, 0, 5)).value
    v4 = bmo_seminorm(make_symbol("log_abs", g4), enumerate_dyadic(g4, 0, 5)).value
    assert v1 == pytest.approx(v4, rel=1e-12)


def test_sgn_log_seminorm_is_one():
    # sgn(x) log|x| on [-1,1]: odd, so the root-cube mean vanishes and the
    # oscillation is the mean of |log|x||, which integrates to 1
    g = Grid((-1.0,), (1.0,), 4096)
    s = make_symbol("sgn_log", g)
    rep = bmo_seminorm(s, enumerate_dyadic(g, 0, 6))
    assert rep.value == pytest.approx(1.0, rel=2e-3)
    assert rep.argmax.side == pytest.approx(2.0)


def test_shifted_reference_triangle():
    g = Grid((-1.0,), (1.0,), 512)
    b = make_symbol("log_abs", g)
    q = Cube((0.5,), 0.5)
    r = Cube((-0.5,), 0.5)
    from oracles import cube_average

    plain = mean_oscillation(b, q)
    shifted = mean_oscillation_shifted(b, q, r)
    gap = abs(cube_average(b, q) - cube_average(b, r))
    assert shifted <= plain + gap + 1e-12
    assert plain <= shifted + gap + 1e-12
    assert mean_oscillation_shifted(b, q, q) == pytest.approx(plain, abs=1e-15)


def test_one_over_x_blows_up_with_depth():
    g = Grid((-1.0,), (1.0,), 4096)
    xs = g.meshes()[0]
    f = GridFunction(g, 1.0 / xs)
    sups = [bmo_seminorm(f, enumerate_dyadic(g, 0, lmax)).value for lmax in range(1, 7)]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert sups[-1] > 10 * sups[0]


def test_seminorm_on_centered_family():
    g = Grid((-1.0,), (1.0,), 2048)
    b = make_symbol("log_abs", g)
    fam = centered_family(g, (0.0,), 1.5, 0, 4)
    rep = bmo_seminorm(b, fam)
    assert rep.value == pytest.approx(TWO_OVER_E, rel=5e-3)


def test_symbol_library_values():
    g = Grid((-2.0,), (2.0,), 64)
    xs = g.meshes()[0]
    assert np.array_equal(make_symbol("abs", g).values, np.abs(xs))
    assert np.all(make_symbol("constant:2.5", g).values == 2.5)
    assert np.allclose(make_symbol("log_abs", g).values, np.log(np.abs(xs)))
    s = make_symbol("sgn_log", g)
    assert np.allclose(s.values, np.sign(xs) * np.log(np.abs(xs)))
    with pytest.raises(ValueError):
        make_symbol("witch_of_agnesi", g)


def test_symbol_library_rejects_origin_cell_center():
    g = Grid((-1.0,), (1.0,), 5)  # odd m puts a cell center at 0
    with pytest.raises(ValueError):
        make_symbol("log_abs", g)
    make_symbol("abs", g)  # fine, no singularity


def test_symbol_library_2d():
    g = Grid((-1.0, -1.0), (1.0, 1.0), 32)
    b = make_symbol("log_abs", g)
    xs, ys = g.meshes()
    assert np.allclose(b.values, 0.5 * np.log(xs * xs + ys * ys))


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(-5, 5, allow_nan=False),
    scale=st.floats(0.1, 10, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_seminorm_affine_covariance(shift, scale, seed):
    g = Grid((-1.0,), (1.0,), 128)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(g.shape))
    fam = enumerate_dyadic(g, 0, 3)
    base = bmo_seminorm(f, fam).value
    moved = bmo_seminorm(GridFunction(g, scale * f.values + shift), fam).value
    assert moved == pytest.approx(scale * base, rel=1e-10, abs=1e-12)
