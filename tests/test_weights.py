"""Weight constants: exact identities, the |x|^a oracle family, and sweeps.

Continuum oracle used below: for w(x) = |x|^(1/2) on centered intervals
[-t, t], the two averages are (2/3)sqrt(t) and 2/sqrt(t), so A_2 = 4/3 on
every centered interval; the discrete sup converges to 4/3 from below.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillab import (
    Grid,
    GridFunction,
    NonFiniteValues,
    NonPositiveWeight,
    ap_constant,
    ap_duality_gap,
    apq_constant,
    enumerate_dyadic,
)
from oracles import ap_cube


def _grid(m=4096):
    return Grid((-1.0,), (1.0,), m)


def _power_weight(grid, a):
    return GridFunction(grid, np.abs(grid.meshes()[0]) ** a)


def test_ap_of_unit_weight_is_one():
    g = _grid(256)
    w = GridFunction(g, np.ones(g.shape))
    rep = ap_constant(w, 2.0, enumerate_dyadic(g, 0, 6))
    assert rep.value == 1.0


def test_ap_constant_half_power_oracle():
    g = _grid()
    rep = ap_constant(_power_weight(g, 0.5), 2.0, enumerate_dyadic(g, 0, 8))
    assert rep.value == pytest.approx(4.0 / 3.0, rel=0.02)
    # sup comes from a cube whose closure meets the degeneracy at 0
    lo = rep.argmax.center[0] - rep.argmax.side / 2
    hi = rep.argmax.center[0] + rep.argmax.side / 2
    assert lo <= 0.0 <= hi


def test_ap_duality_identity_tight():
    g = _grid(1024)
    fam = enumerate_dyadic(g, 0, 6)
    for a, p in ((0.5, 2.0), (0.3, 3.0), (-0.4, 1.5)):
        gap = ap_duality_gap(_power_weight(g, a), p, fam)
        assert gap <= 1e-12


def test_ap_scale_invariance():
    g = _grid(512)
    fam = enumerate_dyadic(g, 0, 5)
    w = _power_weight(g, 0.5)
    r1 = ap_constant(w, 2.0, fam)
    r2 = ap_constant(GridFunction(g, 37.0 * w.values), 2.0, fam)
    assert r2.value == pytest.approx(r1.value, rel=1e-12)


def test_ap_at_least_one_by_jensen():
    g = _grid(512)
    rng = np.random.default_rng(0)
    fam = enumerate_dyadic(g, 0, 5)
    for _ in range(5):
        w = GridFunction(g, np.exp(rng.standard_normal(g.shape)))
        rep = ap_constant(w, 2.0, fam)
        assert rep.value >= 1.0 - 1e-12
        assert min(rep.per_cube) >= 1.0 - 1e-12


def test_ap_rejects_bad_weight():
    g = _grid(64)
    with pytest.raises(NonPositiveWeight):
        ap_constant(GridFunction(g, np.zeros(g.shape)), 2.0, enumerate_dyadic(g, 0, 2))


def test_a_dual_weight_that_overflows_is_refused():
    """w is 1e-200 on one cell: at p = 2, w^(1-p') = 1e200 is finite and
    w^(-p') = 1e400 overflows, so apq refuses and ap does not; at p = 1 +
    1e-7, w^(1-p') overflows too. Neither warns."""
    g = _grid(64)
    w = GridFunction(g, np.where(np.arange(64) == 0, 1e-200, 1.0))
    fam = enumerate_dyadic(g, 0, 2)
    assert np.isfinite(ap_constant(w, 2.0, fam).value)
    with pytest.raises(NonFiniteValues, match=r"^w\^-2 overflows on the grid$"):
        apq_constant(w, 2.0, 4.0, fam)
    with pytest.raises(NonFiniteValues, match=r"^w\^-1e\+07 overflows on the grid$"):
        ap_constant(w, 1.0000001, fam)


def test_apq_matches_hand_computation():
    g = _grid(128)
    w = _power_weight(g, 0.25)
    fam = enumerate_dyadic(g, 0, 0)  # just the box cube
    rep = apq_constant(w, 2.0, 4.0, fam)
    block = w.values
    expect = (np.mean(block**4.0)) ** 0.25 * (np.mean(block**-2.0)) ** 0.5
    assert rep.value == pytest.approx(float(expect), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-0.6, max_value=0.9),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_duality_identity_property(a, p):
    g = Grid((-1.0,), (1.0,), 128)
    w = GridFunction(g, np.abs(g.meshes()[0]) ** a)
    assert ap_duality_gap(w, p, enumerate_dyadic(g, 0, 3)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), p=st.sampled_from([1.5, 2.0, 4.0]))
def test_single_cube_matches_family_sup(seed, p):
    g = Grid((-1.0,), (1.0,), 64)
    rng = np.random.default_rng(seed)
    w = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
    fam = enumerate_dyadic(g, 0, 3)
    rep = ap_constant(w, p, fam)
    assert rep.value == pytest.approx(max(ap_cube(w, p, q) for q in fam), rel=1e-14)


def test_apq_refuses_q_of_at_most_1():
    g = Grid((-1.0,), (1.0,), 16)
    with pytest.raises(ValueError, match=r"^need q > 1, got 1.0$"):
        apq_constant(GridFunction(g, np.ones(16)), 2.0, 1.0, enumerate_dyadic(g, 0, 1))
