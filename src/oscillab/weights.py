"""Muckenhoupt-type constants over finite cube families.

Every constant is a sup of a per-cube product of cell averages, reported
together with the argmax cube. With fa denoting the cell average over Q:

  ap:          fa(w) * fa(w^(1-p'))^(p-1)
  apq:         fa(w^q)^(1/q) * fa(w^(-p'))^(1/p')
  vector ap:   fa(w)^(1/p) * fa(w1^(1-p1'))^(1/p1') * fa(w2^(1-p2'))^(1/p2'),
               w = w1^(p/p1) * w2^(p/p2)
  vector apq:  fa(w^q)^(1/q) * fa(w1^(-p1'))^(1/p1') * fa(w2^(-p2'))^(1/p2'),
               w = w1 * w2

Desk-scale membership reads off the sweep behavior of these sups, not a
single number; see the weight-constants experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveWeight
from .grid import Cube, CubeFamily, Grid, GridFunction, cube_slices
from .spaces import conjugate_exponent


@dataclass(frozen=True)
class ConstantReport:
    value: float
    argmax: Cube
    per_cube: tuple[float, ...]
    provenance: str


@dataclass(frozen=True)
class PVec:
    """Bilinear exponent tuple (p1, p2) with 1/p = 1/p1 + 1/p2."""

    p1: float
    p2: float

    def __post_init__(self):
        if self.p1 <= 1.0 or self.p2 <= 1.0:
            raise ValueError("need p1, p2 > 1")

    @property
    def p(self) -> float:
        return 1.0 / (1.0 / self.p1 + 1.0 / self.p2)


class WeightTuple:
    """Component weights (w1, w2) and the derived weight for each case."""

    __slots__ = ("w1", "w2")

    def __init__(self, w1: GridFunction, w2: GridFunction):
        for w in (w1, w2):
            _check_weight(w)
        if w1.grid != w2.grid:
            raise ValueError("weight components live on different grids")
        self.w1 = w1
        self.w2 = w2

    @property
    def grid(self) -> Grid:
        return self.w1.grid

    def balanced_weight(self, pvec: PVec) -> GridFunction:
        """w = w1^(p/p1) * w2^(p/p2), the derived weight of the singular case."""
        p = pvec.p
        vals = self.w1.values ** (p / pvec.p1) * self.w2.values ** (p / pvec.p2)
        return GridFunction(self.grid, vals)

    def product_weight(self) -> GridFunction:
        """w = w1 * w2, the derived weight of the fractional case."""
        return GridFunction(self.grid, self.w1.values * self.w2.values)


def _check_weight(w: GridFunction):
    v = w.values
    if np.iscomplexobj(v) or np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise NonPositiveWeight("weight must be real, strictly positive, finite")


def _family_sup(grid: Grid, family: CubeFamily, arrays, per_cube: Callable) -> ConstantReport:
    """sup over the family of per_cube(fa(a) for a in arrays), with fa the
    cell average over Q; the scalar arithmetic stays in Python floats."""
    index = family.index(grid)
    averages = [index.means(a).tolist() for a in arrays]
    per = [per_cube(*fa) for fa in zip(*averages)]
    arg = int(np.argmax(per))
    return ConstantReport(float(per[arg]), family.cubes[arg], tuple(per), family.provenance)


def ap_cube(w: GridFunction, p: float, cube: Cube) -> float:
    """A_p quantity of a single cube."""
    pp = conjugate_exponent(p)
    block = w.values[cube_slices(w.grid, cube)]
    fa_w = float(np.sum(block) / block.size)
    fa_dual = float(np.sum(block ** (1.0 - pp)) / block.size)
    return fa_w * fa_dual ** (p - 1.0)


def ap_constant(w: GridFunction, p: float, family: CubeFamily) -> ConstantReport:
    _check_weight(w)
    pp = conjugate_exponent(p)
    dual = w.values ** (1.0 - pp)
    return _family_sup(w.grid, family, (w.values, dual), lambda a, d: a * d ** (p - 1.0))


def apq_constant(w: GridFunction, p: float, q: float, family: CubeFamily) -> ConstantReport:
    """Fractional-scale constant; callers pair it with 1/p - 1/q = alpha/n."""
    _check_weight(w)
    if q <= 1.0:
        raise ValueError(f"need q > 1, got {q}")
    pp = conjugate_exponent(p)
    return _family_sup(
        w.grid,
        family,
        (w.values**q, w.values ** (-pp)),
        lambda a, b: a ** (1.0 / q) * b ** (1.0 / pp),
    )


def vector_ap_constant(t: WeightTuple, pvec: PVec, family: CubeFamily) -> ConstantReport:
    p1p = conjugate_exponent(pvec.p1)
    p2p = conjugate_exponent(pvec.p2)
    p = pvec.p
    return _family_sup(
        t.grid,
        family,
        (t.balanced_weight(pvec).values, t.w1.values ** (1.0 - p1p), t.w2.values ** (1.0 - p2p)),
        lambda a, b, c: a ** (1.0 / p) * b ** (1.0 / p1p) * c ** (1.0 / p2p),
    )


def vector_apq_constant(
    t: WeightTuple, pvec: PVec, q: float, family: CubeFamily
) -> ConstantReport:
    if q <= 1.0:
        raise ValueError(f"need q > 1, got {q}")
    p1p = conjugate_exponent(pvec.p1)
    p2p = conjugate_exponent(pvec.p2)
    return _family_sup(
        t.grid,
        family,
        (t.product_weight().values ** q, t.w1.values ** (-p1p), t.w2.values ** (-p2p)),
        lambda a, b, c: a ** (1.0 / q) * b ** (1.0 / p1p) * c ** (1.0 / p2p),
    )


def bilinear_dual_quantity(t: WeightTuple, pvec: PVec, family: CubeFamily) -> ConstantReport:
    """sup of fa(w^(1-p'))^(1/p') * fa(w1)^(1/p1) * fa(w2)^(1/p2) with the
    balanced w; the dual-side companion of vector_ap_constant."""
    pp = conjugate_exponent(pvec.p)
    return _family_sup(
        t.grid,
        family,
        (t.balanced_weight(pvec).values ** (1.0 - pp), t.w1.values, t.w2.values),
        lambda a, b, c: a ** (1.0 / pp) * b ** (1.0 / pvec.p1) * c ** (1.0 / pvec.p2),
    )


def bilinear_frac_dual_quantity(
    t: WeightTuple, pvec: PVec, q: float, family: CubeFamily
) -> ConstantReport:
    """sup of fa(w^(-q'))^(1/q') * fa(w1^p1)^(1/p1) * fa(w2^p2)^(1/p2) with
    w = w1 w2; the dual-side companion of vector_apq_constant."""
    qp = conjugate_exponent(q)
    return _family_sup(
        t.grid,
        family,
        (t.product_weight().values ** (-qp), t.w1.values**pvec.p1, t.w2.values**pvec.p2),
        lambda a, b, c: a ** (1.0 / qp) * b ** (1.0 / pvec.p1) * c ** (1.0 / pvec.p2),
    )


def reverse_holder_defect(t: WeightTuple, pvec: PVec, family: CubeFamily) -> ConstantReport:
    """sup of fa(w1)^(p/p1) * fa(w2)^(p/p2) / fa(w) with the balanced w.

    Jensen gives a defect >= 1 cube by cube; boundedness above is the
    multi-weight reverse-Hoelder behavior. Components are sanity-checked for
    finite ap constants on the same family first.
    """
    for w, pe in ((t.w1, pvec.p1), (t.w2, pvec.p2)):
        rep = ap_constant(w, pe, family)
        if not np.isfinite(rep.value):
            raise NonPositiveWeight(
                f"component weight fails finite A_p on {family.provenance}"
            )
    p = pvec.p
    return _family_sup(
        t.grid,
        family,
        (t.w1.values, t.w2.values, t.balanced_weight(pvec).values),
        lambda a, b, w: a ** (p / pvec.p1) * b ** (p / pvec.p2) / w,
    )


def ap_duality_gap(w: GridFunction, p: float, family: CubeFamily) -> float:
    """max over Q of the relative defect in A_p'(w^(1-p'), Q) = A_p(w, Q)^(p'-1).

    The identity is exact algebraically; the measured gap is float noise.
    """
    pp = conjugate_exponent(p)
    ppp = conjugate_exponent(pp)
    dual = w.values ** (1.0 - pp)
    index = family.index(w.grid)
    fa_w, fa_d, fa_dd = (index.means(a).tolist() for a in (w.values, dual, dual ** (1.0 - ppp)))
    worst = 0.0
    for a, d, dd in zip(fa_w, fa_d, fa_dd):
        lhs = d * dd ** (pp - 1.0)
        rhs = (a * d ** (p - 1.0)) ** (pp - 1.0)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst
