"""Muckenhoupt-type constants over finite cube families.

Every constant is a sup of a per-cube product of cell averages, reported
together with the argmax cube. With fa denoting the cell average over Q:

  ap:          fa(w) * fa(w^(1-p'))^(p-1)
  apq:         fa(w^q)^(1/q) * fa(w^(-p'))^(1/p')

The bilinear weighted quantity of the multiple-weight theory is a
condition on weighted spaces; `spaces.condition_bilinear` computes it.

Desk-scale membership reads off the sweep behavior of these sups, not a
single number; see the weight-constants experiment.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonFiniteValues
from .grid import CubeFamily, FamilySup, GridFunction
from .spaces import _check_weight, conjugate_exponent


def _family_sup(family: CubeFamily, arrays, per_cube: Callable) -> FamilySup:
    """sup over the family of per_cube(fa(a) for a in arrays), with fa the
    cell average over Q; the scalar arithmetic stays in Python floats."""
    averages = [family.means(a).tolist() for a in arrays]
    return FamilySup.of(family, [per_cube(*fa) for fa in zip(*averages)])


def _power(w: GridFunction, e: float) -> np.ndarray:
    """w^e, refused with NonFiniteValues, and no numpy warning, when it
    overflows on some cell."""
    with np.errstate(over="ignore"):
        out = w.values**e
    if not np.all(np.isfinite(out)):
        raise NonFiniteValues(f"w^{e:.6g} overflows on the grid")
    return out


def ap_constant(w: GridFunction, p: float, family: CubeFamily) -> FamilySup:
    _check_weight(w)
    family.check_grid(w.grid)
    pp = conjugate_exponent(p)
    dual = _power(w, 1.0 - pp)
    return _family_sup(family, (w.values, dual), lambda a, d: a * d ** (p - 1.0))


def apq_constant(w: GridFunction, p: float, q: float, family: CubeFamily) -> FamilySup:
    """Fractional-scale constant; callers pair it with 1/p - 1/q = alpha/n."""
    _check_weight(w)
    family.check_grid(w.grid)
    if q <= 1.0:
        raise ValueError(f"need q > 1, got {q}")
    pp = conjugate_exponent(p)
    return _family_sup(
        family,
        (w.values**q, _power(w, -pp)),
        lambda a, b: a ** (1.0 / q) * b ** (1.0 / pp),
    )


def ap_duality_gap(w: GridFunction, p: float, family: CubeFamily) -> float:
    """max over Q of the relative defect in A_p'(w^(1-p'), Q) = A_p(w, Q)^(p'-1).

    The identity is exact algebraically; the measured gap is float noise. A
    NaN defect (an overflowed dual weight) makes the gap NaN.
    """
    family.check_grid(w.grid)
    pp = conjugate_exponent(p)
    ppp = conjugate_exponent(pp)
    dual = w.values ** (1.0 - pp)

    def defect(a: float, d: float, dd: float) -> float:
        lhs = d * dd ** (pp - 1.0)
        rhs = (a * d ** (p - 1.0)) ** (pp - 1.0)
        return abs(lhs - rhs) / max(1.0, abs(rhs))

    return _family_sup(family, (w.values, dual, dual ** (1.0 - ppp)), defect).value
