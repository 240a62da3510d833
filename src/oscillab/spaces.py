"""Banach function space norms on a grid.

Three space kinds share one interface: Lebesgue(p) with the plain p-norm,
Weighted(p, w) with norm (integral |f|^p w)^(1/p), and Variable(p(.)) with
the Luxemburg norm inf{lam > 0 : integral (|f|/lam)^p(x) dx <= 1}, found
by Newton's method on the modular in log lam, one solver for every row. The
associate space X' is the norm dual realized on the same grid:
Lebesgue(p)' = Lebesgue(p') and Weighted(p, w)' = Weighted(p', w^(1-p'))
exactly. For Variable(p(.)) the associate taken is Variable(p'(.)), whose
Luxemburg norm is only equivalent to the associate norm, not equal to it:
its Hoelder defect can exceed 1 (1.01647 has been measured; ROADMAP item 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ConjugateUndefined,
    ConvergenceFailure,
    DivisionByZeroNorm,
    GridMismatch,
    NonPositiveWeight,
)
from .grid import (
    Cube,
    CubeFamily,
    FamilySup,
    Grid,
    GridFunction,
)

MODULAR_TOL = 1e-10
MAX_NEWTON = 50


def conjugate_exponent(p: float) -> float:
    if p <= 1.0:
        raise ConjugateUndefined(f"p' undefined at p = {p}")
    return p / (p - 1.0)


class SpaceSpec:
    """Base class; concrete kinds are Lebesgue, Weighted, Variable.

    Each kind carries its own norm arithmetic, which the module functions
    dispatch to: `_norm(f)` (the norm of |f|), `_chi_norms(family)`,
    `_dual()` (the associate space) and `_extremizer(f)` (the g of the
    duality pairing that attains ||f||).
    """

    __slots__ = ("_associate_link",)

    def __init__(self):
        self._associate_link = None

    @property
    def grid(self) -> Grid | None:
        return None


class Lebesgue(SpaceSpec):
    __slots__ = ("p",)

    def __init__(self, p: float):
        super().__init__()
        p = float(p)
        if not (1.0 <= p < np.inf):
            raise ValueError(f"Lebesgue exponent must satisfy 1 <= p < inf, got {p}")
        self.p = p

    def __repr__(self):
        return f"Lebesgue({self.p:g})"

    def _norm(self, f: GridFunction) -> float:
        return float(np.sum(np.abs(f.values) ** self.p) * f.grid.cell_volume) ** (1.0 / self.p)

    def _chi_norms(self, family: CubeFamily) -> list[float]:
        return [meas ** (1.0 / self.p) for meas in family.measures]

    def _dual(self) -> "Lebesgue":
        return Lebesgue(conjugate_exponent(self.p))

    def _extremizer(self, f: GridFunction) -> GridFunction:
        return GridFunction(f.grid, np.sign(f.values) * np.abs(f.values) ** (self.p - 1.0))


def _check_weight(w: GridFunction):
    v = w.values
    if np.iscomplexobj(v) or np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise NonPositiveWeight("weight must be real, strictly positive, finite")


class Weighted(SpaceSpec):
    __slots__ = ("p", "weight")

    def __init__(self, p: float, weight: GridFunction):
        super().__init__()
        p = float(p)
        if not (1.0 <= p < np.inf):
            raise ValueError(f"weighted exponent must satisfy 1 <= p < inf, got {p}")
        _check_weight(weight)
        self.p = p
        self.weight = weight

    @property
    def grid(self) -> Grid:
        return self.weight.grid

    def __repr__(self):
        return f"Weighted({self.p:g}, w on {self.grid.shape})"

    def _norm(self, f: GridFunction) -> float:
        a = np.abs(f.values) ** self.p
        return float(np.sum(a * self.weight.values) * f.grid.cell_volume) ** (1.0 / self.p)

    def _chi_norms(self, family: CubeFamily) -> list[float]:
        sums = family.sums(self.weight.values) * family.grid.cell_volume
        return [s ** (1.0 / self.p) for s in sums.tolist()]

    def _dual(self) -> "Weighted":
        pp = conjugate_exponent(self.p)
        return Weighted(pp, GridFunction(self.grid, self.weight.values ** (1.0 - pp)))

    def _extremizer(self, f: GridFunction) -> GridFunction:
        a = np.abs(f.values) ** (self.p - 1.0)
        return GridFunction(f.grid, np.sign(f.values) * a * self.weight.values)


class Variable(SpaceSpec):
    """L^p(.) for an exponent p(.) sampled at cell centers, 1 < p- <= p+ < inf."""

    __slots__ = ("exponent", "p_minus", "p_plus")

    def __init__(self, exponent: GridFunction):
        super().__init__()
        if np.iscomplexobj(exponent.values):
            raise ValueError("exponent function must be real")
        self.exponent = exponent
        self.p_minus = float(np.min(exponent.values))
        self.p_plus = float(np.max(exponent.values))
        if self.p_minus <= 1.0:
            raise ValueError(f"variable space needs p- > 1, got p- = {self.p_minus}")

    @property
    def grid(self) -> Grid:
        return self.exponent.grid

    def __repr__(self):
        return f"Variable(p in [{self.p_minus:g}, {self.p_plus:g}])"

    def _norm(self, f: GridFunction) -> float:
        return luxemburg_norm(f, self)

    def _chi_norms(self, family: CubeFamily) -> list[float]:
        out = np.empty(len(family))
        for members, rows in family.gather(self.exponent.values):
            out[members] = _modular_lambdas(np.ones_like(rows), rows, family.grid.cell_volume)
        return out.tolist()

    def _dual(self) -> "Variable":
        p = self.exponent.values
        return Variable(GridFunction(self.grid, p / (p - 1.0)))

    def _extremizer(self, f: GridFunction) -> GridFunction:
        # normalize first so the pointwise power is scale-consistent
        a = np.abs(f.values) / norm(f, self)
        return GridFunction(f.grid, np.sign(f.values) * a ** (self.exponent.values - 1.0))


def associate(space: SpaceSpec) -> SpaceSpec:
    """The associate (Koethe dual) space X'. Involutive: the second call
    returns the original object, so X'' is X with exact field equality."""
    if space._associate_link is None:
        dual = space._dual()
        space._associate_link = dual
        dual._associate_link = space
    return space._associate_link


def _modular_lambdas(absrows: np.ndarray, prows: np.ndarray, cellvol: float) -> np.ndarray:
    """The Luxemburg lambda of every row of |f| and p: the root of
    sum cellvol (|f| / lam)^p = 1, and 0 for an all-zero row.

    Newton's method in t = log lam on log rho(t) = log sum cellvol
    exp(p (log|f| - t)), taken as a log-sum-exp, so no power overflows.
    log rho is convex with slope in [-p+, -p-], within (-inf, -1], so no
    bracket is needed: each step lands at or below the root and the next
    ones climb to it. Each row starts at t = log max|f| and drops out when
    its modular is within MODULAR_TOL of 1. Rows never mix, so a row's
    value does not depend on the rows it is solved with.
    """
    logf = np.full(absrows.shape, -np.inf)
    np.log(absrows, out=logf, where=absrows > 0.0)
    top = np.max(logf, axis=1)
    out = np.zeros(len(top))
    live = np.flatnonzero(top > -np.inf)
    t = top[live]
    for _ in range(MAX_NEWTON):
        p = prows[live]
        a = p * (logf[live] - t[:, None])
        peak = np.max(a, axis=1)
        w = np.exp(a - peak[:, None])
        total = np.sum(w, axis=1)
        log_rho = math.log(cellvol) + peak + np.log(total)
        # |rho - 1|, with log rho capped below exp's overflow: a capped row is far from 1
        residual = np.abs(np.expm1(np.minimum(log_rho, 700.0)))
        hit = residual <= MODULAR_TOL
        out[live[hit]] = np.exp(t[hit])
        # Newton step -log rho / slope; the slope is minus the w-weighted mean of p
        step = log_rho * total / np.sum(w * p, axis=1)
        live, t = live[~hit], (t + step)[~hit]
        if live.size == 0:
            return out
    worst = float(np.max(residual[~hit]))
    raise ConvergenceFailure(
        f"modular misses 1 by {worst:.3e} after {MAX_NEWTON} Newton steps", worst
    )


def luxemburg_norm(f: GridFunction, space: Variable) -> float:
    if f.grid != space.grid:
        raise GridMismatch("function and exponent live on different grids")
    lam = _modular_lambdas(
        np.abs(f.values).reshape(1, -1), space.exponent.values.reshape(1, -1), f.grid.cell_volume
    )
    return float(lam[0])


def norm(f: GridFunction, space: SpaceSpec) -> float:
    """The space norm of f, by quadrature (Lebesgue/Weighted) or Newton's
    method on the modular (Variable)."""
    if space.grid is not None and f.grid != space.grid:
        raise GridMismatch(f"function grid differs from {space!r} grid")
    return space._norm(f)


def chi_norm(space: SpaceSpec, cube: Cube, grid: Grid | None = None) -> float:
    """||chi_Q||: chi_norms of the one-cube family {Q}, so a closed form for
    Lebesgue/Weighted and a Newton solve for Variable. A given grid must be
    the space's own, when the space has one; a cube that leaves the box
    raises OutOfDomain."""
    g = grid if grid is not None else space.grid
    if g is None:
        raise ValueError("Lebesgue chi_norm needs an explicit grid")
    if space.grid is not None and g != space.grid:
        raise GridMismatch(f"cube grid differs from {space!r} grid")
    return space._chi_norms(CubeFamily(g, (cube,)))[0]


def chi_norms(space: SpaceSpec, family: CubeFamily) -> list[float]:
    """chi_norm of every cube of the family, in family order, bit for bit:
    block sums from the family's cell index, and one Newton solve over the
    rows of each group of equal-shaped cubes for Variable."""
    if space.grid is not None:
        try:
            family.check_grid(space.grid)
        except GridMismatch as e:
            raise GridMismatch(f"{space!r}: {e}") from None
    return space._chi_norms(family)


def holder_defect(f: GridFunction, g: GridFunction, space: SpaceSpec) -> float:
    """integral |f g| / (||f||_X ||g||_X'). At most 1 for Lebesgue/Weighted;
    bounded by the variable-exponent Hoelder constant otherwise."""
    nf = norm(f, space)
    ng = norm(g, associate(space))
    if nf == 0.0 or ng == 0.0:
        raise DivisionByZeroNorm("Hoelder defect needs nonzero norms")
    prod = float(np.sum(np.abs(f.values * g.values)) * f.grid.cell_volume)
    return prod / (nf * ng)


def duality_gap(f: GridFunction, space: SpaceSpec, trials: int = 32, seed: int = 0) -> float:
    """sup over sampled g of integral(f g) / (||f||_X ||g||_X').

    The sample always includes the analytic extremizer, so the result sits in
    [1 - eps, 1 + eps] for Lebesgue/Weighted; random probes alone only give a
    lower bound.
    """
    nf = norm(f, space)
    if nf == 0.0:
        raise DivisionByZeroNorm("duality gap of the zero function")
    dual = associate(space)
    rng = np.random.default_rng(seed)
    candidates = [space._extremizer(f)]
    for _ in range(trials):
        candidates.append(GridFunction(f.grid, rng.standard_normal(f.grid.shape)))
    best = 0.0
    for g in candidates:
        ng = norm(g, dual)
        if ng == 0.0:
            continue
        pairing = float(np.sum(f.values * g.values) * f.grid.cell_volume)
        best = max(best, pairing / (nf * ng))
    return best


def _alpha_check(alpha: float, D: int):
    """Refuse a fractional order outside [0, D) on R^D."""
    if not 0.0 <= alpha < D:
        raise AlphaOutOfRange(f"need 0 <= alpha < {D}, got {alpha}")


def _condition(Xs: tuple[SpaceSpec, ...], Y: SpaceSpec, alpha: float, family: CubeFamily) -> FamilySup:
    """sup over Q of |Q|^(-alpha/n) ||chi_Q||_Y' prod_i ||chi_Q||_Xi / |Q|.

    One power of |Q| for any number of input spaces: stage (v) of the chain
    is free of scale exactly when this quantity is bounded, for linear and
    bilinear operators alike.
    """
    n = family.grid.n
    _alpha_check(alpha, len(Xs) * n)
    chi_yd = chi_norms(associate(Y), family)
    chi_xs = [chi_norms(X, family) for X in Xs]
    vals = [
        math.prod([meas ** (-alpha / n), cy, *cxs]) / meas
        for meas, cy, *cxs in zip(family.measures, chi_yd, *chi_xs)
    ]
    return FamilySup.of(family, vals)


def condition_linear(
    X: SpaceSpec,
    Y: SpaceSpec,
    alpha: float,
    family: CubeFamily,
) -> FamilySup:
    """sup over Q of |Q|^(-alpha/n) ||chi_Q||_Y' ||chi_Q||_X / |Q|.

    Equal to 1 on every cube for X = Y = Lebesgue(p), alpha = 0, and to the
    per-cube A_p(Q)^(1/p) for X = Y = Weighted(p, w).
    """
    return _condition((X,), Y, alpha, family)


def condition_bilinear(
    X1: SpaceSpec,
    X2: SpaceSpec,
    Y: SpaceSpec,
    alpha: float,
    family: CubeFamily,
) -> FamilySup:
    """sup over Q of |Q|^(-alpha/n) ||chi_Q||_Y' ||chi_Q||_X1 ||chi_Q||_X2 / |Q|.

    Equal to 1 on every cube for Lebesgue(p1) x Lebesgue(p2) -> Lebesgue(p)
    with 1/p = 1/p1 + 1/p2, alpha = 0. For Weighted(p1, w1) x Weighted(p2, w2)
    -> Weighted(p, w1^(p/p1) w2^(p/p2)) the per-cube value is
    fa(v^(1-p'))^(1/p') fa(w1)^(1/p1) fa(w2)^(1/p2), v the target weight and
    fa the cell average over Q: the dual side of the multiple-weight A_P
    condition (Lerner, Ombrosi, Perez, Torres, Trujillo-Gonzalez 2009).
    """
    return _condition((X1, X2), Y, alpha, family)


def chiQ_norm_ratio(space: Variable, family: CubeFamily) -> FamilySup:
    """Ratios ||chi_Q||_p(.) / |Q|^(1/p_Q) with 1/p_Q the cube mean of 1/p.

    For log-Hoelder-regular exponents the ratios stay pinched near 1; wild
    exponents show up as a spreading min/max band.
    """
    chis = chi_norms(space, family)
    p_q = [1.0 / m for m in family.means(1.0 / space.exponent.values).tolist()]
    return FamilySup.of(family, [chi / meas ** (1.0 / pq) for chi, meas, pq in zip(chis, family.measures, p_q)])
