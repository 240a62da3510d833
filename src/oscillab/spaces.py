"""Banach function space norms on a grid.

Three space kinds share one interface: Lebesgue(p) with the plain p-norm,
Weighted(p, w) with norm (integral |f|^p w)^(1/p), and Variable(p(.)) with
the Luxemburg norm inf{lam > 0 : integral (|f|/lam)^p(x) dx <= 1}. The
associate space X' is the norm dual realized on the same grid:
Lebesgue(p)' = Lebesgue(p'), Weighted(p, w)' = Weighted(p', w^(1-p')), and
Variable(p(.))' = Variable(p'(.)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    BracketFailure,
    ConjugateUndefined,
    ConvergenceFailure,
    DivisionByZeroNorm,
    GridMismatch,
    NonPositiveWeight,
    NormUnavailable,
)
from .grid import (
    Cube,
    CubeFamily,
    Grid,
    GridFunction,
    cube_measure,
    cube_slices,
)

MODULAR_TOL = 1e-10
MAX_DOUBLINGS = 60
MAX_BISECTIONS = 200


def conjugate_exponent(p: float) -> float:
    if p <= 1.0:
        raise ConjugateUndefined(f"p' undefined at p = {p}")
    return p / (p - 1.0)


class ExponentFunction:
    """A variable exponent p(.) sampled at cell centers, 1 <= p- <= p+ < inf."""

    __slots__ = ("fn", "p_minus", "p_plus")

    def __init__(self, fn: GridFunction):
        vals = fn.values
        if np.iscomplexobj(vals):
            raise ValueError("exponent function must be real")
        self.fn = fn
        self.p_minus = float(np.min(vals))
        self.p_plus = float(np.max(vals))
        if self.p_minus < 1.0 or not np.isfinite(self.p_plus):
            raise ValueError(
                f"need 1 <= p- <= p+ < inf, got [{self.p_minus}, {self.p_plus}]"
            )

    @classmethod
    def constant(cls, grid: Grid, p: float) -> "ExponentFunction":
        return cls(GridFunction(grid, np.full(grid.shape, float(p))))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "ExponentFunction":
        return cls(GridFunction.from_callable(grid, fn))

    @property
    def grid(self) -> Grid:
        return self.fn.grid

    @property
    def values(self) -> np.ndarray:
        return self.fn.values

    def conjugate(self) -> "ExponentFunction":
        if self.p_minus <= 1.0:
            raise ConjugateUndefined(f"p'(.) undefined: p- = {self.p_minus}")
        return ExponentFunction(GridFunction(self.grid, self.values / (self.values - 1.0)))

    def harmonic_mean_over(self, cube: Cube) -> float:
        """p_Q with 1/p_Q = cell average of 1/p over Q."""
        block = self.values[cube_slices(self.grid, cube)]
        return 1.0 / float(np.mean(1.0 / block))


class SpaceSpec:
    """Base class; concrete kinds are Lebesgue, Weighted, Variable."""

    __slots__ = ("_associate_link",)

    def __init__(self):
        self._associate_link = None

    @property
    def kind(self) -> str:
        return type(self).__name__.lower()

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

    def __eq__(self, other):
        return isinstance(other, Lebesgue) and other.p == self.p

    def __hash__(self):
        return hash(("lebesgue", self.p))

    def __repr__(self):
        return f"Lebesgue({self.p:g})"


class Weighted(SpaceSpec):
    __slots__ = ("p", "weight")

    def __init__(self, p: float, weight: GridFunction):
        super().__init__()
        p = float(p)
        if not (1.0 <= p < np.inf):
            raise ValueError(f"weighted exponent must satisfy 1 <= p < inf, got {p}")
        w = weight.values
        if np.iscomplexobj(w) or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise NonPositiveWeight("weight must be real, strictly positive, finite")
        self.p = p
        self.weight = weight

    @property
    def grid(self) -> Grid:
        return self.weight.grid

    def __eq__(self, other):
        return (
            isinstance(other, Weighted)
            and other.p == self.p
            and other.grid == self.grid
            and np.array_equal(other.weight.values, self.weight.values)
        )

    def __repr__(self):
        return f"Weighted({self.p:g}, w on {self.grid.shape})"


class Variable(SpaceSpec):
    __slots__ = ("exponent",)

    def __init__(self, exponent: ExponentFunction):
        super().__init__()
        if exponent.p_minus <= 1.0:
            raise ValueError(
                f"variable space needs p- > 1, got p- = {exponent.p_minus}"
            )
        self.exponent = exponent

    @property
    def grid(self) -> Grid:
        return self.exponent.grid

    def __eq__(self, other):
        return (
            isinstance(other, Variable)
            and other.grid == self.grid
            and np.array_equal(other.exponent.values, self.exponent.values)
        )

    def __repr__(self):
        e = self.exponent
        return f"Variable(p in [{e.p_minus:g}, {e.p_plus:g}])"


def associate(space: SpaceSpec) -> SpaceSpec:
    """The associate (Koethe dual) space X'. Involutive: the second call
    returns the original object, so X'' is X with exact field equality."""
    if space._associate_link is not None:
        return space._associate_link
    if isinstance(space, Lebesgue):
        dual = Lebesgue(conjugate_exponent(space.p))
    elif isinstance(space, Weighted):
        pp = conjugate_exponent(space.p)
        wdual = GridFunction(space.grid, space.weight.values ** (1.0 - pp))
        dual = Weighted(pp, wdual)
    elif isinstance(space, Variable):
        dual = Variable(space.exponent.conjugate())
    else:
        raise NormUnavailable(f"no associate for {space!r}")
    space._associate_link = dual
    dual._associate_link = space
    return dual


def _check_grid(f: GridFunction, space: SpaceSpec):
    sg = space.grid
    if sg is not None and f.grid != sg:
        raise GridMismatch(f"function grid differs from {space!r} grid")


def _luxemburg_lambda(absvals: np.ndarray, pvals: np.ndarray, cellvol: float) -> float:
    """Solve modular(f/lam) = 1 by bracketing + bisection on the strictly
    decreasing map lam -> integral (|f|/lam)^p(x). Stops when the modular is
    within MODULAR_TOL of 1."""
    amax = float(np.max(absvals))
    if amax == 0.0:
        return 0.0

    def modular(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum((absvals / lam) ** pvals) * cellvol)

    lam = amax if amax > 0 else 1.0
    rho = modular(lam)
    if rho >= 1.0:
        lo = lam
        hi = lam
        for _ in range(MAX_DOUBLINGS):
            hi *= 2.0
            if modular(hi) <= 1.0:
                break
        else:
            raise BracketFailure("no upper bracket after 60 doublings")
    else:
        hi = lam
        lo = lam
        for _ in range(MAX_DOUBLINGS):
            lo /= 2.0
            if modular(lo) >= 1.0:
                break
        else:
            raise BracketFailure("no lower bracket after 60 halvings")

    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        r = modular(mid)
        if abs(r - 1.0) <= MODULAR_TOL:
            return mid
        if r > 1.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceFailure(
        f"modular misses 1 by {abs(r - 1.0):.3e} after {MAX_BISECTIONS} bisections", abs(r - 1.0)
    )


def _chi_lambdas(pvals: np.ndarray, cellvol: float) -> list[float]:
    """_luxemburg_lambda(ones, row, cellvol) for every row of pvals at once.

    The rows run the scalar bracket and bisection in lockstep on (rows,
    cells) arrays and drop out as they meet MODULAR_TOL, so each row does
    exactly the scalar arithmetic: |f| / lam is materialized before the
    power and each modular is one contiguous row sum.
    """
    ones = np.ones_like(pvals)

    def modular(lam: np.ndarray, live: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.sum((ones[live] / lam[:, None]) ** pvals[live], axis=1) * cellvol

    every = np.arange(pvals.shape[0])
    start = np.ones(len(every))  # max |f| of a row of ones
    up = modular(start, every) >= 1.0
    edge = start.copy()
    live = every
    for _ in range(MAX_DOUBLINGS):
        edge[live] = np.where(up[live], edge[live] * 2.0, edge[live] / 2.0)
        r = modular(edge[live], live)
        live = live[~np.where(up[live], r <= 1.0, r >= 1.0)]
        if live.size == 0:
            break
    else:
        side = "upper bracket after 60 doublings" if up[live[0]] else "lower bracket after 60 halvings"
        raise BracketFailure(f"no {side}")
    lo = np.where(up, start, edge)
    hi = np.where(up, edge, start)

    out = np.empty(len(every))
    live = every
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo[live] + hi[live])
        r = modular(mid, live)
        hit = np.abs(r - 1.0) <= MODULAR_TOL
        out[live[hit]] = mid[hit]
        high = r > 1.0
        lo[live] = np.where(high, mid, lo[live])
        hi[live] = np.where(high, hi[live], mid)
        live = live[~hit]
        if live.size == 0:
            return out.tolist()
    worst = float(np.max(np.abs(r[~hit] - 1.0)))
    raise ConvergenceFailure(
        f"modular misses 1 by {worst:.3e} after {MAX_BISECTIONS} bisections", worst
    )


def luxemburg_norm(f: GridFunction, exponent: ExponentFunction) -> float:
    if f.grid != exponent.grid:
        raise GridMismatch("function and exponent live on different grids")
    return _luxemburg_lambda(
        np.abs(f.values).reshape(-1),
        exponent.values.reshape(-1),
        f.grid.cell_volume,
    )


def norm(f: GridFunction, space: SpaceSpec) -> float:
    """The space norm of f, by quadrature (Lebesgue/Weighted) or bisection."""
    _check_grid(f, space)
    a = np.abs(f.values)
    vol = f.grid.cell_volume
    if isinstance(space, Lebesgue):
        return float(np.sum(a**space.p) * vol) ** (1.0 / space.p)
    if isinstance(space, Weighted):
        return float(np.sum(a**space.p * space.weight.values) * vol) ** (1.0 / space.p)
    if isinstance(space, Variable):
        return luxemburg_norm(f, space.exponent)
    raise NormUnavailable(f"cannot evaluate norm in {space!r}")


def chi_norm(space: SpaceSpec, cube: Cube, grid: Grid | None = None) -> float:
    """||chi_Q|| in closed form for Lebesgue/Weighted, by bisection otherwise."""
    g = space.grid if space.grid is not None else grid
    if g is None:
        raise ValueError("Lebesgue chi_norm needs an explicit grid")
    meas = cube_measure(g, cube)
    if isinstance(space, Lebesgue):
        return meas ** (1.0 / space.p)
    if isinstance(space, Weighted):
        block = space.weight.values[cube_slices(g, cube)]
        return float(np.sum(block) * g.cell_volume) ** (1.0 / space.p)
    if isinstance(space, Variable):
        pblk = space.exponent.values[cube_slices(g, cube)]
        return _luxemburg_lambda(
            np.ones(pblk.size), pblk.reshape(-1), g.cell_volume
        )
    raise NormUnavailable(f"cannot evaluate chi norm in {space!r}")


def chi_norms(space: SpaceSpec, family: CubeFamily, grid: Grid | None = None) -> list[float]:
    """chi_norm of every cube of the family, in family order, bit for bit:
    block sums from the family index, and one lockstep bisection per group
    of equal-shaped cubes for Variable."""
    g = space.grid if space.grid is not None else grid
    if g is None:
        raise ValueError("Lebesgue chi_norm needs an explicit grid")
    index = family.index(g)
    if isinstance(space, Lebesgue):
        return [meas ** (1.0 / space.p) for meas in index.measures]
    if isinstance(space, Weighted):
        sums = index.sums(space.weight.values) * g.cell_volume
        return [s ** (1.0 / space.p) for s in sums.tolist()]
    if isinstance(space, Variable):
        out = [0.0] * len(index)
        for members, rows in index.gather(space.exponent.values):
            for i, lam in zip(members.tolist(), _chi_lambdas(rows, g.cell_volume)):
                out[i] = lam
        return out
    raise NormUnavailable(f"cannot evaluate chi norm in {space!r}")


def holder_defect(f: GridFunction, g: GridFunction, space: SpaceSpec) -> float:
    """integral |f g| / (||f||_X ||g||_X'). At most 1 for Lebesgue/Weighted;
    bounded by the variable-exponent Hoelder constant otherwise."""
    nf = norm(f, space)
    ng = norm(g, associate(space))
    if nf == 0.0 or ng == 0.0:
        raise DivisionByZeroNorm("Hoelder defect needs nonzero norms")
    prod = float(np.sum(np.abs(f.values * g.values)) * f.grid.cell_volume)
    return prod / (nf * ng)


def _extremizer(f: GridFunction, space: SpaceSpec) -> GridFunction:
    a = np.abs(f.values)
    s = np.sign(f.values)
    if isinstance(space, Lebesgue):
        return GridFunction(f.grid, s * a ** (space.p - 1.0))
    if isinstance(space, Weighted):
        return GridFunction(f.grid, s * a ** (space.p - 1.0) * space.weight.values)
    # Variable: normalize first so the pointwise power is scale-consistent.
    nf = norm(f, space)
    return GridFunction(f.grid, s * (a / nf) ** (space.exponent.values - 1.0))


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
    candidates = [_extremizer(f, space)]
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


@dataclass(frozen=True)
class ConditionReport:
    """Sup of a per-cube quantity over a family, with the argmax cube."""

    value: float
    argmax: Cube
    per_cube: tuple[float, ...]
    provenance: str


def _resolve_grid(grid: Grid | None, *spaces: SpaceSpec) -> Grid:
    for s in spaces:
        if s.grid is not None:
            if grid is not None and s.grid != grid:
                raise GridMismatch("spaces disagree about the grid")
            grid = s.grid
    if grid is None:
        raise ValueError("all-Lebesgue condition needs an explicit grid")
    return grid


def condition_linear(
    X: SpaceSpec,
    Y: SpaceSpec,
    alpha: float,
    family: CubeFamily,
    grid: Grid | None = None,
) -> ConditionReport:
    """sup over Q of |Q|^(-alpha/n) ||chi_Q||_Y' ||chi_Q||_X / |Q|.

    Equal to 1 on every cube for X = Y = Lebesgue(p), alpha = 0, and to the
    per-cube A_p(Q)^(1/p) for X = Y = Weighted(p, w).
    """
    g = _resolve_grid(grid, X, Y)
    n = g.n
    if not 0.0 <= alpha < n:
        raise AlphaOutOfRange(f"need 0 <= alpha < n = {n}, got {alpha}")
    measures = family.index(g).measures
    chi_yd = chi_norms(associate(Y), family, g)
    chi_x = chi_norms(X, family, g)
    vals = [
        meas ** (-alpha / n) * cy * cx / meas
        for meas, cy, cx in zip(measures, chi_yd, chi_x)
    ]
    arg = int(np.argmax(vals))
    return ConditionReport(float(vals[arg]), family.cubes[arg], tuple(vals), family.provenance)


def condition_bilinear(
    X1: SpaceSpec,
    X2: SpaceSpec,
    Y: SpaceSpec,
    alpha: float,
    family: CubeFamily,
    grid: Grid | None = None,
) -> ConditionReport:
    """sup over Q of |Q|^(-alpha/n) ||chi_Q||_Y' ||chi_Q||_X1 ||chi_Q||_X2 / |Q|^2."""
    g = _resolve_grid(grid, X1, X2, Y)
    n = g.n
    if not 0.0 <= alpha < 2 * n:
        raise AlphaOutOfRange(f"need 0 <= alpha < 2n = {2 * n}, got {alpha}")
    measures = family.index(g).measures
    chi_yd = chi_norms(associate(Y), family, g)
    chi_x1 = chi_norms(X1, family, g)
    chi_x2 = chi_norms(X2, family, g)
    vals = [
        meas ** (-alpha / n) * cy * c1 * c2 / meas**2
        for meas, cy, c1, c2 in zip(measures, chi_yd, chi_x1, chi_x2)
    ]
    arg = int(np.argmax(vals))
    return ConditionReport(float(vals[arg]), family.cubes[arg], tuple(vals), family.provenance)


@dataclass(frozen=True)
class NormRatioReport:
    """Extremes of ||chi_Q|| / |Q|^(1/p_Q) over a family."""

    min_value: float
    max_value: float
    argmin: Cube
    argmax: Cube
    per_cube: tuple[float, ...]


def chiQ_norm_ratio(exponent: ExponentFunction, family: CubeFamily) -> NormRatioReport:
    """Ratios ||chi_Q||_p(.) / |Q|^(1/p_Q) with 1/p_Q the cube mean of 1/p.

    For log-Hoelder-regular exponents the ratios stay pinched near 1; wild
    exponents show up as a spreading min/max band.
    """
    index = family.index(exponent.grid)
    p_q = [1.0 / m for m in index.means(1.0 / exponent.values).tolist()]
    chis = chi_norms(Variable(exponent), family)
    vals = [chi / meas ** (1.0 / pq) for chi, meas, pq in zip(chis, index.measures, p_q)]
    lo = int(np.argmin(vals))
    hi = int(np.argmax(vals))
    return NormRatioReport(
        float(vals[lo]), float(vals[hi]), family.cubes[lo], family.cubes[hi], tuple(vals)
    )
