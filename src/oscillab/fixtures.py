"""Built-in named fixtures: kernels, weights, symbols, exponents and spaces.

`FIXTURES` is the one table of names: kind -> name -> builder. Names are
stable strings used by configs and reports. An entry written
"prefix:<param>" takes a parameter after the colon, e.g. "power:0.5",
"frac_alpha:0.5" or "weighted:2:power:0.5". A builder takes (target, param):
the target is the grid, or the base dimension for kernels, and param is the
text after the colon ("" for plain names). It raises ValueError for a
parameter or grid it cannot use (AlphaOutOfRange for a kernel's order).
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid, GridFunction
from .operators import KernelSpec, distance_kernel
from .spaces import Lebesgue, Variable, Weighted


def _radius(grid: Grid) -> np.ndarray:
    return np.sqrt(sum(m * m for m in grid.meshes()))


def _log_radius(grid: Grid, name: str) -> np.ndarray:
    """log|x|, which blows up at the origin: grids whose cell centers avoid
    it (any even m on a box symmetric about 0) are the only ones allowed."""
    r = _radius(grid)
    if np.any(r == 0.0):
        raise ValueError(f"symbol {name!r} undefined: a cell center sits at the origin")
    return np.log(r)


def _odd(n: int, name: str, dim: int, j: int) -> KernelSpec:
    """The kernel x_j / |x|^(dim + 1), which lives in dimension `dim` only."""
    if n != dim:
        raise ValueError(f"{name} kernel lives in dimension {dim}")
    return KernelSpec(1, dim, 0.0, lambda t: t[..., j], name=name)


def _power(grid: Grid, a: str) -> GridFunction:
    a = float(a)
    r = _radius(grid)
    if a != 0.0 and np.any(r == 0.0):
        raise ValueError("power weight hits a cell center at the origin; use an even m")
    return GridFunction(grid, r**a)


def _weighted(grid: Grid, param: str) -> Weighted:
    p, _, weight = param.partition(":")
    return Weighted(float(p), make_weight(weight, grid))


FIXTURES = {
    "kernel": {
        "hilbert": lambda n, _: _odd(n, "hilbert", 1, 0),
        "riesz_1": lambda n, _: _odd(n, "riesz_1", 2, 0),
        "riesz_2": lambda n, _: _odd(n, "riesz_2", 2, 1),
        "bilinear_riesz": lambda n, _: KernelSpec(2, n, 0.0, lambda t: t[..., 0], name="bilinear_riesz"),
        "frac_alpha:<alpha>": lambda n, a: KernelSpec(
            1, n, float(a), lambda t: np.ones(t.shape[:-1]), name=f"frac_alpha:{a}"
        ),
        "bilinear_frac_alpha:<alpha>": lambda n, a: distance_kernel(n, float(a)),
    },
    "weight": {"power:<a>": _power},
    "symbol": {
        "log_abs": lambda g, _: GridFunction(g, _log_radius(g, "log_abs")),
        "abs": lambda g, _: GridFunction(g, _radius(g)),
        "sgn_log": lambda g, _: GridFunction(g, np.sign(g.meshes()[0]) * _log_radius(g, "sgn_log")),
        "constant:<c>": lambda g, c: GridFunction(g, np.full(g.shape, float(c))),
    },
    "exponent": {
        "constant:<p>": lambda g, p: Variable(GridFunction(g, np.full(g.shape, float(p)))),
        "arctan_profile": lambda g, _: Variable(GridFunction(g, 2.0 + np.arctan(g.meshes()[0]) / np.pi)),
    },
    "space": {
        "lebesgue:<p>": lambda g, p: Lebesgue(float(p)),
        "weighted:<p>:<weight>": _weighted,
        "variable:<exponent>": lambda g, e: make_exponent(e, g),
    },
}


def build(kind: str, name: str, target):
    """Build the `kind` fixture `name` on `target`."""
    head, colon, param = name.partition(":")
    for entry, builder in FIXTURES[kind].items():
        if entry == name or (colon and entry.startswith(head + colon)):
            return builder(target, param)
    raise ValueError(f"unknown {kind} {name!r}; `oscillab list-fixtures` prints the known names")


@functools.cache
def make_kernel(name: str, n: int) -> KernelSpec:
    """Kernel fixture on base dimension n (1 or 2). Each (name, n) is built
    once, so every build of one fixture kernel is the same KernelSpec and an
    expansion fitted on one build verifies against an operator of another."""
    return build("kernel", name, n)


def make_weight(name: str, grid: Grid) -> GridFunction:
    """Weight fixture sampled at cell centers."""
    return build("weight", name, grid)


def make_symbol(name: str, grid: Grid) -> GridFunction:
    return build("symbol", name, grid)


def make_exponent(name: str, grid: Grid) -> Variable:
    """The variable Lebesgue space of an exponent fixture."""
    return build("exponent", name, grid)


def make_space(name: str, grid: Grid):
    return build("space", name, grid)


def registry_text() -> str:
    return "\n".join(f"{kind + ':':10}{', '.join(table)}" for kind, table in FIXTURES.items())
