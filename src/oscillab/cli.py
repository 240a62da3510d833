"""Configuration-driven experiment runner.

Subcommands: `run <config.json>`, `list-fixtures`, `version`. A config is a
flat JSON object; `--set key=value` overrides single keys. Every run needs a
seed in [0, 2^64) (randomized probes refuse to guess one), writes a CSV of
report rows with the fixed columns

    experiment,quantity,cube_center,cube_side,value,tolerance,verdict

and a JSON summary with machine-readable verdicts. Exit codes: 0 when every
contracted verdict passes, 1 on numerical failure, 2 on config errors.
Identical config and seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import ChainMap
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import astuple, dataclass

import numpy as np

from . import __version__, fixtures
from .errors import ConfigError, OscillabError
from .extraction import EPS_TOL, FourierExpansion, NecessityReport, fourier_reciprocal, necessity_experiment, select_geometry
from .grid import (
    VERDICTS,
    Cube,
    CubeFamily,
    Grid,
    GridFunction,
    centered_family,
    enumerate_dyadic,
    indicator,
    trend_verdict,
)
from .operators import (
    KernelSpec,
    OperatorHandle,
    averaging,
    bilinear_averaging,
    bilinear_maximal,
    commutator,
    maximal,
)
from .spaces import (
    Lebesgue,
    Variable,
    _alpha_check,
    associate,
    chiQ_norm_ratio,
    condition_bilinear,
    condition_linear,
    conjugate_exponent,
    luxemburg_norm,
    norm,
    norm_ratio,
)
from .stream import SEEDS, box_muller, uniforms
from .weights import ap_constant, ap_duality_gap, apq_constant

GLOBAL_DEFAULTS = {
    "dimension": 1,
    "box": [-1.0, 1.0],
    "m": 256,
    "level_min": 0,
    "level_max": 4,
    "csv_path": "report.csv",
    "json_path": "report.json",
}

# Fixed tolerances and constants of the experiments; no config sets them.
_P_CONST = 2.5  # norms: the constant exponent checked against the closed form
_ZERO_TOL = 1e-10  # commutator: a constant symbol commutes with T
_ORACLE_TOL = 0.02  # commutator: the log 3 step response

# Keys whose null means "no expectation" or "skip this quantity".
NULLABLE = ("q", "expect", "expect_verdict")
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "[lo, hi], two finite numbers"}


@dataclass
class ReportRow:
    experiment: str
    quantity: str
    cube_center: str = ""
    cube_side: str = ""
    value: str = ""
    tolerance: str = ""
    verdict: str = "info"

    def fields(self) -> list[str]:
        return list(astuple(self))


def _num(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return "nan"
    return repr(f)


def _cube_cols(cube: Cube | None) -> tuple[str, str]:
    if cube is None:
        return "", ""
    center = " ".join(f"{c:.10g}" for c in cube.center)
    return center, f"{cube.side:.10g}"


def row(
    experiment: str,
    quantity: str,
    value,
    tolerance=None,
    verdict: str = "info",
    cube: Cube | None = None,
) -> ReportRow:
    cc, cs = _cube_cols(cube)
    return ReportRow(experiment, quantity, cc, cs, _num(value), _num(tolerance), verdict)


def _check(ok: bool) -> str:
    return "pass" if ok else "fail"


def _has_kind(value, kind: type) -> bool:
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    if kind is list:
        return type(value) is list and len(value) == 2 and all(_has_kind(v, float) for v in value)
    return type(value) is kind


def _check_value(key: str, value):
    """Refuse an unknown key, a value of the wrong kind, and the values no
    constructor refuses: trials or n_per_axis below 1, a tolerance that is
    not positive, a seed outside [0, 2^64), a family other than dyadic or
    centered and an expect_verdict that trend_verdict never returns."""
    if key not in KINDS:
        raise ConfigError(f"unknown key {key!r}: no experiment reads it")
    if not (_has_kind(value, KINDS[key]) or (value is None and key in NULLABLE)):
        raise ConfigError(f"{key} must be {_KIND_NAMES[KINDS[key]]}, got {value!r}")
    if key == "seed" and not 0 <= value < SEEDS:
        raise ConfigError(f"seed must be in [0, 2^64), got {value}")
    if key in ("trials", "n_per_axis") and value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    if key == "tolerance" and value <= 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    if key == "family" and value not in ("dyadic", "centered"):
        raise ConfigError(f"{key} must be dyadic or centered, got {value!r}")
    if key == "expect_verdict" and value not in (*VERDICTS, None):
        raise ConfigError(f"{key} must be one of {', '.join(VERDICTS)} or null, got {value!r}")


@contextmanager
def _naming(*keys: str):
    """Turn a refused value, a ValueError, into a config error naming the
    keys it came from; a numerical failure passes through to its error row."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{', '.join(keys)}: {e}") from None


class ExperimentConfig:
    """Flat JSON config with per-experiment defaults layered underneath.

    Construction refuses unknown keys, values of the wrong kind and fixture
    names or parameters the fixture table refuses, before any experiment
    runs, and keeps one ScopedConfig per experiment of the run, in run
    order, holding the inputs its runner computes on."""

    def __init__(self, data: dict):
        name = data.get("experiment")
        if name not in (*EXPERIMENTS, "all"):
            raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)} or 'all'; got {name!r}")
        if "seed" not in data:
            raise ConfigError("config needs a seed (randomized probes refuse to guess)")
        for key, value in data.items():
            _check_value(key, value)
        self.data = data
        self.experiment = name
        self.seed = data["seed"]
        # a value that overflows here fails its finiteness check: one line, no warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.scoped = tuple(ScopedConfig(self, e) for e in (EXPERIMENTS if name == "all" else (name,)))
        read = {key for scoped in self.scoped for key in scoped.space_keys}
        for key in data:
            if key.startswith("space_") and key not in read:
                reads = ", ".join(sorted(read)) or "no space key"
                raise ConfigError(f"{key}: no experiment of this run reads it; it reads {reads}")

    def get(self, key: str):
        return self.data.get(key, GLOBAL_DEFAULTS.get(key))


class ScopedConfig:
    """One experiment's view: config keys over its defaults over the global
    defaults, with the rules of its record, and the inputs its runner
    computes on, built once by `validate` when it is constructed."""

    def __init__(self, base: ExperimentConfig, experiment: str):
        self.experiment = experiment
        self.record = EXPERIMENTS[experiment]
        self.seed = base.seed
        self.values = ChainMap(base.data, self.record.defaults, GLOBAL_DEFAULTS)
        self.validate()

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def draws(self, block: int, size: int) -> np.ndarray:
        """Block `block` of `size` uniforms on [0, 1) from the seed's stream:
        draws block * size .. (block + 1) * size - 1."""
        return uniforms(self.seed, block * size, size)

    def validate(self):
        """Run the record's check and keep what the runner reads: `built_on`,
        the grid the check returns; `inputs`, the fixture keys the defaults
        set (the ones the experiment reads), built on it; `space_keys`, the
        record's space keys; and `Xs` and `Y`, their spaces, with the
        associate of `Y` taken. A space key it reads but has no value for is
        refused. A fixture key it does not read is checked by name and never
        built, so a grid that key's fixture cannot live on refuses nothing."""
        self.built_on = self.record.check(self)
        for key in fixtures.FIXTURES:
            if key in self.values and key not in self.record.defaults:
                with _naming(key):
                    fixtures.lookup(key, self.get(key))
        self.inputs = {key: self.fixture(key, self.built_on) for key in self.record.defaults if key in fixtures.FIXTURES}
        self.space_keys = self.record.space_keys(self, self.inputs.get("kernel"))
        spaces = [self.fixture(key, self.built_on) for key in self.space_keys]
        for key, space in zip(self.space_keys, spaces):
            if space is None:
                raise ConfigError(f"{key}: {self.experiment} reads it, but it has no value")
        *Xs, self.Y = spaces or [None]
        self.Xs = tuple(Xs)
        if self.space_keys:  # every experiment that reads space_y reads its associate
            with _naming(self.space_keys[-1]):
                associate(self.Y)

    def grid(self, cells_key: str = "m", scale: int = 1) -> Grid:
        """The box in `dimension` dimensions with `scale` times the value of
        `cells_key` cells per axis."""
        n, (lo, hi) = self.get("dimension"), self.get("box")
        if n not in (1, 2):  # checked before the corner tuples are built from it
            raise ConfigError(f"dimension must be 1 or 2, got {n}")
        with _naming("box", cells_key):
            return Grid((float(lo),) * n, (float(hi),) * n, self.get(cells_key) * scale)

    def family(self, grid: Grid) -> CubeFamily:
        kind = self.get("family")
        center = (float(self.get("base_center")),) * grid.n
        side, lmin, lmax = float(self.get("base_side")), self.get("level_min"), self.get("level_max")
        with _naming("base_side", "base_center", "level_min", "level_max"):
            if kind == "dyadic":
                return enumerate_dyadic(grid, lmin, lmax, Cube(center, side))
            return centered_family(grid, center, side, lmin, lmax)

    def fixture(self, key: str, grid: Grid):
        """The fixture `key` names (space_* keys name spaces), built on `grid`
        by the fixtures.make_* function of its kind, which perfbench's tracer
        wraps; None when the key is unset."""
        kind = "space" if key.startswith("space_") else key
        name = self.get(key)
        if name is None:
            return None
        with _naming(key):
            return getattr(fixtures, f"make_{kind}")(name, grid.n if kind == "kernel" else grid)


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, its defaults over GLOBAL_DEFAULTS, the space
    keys it reads (input spaces first, space_y last), and its check when the
    config is read, which returns the grid its fixtures are built on."""

    run: Callable[[ScopedConfig], tuple[list[ReportRow], dict]]
    defaults: dict
    space_keys: Callable[[ScopedConfig, KernelSpec | None], tuple[str, ...]] = lambda cfg, kernel: ()
    check: Callable[[ScopedConfig], Grid] = ScopedConfig.grid


def _chain_spaces(cfg: ScopedConfig, kernel: KernelSpec) -> tuple[str, ...]:
    return (*(f"space_x{i}" for i in range(1, kernel.inputs + 1)), "space_y")


def _norms_check(cfg: ScopedConfig) -> Grid:
    lmax = cfg.get("level_max")
    if lmax < 1:
        raise ConfigError(f"norms compares levels 0..level_max with 0..level_max-1, so needs level_max >= 1, got {lmax}")
    return cfg.grid()


def _weight_constants_check(cfg: ScopedConfig) -> Grid:
    """Refuse an empty level range, a q of at most 1 and a p whose p' or p''
    (read by the duality gap) is undefined. Return the first level's grid (no
    m is read): every later level has more cells, and an even number."""
    lmin, lmax = cfg.get("level_min"), cfg.get("level_max")
    if not 0 <= lmin <= lmax:
        raise ConfigError(f"weight-constants needs 0 <= level_min <= level_max, got {lmin}..{lmax}")
    q = cfg.get("q")
    if q is not None and q <= 1.0:
        raise ConfigError(f"q: need q > 1, got {q}")
    p = float(cfg.get("p"))
    with _naming("p"):
        if conjugate_exponent(p) <= 1.0:
            raise ValueError(f"p' rounds to 1 at p = {p:g}, so the p'' of the duality gap is undefined")
    return cfg.grid("cells_per_cube", 2**lmin)


# ---- individual experiments ----


_BUMPS = 4  # Gaussian bumps of a random smooth function


def _smooth_draws(grid: Grid) -> int:
    """The uniforms `_random_smooth` reads on `grid`: n + 3 per bump."""
    return _BUMPS * (grid.n + 3)


def _random_smooth(grid: Grid, u: np.ndarray) -> GridFunction:
    """Four Gaussian bumps read from the `_smooth_draws(grid)` uniforms u,
    n + 3 per bump: its center, uniform over the box; its width, uniform in
    [0.2, 1] times a quarter of the box; and its amplitude, a standard
    normal by Box-Muller from the last two. Smooth, sign-changing, nonzero."""
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    width = (grid.hi[0] - grid.lo[0]) / 4
    for bump in u.reshape(_BUMPS, grid.n + 3):
        c = [lo + (hi - lo) * float(t) for lo, hi, t in zip(grid.lo, grid.hi, bump)]
        s = (0.2 + 0.8 * float(bump[grid.n])) * width
        r2 = sum((m - ci) ** 2 for m, ci in zip(meshes, c))
        vals += float(box_muller(bump[grid.n + 1 :])) * np.exp(-r2 / (2 * s * s))
    if np.max(np.abs(vals)) < 1e-12:
        vals += 1.0
    return GridFunction(grid, vals)


def run_norms(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    grid, space = cfg.built_on, cfg.inputs["exponent"]
    trials = cfg.get("trials")
    size = _smooth_draws(grid) + 1  # a trial's block: f, then the scale c
    const = Variable(GridFunction(grid, np.full(grid.shape, _P_CONST)))
    lmax = cfg.get("level_max")
    with _naming("level_max"):
        fam = enumerate_dyadic(grid, 0, lmax)

    worst_closed = 0.0
    worst_hom = 0.0
    worst_mod = 0.0
    for trial in range(trials):
        u = cfg.draws(trial, size)
        f = _random_smooth(grid, u[:-1])
        lux = luxemburg_norm(f, const)
        closed = norm(f, Lebesgue(_P_CONST))
        worst_closed = max(worst_closed, abs(lux - closed) / closed)
        c = 0.5 + 19.5 * float(u[-1])
        nf = luxemburg_norm(f, space)
        nc = luxemburg_norm(c * f, space)
        worst_hom = max(worst_hom, abs(nc - c * nf) / (c * nf))
        scaled = f / nf
        modular = float(
            np.sum(np.abs(scaled.values) ** space.exponent.values) * grid.cell_volume
        )
        worst_mod = max(worst_mod, abs(modular - 1.0))

    # a Newton row never mixes with another, so the rows of levels below
    # lmax are the ratios of the family 0..lmax-1
    ratios = chiQ_norm_ratio(space, fam)
    prev = [r for r, level in zip(ratios.per_cube, fam.levels) if level < lmax]
    spread_full = ratios.value / min(ratios.per_cube)
    drift = abs(spread_full / (max(prev) / min(prev)) - 1.0)

    rows = [
        row("norms", "luxemburg_vs_closed_form_rel", worst_closed, 1e-6, _check(worst_closed <= 1e-6)),
        row("norms", "homogeneity_defect_rel", worst_hom, 1e-8, _check(worst_hom <= 1e-8)),
        row("norms", "unit_modular_defect", worst_mod, 1e-8, _check(worst_mod <= 1e-8)),
        row("norms", "indicator_ratio_spread", spread_full, None, "info", ratios.argmax),
        row("norms", "indicator_ratio_drift", drift, 0.02, _check(drift <= 0.02)),
    ]
    summary = {"indicator_ratio_spread": spread_full, "indicator_ratio_drift": drift}
    return rows, summary


def run_weight_constants(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    p = float(cfg.get("p"))
    q = cfg.get("q")
    wname = cfg.get("weight")
    rows = []
    values = []
    lmin = cfg.get("level_min")
    grid, w = cfg.built_on, cfg.inputs["weight"]  # level_min's, built when the config was read
    for level in range(lmin, cfg.get("level_max") + 1):
        if level > lmin:
            grid = cfg.grid("cells_per_cube", 2**level)
            w = cfg.fixture("weight", grid)
        fam = enumerate_dyadic(grid, 0, level)
        with _naming("p"):
            rep = ap_constant(w, p, fam)
        values.append(rep.value)
        rows.append(row("weight-constants", f"ap_sup[level={level}]", rep.value, None, "info", rep.argmax))
    verdict = trend_verdict(values)
    expect = cfg.get("expect_verdict")
    growth = values[-1] / values[-2] - 1.0 if len(values) > 1 else 0.0
    rows.append(
        row(
            "weight-constants",
            f"stability[{wname},p={_num(p).removesuffix('.0')}]",
            growth,
            None,
            "info" if expect is None else _check(verdict == expect),
        )
    )
    gap = ap_duality_gap(w, p, fam)  # w and fam of the finest level, left by the loop
    rows.append(row("weight-constants", "ap_duality_gap", gap, 1e-12, _check(gap <= 1e-12)))
    if q is not None:
        with _naming("p"):
            apq = apq_constant(w, p, float(q), fam)
        rows.append(row("weight-constants", f"apq_sup[q={_num(q).removesuffix('.0')}]", apq.value, None, "info", apq.argmax))
    summary = {
        "ap_values": values,
        "growth_verdict": verdict,
        "argmax_cube": str(rep.argmax),
        "duality_gap": gap,
    }
    return rows, summary


def run_conditions(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    grid, Xs, Y = cfg.built_on, cfg.Xs, cfg.Y
    alpha = float(cfg.get("alpha"))
    with _naming("alpha"):
        _alpha_check(alpha, len(Xs) * grid.n)
    with _naming("level_min", "level_max"):
        fam = enumerate_dyadic(grid, cfg.get("level_min"), cfg.get("level_max"))
    if len(Xs) == 2:
        rep = condition_bilinear(*Xs, Y, alpha, fam)
        name = "condition_bilinear_sup"
    else:
        rep = condition_linear(*Xs, Y, alpha, fam)
        name = "condition_linear_sup"
    expect = cfg.get("expect")
    tol = float(cfg.get("tolerance"))
    if expect is None:
        verdict = "info"
    else:
        verdict = _check(abs(rep.value - float(expect)) <= tol)
    rows = [row("conditions", name, rep.value, tol if expect is not None else None, verdict, rep.argmax)]
    return rows, {"sup": rep.value, "argmax_cube": str(rep.argmax)}


def run_maximal(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    grid = cfg.built_on
    with _naming("level_max"):
        fam = enumerate_dyadic(grid, 0, cfg.get("level_max"))
    trials = cfg.get("trials")
    k = _smooth_draws(grid)
    viol_lin = 0
    viol_bil = 0
    for trial in range(trials):
        # a trial's block: f, g, then the cube index, alpha and alpha2
        u = cfg.draws(trial, 2 * k + 3)
        f, g = (_random_smooth(grid, block) for block in u[: 2 * k].reshape(2, k))
        index, alpha, alpha2 = (float(t) for t in u[2 * k :] * (len(fam), grid.n, 2 * grid.n))
        q = fam.cubes[int(index)]
        mf = maximal(f, alpha, fam)
        af = averaging(f, q, alpha)
        viol_lin += int(np.sum(np.abs(af.values) > mf.values))
        mb = bilinear_maximal(f, g, alpha2, fam)
        ab = bilinear_averaging(f, g, q, alpha2)
        viol_bil += int(np.sum(np.abs(ab.values) > mb.values))
    rows = [
        row("maximal", "domination_violations_linear", viol_lin, 0, _check(viol_lin == 0)),
        row("maximal", "domination_violations_bilinear", viol_bil, 0, _check(viol_bil == 0)),
    ]
    return rows, {"violations": viol_lin + viol_bil}


def _probes(grid: Grid):
    """The nine modulated Gaussian probes of the L2 estimates, one at a time."""
    x = grid.meshes()[0]
    for omega in (1.0, 2.0, 4.0):
        for s in (0.5, 1.0, 2.0):
            yield GridFunction(grid, np.sin(omega * x) * np.exp(-(x * x) / (2 * s * s)))


def _probe_estimates(grid: Grid, T: OperatorHandle, b: GridFunction):
    """L2 lower bounds for ||T|| and ||[b, T]||: the max over the probes f of
    ||T f|| / ||f|| and ||[b, T] f|| / ||f||. T runs once per distinct input:
    T f serves both estimates, and [b, T] f = b (T f) - T(b f) needs one
    more stacked pass, over the b f. The probes are rebuilt for each pass
    rather than kept, so no stack of inputs outlives its pass."""
    L2 = Lebesgue(2.0)
    t_probes = T.each(_probes(grid))
    est = float(np.max([norm_ratio(tf, f, L2) for tf, f in zip(t_probes, _probes(grid))]))
    t_moved = T.each(b * f for f in _probes(grid))
    outputs = (b * tf - tm for tf, tm in zip(t_probes, t_moved))
    return est, float(np.max([norm_ratio(out, f, L2) for out, f in zip(outputs, _probes(grid))]))


def _box_response(kernel: KernelSpec, grid: Grid) -> np.ndarray | None:
    """T chi_box at the cell centers in closed form for a one-input singular
    kernel, None for any other. Every such fixture has Omega(theta) = c . theta,
    i.e. K(u) = c . u / |u|^(n+1). In 1D this is c log((x - lo)/(hi - x)). In
    2D the term u_j / |u|^3 has the antiderivative -log(u_perp + |u|) in both
    coordinates, summed with signs over the corners of the u = x - y box."""
    if kernel.inputs != 1 or kernel.alpha != 0.0:
        return None
    c = np.asarray(kernel.omega(np.eye(grid.n)), dtype=float)
    # the ends of u = x - y over y in the box, per axis: (x - hi, x - lo)
    ends = [(x - hi, x - lo) for x, lo, hi in zip(grid.meshes(), grid.lo, grid.hi)]
    if grid.n == 1:
        return c[0] * np.log(ends[0][1] / -ends[0][0])
    out = np.zeros(grid.shape)
    for j in range(2):
        for s1 in range(2):
            for s2 in range(2):
                u = (ends[0][s1], ends[1][s2])
                out -= (-1) ** (s1 + s2) * c[j] * np.log(u[1 - j] + np.hypot(*u))
    return out


def run_commutator(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    grid, kernel, b = cfg.built_on, cfg.inputs["kernel"], cfg.inputs["symbol"]
    T = OperatorHandle(kernel)
    rows = []
    summary: dict = {}
    closed = _box_response(kernel, grid)
    if closed is not None:
        # T chi_box against its closed form on the middle half of the box.
        # Odd symmetry cancels the offsets within the nearer edge's distance
        # of x, exactly in the sum and in the integral; what is left is a
        # midpoint rule, over whole cells, of a kernel that is smooth at
        # distance at least a quarter of the box from x, so the error is O(h^2).
        axes = zip(grid.meshes(), grid.lo, grid.hi)
        middle = np.all([np.abs(x - (lo + hi) / 2) <= (hi - lo) / 4 for x, lo, hi in axes], axis=0)
        got = T(GridFunction(grid, np.ones(grid.shape))).values
        err = float(np.max(np.abs(got - closed)[middle]))
        tol = grid.h**2
        rows.append(row("commutator", "box_response_vs_closed_form", err, tol, _check(err <= tol)))
    cb = GridFunction(grid, np.full(grid.shape, 2.5))
    u = cfg.draws(0, kernel.inputs * _smooth_draws(grid))
    fs = [_random_smooth(grid, block) for block in u.reshape(kernel.inputs, -1)]
    czero = float(np.max(np.abs(commutator(cb, T, *fs).values)))
    rows.append(row("commutator", "constant_symbol_commutator", czero, _ZERO_TOL, _check(czero <= _ZERO_TOL)))
    if kernel.inputs != 1:
        return rows, summary
    if kernel.D == 1 and kernel.alpha == 0.0 and grid.lo[0] <= -2.0 and grid.hi[0] >= 2.0:
        # A 1D singular kernel is c/x, and its integral of chi_[-1,1] at x = 2 is c log 3.
        expected = float(kernel.evaluate(np.array([[1.0]]))[0]) * math.log(3.0)
        idx = int(np.argmin(np.abs(grid.axis_centers(0) - 2.0)))
        val = float(T(indicator(grid, Cube((0.0,), 2.0))).values[idx])
        rel = abs(val - expected) / abs(expected)
        rows.append(row("commutator", "step_response_at_2_rel", rel, _ORACLE_TOL, _check(rel <= _ORACLE_TOL)))
        summary["step_response"] = val
    est, cb_est = _probe_estimates(grid, T, b)
    rows.append(row("commutator", "operator_norm_lower_bound", est, None, "info"))
    summary["norm_lower_bound"] = est
    rows.append(row("commutator", "commutator_norm_lower_bound", cb_est, None, "info"))
    summary["commutator_lower_bound"] = cb_est
    return rows, summary


def _chain(cfg: ScopedConfig) -> tuple[GridFunction, FourierExpansion, NecessityReport]:
    """The symbol, the 1/K expansion, and one chain pass over the family."""
    kernel, b = cfg.inputs["kernel"], cfg.inputs["symbol"]
    fam = cfg.family(cfg.built_on)
    with _naming("delta"):
        geometry = select_geometry(kernel, float(cfg.get("delta")))
    with _naming("n_per_axis"):
        expansion = fourier_reciprocal(kernel, geometry, int(cfg.get("n_per_axis")))
    return b, expansion, necessity_experiment(b, cfg.Xs, cfg.Y, fam, expansion)


def run_chain(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    b, expansion, report = _chain(cfg)
    rows = [row("chain", "fourier_residual", expansion.epsilon, EPS_TOL)]
    constant_symbol = bool(np.all(b.values == b.values.flat[0]))
    worst_gap = 0.0
    for rep in report.per_cube:
        q = rep.cube
        rows.append(row("chain", "stage_i", rep.stage_i, None, "info", q))
        rows.append(row("chain", "stage_iii", rep.stage_iii, None, "info", q))
        if constant_symbol:
            allz = max(abs(rep.stage_i), abs(rep.stage_ii), abs(rep.stage_iii), rep.stage_iv)
            rows.append(row("chain", "all_stages_zero", allz, 1e-10, _check(allz <= 1e-10), q))
            continue
        rel12 = rep.gap_12 / max(rep.stage_i, 1e-300)
        rows.append(row("chain", "gap_identity_rel", rel12, 1e-9, _check(rel12 <= 1e-9), q))
        tol23 = max(0.05 * rep.stage_i, rep.bound_23)
        rows.append(row("chain", "gap_truncation", rep.gap_23, tol23, _check(rep.gap_23 <= tol23), q))
        worst_gap = max(worst_gap, rep.gap_23 / max(rep.stage_i, 1e-300))
        scale = max(rep.stage_iv, 1e-300)
        rows.append(row("chain", "ordering_holder", rep.gap_34, None, _check(rep.gap_34 >= -1e-9 * scale), q))
        rows.append(row("chain", "ordering_probe_bound", rep.gap_45, None, _check(rep.gap_45 >= -1e-9 * max(rep.stage_v, 1e-300)), q))
    summary = {"epsilon": expansion.epsilon, "l1_total": expansion.l1_total, "worst_rel_gap": worst_gap, "cubes": len(report.per_cube)}
    return rows, summary


def run_necessity(cfg: ScopedConfig) -> tuple[list[ReportRow], dict]:
    _, _, rep = _chain(cfg)
    rows = [row("necessity", "oscillation_ratio", c.oscillation_ratio, None, "info", c.cube) for c in rep.per_cube]
    for level in sorted(rep.ratio_by_level):
        rows.append(row("necessity", f"oscillation_ratio_max[level={level}]", rep.ratio_by_level[level], None, "info"))
    for level in sorted(rep.probe_by_level):
        rows.append(row("necessity", f"probe_norm_max[level={level}]", rep.probe_by_level[level], None, "info"))
    expect = cfg.get("expect_verdict")
    levels = sorted(rep.ratio_by_level)
    first, last = rep.ratio_by_level[levels[0]], rep.ratio_by_level[levels[-1]]
    total = last / first if first > 0 else float("nan")  # a constant symbol has no oscillation
    rows.append(
        row(
            "necessity",
            f"ratio_verdict[{cfg.get('symbol')}={rep.ratio_verdict}]",
            total,
            None,
            "info" if expect is None else _check(rep.ratio_verdict == expect),
        )
    )
    rows.append(row("necessity", "bound_ratio_sup", rep.sup_bound_ratio, None, "info"))
    sup_probe = max(rep.probe_by_level.values())
    rows.append(row("necessity", "probe_norm_sup", sup_probe, None, "info"))
    summary = {
        "ratio_verdict": rep.ratio_verdict,
        "probe_verdict": rep.probe_verdict,
        "sup_ratio": max(rep.ratio_by_level.values()),
        "sup_probe": sup_probe,
        "ratio_by_level": {str(k): v for k, v in rep.ratio_by_level.items()},
    }
    return rows, summary


_CHAIN_DEFAULTS = {
    "kernel": "bilinear_riesz",
    "symbol": "log_abs",
    "box": [-6.0, 6.0],
    "m": 512,
    "space_x1": "lebesgue:4",
    "space_x2": "lebesgue:4",
    "space_y": "lebesgue:2",
    "delta": 0.5,
    "n_per_axis": 10,
    "base_center": 0.0,
    "level_min": 2,
}

# every experiment, in the order `all` runs them
EXPERIMENTS = {
    "norms": Experiment(run_norms, {"exponent": "arctan_profile", "trials": 50, "level_max": 6}, check=_norms_check),
    "weight-constants": Experiment(
        run_weight_constants,
        {"weight": "power:0.5", "p": 2.0, "level_min": 5, "level_max": 8, "cells_per_cube": 16},
        check=_weight_constants_check,
    ),
    "conditions": Experiment(
        run_conditions,
        {"space_x": "lebesgue:2", "space_y": "lebesgue:2", "alpha": 0.0, "level_max": 6, "expect": 1.0, "tolerance": 1e-9},
        lambda cfg, kernel: ("space_x1", "space_x2", "space_y") if cfg.get("space_x2") is not None else ("space_x", "space_y"),
    ),
    "maximal": Experiment(run_maximal, {"box": [-2.0, 2.0], "m": 128, "trials": 20, "level_max": 4}),
    "commutator": Experiment(run_commutator, {"kernel": "hilbert", "symbol": "log_abs", "box": [-8.0, 8.0], "m": 1024}),
    "chain": Experiment(run_chain, {**_CHAIN_DEFAULTS, "family": "dyadic", "base_side": 1.125, "level_max": 3}, _chain_spaces),
    "necessity": Experiment(
        run_necessity,
        {**_CHAIN_DEFAULTS, "family": "centered", "base_side": 3.0, "level_max": 5, "expect_verdict": "stable"},
        _chain_spaces,
    ),
}
# execute dispatches through this dict, so a wrapper set on an entry sees every run
RUNNERS = {name: record.run for name, record in EXPERIMENTS.items()}

# The type of each key's values: the type of its default, or listed here for
# the keys that have none. A key in neither place is read by no experiment.
KINDS = {
    "experiment": str,
    "seed": int,
    "q": float,
    **{key: type(v) for defaults in (GLOBAL_DEFAULTS, *(e.defaults for e in EXPERIMENTS.values())) for key, v in defaults.items()},
}

# ---- orchestration ----


def execute(config: ExperimentConfig) -> tuple[list[ReportRow], dict, int]:
    all_rows: list[ReportRow] = []
    summaries: dict = {}
    for scoped in config.scoped:
        name = scoped.experiment
        try:
            rows, summary = RUNNERS[name](scoped)
        except ConfigError:
            raise
        except OscillabError as e:
            rows = [row(name, f"error[{type(e).__name__}]", float("nan"), None, "fail")]
            summary = {"error": f"{type(e).__name__}: {e}"}
        all_rows.extend(rows)
        summaries[name] = summary
    failed = any(r.verdict == "fail" for r in all_rows)
    return all_rows, summaries, 1 if failed else 0


def _check_report_paths(config: ExperimentConfig, config_path: str):
    """Refuse report paths that name one file, or the config file being run;
    real paths are compared, so a link or a relative path is seen through."""
    csv_path, json_path = (os.path.realpath(config.get(key)) for key in ("csv_path", "json_path"))
    if csv_path == json_path:
        raise ConfigError(f"csv_path and json_path both name {csv_path!r}")
    for key, path in (("csv_path", csv_path), ("json_path", json_path)):
        if path == os.path.realpath(config_path):
            raise ConfigError(f"{key}: {config.get(key)!r} is the config file being run")


def _open_reports(config: ExperimentConfig):
    """Open the CSV and JSON report paths for writing. If either cannot be
    opened, neither file is left behind."""
    handles = []
    for key in ("csv_path", "json_path"):
        try:
            handles.append(open(config.get(key), "w", newline=""))
        except OSError as e:
            for fh in handles:
                fh.close()
                os.remove(fh.name)
            raise ConfigError(f"{key}: cannot write {config.get(key)!r}: {e.strerror}") from None
    return handles


def write_reports(rows: list[ReportRow], summaries: dict, config: ExperimentConfig):
    verdicts = {f"{r.experiment}/{r.quantity}": r.verdict for r in rows if r.verdict in ("pass", "fail")}
    payload = {
        "experiment": config.experiment,
        "seed": config.seed,
        "pass": all(v == "pass" for v in verdicts.values()),
        "verdicts": verdicts,
        "summaries": summaries,
        "rows": len(rows),
        "version": __version__,
    }
    csv_fh, json_fh = _open_reports(config)
    with csv_fh, json_fh:
        writer = csv.writer(csv_fh, lineterminator="\n")
        writer.writerow(["experiment", "quantity", "cube_center", "cube_side", "value", "tolerance", "verdict"])
        for r in rows:
            writer.writerow(r.fields())
        json.dump(payload, json_fh, indent=2, sort_keys=True)
        json_fh.write("\n")
    return config.get("csv_path"), config.get("json_path")


def _apply_overrides(data, pairs: list[str]) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    out = dict(data)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set needs key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="oscillab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the experiment described by a JSON config")
    runp.add_argument("config", help="path to a flat JSON config file")
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key")
    sub.add_parser("list-fixtures", help="print the fixture registry")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "list-fixtures":
        print(fixtures.registry_text())
        return 0

    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig(_apply_overrides(data, args.set))
        _check_report_paths(config, args.config)
        rows, summaries, code = execute(config)
        csv_path, json_path = write_reports(rows, summaries, config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    n_fail = sum(1 for r in rows if r.verdict == "fail")
    n_pass = sum(1 for r in rows if r.verdict == "pass")
    print(f"wrote {csv_path} and {json_path}: {n_pass} pass, {n_fail} fail")
    return code


if __name__ == "__main__":
    sys.exit(main())
