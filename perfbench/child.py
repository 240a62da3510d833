"""One benchmark pass in a fresh interpreter: `python3 child.py <spec.json>`.

The spec names the workload, seed, mode, pass id and output paths. Modes:

- `setup`: stop at the workload's set-up mark (first chain cube, or first
  experiment) and report when it was reached;
- `plain`: run the whole workload with counting-only wrappers on the coarse
  guard functions (per experiment, cube, mode or operator application);
- `traced`: wrap every layer function with a span and its counters.

Wrappers replace a function at every place an `oscillab` module binds it,
since `from .x import y` copies the reference into the importing module
(`cli` holds its own `verify_master_chain`; `OperatorHandle.__call__`
looks up `bilinear_singular_integral` in `oscillab.operators`). Spans stay
in memory and go out with the result file when the pass ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import oscillab
from oscillab import bmo, cli, extraction, fixtures, grid, operators, spaces, weights

from workloads import WORKLOADS


class SetupDone(Exception):
    """Raised at the set-up mark in `setup` mode to end the pass there."""


def _nnz_product(args, kwargs, out):
    f, g = args[0], args[1]
    m = f.grid.m**f.grid.n
    return {"operators.tensor_entries": m * int(np.count_nonzero(f.values)) * int(np.count_nonzero(g.values))}


def _variable_space(args, kwargs, out):
    return {"spaces.luxemburg_calls": int(isinstance(args[0], spaces.Variable))}


def _luxemburg(args, kwargs, out):
    return {"spaces.luxemburg_calls": 1}


def _family_size(args, kwargs, out):
    return {"grid.family_cubes": len(out)}


def _weight_cubes(args, kwargs, out):
    return {"weights.cubes": len(args[-1])}


def _bmo_cubes(args, kwargs, out):
    return {"bmo.cubes": len(args[1])}


def _report_rows(args, kwargs, out):
    rows = args[0]
    return {"cli.rows": len(rows), "cli.error_rows": sum(r.quantity.startswith("error[") for r in rows)}


# (module, function, span name, call counter, extra counters, guard).
# Guard targets are coarse enough to count in every pass; a span name of
# None counts calls without a span. Spans that feed no metric (ratio,
# necessity, execute) still keep their time out of the caller's self time.
TARGETS = (
    (operators, "bilinear_singular_integral", "operators.bilinear", "operators.bilinear_calls", _nnz_product, True),
    (operators, "bilinear_fractional_integral", "operators.bilinear", "operators.bilinear_calls", _nnz_product, True),
    (operators, "singular_integral", "operators.linear", "operators.linear_calls", None, True),
    (operators, "fractional_integral", "operators.linear", "operators.linear_calls", None, True),
    (operators, "maximal", "operators.maximal", "operators.maximal_calls", None, True),
    (operators, "bilinear_maximal", "operators.maximal", "operators.maximal_calls", None, True),
    (spaces, "norm", "spaces.norm", "spaces.norm_calls", None, False),
    (spaces, "luxemburg_norm", "spaces.luxemburg", None, _luxemburg, False),
    (spaces, "chi_norm", "spaces.chi_norm", "spaces.chi_norm_calls", _variable_space, False),
    (spaces, "condition_linear", "spaces.condition", None, None, False),
    (spaces, "condition_bilinear", "spaces.condition", None, None, False),
    (spaces, "chiQ_norm_ratio", "spaces.ratio", None, None, False),
    (grid, "enumerate_dyadic", "grid.family", None, _family_size, False),
    (grid, "centered_family", "grid.family", None, _family_size, False),
    (grid, "cube_slices", None, "grid.slice_calls", None, False),
    (weights, "ap_constant", "weights.constant", "weights.constant_calls", _weight_cubes, True),
    (weights, "apq_constant", "weights.constant", "weights.constant_calls", _weight_cubes, True),
    (weights, "ap_duality_gap", "weights.constant", "weights.constant_calls", _weight_cubes, True),
    (bmo, "bmo_seminorm", "bmo.seminorm", None, _bmo_cubes, True),
    (extraction, "select_geometry", "extraction.geometry", None, None, False),
    (extraction, "fourier_reciprocal", "extraction.expansion", None, None, False),
    (extraction, "verify_master_chain", "extraction.cube", "extraction.cubes", None, True),
    (extraction, "build_test_functions", "extraction.test_functions", "extraction.modes", None, True),
    (extraction, "necessity_experiment", "extraction.necessity", None, None, False),
    (fixtures, "make_kernel", "fixtures.build", None, None, False),
    (fixtures, "make_weight", "fixtures.build", None, None, False),
    (fixtures, "make_symbol", "fixtures.build", None, None, False),
    (fixtures, "make_exponent", "fixtures.build", None, None, False),
    (cli, "execute", "cli.execute", None, None, False),
    (cli, "write_reports", "cli.report", None, _report_rows, True),
)


class Tracer:
    """Counters for every pass; spans (name, start, end, parent, pass id)
    only when `record` is set."""

    def __init__(self, pass_id: int, record: bool, mark: str, stop_at_mark: bool):
        self.pass_id = pass_id
        self.record = record
        self.mark = mark
        self.stop_at_mark = stop_at_mark
        self.mark_time: float | None = None
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reached(self, name: str):
        if name == self.mark and self.mark_time is None:
            self.mark_time = time.monotonic()
            if self.stop_at_mark:
                raise SetupDone

    @contextlib.contextmanager
    def _record(self, name: str):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.pass_id])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][2] = time.perf_counter()

    def span(self, name: str | None):
        """Record a span around the block, or do nothing in untraced modes."""
        return self._record(name) if self.record and name is not None else contextlib.nullcontext()

    def wrap(self, fn, name, calls, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.reached(name)
            if calls:
                tracer.counts[calls] += 1
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if extra is not None:
                tracer.counts.update(extra(args, kwargs, out))
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "oscillab" or n.startswith("oscillab.")]
        for module, attr, name, calls, extra, guard in TARGETS:
            if not (self.record or guard or name == self.mark):
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, calls, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # execute() dispatches through this dict, not module globals
        for key, fn in list(cli.RUNNERS.items()):
            cli.RUNNERS[key] = self.wrap(fn, "cli.run", "cli.runs", None)

    def summary(self) -> dict:
        """Inclusive and self seconds per span name, self seconds per layer,
        and each cube's time."""
        busy: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            own[name] += end - start - inner
            layer_self[name.split(".")[0]] += end - start - inner
        cube_s = [end - start for name, start, end, _, _ in self.spans if name == "extraction.cube"]
        return {"busy": dict(busy), "self": dict(own), "layer_self": dict(layer_self), "cube_s": cube_s}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "oscillab": oscillab.__version__,
    }


def _bmo_pass(spec_bmo, out_path: str):
    """The direct seminorm call no experiment reaches, written as one CSV row."""
    m, lmin, lmax = spec_bmo
    g = grid.Grid((-1.0,), (1.0,), m)
    family = grid.enumerate_dyadic(g, lmin, lmax)
    rep = bmo.bmo_seminorm(fixtures.make_symbol("log_abs", g), family)
    row = cli.row("bmo", f"seminorm[m={m};levels={lmin}..{lmax}]", rep.value, cube=rep.argmax)
    with open(out_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(row.fields())


def run(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    tracer = Tracer(spec["pass_id"], mode == "traced", workload.setup_mark, mode == "setup")
    tracer.install()
    result: dict = {"codes": [], "csv": []}
    try:
        with tracer.span("bench.pass"):
            for i, config in enumerate(workload.runs):
                stem = f"{spec['out']}/run{i}"
                with open(f"{stem}.config.json", "w") as fh:
                    json.dump({**config, "seed": spec["seed"], "csv_path": f"{stem}.csv", "json_path": f"{stem}.json"}, fh)
                with tracer.span("cli.main"):
                    result["codes"].append(cli.main(["run", f"{stem}.config.json"]))
                result["csv"].append(f"{stem}.csv")
            if workload.bmo is not None:
                path = f"{spec['out']}/bmo.csv"
                _bmo_pass(workload.bmo, path)
                result["csv"].append(path)
    except SetupDone:
        pass
    result["mark"] = tracer.mark_time
    result["counts"] = dict(tracer.counts)
    if tracer.record:
        result.update(tracer.summary())
        result["spans"] = tracer.spans
    if mode == "setup":
        result["env"] = _environment()
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return max(result["codes"], default=0)


if __name__ == "__main__":
    sys.exit(main())
