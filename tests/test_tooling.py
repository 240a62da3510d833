"""Names that the benchmark harness and the runner look up by string.

`perfbench/child.py` wraps the functions in its TARGETS table by
(module, attribute); a renamed function would otherwise surface only in the
benchmark's traced pass. `perfbench/workloads.py` holds `oscillab run`
configs, whose keys the runner must still accept and whose chain runs must
keep the 1/K expansion within its residual budget. The runner keeps two
experiment name lists, the runner table and the defaults table, which must
name the same experiments.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscillab
from oscillab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# runs the configs named on its command line, then prints the exit codes
# and every scipy module the runs imported
_RUN_AND_LIST_SCIPY = """
import json, sys
from oscillab import cli
codes, polynomial = [], []
for path in sys.argv[1:]:
    codes.append(cli.main(["run", path]))
    polynomial.append("numpy.polynomial" in sys.modules)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy, "polynomial": polynomial}))
"""


def _child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports `workloads`
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    targets = _child(monkeypatch).TARGETS
    assert len(targets) >= 30
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_every_workload_config_is_accepted(monkeypatch):
    """Including the refusal of a space key the run never reads: the
    workloads set space_x, space_x1, space_x2 and space_y."""
    workloads = _child(monkeypatch).WORKLOADS
    configs = [cfg for w in workloads.values() for cfg in w.runs]
    assert len(configs) >= 8
    assert {"space_x", "space_x1", "space_x2", "space_y"} <= {key for cfg in configs for key in cfg}
    for cfg in configs:
        cli.ExperimentConfig({**cfg, "seed": 1})


def test_every_chain_workload_meets_the_residual_budget(monkeypatch):
    """The workloads that run the chain (`chain` and `necessity`) keep the
    residual of their 1/K expansion within extraction.EPS_TOL at their
    n_per_axis; fourier_reciprocal raises TailTooLarge above it."""
    from oscillab import extraction

    workloads = _child(monkeypatch).WORKLOADS
    runs = [cfg for w in workloads.values() for cfg in w.runs if cfg["experiment"] in ("chain", "necessity")]
    assert {cfg["experiment"] for cfg in runs} == {"chain", "necessity"}
    for cfg in runs:
        scoped = cli.ScopedConfig(cli.ExperimentConfig({**cfg, "seed": 1}), cfg["experiment"])
        kernel = scoped.fixture("kernel", scoped.grid())
        geometry = extraction.select_geometry(kernel, float(scoped.get("delta")))
        expansion = extraction.fourier_reciprocal(kernel, geometry, scoped.get("n_per_axis"))
        assert expansion.epsilon <= extraction.EPS_TOL, cfg


@pytest.mark.parametrize("name", ["chain", "necessity-variable"])
def test_a_chain_workload_run_makes_the_calls_the_benchmark_gate_counts(name, tmp_path, monkeypatch):
    """perfbench's plain-pass gate on the two chain workloads counts one
    build_test_functions call per mode, two bilinear_singular_integral calls
    per mode, through OperatorHandle, and m^n nnz(f) nnz(g) kernel-tensor
    entries per application. A refactor of the chain must meet it here first."""
    from oscillab import extraction, operators

    workload = _child(monkeypatch).WORKLOADS[name]
    calls = {"extraction.modes": 0, "operators.bilinear_calls": 0, "operators.tensor_entries": 0}
    build, apply = extraction.build_test_functions, operators.bilinear_singular_integral

    def built(*args, **kwargs):
        calls["extraction.modes"] += 1
        return build(*args, **kwargs)

    def applied(f, g, *args, **kwargs):
        calls["operators.bilinear_calls"] += 1
        calls["operators.tensor_entries"] += f.grid.m**f.grid.n * np.count_nonzero(f.values) * np.count_nonzero(g.values)
        return apply(f, g, *args, **kwargs)

    monkeypatch.setattr(extraction, "build_test_functions", built)
    monkeypatch.setattr(operators, "bilinear_singular_integral", applied)
    cfg = tmp_path / f"{name}.json"
    out = {"csv_path": str(tmp_path / f"{name}.csv"), "json_path": str(tmp_path / f"{name}.out.json")}
    cfg.write_text(json.dumps({**workload.runs[0], "seed": 1, **out}))
    assert cli.main(["run", str(cfg)]) == 0
    assert calls == {k: workload.exact[k] for k in calls}, (
        f"{calls}: perfbench's plain-pass gate on `{name}` requires {workload.exact}; "
        "only a benchmark-only change (ROADMAP item 4 step 1) may change them"
    )


@pytest.mark.parametrize("name, tensor, table", [("chain", 2_400, 0), ("necessity-variable", 150, 50)])
def test_each_chain_workload_call_takes_the_form_its_support_size_selects(name, tensor, table, tmp_path, monkeypatch):
    """Every `chain` tensor has at most 73,728 entries, below
    operators._TABLE_FORM, so each application takes the tensor form. The
    `necessity-variable` level-2 cube (32-cell supports on 512 cells, a
    524,288-entry tensor) makes its 50 applications in the table form, all
    from one kept table; its other 150 take the tensor form."""
    from oscillab import operators

    workload = _child(monkeypatch).WORKLOADS[name]
    forms = {"tensor": 0, "table": 0}
    tables = []
    plan = operators._bilinear_plan

    def counted(*args):
        K = plan(*args)
        if isinstance(K, operators._Table):
            forms["table"] += 1
            tables.append(K)
        else:
            forms["tensor"] += 1
        return K

    monkeypatch.setattr(operators, "_plans", [])
    monkeypatch.setattr(operators, "_bilinear_plan", counted)
    cfg = tmp_path / f"{name}.json"
    out = {"csv_path": str(tmp_path / f"{name}.csv"), "json_path": str(tmp_path / f"{name}.out.json")}
    cfg.write_text(json.dumps({**workload.runs[0], "seed": 1, **out}))
    assert cli.main(["run", str(cfg)]) == 0
    assert forms == {"tensor": tensor, "table": table}
    assert len({id(K) for K in tables}) == (1 if table else 0)


def test_the_necessity_variable_chain_reads_k_once_per_lattice_offset(tmp_path, monkeypatch):
    """perfbench's `necessity-variable` pass reads K on at most 70,000
    points inside its chain: each cube's kernel table and each operator
    plan is evaluated on the lattice offsets that occur (67,140 points), not
    once per (x, y, z) triple (733,760 points)."""
    from oscillab import extraction, operators

    cfg = dict(_child(monkeypatch).WORKLOADS["necessity-variable"].runs[0])
    points, inside = [], []
    evaluate, experiment = operators.KernelSpec.evaluate, extraction.necessity_experiment

    def counted(self, u):
        if inside:
            points.append(np.prod(np.shape(u)[:-1]))
        return evaluate(self, u)

    def chain(*args, **kwargs):
        inside.append(True)
        try:
            return experiment(*args, **kwargs)
        finally:
            inside.clear()

    monkeypatch.setattr(operators.KernelSpec, "evaluate", counted)
    for module in (extraction, cli):
        monkeypatch.setattr(module, "necessity_experiment", chain)
    path = tmp_path / "necessity.json"
    out = {"csv_path": str(tmp_path / "n.csv"), "json_path": str(tmp_path / "n.out.json")}
    path.write_text(json.dumps({**cfg, "seed": 1, **out}))
    assert cli.main(["run", str(path)]) == 0
    assert 0 < sum(points) <= 70_000


def test_every_fixture_kind_has_the_builder_the_runner_looks_up():
    """ScopedConfig.fixture builds a fixture by getattr(fixtures, "make_<kind>"),
    and space_* keys reach make_space the same way."""
    from oscillab import fixtures

    missing = [kind for kind in fixtures.FIXTURES if not callable(getattr(fixtures, f"make_{kind}", None))]
    assert missing == []
    assert "space" in fixtures.FIXTURES


def test_runner_and_defaults_name_the_same_experiments():
    assert set(cli.RUNNERS) == set(cli.EXP_DEFAULTS)


def test_every_expect_verdict_default_is_a_verdict():
    defaults = [d["expect_verdict"] for d in cli.EXP_DEFAULTS.values() if "expect_verdict" in d]
    assert defaults
    assert set(cli.VERDICTS) == {"stable", "growing", "undetermined"}
    assert set(defaults) <= set(cli.VERDICTS)


def test_a_run_imports_no_scipy(tmp_path):
    """numpy is the only dependency: a default chain run, a commutator run
    and a 2D fractional commutator run import no scipy module, in a fresh
    interpreter. numpy.polynomial, which numpy loads lazily, stays out until
    the fractional run reaches the self-cell rule."""
    paths = []
    for name, cfg in {
        "chain": {"experiment": "chain"},
        "commutator": {"experiment": "commutator"},
        "fractional": {"experiment": "commutator", "kernel": "frac_alpha:0.5", "dimension": 2, "m": 32, "box": [-2.0, 2.0]},
    }.items():
        path = tmp_path / f"{name}.json"
        out = {"csv_path": str(tmp_path / f"{name}.csv"), "json_path": str(tmp_path / f"{name}.out.json")}
        path.write_text(json.dumps({**cfg, "seed": 1, **out}))
        paths.append(str(path))
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY, *paths], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": [], "polynomial": [False, False, True]}


def test_pytest_collects_without_pythonpath():
    """pyproject.toml puts src/ on pytest's path, so `python -m pytest` in a
    fresh checkout collects with no PYTHONPATH and no install."""
    root = Path(__file__).resolve().parent.parent
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_grid.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
