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

import oscillab
from oscillab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# runs the configs named on its command line, then prints the exit codes
# and every scipy module the runs imported
_RUN_AND_LIST_SCIPY = """
import json, sys
from oscillab import cli
codes = [cli.main(["run", path]) for path in sys.argv[1:]]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
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


def test_a_default_chain_run_makes_the_calls_the_benchmark_gate_counts(tmp_path, monkeypatch):
    """perfbench's plain-pass gate on `chain` counts one build_test_functions
    call per mode and two bilinear_singular_integral calls per mode, through
    OperatorHandle. A refactor of the chain must meet it here first."""
    from oscillab import extraction, operators

    gate = _child(monkeypatch).WORKLOADS["chain"].exact
    calls = {"extraction.modes": 0, "operators.bilinear_calls": 0}
    for module, attr, counter in (
        (extraction, "build_test_functions", "extraction.modes"),
        (operators, "bilinear_singular_integral", "operators.bilinear_calls"),
    ):

        def counted(*args, _original=getattr(module, attr), _counter=counter, **kwargs):
            calls[_counter] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    cfg = tmp_path / "chain.json"
    out = {"csv_path": str(tmp_path / "chain.csv"), "json_path": str(tmp_path / "chain.out.json")}
    cfg.write_text(json.dumps({"experiment": "chain", "seed": 1, **out}))
    assert cli.main(["run", str(cfg)]) == 0
    assert calls == {"extraction.modes": 1200, "operators.bilinear_calls": 2400} == {k: gate[k] for k in calls}, (
        f"{calls}: perfbench's plain-pass gate on `chain` requires 1,200 build_test_functions and 2,400 "
        "bilinear_singular_integral calls; only a benchmark-only change (ROADMAP item 4 step 1) may change them"
    )


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
    """numpy is the only dependency: a chain run (n_per_axis 5 is the
    smallest whose 1/K expansion meets the chain's residual tolerance) and a
    commutator run import no scipy module, in a fresh interpreter."""
    paths = []
    for name, cfg in {
        "chain": {"experiment": "chain", "n_per_axis": 5, "level_max": 2},
        "commutator": {"experiment": "commutator"},
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
    assert result == {"codes": [0, 0], "scipy": []}


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
