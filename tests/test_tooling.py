"""Names that the benchmark harness and the runner look up by string.

`perfbench/child.py` wraps the functions in its TARGETS table by
(module, attribute); a renamed function would otherwise surface only in the
benchmark's traced pass. `perfbench/workloads.py` holds `oscillab run`
configs, whose keys the runner must still accept and whose chain runs must
keep the 1/K expansion within its residual budget. The runner reads each
experiment from one record, whose defaults must all be read by its run.
The runner tells a refused value from a numerical failure by the error's
type alone. The `all` report keeps the bytes of a committed golden file.
"""

import ast
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscillab
from oscillab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# runs the configs named on its command line, then prints the exit codes,
# whether numpy.polynomial and numpy.random were loaded after each run, and
# every scipy module the runs imported
_RUN_AND_LIST_SCIPY = """
import json, sys
from oscillab import cli
codes, polynomial, random = [], [], []
for path in sys.argv[1:]:
    codes.append(cli.main(["run", path]))
    polynomial.append("numpy.polynomial" in sys.modules)
    random.append("numpy.random" in sys.modules)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy, "polynomial": polynomial, "random": random}))
"""


def _fresh_python(*argv, timeout, environ=os.environ):
    """Run a fresh interpreter with the arguments argv (`-c code ...` or
    `-m module ...`) in the environment `environ`, importing oscillab from
    this checkout; the completed process."""
    src = str(Path(oscillab.__file__).resolve().parent.parent)
    env = {**environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout)


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


def test_every_expect_verdict_default_is_a_verdict():
    defaults = [e.defaults["expect_verdict"] for e in cli.EXPERIMENTS.values() if "expect_verdict" in e.defaults]
    assert defaults
    assert set(cli.VERDICTS) == {"stable", "growing", "undetermined"}
    assert set(defaults) <= set(cli.VERDICTS)


def test_a_run_of_all_reads_every_default_and_only_keys_a_config_can_set(tmp_path, monkeypatch):
    """Each experiment reads every key its record's defaults set, so no
    default is left stale; every key an experiment reads has a type in
    KINDS, so a config can set it; and every other key in KINDS is one the
    whole run's config reads."""
    read = {name: set() for name in cli.EXPERIMENTS}
    get = cli.ScopedConfig.get

    def recording(self, key, default=None):
        read[self.experiment].add(key)
        return get(self, key, default)

    monkeypatch.setattr(cli.ScopedConfig, "get", recording)
    path = tmp_path / "all.json"
    out = {"csv_path": str(tmp_path / "all.csv"), "json_path": str(tmp_path / "all.out.json")}
    path.write_text(json.dumps({"experiment": "all", "seed": 1, **out}))
    assert cli.main(["run", str(path)]) == 0
    assert {name: sorted(set(e.defaults) - read[name]) for name, e in cli.EXPERIMENTS.items()} == {name: [] for name in read}
    assert sorted(set().union(*read.values()) - set(cli.KINDS)) == []
    assert set(cli.KINDS) - set().union(*read.values()) == {"experiment", "seed", "csv_path", "json_path"}


# the error classes on each side of the runner's exit-2 line: a value the
# lab refuses, and a numerical failure (with the two base classes)
_REFUSALS = {
    "EmptyCube", "OutOfDomain", "ResolutionTooCoarse", "NonPositiveWeight", "ConjugateUndefined",
    "AlphaOutOfRange", "MeanZeroViolation", "BadDelta", "NonFiniteValues",
}
_FAILURES = {
    "OscillabError", "ConfigError", "KernelVanishes", "TailTooLarge", "ConvergenceFailure", "GridMismatch",
    "UncoveredPoint", "DivisionByZeroNorm",
}


def test_an_error_class_is_a_value_error_exactly_when_it_is_a_refusal():
    """cli._naming turns a ValueError into a config error (exit 2) and lets
    every other error through to an error row (exit 1), so the type alone
    decides. A new error class fails here until it is put on one side."""
    from oscillab import errors

    classes = {name: c for name, c in vars(errors).items() if isinstance(c, type) and issubclass(c, Exception)}
    assert set(classes) == _REFUSALS | _FAILURES
    assert {name for name, c in classes.items() if issubclass(c, ValueError)} == _REFUSALS
    bound = {name for name, v in vars(cli).items() if isinstance(v, type) and issubclass(v, BaseException)}
    assert bound == {"ConfigError", "OscillabError"}


def test_a_run_imports_no_scipy(tmp_path):
    """numpy is the only dependency: a default chain run, norms, maximal and
    commutator runs and a 2D fractional commutator run import no scipy
    module, in a fresh interpreter. numpy loads numpy.polynomial and
    numpy.random lazily: numpy.polynomial stays out until the fractional
    run reaches the self-cell rule, and numpy.random stays out of every
    run, since the chain's ball samples are closed-form and the seeded
    probes read the lab's own stream."""
    paths = []
    for name, cfg in {
        "chain": {"experiment": "chain"},
        "norms": {"experiment": "norms"},
        "maximal": {"experiment": "maximal"},
        "commutator": {"experiment": "commutator"},
        "fractional": {"experiment": "commutator", "kernel": "frac_alpha:0.5", "dimension": 2, "m": 32, "box": [-2.0, 2.0]},
    }.items():
        path = tmp_path / f"{name}.json"
        out = {"csv_path": str(tmp_path / f"{name}.csv"), "json_path": str(tmp_path / f"{name}.out.json")}
        path.write_text(json.dumps({**cfg, "seed": 1, **out}))
        paths.append(str(path))
    done = _fresh_python("-c", _RUN_AND_LIST_SCIPY, *paths, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {
        "codes": [0, 0, 0, 0, 0],
        "scipy": [],
        "polynomial": [False, False, False, False, True],
        "random": [False, False, False, False, False],
    }


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_a_run_takes_one_blas_thread_unless_the_caller_sets_a_count(tmp_path):
    """The chain's fit and bilinear products sum in an order that the BLAS
    thread count sets. With every thread variable removed, a fresh
    `python -m oscillab` run of the default chain writes the CSV of a run
    with OPENBLAS_NUM_THREADS=1."""
    path = tmp_path / "chain.json"
    out = {"csv_path": str(tmp_path / "chain.csv"), "json_path": str(tmp_path / "chain.out.json")}
    path.write_text(json.dumps({"experiment": "chain", "seed": 1, **out}))
    unset = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    reports = []
    for environ in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
        done = _fresh_python("-m", "oscillab", "run", str(path), timeout=300, environ=environ)
        assert done.returncode == 0, done.stderr
        reports.append((tmp_path / "chain.csv").read_bytes())
    assert reports[0] == reports[1]


def test_a_blas_thread_count_the_caller_sets_wins():
    """A child started with OPENBLAS_NUM_THREADS=2 keeps it after importing
    oscillab; the two variables it did not set read 1."""
    environ = {**{k: v for k, v in os.environ.items() if k not in _THREAD_VARS}, "OPENBLAS_NUM_THREADS": "2"}
    code = "import os, oscillab\nprint(*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))"
    done = _fresh_python("-c", code, timeout=120, environ=environ)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "1", "1"]


GOLDEN_ALL = Path(__file__).resolve().parent / "golden" / "all-20240818.csv"


def _rel(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "n/a"
    return f"{abs(b - a) / abs(a):.3g}" if a != 0.0 and math.isfinite(a) else "n/a"


def _moved_rows(old_text: str, new_text: str) -> list[str]:
    """One line per row of the report that moved: its experiment, quantity
    and cube, the old and new value and tolerance where they differ, each
    with its relative change, and the verdict, marked when it changed. A
    row only one side has is named as added or missing."""
    old, new = (list(csv.DictReader(io.StringIO(text))) for text in (old_text, new_text))
    moved = []
    for i in range(max(len(old), len(new))):
        a, b = (rows[i] if i < len(rows) else None for rows in (old, new))
        if a == b:
            continue
        if a is None or b is None:
            r = a or b
            moved.append(f"row {i + 1} {'missing' if b is None else 'added'}: {','.join(r.values())}")
            continue
        cells = [f"{k} {a[k]!r} -> {b[k]!r} (rel {_rel(a[k], b[k])})" for k in ("value", "tolerance") if a[k] != b[k]]
        cells += [f"{k} {a[k]!r} -> {b[k]!r}" for k in ("experiment", "quantity", "cube_center", "cube_side") if a[k] != b[k]]
        verdict = f"verdict {a['verdict']} -> {b['verdict']} CHANGED" if a["verdict"] != b["verdict"] else f"verdict {a['verdict']}"
        cube = f"Q({a['cube_center']};{a['cube_side']})" if a["cube_side"] else "-"
        moved.append(f"row {i + 1} {a['experiment']},{a['quantity']} {cube}: {'; '.join(cells)}; {verdict}")
    return moved


def test_the_all_report_matches_its_golden_file_row_by_row(tmp_path):
    """`python -m oscillab run` of `all` at seed 20240818, in a fresh
    interpreter with no BLAS thread variable set (so on one thread), writes
    the bytes of the committed report. A change that moves a row updates
    the file in the same commit, so its diff names the rows. No tolerance:
    the contract is bytes."""
    path = tmp_path / "all.json"
    path.write_text(json.dumps({"experiment": "all", "seed": 20240818, "csv_path": str(tmp_path / "all.csv"), "json_path": str(tmp_path / "all.out.json")}))
    done = _fresh_python("-m", "oscillab", "run", str(path), timeout=300, environ={k: v for k, v in os.environ.items() if k not in _THREAD_VARS})
    assert done.returncode == 0, done.stderr
    got, want = (tmp_path / "all.csv").read_text(), GOLDEN_ALL.read_text()
    moved = _moved_rows(want, got)
    assert moved == [], f"{len(moved)} row(s) moved from {GOLDEN_ALL.name}:\n" + "\n".join(moved)
    assert got == want


def test_a_one_ulp_move_names_its_row():
    """The golden comparison names a row whose value moved by one ulp, with
    its cube, and says that the verdict did not change."""
    text = GOLDEN_ALL.read_text()
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("chain,stage_i,"))
    fields = lines[i].rstrip("\n").split(",")
    fields[4] = repr(np.nextafter(float(fields[4]), np.inf))
    lines[i] = ",".join(fields) + "\n"
    moved = _moved_rows(text, "".join(lines))
    assert len(moved) == 1
    assert moved[0].startswith(f"row {i} chain,stage_i Q({fields[2]};{fields[3]}): value ")
    assert moved[0].endswith("; verdict info")


def test_no_module_names_numpy_random():
    """Every randomized probe reads oscillab.stream; no module of the
    package names numpy's generator, so none can load it."""
    package = Path(oscillab.__file__).resolve().parent
    named = [path.name for path in sorted(package.glob("*.py")) if re.search(r"\b(np|numpy)\.random\b", path.read_text())]
    assert named == []


def test_a_2d_bilinear_geometry_loads_no_prng():
    """In D = 4 the mean-zero check's sphere sample and the direction scan's
    sphere and ball samples are closed-form: building a 2D bilinear kernel
    and selecting its geometry leave numpy.random unloaded."""
    code = (
        "import sys\n"
        "from oscillab import extraction, fixtures\n"
        "extraction.select_geometry(fixtures.make_kernel('bilinear_riesz', 2), 0.5)\n"
        "print('numpy.random' in sys.modules)"
    )
    done = _fresh_python("-c", code, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_python_dash_m_oscillab_is_the_command_line():
    """`python -m oscillab` runs the `oscillab` entry point, so a checkout
    that is not installed has a command line too."""
    done = _fresh_python("-m", "oscillab", "version", timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{oscillab.__version__}\n"


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


def test_grids_are_compared_only_in_common_grid():
    """Every place where grid functions, cube families and spaces meet asks
    grid.common_grid, so no other `==` or `!=` has a `.grid` operand."""
    src = Path(oscillab.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        rules = [f for f in tree.body if path.name == "grid.py" and isinstance(f, ast.FunctionDef) and f.name == "common_grid"]
        skip = {id(node) for rule in rules for node in ast.walk(rule)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in skip and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                if any(isinstance(x, ast.Attribute) and x.attr == "grid" for x in (node.left, *node.comparators)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
