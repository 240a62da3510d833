"""Names that the benchmark harness and the runner look up by string.

`perfbench/child.py` wraps the functions in its TARGETS table by
(module, attribute); a renamed function would otherwise surface only in the
benchmark's traced pass. `perfbench/workloads.py` holds `oscillab run`
configs, whose keys the runner must still accept. The runner keeps two
experiment name lists, the runner table and the defaults table, which must
name the same experiments.
"""

import importlib.util
import sys
from pathlib import Path

from oscillab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_runner_and_defaults_name_the_same_experiments():
    assert set(cli.RUNNERS) == set(cli.EXP_DEFAULTS)
