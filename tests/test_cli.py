"""End-to-end runs of the command line entry point.

Everything goes through main(argv) in process; exit codes are the contract
(0 all rows pass, 1 some row failed, 2 the config never parsed).
"""

import csv
import json
import re

import pytest

from oscillab import __version__
from oscillab.cli import ExperimentConfig, main
from oscillab.errors import ConfigError


def write_config(tmp_path, **kv):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(kv))
    return str(p)


def run_in(tmp_path, *argv):
    import os

    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def test_version_and_fixtures(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__
    assert main(["list-fixtures"]) == 0
    text = capsys.readouterr().out
    for name in ("hilbert", "bilinear_riesz", "log_abs", "arctan_profile"):
        assert name in text


def test_conditions_run_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="conditions", seed=0)
    assert run_in(tmp_path, "run", cfg) == 0
    out = capsys.readouterr().out
    assert "0 fail" in out
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert rows and all(r["verdict"] == "pass" for r in rows)
    assert set(rows[0]) == {
        "experiment",
        "quantity",
        "cube_center",
        "cube_side",
        "value",
        "tolerance",
        "verdict",
    }
    rep = json.loads((tmp_path / "report.json").read_text())
    assert all(v == "pass" for v in rep["verdicts"].values())


def test_conditions_wrong_expectation_fails(tmp_path):
    cfg = write_config(tmp_path, experiment="conditions", seed=0, expect=2.0)
    assert run_in(tmp_path, "run", cfg) == 1
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    failed = [r for r in rows if r["verdict"] == "fail"]
    assert failed
    assert any(r["cube_side"] for r in rows)  # per-cube rows carry geometry


def test_missing_config_file(tmp_path, capsys):
    assert run_in(tmp_path, "run", str(tmp_path / "nope.json")) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run_in(tmp_path, "run", str(p)) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_experiment(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="teleport", seed=0)
    assert run_in(tmp_path, "run", cfg) == 2
    assert "config error" in capsys.readouterr().err


def test_seed_required(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="conditions")
    assert run_in(tmp_path, "run", cfg) == 2


def test_bad_fixture_name(tmp_path):
    cfg = write_config(tmp_path, experiment="commutator", seed=0, kernel="cauchy_dream")
    assert run_in(tmp_path, "run", cfg) == 2


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("conditions", "seed", "abc"),
        ("conditions", "m", 3),
        ("conditions", "box", [1, -1]),
        ("conditions", "box", 5),
        ("conditions", "dimension", 3),
        ("conditions", "space_x", "lebesgue:0.5"),
        ("norms", "trials", 0),
        ("maximal", "trials", -1),
        ("norms", "level_max", -1),
        ("conditions", "level_max", -1),
        ("maximal", "level_max", -1),
        ("necessity", "level_max", -1),
        ("all", "level_max", -1),
        ("weight-constants", "cells_per_cube", 0),
        ("chain", "base_side", -1),
        ("norms", "exponent", "constant:0.5"),
        ("conditions", "expect", "abc"),
        ("weight-constants", "q", 0.5),
        ("all", "kernel", 7),
        ("all", "weight", 5),
        ("weight-constants", "level_min", 9),
        ("commutator", "symbol", "constant:x"),
        ("all", "levle_max", 5),
        ("conditions", "csv_path", "/nonexistent/x.csv"),
    ],
)
def test_bad_config_value_exits_2_with_one_line(tmp_path, capsys, experiment, key, value):
    cfg = write_config(tmp_path, **{"experiment": experiment, "seed": 0, key: value})
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_list_fixtures_names_exactly_the_accepted_values(capsys):
    """Every name `list-fixtures` prints is accepted as a config value, with a
    sample for each <param>, and names it does not print are refused."""
    samples = {"alpha": "0.5", "a": "0.5", "c": "2.5", "p": "2", "weight": "power:0.5", "exponent": "arctan_profile"}

    def accepted(kind, value):
        key = "space_x" if kind == "space" else kind
        for dimension in (1, 2):
            try:
                ExperimentConfig({"experiment": "maximal", "seed": 0, "dimension": dimension, key: value})
                return True
            except ConfigError:
                pass
        return False

    assert main(["list-fixtures"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["kernel", "weight", "symbol", "exponent", "space"]
    for line in lines:
        kind, names = line.split(":", 1)
        names = [name.strip() for name in names.split(",")]
        for name in names:
            assert accepted(kind, re.sub(r"<(\w+)>", lambda m: samples[m.group(1)], name)), name
        # a plain name with a parameter, or a parametrized one without it
        unlisted = {"no_such_fixture"} | {name.split(":")[0] if ":" in name else name + ":1" for name in names}
        for name in unlisted:
            assert not accepted(kind, name), name


def test_set_overrides(tmp_path):
    cfg = write_config(tmp_path, experiment="conditions", seed=0)
    code = run_in(
        tmp_path, "run", cfg, "--set", "expect=2.0", "--set", "csv_path=o.csv", "--set", "json_path=o.json"
    )
    assert code == 1
    assert (tmp_path / "o.csv").exists()
    rep = json.loads((tmp_path / "o.json").read_text())
    assert rep["pass"] is False


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path, experiment="maximal", seed=7, csv_path="a.csv", json_path="a.json"
    )
    assert run_in(tmp_path, "run", cfg) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert run_in(tmp_path, "run", cfg) == 0
    assert (tmp_path / "a.csv").read_bytes() == first


def test_norms_experiment_smoke(tmp_path):
    cfg = write_config(
        tmp_path, experiment="norms", seed=3, trials=8, m=128, level_max=4
    )
    assert run_in(tmp_path, "run", cfg) == 0
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    quantities = {r["quantity"] for r in rows}
    assert any(q.startswith("luxemburg_vs_closed_form") for q in quantities)
    assert "indicator_ratio_drift" in quantities


def test_weight_constants_experiment_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        experiment="weight-constants",
        seed=0,
        weight="power:0.5",
        p=2.0,
        level_min=5,
        level_max=7,
        cells_per_cube=8,
        expect_verdict="stable",
    )
    assert run_in(tmp_path, "run", cfg) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verdicts"]["weight-constants/stability[power:0.5,p=2]"] == "pass"
    assert rep["summaries"]["weight-constants"]["growth_verdict"] == "stable"
