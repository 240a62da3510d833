"""End-to-end runs of the command line entry point.

Everything goes through main(argv) in process; exit codes are the contract
(0 all rows pass, 1 some row failed, 2 the config never parsed).
"""

import csv
import json
import re

import numpy as np
import pytest

from oscillab import GridFunction, Lebesgue, OperatorHandle, __version__, cli, commutator, norm, operators, weights
from oscillab.cli import ExperimentConfig, ScopedConfig, main, run_commutator
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


def test_conditions_bilinear_weighted(tmp_path):
    """The bilinear weighted condition runs through the three space keys:
    L^4(w) x L^4(w) -> L^2(w) with w = |x|^(1/2) reads A_2(w)^(1/2), sqrt(4/3)
    on centered intervals."""
    cfg = write_config(
        tmp_path,
        experiment="conditions",
        seed=0,
        space_x1="weighted:4:power:0.5",
        space_x2="weighted:4:power:0.5",
        space_y="weighted:2:power:0.5",
        expect=1.1547,
        tolerance=0.03,
    )
    assert run_in(tmp_path, "run", cfg) == 0
    (r,) = csv.DictReader(open(tmp_path / "report.csv"))
    assert r["quantity"] == "condition_bilinear_sup"
    assert r["verdict"] == "pass"


def test_missing_config_file(tmp_path, capsys):
    assert run_in(tmp_path, "run", str(tmp_path / "nope.json")) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run_in(tmp_path, "run", str(p)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["null", '"abc"', "3", "[1, 2]"])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert run_in(tmp_path, "run", str(p), "--set", "m=64") == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.json").exists()


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


# Keys a bad-value case sets besides its own: a 1-input kernel reads no space_x2.
_ALSO_SET = {("chain", "space_x2"): {"kernel": "hilbert"}}


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
        ("norms", "level_max", 0),
        ("conditions", "level_max", -1),
        ("maximal", "level_max", -1),
        ("necessity", "level_max", -1),
        ("all", "level_max", -1),
        ("weight-constants", "cells_per_cube", 0),
        ("chain", "base_side", -1),
        ("norms", "exponent", "constant:0.5"),
        ("norms", "exponent", "constant:1"),
        ("commutator", "kernel", "frac_alpha:0"),
        ("chain", "kernel", "bilinear_frac_alpha:0"),
        ("conditions", "alpha", -0.5),
        ("conditions", "alpha", 1),
        ("chain", "n_per_axis", 0),
        ("necessity", "n_per_axis", 0),
        ("conditions", "expect", "abc"),
        ("weight-constants", "q", 0.5),
        ("all", "kernel", 7),
        ("all", "weight", 5),
        ("weight-constants", "level_min", 9),
        ("commutator", "symbol", "constant:x"),
        ("all", "levle_max", 5),
        ("conditions", "csv_path", "/nonexistent/x.csv"),
        ("conditions", "json_path", "/nonexistent/x.json"),
        # one file for both reports (csv_path defaults to report.csv), or the
        # config being run, which write_config names cfg.json
        ("maximal", "json_path", "report.csv"),
        ("maximal", "csv_path", "./cfg.json"),
        ("weight-constants", "p", 1),
        # w^(1-p') overflows at p = 1 + 1e-7: refused with no numpy warning before the line
        ("weight-constants", "p", 1.0000001),
        ("chain", "delta", 2),
        ("conditions", "tolerance", 0),
        ("chain", "eps_tol", 1e-2),
        # space keys the run never reads
        ("chain", "space_x", "lebesgue:2"),
        ("chain", "space_x2", "lebesgue:2"),
        ("conditions", "space_x1", "lebesgue:2"),
        # a space_y whose associate, L^infinity, the lab cannot hold
        ("chain", "space_y", "lebesgue:1"),
        ("necessity", "space_y", "weighted:1:power:0.5"),
        ("conditions", "space_y", "lebesgue:1"),
        ("all", "space_y", "weighted:1:power:0.5"),
        # |x|^200 underflows to 0 at the cells nearest the origin
        ("conditions", "space_x", "weighted:2:power:200"),
        ("chain", "space_y", "weighted:2:power:200"),
        # |x|^-400 overflows there: refused with no numpy warning before the line
        ("weight-constants", "weight", "power:-400"),
        ("conditions", "space_x", "weighted:2:power:-400"),
        # a cube family the grid cannot hold: too fine, leaving the box, or
        # with a cube that holds no cell center
        ("norms", "level_max", 12),
        ("chain", "level_max", 9),
        ("chain", "base_side", 100.0),
        ("necessity", "base_center", 5.9),
        ("necessity", "level_max", 12),
    ],
)
def test_bad_config_value_exits_2_with_one_line(tmp_path, capsys, experiment, key, value):
    also = _ALSO_SET.get((experiment, key), {})
    cfg = write_config(tmp_path, **{"experiment": experiment, "seed": 0, key: value, **also})
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_norms_exponent_reaching_1_is_refused_when_the_config_is_read(monkeypatch):
    """The exponent fixture is the Variable space itself, so p- = 1 is
    refused while the config is read, before the norms runner starts."""

    def no_run(cfg):
        raise AssertionError("the norms runner started")

    monkeypatch.setitem(cli.RUNNERS, "norms", no_run)
    with pytest.raises(ConfigError, match=r"^exponent: variable space needs p- > 1, got p- = 1\.0$"):
        ExperimentConfig({"experiment": "norms", "seed": 0, "exponent": "constant:1"})


def test_all_accepts_a_space_key_that_one_experiment_reads():
    """conditions never reads space_x1 without space_x2, but chain does; a
    1-input chain never reads space_x2, but conditions then does."""
    for keys in ({"space_x1": "lebesgue:3"}, {"kernel": "hilbert", "space_x2": "lebesgue:3"}):
        ExperimentConfig({"experiment": "all", "seed": 0, **keys})
    with pytest.raises(ConfigError, match="space_x2: no experiment of this run reads it"):
        ExperimentConfig({"experiment": "necessity", "seed": 0, "kernel": "hilbert", "space_x2": "lebesgue:3"})


def test_all_refuses_an_unknown_family_before_any_runner(tmp_path, capsys, monkeypatch):
    for name in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, name, lambda cfg: pytest.fail("a runner started"))
    cfg = write_config(tmp_path, experiment="all", seed=0, family="spiral")
    assert run_in(tmp_path, "run", cfg) == 2
    assert capsys.readouterr().err == "config error: family must be dyadic or centered, got 'spiral'\n"
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("m", [3, 255])
def test_weight_constants_reads_no_m(tmp_path, m):
    """weight-constants builds its grids from cells_per_cube, so an m too
    small for a grid, or odd, is never checked."""
    cfg = write_config(tmp_path, experiment="weight-constants", seed=1, m=m)
    assert run_in(tmp_path, "run", cfg) == 0


def test_all_refuses_an_odd_first_weight_level_before_any_runner(tmp_path, capsys, monkeypatch):
    """At level 0 the weight-constants grid has cells_per_cube cells, 5 here,
    so the power weight hits the origin: refused before any runner."""
    for name in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, name, lambda cfg: pytest.fail("a runner started"))
    cfg = write_config(tmp_path, experiment="all", seed=1, cells_per_cube=5, level_min=0, level_max=2)
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: weight: power weight hits a cell center at the origin") and err.count("\n") == 1
    assert not (tmp_path / "report.csv").exists()


def test_2d_default_chain_refuses_more_modes_than_fit_points(tmp_path, capsys, monkeypatch):
    """n_per_axis 10 in D = 4 asks for 10^4 modes from 4,353 fit points: a
    config error naming n_per_axis, raised before the period box is sampled."""
    monkeypatch.setattr("oscillab.extraction._box_modes", lambda *args: pytest.fail("the period box was sampled"))
    cfg = write_config(tmp_path, experiment="chain", seed=0, dimension=2)
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n_per_axis: 10^4 = 10000 modes") and err.count("\n") == 1
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.json").exists()


def test_weight_constants_refuses_q_before_any_level(tmp_path, capsys, monkeypatch):
    def no_level(*args):
        raise AssertionError("a level ran before q was checked")

    monkeypatch.setattr("oscillab.cli.ap_constant", no_level)
    cfg = write_config(tmp_path, experiment="weight-constants", seed=0, q=0.5)
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: q") and err.count("\n") == 1


def test_necessity_constant_symbol_is_stable(tmp_path):
    """A constant symbol has zero oscillation on every cube, so the per-level
    maxima are flat at 0 and the verdict is stable."""
    cfg = write_config(
        tmp_path, experiment="necessity", seed=0, symbol="constant:1", n_per_axis=5, level_max=3
    )
    assert run_in(tmp_path, "run", cfg) == 0
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert all(float(r["value"]) == 0.0 for r in rows if r["quantity"] == "oscillation_ratio")
    (verdict,) = [r for r in rows if r["quantity"].startswith("ratio_verdict")]
    assert verdict["quantity"] == "ratio_verdict[constant:1=stable]"
    assert verdict["verdict"] == "pass"


def test_chain_constant_symbol_writes_one_all_zero_row_per_cube(tmp_path):
    """A constant symbol has no gap or ordering to check: each cube of the
    default family (4 + 8) writes one passing all_stages_zero row instead."""
    cfg = write_config(tmp_path, experiment="chain", seed=0, symbol="constant:2")
    assert run_in(tmp_path, "run", cfg) == 0
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    zero = [r for r in rows if r["quantity"] == "all_stages_zero"]
    assert len(zero) == 12 and all(r["verdict"] == "pass" for r in zero)
    assert not any(r["quantity"].startswith(("gap_", "ordering_")) for r in rows)


def test_chain_checks_the_closing_bound_on_every_cube(tmp_path):
    """At base side 2.25 the dilates P of the four level-2 cubes leave the
    box; stage (v) reads chi_P cut to the box, so each of the 4 + 8 cubes
    writes a passing ordering_probe_bound row."""
    cfg = write_config(tmp_path, experiment="chain", seed=7, base_side=2.25)
    assert run_in(tmp_path, "run", cfg) == 0
    rows = [r for r in csv.DictReader(open(tmp_path / "report.csv")) if r["quantity"] == "ordering_probe_bound"]
    assert len(rows) == 12 and all(r["verdict"] == "pass" for r in rows)


def test_expect_verdict_outside_the_three_exits_2(tmp_path, capsys):
    """trend_verdict returns stable, growing or undetermined; any other
    expectation could never pass, so it is a config error, not a fail row."""
    cfg = write_config(tmp_path, experiment="weight-constants", seed=1, expect_verdict="flat")
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: expect_verdict") and err.count("\n") == 1
    assert all(v in err for v in ("stable", "growing", "undetermined"))
    assert not (tmp_path / "report.csv").exists()


def _growth_verdict(tmp_path, **kv):
    cfg = write_config(tmp_path, experiment="weight-constants", seed=1, **kv)
    assert run_in(tmp_path, "run", cfg) == 0
    return json.loads((tmp_path / "report.json").read_text())["summaries"]["weight-constants"]["growth_verdict"]


def test_weight_constants_reads_the_one_trend_rule(tmp_path):
    # |x|^1.5 is outside A_2: every step rises by about 42% (29.8 ... 85.7)
    assert _growth_verdict(tmp_path, weight="power:1.5", level_min=5, level_max=8) == "growing"
    # |x|^-0.9 is in A_2: the sups creep up (2.79 ... 3.63), the last step by 3.3%
    assert _growth_verdict(tmp_path, weight="power:-0.9", level_min=5, level_max=11) == "stable"
    # one level shows no trend
    assert _growth_verdict(tmp_path, level_min=6, level_max=6) == "undetermined"


def test_necessity_abs_symbol_is_stable(tmp_path):
    """|x| is Lipschitz: its oscillation ratios halve with the cube side,
    whatever the number of modes, and read stable."""
    cfg = write_config(tmp_path, experiment="necessity", seed=0, symbol="abs", n_per_axis=5)
    assert run_in(tmp_path, "run", cfg) == 0
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    (verdict,) = [r for r in rows if r["quantity"].startswith("ratio_verdict")]
    assert verdict["quantity"] == "ratio_verdict[abs=stable]"
    assert verdict["verdict"] == "pass"


def test_list_fixtures_names_exactly_the_accepted_values(capsys):
    """Every name `list-fixtures` prints is accepted as a config value, with a
    sample for each <param>, and names it does not print are refused."""
    samples = {"alpha": "0.5", "a": "0.5", "c": "2.5", "p": "2", "weight": "power:0.5", "exponent": "arctan_profile"}

    def accepted(kind, value):
        # a space key is refused where no experiment reads it; conditions reads space_x
        key, experiment = ("space_x", "conditions") if kind == "space" else (kind, "maximal")
        for dimension in (1, 2):
            try:
                ExperimentConfig({"experiment": experiment, "seed": 0, "dimension": dimension, key: value})
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


def test_set_without_an_equals_sign_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="conditions", seed=0)
    assert run_in(tmp_path, "run", cfg, "--set", "foo") == 2
    assert capsys.readouterr().err == "config error: --set needs key=value, got 'foo'\n"
    assert not (tmp_path / "report.csv").exists()


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path, experiment="maximal", seed=7, csv_path="a.csv", json_path="a.json"
    )
    assert run_in(tmp_path, "run", cfg) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert run_in(tmp_path, "run", cfg) == 0
    assert (tmp_path / "a.csv").read_bytes() == first


def _counting(monkeypatch, name, module_names):
    """Wrap the function `name` at each module that binds it and return the
    list its calls are appended to."""
    import importlib

    modules = [importlib.import_module(m) for m in module_names]
    original = getattr(modules[0], name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


def test_chain_runs_one_pass_through_necessity_experiment(tmp_path, monkeypatch):
    """`chain` reads its rows from one necessity_experiment pass, which runs
    the chain once on each family cube; cli holds no chain loop of its own."""
    from oscillab import cli

    passes = _counting(monkeypatch, "necessity_experiment", ("oscillab.extraction", "oscillab.cli"))
    cubes = _counting(monkeypatch, "verify_master_chain", ("oscillab.extraction", "oscillab.cli"))
    cfg = write_config(tmp_path, experiment="chain", seed=0, n_per_axis=5, level_max=2)
    assert run_in(tmp_path, "run", cfg) == 0
    assert len(passes) == 1
    family = passes[0][3]
    assert len(family) == 4
    assert [args[3] for args in cubes] == list(family)
    assert not hasattr(cli, "verify_master_chain")
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert sum(r["quantity"] == "stage_i" for r in rows) == 4


def test_default_chain_builds_one_kernel_table_per_cube(tmp_path, monkeypatch):
    """Every mode of a cube applies T to (f, g) and (b f, g) on the same
    nonzero cells, so the one kept table serves all 200 applications of a
    cube: the default run of 12 cubes builds 12 plans."""
    monkeypatch.setattr(operators, "_plans", [])
    builds = _counting(monkeypatch, "_plan", ("oscillab.operators",))
    cfg = write_config(tmp_path, experiment="chain", seed=1)
    assert run_in(tmp_path, "run", cfg) == 0
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert sum(r["quantity"] == "stage_i" for r in rows) == 12
    assert len(builds) == 12
    (residual,) = [r for r in rows if r["quantity"] == "fourier_residual"]
    assert float(residual["tolerance"]) == 1e-2


def test_norms_solves_one_family_with_the_two_family_drift(tmp_path, monkeypatch):
    """The drift reads the levels below level_max from the one family's rows;
    it equals, bit for bit, the spread ratio of two separately solved
    families 0..6 and 0..5."""
    from oscillab import Grid, chiQ_norm_ratio, enumerate_dyadic, fixtures

    calls = _counting(monkeypatch, "chiQ_norm_ratio", ("oscillab.spaces", "oscillab.cli"))
    cfg = write_config(tmp_path, experiment="norms", seed=3, trials=2, m=256, level_max=6)
    assert run_in(tmp_path, "run", cfg) == 0
    assert len(calls) == 1
    summary = json.loads((tmp_path / "report.json").read_text())["summaries"]["norms"]

    g = Grid((-1.0,), (1.0,), 256)
    exponent = fixtures.make_exponent("arctan_profile", g)
    full, prev = (chiQ_norm_ratio(exponent, enumerate_dyadic(g, 0, lmax)) for lmax in (6, 5))
    spread_full = full.value / min(full.per_cube)
    spread_prev = prev.value / min(prev.per_cube)
    assert summary["indicator_ratio_spread"] == spread_full
    assert summary["indicator_ratio_drift"] == abs(spread_full / spread_prev - 1.0)


@pytest.mark.parametrize("key", ["csv_path", "json_path"])
def test_report_path_linked_to_the_config_exits_2(tmp_path, capsys, key):
    """Real paths are compared, so a --set path that reaches the config file
    through a symbolic link is refused, and the config is left as it was."""
    cfg = write_config(tmp_path, experiment="maximal", seed=0, trials=1)
    before = (tmp_path / "cfg.json").read_bytes()
    (tmp_path / "link.json").symlink_to(tmp_path / "cfg.json")
    assert run_in(tmp_path, "run", cfg, "--set", f"{key}=link.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}:") and err.count("\n") == 1
    assert "config file being run" in err
    assert (tmp_path / "cfg.json").read_bytes() == before
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.json").exists()


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
        q=2,
    )
    assert run_in(tmp_path, "run", cfg) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["verdicts"]["weight-constants/stability[power:0.5,p=2]"] == "pass"
    assert "apq_sup[q=2]" in {r["quantity"] for r in csv.DictReader(open(tmp_path / "report.csv"))}
    assert rep["summaries"]["weight-constants"]["growth_verdict"] == "stable"


def test_chain_error_row_and_summary_name_the_stage(tmp_path, monkeypatch):
    from oscillab import spaces

    monkeypatch.setattr(spaces, "MODULAR_TOL", -1.0)  # no Newton solve can converge
    var = "variable:arctan_profile"
    cfg = write_config(tmp_path, experiment="chain", seed=0, space_x1=var, space_x2=var, space_y=var)
    assert run_in(tmp_path, "run", cfg) == 1
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert [(r["quantity"], r["verdict"]) for r in rows] == [("error[ConvergenceFailure]", "fail")]
    error = json.loads((tmp_path / "report.json").read_text())["summaries"]["chain"]["error"]
    assert re.match(r"ConvergenceFailure: Q\([-0-9.]+;[0-9.]+\), norms: modular misses 1", error), error


def test_a_derived_cube_outside_the_box_is_an_error_row_naming_its_stage(tmp_path):
    """A family that fits the box, one of whose chain cubes has a derived
    cube outside it: a failure of the chain's geometry stage, not of the
    config, so one error row naming the cube and the stage, and exit 1."""
    cfg = write_config(tmp_path, experiment="chain", seed=1, base_center=5.0)
    assert run_in(tmp_path, "run", cfg) == 1
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert [(r["quantity"], r["verdict"]) for r in rows] == [("error[OutOfDomain]", "fail")]
    error = json.loads((tmp_path / "report.json").read_text())["summaries"]["chain"]["error"]
    assert re.match(r"OutOfDomain: Q\([-0-9.]+;[0-9.]+\), geometry: Q\(.*exceeds box", error), error


@pytest.mark.parametrize("experiment, also", [("commutator", {"box": [-1e300, 1e300], "m": 16}), ("chain", {"box": [-1e200, 1e200]})], ids=["commutator", "chain"])
def test_a_symbol_that_overflows_on_the_box_exits_2_with_one_line(tmp_path, capsys, experiment, also):
    """|x| overflows on a huge box while the config is read: the symbol is
    refused in one line, with no numpy warning before it."""
    cfg = write_config(tmp_path, experiment=experiment, seed=1, **also)
    assert run_in(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: symbol:") and err.count("\n") == 1
    assert not (tmp_path / "report.csv").exists()


def test_an_overflowed_dual_weight_fails_the_duality_gap(tmp_path, monkeypatch):
    """The runner refuses a p whose w^(1-p') overflows, so the gap is taken
    at p = 1 + 1e-7 behind a run at p = 2: w^(1-p') overflows on every cell,
    so every per-cube defect is NaN, and the gap row reads nan and fails
    rather than passing on 0."""
    monkeypatch.setattr(cli, "ap_duality_gap", lambda w, p, fam: weights.ap_duality_gap(w, 1.0000001, fam))
    cfg = write_config(tmp_path, experiment="weight-constants", seed=1)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run_in(tmp_path, "run", cfg) == 1
    rows = {r["quantity"]: r for r in csv.DictReader(open(tmp_path / "report.csv"))}
    assert (rows["ap_duality_gap"]["value"], rows["ap_duality_gap"]["verdict"]) == ("nan", "fail")


def test_weight_constants_labels_name_the_p_and_q_that_ran(tmp_path):
    """p and q print in their shortest round-trip form with a trailing .0
    dropped: p = 2 + 1e-7 is not labelled p=2, the default's label."""
    cfg = write_config(tmp_path, experiment="weight-constants", seed=1, p=2.0000001, q=2.0000001)
    run_in(tmp_path, "run", cfg)
    names = {r["quantity"] for r in csv.DictReader(open(tmp_path / "report.csv"))}
    assert {"stability[power:0.5,p=2.0000001]", "apq_sup[q=2.0000001]"} <= names


@pytest.mark.parametrize("experiment, also", [("maximal", {"m": 16}), ("norms", {"m": 64, "trials": 2})], ids=["maximal", "norms"])
def test_an_overflow_inside_a_runner_writes_an_error_row(tmp_path, capsys, experiment, also):
    """A box that every config check accepts, on which the runner's random
    probes overflow: a numerical failure, reported as one error row and
    exit 1, with no traceback."""
    cfg = write_config(tmp_path, experiment=experiment, seed=1, box=[-1e300, 1e300], **also)
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.warns(RuntimeWarning, match="invalid value"):
        assert run_in(tmp_path, "run", cfg) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert [(r["quantity"], r["verdict"]) for r in rows] == [("error[NonFiniteValues]", "fail")]


# The commutator experiment at small sizes: 1D hilbert, 2D riesz_1.
_COMMUTATOR_CASES = {
    "hilbert": ({"kernel": "hilbert", "m": 256}, 6),
    "riesz_1": ({"kernel": "riesz_1", "dimension": 2, "box": [-4.0, 4.0], "m": 16}, 5),
}


def _commutator_config(overrides):
    return ScopedConfig(ExperimentConfig({"experiment": "commutator", "seed": 5, **overrides}), "commutator")


@pytest.mark.parametrize("case", sorted(_COMMUTATOR_CASES))
def test_commutator_estimates_equal_a_per_probe_loop(case):
    """Both lower bounds, bit for bit, from one T call per probe for ||T||
    and the commutator applied per probe for ||[b, T]||."""
    cfg = _commutator_config(_COMMUTATOR_CASES[case][0])
    rows, summary = run_commutator(cfg)
    grid = cfg.grid()
    T = OperatorHandle(cfg.fixture("kernel", grid))
    b = cfg.fixture("symbol", grid)
    L2 = Lebesgue(2.0)
    x = grid.meshes()[0]
    t_ratios, c_ratios = [], []
    for omega in (1.0, 2.0, 4.0):
        for s in (0.5, 1.0, 2.0):
            f = GridFunction(grid, np.sin(omega * x) * np.exp(-(x * x) / (2 * s * s)))
            t_ratios.append(norm(T(f), L2) / norm(f, L2))
            c_ratios.append(norm(commutator(b, T, f), L2) / norm(f, L2))
    values = {r.quantity: r.value for r in rows}
    assert values["operator_norm_lower_bound"] == repr(max(t_ratios))
    assert values["commutator_norm_lower_bound"] == repr(max(c_ratios))
    assert summary["norm_lower_bound"] == max(t_ratios)
    assert summary["commutator_lower_bound"] == max(c_ratios)


@pytest.mark.parametrize("case", sorted(_COMMUTATOR_CASES))
def test_commutator_applies_t_once_per_distinct_input(case, monkeypatch):
    """The constant checks, the step response (1D only) and one stacked
    pass each over the probes and over the b-moved probes."""
    most = _COMMUTATOR_CASES[case][1]
    calls = []
    original = operators._linear_body

    def counted(fv, *args, **kwargs):
        calls.append(fv.shape[-1])
        return original(fv, *args, **kwargs)

    monkeypatch.setattr(operators, "_linear_body", counted)
    run_commutator(_commutator_config(_COMMUTATOR_CASES[case][0]))
    assert len(calls) <= most
    assert calls.count(9) == 2  # the nine probes, then the nine b f


@pytest.mark.parametrize("m", [1024, 8192])
def test_hilbert_norm_lower_bound_stays_below_pi(m):
    """K = 1/x has L2 norm pi, so no probe ratio of a compression of it
    may exceed pi."""
    rows, summary = run_commutator(_commutator_config({"kernel": "hilbert", "m": m}))
    values = {r.quantity: float(r.value) for r in rows}
    assert 3.0 < values["operator_norm_lower_bound"] <= np.pi
    assert summary["norm_lower_bound"] <= np.pi


@pytest.mark.parametrize(
    "overrides",
    [{"kernel": "hilbert", "m": m} for m in (256, 1024, 8192)]
    + [{"kernel": k, "dimension": 2, "box": [-4.0, 4.0], "m": m} for k in ("riesz_1", "riesz_2") for m in (16, 32)],
    ids=lambda o: f"{o['kernel']}-{o['m']}",
)
def test_box_response_matches_its_closed_form(overrides):
    rows, _ = run_commutator(_commutator_config(overrides))
    (box,) = [r for r in rows if r.quantity == "box_response_vs_closed_form"]
    assert box.verdict == "pass"
    h = 16.0 / overrides["m"] if overrides["kernel"] == "hilbert" else 8.0 / overrides["m"]
    assert float(box.tolerance) == h * h
    assert float(box.value) <= h * h / 60  # the quadrature error is far inside its O(h^2) bound


def test_box_response_row_fails_on_the_windowed_reading(monkeypatch):
    """The row can fail: the symmetric-window principal value read T(1) = 0,
    which misses the closed form by up to log 3 on the middle half."""
    monkeypatch.setattr(operators, "_linear_body", lambda fv, kernel, h: np.zeros_like(fv))
    rows, _ = run_commutator(_commutator_config({"kernel": "hilbert", "m": 256}))
    (box,) = [r for r in rows if r.quantity == "box_response_vs_closed_form"]
    assert box.verdict == "fail" and float(box.value) == pytest.approx(np.log(3.0), rel=0.02)


def test_bilinear_commutator_run_writes_only_the_constant_symbol_row(tmp_path):
    """A bilinear kernel has no closed-form box response and no probe norm
    estimates: the run checks only that a constant symbol commutes with T."""
    cfg = write_config(tmp_path, experiment="commutator", kernel="bilinear_riesz", m=64, seed=1)
    assert run_in(tmp_path, "run", cfg) == 0
    (only,) = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert (only["quantity"], only["verdict"]) == ("constant_symbol_commutator", "pass")
    assert float(only["value"]) <= float(only["tolerance"]) == 1e-10


def test_default_chain_l1_total_is_the_sum_of_the_kept_coefficients(tmp_path, monkeypatch):
    """The chain summary's l1_total is sum_j |a_j| of the expansion the
    chain runs on, the constant of its closing bound."""
    built = []
    fit = cli.fourier_reciprocal
    monkeypatch.setattr(cli, "fourier_reciprocal", lambda *a: built.append(fit(*a)) or built[-1])
    cfg = write_config(tmp_path, experiment="chain", seed=1)
    assert run_in(tmp_path, "run", cfg) == 0
    (expansion,) = built
    got = json.loads((tmp_path / "report.json").read_text())["summaries"]["chain"]["l1_total"]
    assert got == float(np.sum(np.abs(expansion.coeffs))) == pytest.approx(38.0436, rel=1e-5)


def test_fractional_commutator_run_exits_0(tmp_path):
    """I_alpha does not annihilate constants, and the run writes no
    closed-form row for it."""
    cfg = write_config(tmp_path, experiment="commutator", kernel="frac_alpha:0.5", m=256, seed=1)
    assert run_in(tmp_path, "run", cfg) == 0
    rows = list(csv.DictReader(open(tmp_path / "report.csv")))
    assert rows and all(r["verdict"] in ("pass", "info") for r in rows)
    assert "box_response_vs_closed_form" not in {r["quantity"] for r in rows}
