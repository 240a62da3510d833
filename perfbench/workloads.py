"""The benchmark's workloads: `oscillab run` configs and the work each must do.

Every config lists the sizes that decide how much work a pass does, so the
expected counts below are derived from the config itself; for `chain` the
values equal the experiment's defaults. The seed is added per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VARIABLE = "variable:arctan_profile"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[dict, ...]
    # span name (child.TARGETS) of the function whose first call ends set-up
    setup_mark: str
    # (m, level_min, level_max) of a direct bmo_seminorm call after the runs
    bmo: tuple[int, int, int] | None = None
    exact: dict = field(default_factory=dict)
    nonzero: tuple[str, ...] = ()


def _chain_counts(cfg: dict) -> dict:
    """Cubes, modes, bilinear applications and kernel-tensor entries of a
    1D bilinear chain run over a dyadic or centered family.

    Each mode applies T twice, to (f, g) and (b f, g); both operands are
    supported on the cells of Q' and Q'', a translate of Q, so one
    application touches m * cells(Q)^2 kernel entries.
    """
    lo, hi = cfg["box"]
    h = (hi - lo) / cfg["m"]
    modes_per_cube = cfg["n_per_axis"] ** 2
    cubes = entries = 0
    for level in range(cfg["level_min"], cfg["level_max"] + 1):
        count = 2**level if cfg["family"] == "dyadic" else 1
        cells = round(cfg["base_side"] / 2**level / h)
        cubes += count
        entries += count * modes_per_cube * 2 * cfg["m"] * cells * cells
    return {
        "extraction.cubes": cubes,
        "extraction.modes": cubes * modes_per_cube,
        "operators.bilinear_calls": 2 * cubes * modes_per_cube,
        "operators.tensor_entries": entries,
        "cli.runs": 1,
    }


CHAIN = {
    "experiment": "chain",
    "m": 512,
    "box": [-6.0, 6.0],
    "family": "dyadic",
    "base_side": 1.125,
    "base_center": 0.0,
    "level_min": 2,
    "level_max": 3,
    "n_per_axis": 10,
}

# 25 modes per cube instead of the default 100: a pass then takes about
# 5 s rather than 19 s, so a run holds several passes and its median is
# steady on a noisy host. The residual stays below eps_tol (3.5e-3 < 1e-2).
NECESSITY_VARIABLE = {
    "experiment": "necessity",
    "m": 512,
    "box": [-6.0, 6.0],
    "family": "centered",
    "base_side": 3.0,
    "base_center": 0.0,
    "level_min": 2,
    "level_max": 5,
    "n_per_axis": 5,
    "space_x1": VARIABLE,
    "space_x2": VARIABLE,
    "space_y": VARIABLE,
}

SWEEPS = (
    {"experiment": "norms", "m": 4096, "level_max": 9, "trials": 100},
    {"experiment": "weight-constants", "level_min": 5, "level_max": 11},
    {"experiment": "conditions", "space_x": VARIABLE, "space_y": VARIABLE, "m": 4096, "level_max": 9, "expect": None},
    {"experiment": "maximal", "m": 1024, "level_max": 8, "trials": 20},
    {"experiment": "commutator", "kernel": "hilbert", "m": 8192},
    {"experiment": "commutator", "kernel": "riesz_1", "dimension": 2, "box": [-4.0, 4.0], "m": 32},
)
SWEEPS_BMO = (16384, 0, 11)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain",
            "canonical 1D bilinear chain: 2,400 small-support bilinear applications, each support pair reused 200 times",
            (CHAIN,),
            setup_mark="extraction.cube",
            exact=_chain_counts(CHAIN),
            nonzero=("cli.rows",),
        ),
        Workload(
            "necessity-variable",
            "few large supports (a 524,288-entry tensor beyond L2) plus four Luxemburg bisections per mode, all three spaces variable",
            (NECESSITY_VARIABLE,),
            setup_mark="extraction.cube",
            exact=_chain_counts(NECESSITY_VARIABLE),
            nonzero=("cli.rows",),
        ),
        Workload(
            "sweeps",
            "no bilinear work: family sups, Luxemburg norms, linear quadrature, maximal and BMO sweeps",
            SWEEPS,
            setup_mark="cli.run",
            bmo=SWEEPS_BMO,
            exact={
                "cli.runs": len(SWEEPS),
                "operators.maximal_calls": 2 * SWEEPS[3]["trials"],
                # one ap_constant per level, then one ap_duality_gap
                "weights.constant_calls": SWEEPS[1]["level_max"] - SWEEPS[1]["level_min"] + 2,
                "bmo.cubes": 2 ** (SWEEPS_BMO[2] + 1) - 2**SWEEPS_BMO[1],
            },
            nonzero=("operators.linear_calls", "cli.rows"),
        ),
    )
}
