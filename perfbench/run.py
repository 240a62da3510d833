"""oscillab benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout. Every pass is a fresh interpreter
(`child.py`) that runs the workload's `oscillab run` configs with one
thread. With `--trace 0` the benchmark times set-up probes and plain passes,
scales their times by the host speed that `speed.py` measures around them,
and prints the end-to-end metrics; with `--trace 1` it alternates plain and
traced passes and prints the per-layer metrics. Each pass is checked: exit
code, no `fail` or `error[...]` row, CSV bytes equal across passes, and
work counters equal to what the config implies. The last line of stdout is
the JSON result; records and spans go to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SPEED = os.path.join(HERE, "speed.py")
REFERENCE = os.path.join(HERE, "reference.json")

RUN_SECONDS = 42
THREAD_ENV = {"OSCILLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 3
# Timed end-to-end metrics are rescaled to a host on which speed.py's loop
# takes exactly this long; see speed.py for why.
SPEED_UNIT_S = 2.0
MIN_PASSES = 2
# every child is killed this long after the run starts, so the run ends
# well inside its 180 s allowance even on a stalled machine
KILL_AFTER_S = 165.0

# (name, unit, better, bound)
# Time bounds are the widest allowed: on a 2-core shared VM the host's
# speed swings by up to 1.7x for minutes at a time (see README).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_ratio", "ratio", "higher", 0.01),
)

# (name, unit, better)
PER_LAYER = (
    ("operators.bilinear_calls", "count", "lower"),
    ("operators.bilinear_s", "s", "lower"),
    ("operators.tensor_entries", "count", "lower"),
    ("operators.tensor_entries_per_s", "1/s", "higher"),
    ("operators.linear_calls", "count", "lower"),
    ("operators.linear_s", "s", "lower"),
    ("operators.maximal_s", "s", "lower"),
    ("spaces.norm_calls", "count", "lower"),
    ("spaces.norm_s", "s", "lower"),
    ("spaces.chi_norm_calls", "count", "lower"),
    ("spaces.chi_norm_s", "s", "lower"),
    ("spaces.luxemburg_calls", "count", "lower"),
    ("spaces.condition_s", "s", "lower"),
    ("grid.family_s", "s", "lower"),
    ("grid.family_cubes", "count", "higher"),
    ("grid.slice_calls", "count", "lower"),
    ("weights.constant_s", "s", "lower"),
    ("weights.cubes_per_s", "1/s", "higher"),
    ("bmo.seminorm_s", "s", "lower"),
    ("extraction.geometry_s", "s", "lower"),
    ("extraction.expansion_s", "s", "lower"),
    ("extraction.cubes", "count", "higher"),
    ("extraction.modes", "count", "higher"),
    ("extraction.cube_s_p50", "s", "lower"),
    ("extraction.cube_s_tail", "s", "lower"),
    ("extraction.test_functions_s", "s", "lower"),
    ("extraction.chain_self_s", "s", "lower"),
    ("fixtures.build_s", "s", "lower"),
    ("cli.runs", "count", "higher"),
    ("cli.rows", "count", "higher"),
    ("cli.error_rows", "count", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)


def _tail(samples: list[float]) -> tuple[float, str]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it;
    the slowest sample when there are too few for any of them."""
    s = sorted(samples)
    n = len(s)
    for q in (99, 95, 90, 75):
        if n * (100 - q) >= 1000:
            return s[-(-q * n // 100) - 1], f"p{q}"
    return (s[-1], "max") if s else (0.0, "none")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass, named as in PER_LAYER."""
    c, busy, own = result["counts"], result["busy"], result["self"]
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    cube_s = result["cube_s"]
    return {
        "operators.bilinear_calls": c.get("operators.bilinear_calls", 0),
        "operators.bilinear_s": b("operators.bilinear"),
        "operators.tensor_entries": c.get("operators.tensor_entries", 0),
        "operators.tensor_entries_per_s": _ratio(c.get("operators.tensor_entries", 0), b("operators.bilinear")),
        "operators.linear_calls": c.get("operators.linear_calls", 0),
        "operators.linear_s": b("operators.linear"),
        "operators.maximal_s": b("operators.maximal"),
        "spaces.norm_calls": c.get("spaces.norm_calls", 0),
        "spaces.norm_s": b("spaces.norm"),
        "spaces.chi_norm_calls": c.get("spaces.chi_norm_calls", 0),
        "spaces.chi_norm_s": b("spaces.chi_norm"),
        "spaces.luxemburg_calls": c.get("spaces.luxemburg_calls", 0),
        "spaces.condition_s": b("spaces.condition"),
        "grid.family_s": b("grid.family"),
        "grid.family_cubes": c.get("grid.family_cubes", 0),
        "grid.slice_calls": c.get("grid.slice_calls", 0),
        "weights.constant_s": b("weights.constant"),
        "weights.cubes_per_s": _ratio(c.get("weights.cubes", 0), b("weights.constant")),
        "bmo.seminorm_s": b("bmo.seminorm"),
        "extraction.geometry_s": b("extraction.geometry"),
        "extraction.expansion_s": b("extraction.expansion"),
        "extraction.cubes": c.get("extraction.cubes", 0),
        "extraction.modes": c.get("extraction.modes", 0),
        "extraction.cube_s_p50": statistics.median(cube_s) if cube_s else 0.0,
        "extraction.cube_s_tail": _tail(cube_s)[0],
        "extraction.test_functions_s": b("extraction.test_functions"),
        "extraction.chain_self_s": own.get("extraction.cube", 0.0),
        "fixtures.build_s": b("fixtures.build"),
        "cli.runs": c.get("cli.runs", 0),
        "cli.rows": c.get("cli.rows", 0),
        "cli.error_rows": c.get("cli.error_rows", 0),
        # main's own time: argument parsing, config load and validation
        "cli.config_s": own.get("cli.main", 0.0),
        "cli.report_s": b("cli.report"),
    }


class Run:
    """The children of one benchmark run and the checks on each."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.started = time.monotonic()
        # the whole run, warm-up and probes included, ends by this time
        self.deadline = self.started + seconds
        self.out_dir = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.out_dir, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="work-", dir=self.out_dir)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        self.children: list[dict] = []
        self.speeds: list[dict] = []
        self.csv_bytes: bytes | None = None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _wait(self, argv: list[str], log_path: str):
        """Run one child to its end, killed at the run's deadline; its
        output goes to `log_path`. Returns its wait status and rusage."""
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(0.0, self.started + KILL_AFTER_S - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage

    def probe_speed(self) -> float:
        """Seconds the host took for `speed.py`'s fixed loop just now."""
        path = os.path.join(self.work, f"speed{len(self.speeds)}.txt")
        status, _ = self._wait([sys.executable, SPEED], path)
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        if status != 0 or not lines:
            raise RuntimeError(f"speed probe failed: {' '.join(lines[-1:])}")
        self.speeds.append(json.loads(lines[-1]))
        return self.speeds[-1]["seconds"]

    def spawn(self, mode: str) -> dict:
        pass_id = len(self.children)
        out = os.path.join(self.work, f"pass{pass_id}")
        os.mkdir(out)
        spec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "mode": mode,
            "pass_id": pass_id,
            "out": out,
            "result": os.path.join(out, "result.json"),
        }
        with open(os.path.join(out, "spec.json"), "w") as fh:
            json.dump(spec, fh)
        t0 = time.monotonic()
        status, usage = self._wait([sys.executable, CHILD, os.path.join(out, "spec.json")], os.path.join(out, "log.txt"))
        wall = time.monotonic() - t0
        child = {
            "mode": mode,
            "pass": pass_id,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "setup_s": None,
            "spawned": t0,
            "code": os.waitstatus_to_exitcode(status),
            "problems": [],
            "result": None,
        }
        self.check(child, out)
        self.children.append(child)
        return child

    def check(self, child: dict, out: str):
        problems = child["problems"]
        if child["code"] != 0:
            with open(os.path.join(out, "log.txt"), errors="replace") as fh:
                last = fh.read().strip().splitlines()[-1:]
            problems.append(f"exit code {child['code']}: {' '.join(last)}")
        try:
            with open(os.path.join(out, "result.json")) as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            problems.append("no result file")
            return
        child["result"] = result
        if result["mark"] is None:
            problems.append(f"never reached the set-up mark {self.workload.setup_mark}")
        else:
            # CLOCK_MONOTONIC is shared by parent and child
            child["setup_s"] = result["mark"] - child["spawned"]
        if child["mode"] == "setup":
            return
        try:
            data = b"".join(_read(path) for path in result["csv"])
        except OSError as e:
            problems.append(f"missing report: {e}")
            return
        for row in csv.reader(data.decode().splitlines()):
            if len(row) != 7 or row[-1] == "fail" or row[1].startswith("error["):
                problems.append(f"row {','.join(row)}")
        if self.csv_bytes is None:
            self.csv_bytes = data
        elif data != self.csv_bytes:
            problems.append("CSV bytes differ from the first pass")
        counts = result["counts"]
        for key, want in self.workload.exact.items():
            if counts.get(key, 0) != want:
                problems.append(f"{key} = {counts.get(key, 0)}, config implies {want}")
        for key in self.workload.nonzero:
            if counts.get(key, 0) <= 0:
                problems.append(f"{key} is zero")

    def room_for(self, seconds: float) -> bool:
        return time.monotonic() + seconds <= min(self.deadline, self.started + KILL_AFTER_S)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _median(children: list[dict], key: str, scaled: bool = False) -> float:
    ok = [c for c in children if not c["problems"]] or children
    values = [c[key] * (c["scale"] if scaled else 1.0) for c in ok if c[key] is not None]
    return statistics.median(values) if values else 0.0


def _machine(run: Run, env: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), **env, **THREAD_ENV, "commit": commit, "seed": run.seed, "workload": run.workload.name}


def _scale(children: list[dict], before: float, after: float):
    """Give the children the host speed of the probes on either side."""
    for child in children:
        child["speed_s"] = (before + after) / 2
        child["scale"] = SPEED_UNIT_S / child["speed_s"]


def measure(run: Run) -> dict:
    before = run.probe_speed()
    probes = [run.spawn("setup") for _ in range(SETUP_PROBES)]
    after = run.probe_speed()
    _scale(probes, before, after)
    passes: list[dict] = []
    while len(passes) < MIN_PASSES or run.room_for(_median(passes, "wall_s") + after):
        passes.append(run.spawn("plain"))
        before, after = after, run.probe_speed()
        _scale(passes[-1:], before, after)
    attempted = len(run.children)
    failed = sum(bool(c["problems"]) for c in run.children)
    for key in ("wall_s", "cpu_s", "setup_s"):
        children = probes + passes if key == "setup_s" else passes
        print(f"unscaled {key} median {_median(children, key):.4f} s")
    return {
        "wall_s": _median(passes, "wall_s", scaled=True),
        "cpu_s": _median(passes, "cpu_s", scaled=True),
        "setup_s": _median(probes + passes, "setup_s", scaled=True),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
        "pass_ratio": (attempted - failed) / attempted,
    }


def trace(run: Run) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    while not plain or run.room_for(_median(plain, "wall_s") + _median(traced, "wall_s")):
        plain.append(run.spawn("plain"))
        traced.append(run.spawn("traced"))
    per_pass = [layer_metrics(c["result"]) for c in traced if c["result"] and "busy" in c["result"]]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "bench.trace_overhead_s":
            metrics[name] = _median(traced, "wall_s") - _median(plain, "wall_s")
        else:
            value = statistics.median(p[name] for p in per_pass) if per_pass else 0
            metrics[name] = int(value) if unit == "count" else value

    spans = [s for c in traced if c["result"] for s in c["result"].get("spans", [])]
    path = os.path.join(run.out_dir, f"spans-{run.workload.name}-seed{run.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "pass"], "spans": spans}, fh)
    print(f"spans: {len(spans)} written to {os.path.relpath(path, run.root)}")
    results = [c["result"] for c in traced if c["result"] and "layer_self" in c["result"]]
    if results:
        print("layer self time (median of traced passes):")
        layer_self = {layer: statistics.median(r["layer_self"].get(layer, 0.0) for r in results) for layer in results[0]["layer_self"]}
        for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {t:10.4f} s")
        cube_s = results[0]["cube_s"]
        if cube_s:
            print(f"extraction.cube_s_tail is the {_tail(cube_s)[1]} of {len(cube_s)} cubes per pass")
    return metrics


def _csv_report(run: Run):
    if run.csv_bytes is None:
        return
    digest = hashlib.sha256(run.csv_bytes).hexdigest()
    with open(REFERENCE) as fh:
        recorded = json.load(fh).get(run.workload.name, {})
    want = recorded.get(str(run.seed), recorded.get("*"))
    if want is None:
        verdict = "no recorded hash for this seed"
    elif want == digest:
        verdict = "matches the recorded hash"
    else:
        verdict = f"DIFFERS from the recorded {want} (reported, not failed)"
    print(f"csv sha256 {digest}: {verdict}")
    return digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oscillab", "cli.py")):
        print("perfbench: run from the root of an oscillab checkout (no src/oscillab/cli.py here)", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        warm = run.spawn("setup")  # untimed: fills bytecode and file caches
        env = (warm["result"] or {}).get("env", {})
        machine = _machine(run, env)
        print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
        metrics = trace(run) if args.trace else measure(run)
    finally:
        run.close()

    for c in run.children:
        setup = "-" if c["setup_s"] is None else f"{c['setup_s']:.4f}"
        speed = f"  speed probe {c['speed_s']:.4f} s" if "speed_s" in c else ""
        status = "ok" if not c["problems"] else "FAILED: " + "; ".join(c["problems"])
        print(
            f"pass {c['pass']:>2} {c['mode']:<6} wall {c['wall_s']:8.4f} s  cpu {c['cpu_s']:8.4f} s  "
            f"setup {setup} s  rss {c['peak_rss_mb']:7.2f} MB{speed}  {status}"
        )
    digest = _csv_report(run)
    attempted = len(run.children)
    failed = sum(bool(c["problems"]) for c in run.children)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value} {units[name]}")

    record = {
        "machine": machine,
        "csv_sha256": digest,
        "speed_probes_s": run.speeds,
        "children": [{k: v for k, v in c.items() if k != "result"} for c in run.children],
        "metrics": metrics,
    }
    with open(os.path.join(run.out_dir, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
