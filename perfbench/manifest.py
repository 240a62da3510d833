"""Write BENCHMARK.json from the benchmark's own definitions.

Run from the repository root: `python3 perfbench/manifest.py`. Workload
names and reasons come from `workloads.py`; metric names, units, directions
and bounds from `run.py`, so the manifest cannot drift from what the
benchmark prints.
"""

import json

from run import END_TO_END, PER_LAYER, RUN_SECONDS
from workloads import WORKLOADS

manifest = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": RUN_SECONDS,
    "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
    "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}

if __name__ == "__main__":
    with open("BENCHMARK.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
