"""Host speed probe: `python3 speed.py` prints the seconds a fixed loop took.

The benchmark runs this between its passes and divides each pass's times by
the probes around it, because on a shared host the machine's speed drifts by
tens of percent over minutes. The loop touches nothing of oscillab, so its
time depends on the host alone. It mixes what a pass spends its time on:
interpreter work and numpy calls on arrays in L1, in L2 and beyond L2. Every
numpy call writes into a preallocated array, so the allocator plays no part.
"""

import json
import time

import numpy as np

# (part, array length, repetitions per round): 32 KiB, 2 MiB and 32 MiB per
# array; the parts take similar times
SIZES = (("l1", 4096, 7000), ("l2", 262144, 80), ("beyond_l2", 4194304, 3))
PYTHON_STEPS = 1_000_000
# the parts take turns, so each samples the whole probe
ROUNDS = 4


def _arrays(n: int):
    a = np.linspace(0.5, 1.5, n)
    return a, a[::-1].copy(), np.empty(n)


def _numpy(a, b, out, reps: int):
    for _ in range(reps):
        np.multiply(a, b, out=out)
        np.add(out, a, out=out)
        np.sqrt(out, out=out)
        np.subtract(out, b, out=b)
        np.abs(b, out=b)


def _python(steps: int) -> int:
    s = 0
    for i in range(steps):
        s += i * i % 7
    return s


def probe() -> dict:
    """Seconds each part of the loop took, summed over the rounds."""
    arrays = [(part, _arrays(n), reps) for part, n, reps in SIZES]
    # one untimed round faults in every page
    for _, (a, b, out), _ in arrays:
        _numpy(a, b, out, 1)
    parts = dict.fromkeys([part for part, _, _ in SIZES] + ["python"], 0.0)
    for _ in range(ROUNDS):
        for part, (a, b, out), reps in arrays:
            t0 = time.perf_counter()
            _numpy(a, b, out, reps)
            parts[part] += time.perf_counter() - t0
        t0 = time.perf_counter()
        _python(PYTHON_STEPS)
        parts["python"] += time.perf_counter() - t0
    return parts


if __name__ == "__main__":
    parts = probe()
    print(json.dumps({"seconds": sum(parts.values()), "parts": parts}))
