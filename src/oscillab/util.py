"""Small shared helpers: growth classification."""

from __future__ import annotations

from typing import Sequence

_STABLE_TOL = 0.05
_GROWTH_TOL = 0.5


def growth_steps(values: Sequence[float]) -> list[float]:
    """Relative step growths (v[i+1] - v[i]) / v[i]."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append((b - a) / a if a != 0 else float("inf"))
    return out


def classify_growth(values: Sequence[float]) -> str:
    """'stable' when the final step grows less than _STABLE_TOL, 'growing'
    when every step exceeds _GROWTH_TOL, otherwise 'undetermined'."""
    steps = growth_steps(values)
    if not steps:
        return "stable"
    if steps[-1] < _STABLE_TOL:
        return "stable"
    if all(s > _GROWTH_TOL for s in steps):
        return "growing"
    return "undetermined"
