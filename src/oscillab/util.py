"""Small shared helpers: growth classification."""

from __future__ import annotations

from typing import Sequence


def growth_steps(values: Sequence[float]) -> list[float]:
    """Relative step growths (v[i+1] - v[i]) / v[i]."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append((b - a) / a if a != 0 else float("inf"))
    return out


def classify_growth(
    values: Sequence[float], stable_tol: float = 0.05, growth_tol: float = 0.5
) -> str:
    """'stable' when the final step grows less than stable_tol, 'growing'
    when every step exceeds growth_tol, otherwise 'undetermined'."""
    steps = growth_steps(values)
    if not steps:
        return "stable"
    if steps[-1] < stable_tol:
        return "stable"
    if all(s > growth_tol for s in steps):
        return "growing"
    return "undetermined"
