"""Pieces shared by the three workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One user request: ``run`` is timed, ``spec`` is what the checks need."""

    kind: str
    run: Callable[[], object]
    spec: dict = field(default_factory=dict)


def fail_on(failures: dict, index: int, messages: list[str]) -> None:
    """Attach check failures to an operation."""
    if messages:
        failures.setdefault(index, []).extend(messages)


def uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def signed(rng, lo: float, hi: float) -> float:
    """Magnitude in [lo, hi) with a random sign."""
    return uniform(rng, lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)
