"""Shared solve-limit settings for the exact and heuristic solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

MODES = ("auto", "exact", "heuristic")


@dataclass(frozen=True)
class SolveLimits:
    """Budget and reproducibility knobs passed to every solver entry point.

    epsilon      convergence / pruning tolerance on objective values;
                 positive and finite
    time_limit   wall-clock budget in seconds for the whole call
    node_limit   branch-and-bound node budget.  In EXACT it budgets each
                 master's branch and bound, and the separations get only
                 the remaining time; in LB, its one master's branch and
                 bound; in RAND and the scan, each separation's branch and
                 bound.  Enumeration and descent count no nodes.
    seed         seeds every random draw made by the solver
    mode         how the master problem is solved: "exact" (certified),
                 "heuristic" (multi-start descent), or "auto", which is
                 exact where an n-subject master enumerates (n up to
                 bqp.ENUM_MAX_N) and heuristic past that
    """

    epsilon: float = 1e-6
    time_limit: float = 300.0
    node_limit: int = 2_000_000
    seed: int = 0
    mode: str = "auto"

    def __post_init__(self) -> None:
        # an infinite epsilon would certify any value as optimal
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.node_limit < 1:
            raise ValueError("node_limit must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
