"""Randomized-allocation benchmark: nearest-rank quantiles of both objectives.

A design method is useful only if it beats what plain randomization
reaches by luck, so the benchmark draws seeded balanced allocations and
reports the 1%, 5%, and 50% nearest-rank quantiles of the chosen
objective across replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllConfounded, ConfoundedDesign
from .limits import SolveLimits
from .objective import (
    Allocation,
    CovariateSpace,
    SpectralCache,
    original_value,
    random_balanced_signs,
    spectral_cache,
    surrogate_value,
)

RAND_LEVELS = (0.01, 0.05, 0.5)

OBJECTIVES = ("surrogate", "original")


def quantile_nearest_rank(values, q: float) -> float:
    """ceil(q*m)-th smallest value (1-based); the classic nearest-rank rule."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("need at least one value")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * vals.size))
    return float(vals[rank - 1])


def random_balanced_allocations(n: int, replicates: int = 100, seed: int = 0) -> list[Allocation]:
    """Seeded list of balanced allocations; one generator drives them all."""
    if replicates < 1:
        raise ValueError("need at least one replicate")
    rng = np.random.default_rng(seed)
    return [Allocation(random_balanced_signs(n, rng)) for _ in range(replicates)]


@dataclass(frozen=True, eq=False)
class RandBenchmark:
    """Replicate values (NaN where confounded) and their quantiles."""

    objective: str
    values: np.ndarray
    quantiles: dict[float, float]
    replicates: int
    seed: int | None
    confounded: int

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "replicates": self.replicates,
            "seed": self.seed,
            "confounded": self.confounded,
            "quantiles": {str(q): v for q, v in self.quantiles.items()},
            "values": [None if math.isnan(v) else float(v) for v in self.values],
        }


def rand_benchmark(
    H,
    objective: str = "surrogate",
    space: CovariateSpace | None = None,
    replicates: int = 100,
    seed: int = 0,
    allocations: list[Allocation] | None = None,
    limits: SolveLimits | None = None,
) -> RandBenchmark:
    """Evaluate the objective on random balanced allocations.

    Confounded replicates keep their slot as NaN and are excluded from
    the quantiles; if every replicate confounds, AllConfounded is raised.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    F = H if isinstance(H, SpectralCache) else spectral_cache(H)
    if space is None:
        space = CovariateSpace.hypercube()
    used_seed: int | None = seed
    if allocations is None:
        allocations = random_balanced_allocations(F.n, replicates, seed)
    else:
        used_seed = None
        replicates = len(allocations)

    evaluate = surrogate_value if objective == "surrogate" else original_value

    def one(alloc: Allocation) -> float:
        try:
            return float(evaluate(F, alloc, space, limits)[0])
        except ConfoundedDesign:
            return float("nan")

    values = np.array([one(alloc) for alloc in allocations])
    valid = values[~np.isnan(values)]
    if valid.size == 0:
        raise AllConfounded(f"all {replicates} random allocations were confounded")
    quantiles = {q: quantile_nearest_rank(valid, q) for q in RAND_LEVELS}
    return RandBenchmark(
        objective=objective,
        values=values,
        quantiles=quantiles,
        replicates=replicates,
        seed=used_seed,
        confounded=int(np.isnan(values).sum()),
    )
