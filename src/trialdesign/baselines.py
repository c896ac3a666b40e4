"""Randomized-allocation benchmark: nearest-rank quantiles of both objectives.

A design method is useful only if it beats what plain randomization
reaches by luck, so the benchmark draws seeded balanced allocations and
reports the 1%, 5%, and 50% nearest-rank quantiles of the chosen
objective across replicates.  The replicates are evaluated as one stack:
their matrices come from the stacked kernels of ``objective`` and their
hypercube separations run as one multiplexed inner-max group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllConfounded
from .limits import SolveLimits
from .objective import (
    Allocation,
    CovariateSpace,
    SpectralCache,
    objective_stack,
    random_balanced_stack,
    spectral_cache,
    worst_case_stack,
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
    rows = random_balanced_stack(n, replicates, np.random.default_rng(seed))
    return [Allocation(x) for x in rows]


@dataclass(frozen=True, eq=False)
class RandBenchmark:
    """Replicate values (NaN where confounded) and their quantiles.

    unfinished counts the replicates whose separation stopped at a time
    or node limit: their value only bounds their worst case from below.
    separation_nodes sums the inner-max nodes of every separation.
    """

    objective: str
    values: np.ndarray
    quantiles: dict[float, float]
    replicates: int
    seed: int | None
    confounded: int
    unfinished: int
    separation_nodes: int

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "replicates": self.replicates,
            "seed": self.seed,
            "confounded": self.confounded,
            "unfinished": self.unfinished,
            "separation_nodes": self.separation_nodes,
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
    The replicates' hypercube separations run as one multiplexed group
    (inner_max.solve_inner_max_group): each keeps its own
    limits.node_limit, and all share one deadline, limits.time_limit from
    the start of the group.
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

    values, _, results = worst_case_stack(objective_stack(F, allocations, objective), space, F, limits)
    separations = [result for result in results if result is not None]
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
        unfinished=sum(not result.optimal for result in separations),
        separation_nodes=sum(result.nodes_explored for result in separations),
    )
