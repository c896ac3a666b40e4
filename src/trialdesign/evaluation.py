"""Design evaluation: response simulation, model refits, variance reduction.

The headline metric compares the worst optimized design against the
average random one: for covariate vectors z0, the percent reduction

    100 * (z0' E_x[Sigma_beta] z0 - z0' Sigma_beta(x*) z0)
        / (z0' E_x[Sigma_beta] z0)

where the expectation runs over random balanced allocations (confounded
draws are redrawn).  A scan utility pairs original and surrogate values
on random allocations to show how tight the surrogate is.  Both work on
stacks of allocations: their matrices come from the stacked kernels of
``objective``, and the scan's hypercube separations run as multiplexed
inner-max groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariates import as_matrix, frozen_copy
from .errors import AllConfounded, ConfoundedDesign
from .limits import SolveLimits
from .objective import (
    CovariateSpace,
    SpectralCache,
    allocation_vector,
    objective_stack,
    random_balanced_stack,
    sigma_beta,
    sigma_beta_stack,
    spectral_cache,
    stack_size,
    worst_case_stack,
)

# redraw budget multiplier before giving up on random designs
REDRAW_FACTOR = 100


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    """True model coefficients and noise level for simulated responses."""

    alpha: np.ndarray
    beta: np.ndarray
    sigma: float
    seed: int

    def __post_init__(self) -> None:
        alpha = frozen_copy(self.alpha)
        beta = frozen_copy(self.beta)
        if alpha.ndim != 1 or beta.ndim != 1 or alpha.size != beta.size:
            raise ValueError("alpha and beta must be vectors of equal length")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Least-squares estimates of the main and interaction coefficients."""

    alpha_hat: np.ndarray
    beta_hat: np.ndarray


def simulate_responses(H, x, spec: SimulationSpec) -> np.ndarray:
    """y_i = h_i'alpha + x_i h_i'beta + sigma * noise."""
    A = as_matrix(H)
    xv = allocation_vector(x)
    if spec.alpha.size != A.shape[1]:
        raise ValueError(f"coefficient length {spec.alpha.size} != p = {A.shape[1]}")
    if xv.size != A.shape[0]:
        raise ValueError(f"allocation length {xv.size} != n = {A.shape[0]}")
    rng = np.random.default_rng(spec.seed)
    return A @ spec.alpha + xv * (A @ spec.beta) + spec.sigma * rng.standard_normal(A.shape[0])


def fit_interaction_model(H, x, y) -> FittedModel:
    """Least squares on the stacked design [H | D_x H].

    Raises ConfoundedDesign exactly when sigma_beta does, which decides
    whether the stacked design is rank deficient.
    """
    A = as_matrix(H)
    xv = allocation_vector(x)
    yv = np.asarray(y, dtype=float)
    if yv.shape != (A.shape[0],):
        raise ValueError("response length must match the row count")
    try:
        sigma_beta(A, xv)
    except ConfoundedDesign as err:
        raise ConfoundedDesign(f"stacked design [H | DxH] is rank deficient: {err}") from None
    X = np.hstack([A, xv[:, None] * A])
    coef, *_ = np.linalg.lstsq(X, yv, rcond=None)
    p = A.shape[1]
    return FittedModel(alpha_hat=coef[:p].copy(), beta_hat=coef[p:].copy())


def recommend(model: FittedModel, z) -> int:
    """Treatment arm maximizing the predicted interaction effect.

    Returns +1 when z'beta_hat >= 0 (ties go to +1), else -1.
    """
    zv = np.asarray(z, dtype=float)
    if zv.shape != model.beta_hat.shape:
        raise ValueError("z length must match the coefficient vector")
    return 1 if float(zv @ model.beta_hat) >= 0.0 else -1


@dataclass(frozen=True, eq=False)
class VarianceReductionReport:
    """Per-z0 variances under random and optimized designs."""

    z0: np.ndarray
    mean_variance: np.ndarray
    optimal_variance: np.ndarray
    reduction_percent: np.ndarray
    fraction_positive: float
    rand_designs: int
    redraws: int
    seed: int

    def to_rows(self) -> list[dict]:
        out = []
        for i in range(self.z0.shape[0]):
            out.append(
                {
                    "z0": "".join("+" if v > 0 else "-" for v in self.z0[i]),
                    "mean_variance": float(self.mean_variance[i]),
                    "optimal_variance": float(self.optimal_variance[i]),
                    "reduction_percent": float(self.reduction_percent[i]),
                }
            )
        return out

    def summary(self) -> dict:
        return {
            "z0_count": int(self.z0.shape[0]),
            "rand_designs": self.rand_designs,
            "redraws": self.redraws,
            "seed": self.seed,
            "fraction_positive": float(self.fraction_positive),
            "median_reduction_percent": float(np.median(self.reduction_percent)),
            "mean_reduction_percent": float(np.mean(self.reduction_percent)),
        }


def sample_z0(p: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform covariate vectors from {1} x {-1,+1}^(p-1), with replacement."""
    body = rng.integers(0, 2, size=(count, p - 1)) * 2 - 1
    return np.column_stack([np.ones(count), body.astype(float)])


def variance_reduction(
    H,
    x_star,
    z0_count: int = 1000,
    rand_designs: int = 1000,
    seed: int = 0,
) -> VarianceReductionReport:
    """Percent variance reduction of x_star against random designs.

    Raises ConfoundedDesign when x_star itself confounds, and
    AllConfounded when random designs keep confounding past the redraw
    budget.  Random designs are drawn and evaluated in stacks of
    objective.stack_size(H); a stack draws no more designs than are still
    needed, so the draws, the accepted designs, the redraw count and the
    point where the budget runs out are those of drawing one at a time.
    """
    if z0_count < 1 or rand_designs < 1:
        raise ValueError("z0_count and rand_designs must be positive")
    F = H if isinstance(H, SpectralCache) else spectral_cache(H)
    n, p = F.n, F.p
    optimal_sigma = sigma_beta(F, x_star)

    rng = np.random.default_rng(seed)
    Z0 = sample_z0(p, z0_count, rng)

    mean_sigma = np.zeros((p, p))
    accepted = 0
    redraws = 0
    budget = REDRAW_FACTOR * rand_designs
    step = stack_size(F)
    while accepted < rand_designs:
        X = random_balanced_stack(n, min(step, rand_designs - accepted), rng).astype(float)
        sigma, reasons = sigma_beta_stack(F, X)
        sigma = np.delete(sigma, list(reasons), axis=0)
        mean_sigma += sigma.sum(axis=0)
        accepted += len(sigma)
        redraws += len(reasons)
        if redraws >= budget:
            # a stack with a confounded draw leaves accepted short, so one
            # at a time the draws would have stopped at the budget
            raise AllConfounded(
                f"random designs kept confounding after {budget} redraws"
            )
    mean_sigma /= rand_designs

    mean_var = np.einsum("ij,jk,ik->i", Z0, mean_sigma, Z0)
    opt_var = np.einsum("ij,jk,ik->i", Z0, optimal_sigma, Z0)
    reduction = 100.0 * (mean_var - opt_var) / mean_var
    Z0.flags.writeable = False
    return VarianceReductionReport(
        z0=Z0,
        mean_variance=mean_var,
        optimal_variance=opt_var,
        reduction_percent=reduction,
        fraction_positive=float(np.mean(reduction > 0.0)),
        rand_designs=rand_designs,
        redraws=redraws,
        seed=seed,
    )


class GapPair(NamedTuple):
    """Original objective (None when confounded) paired with the surrogate.

    finished is False when a separation of the pair stopped at a time or
    node limit; its value then only bounds the worst case from below.
    """

    original: float | None
    surrogate: float
    finished: bool = True


def surrogate_gap_scan(
    H,
    allocations,
    space: CovariateSpace | None = None,
    limits: SolveLimits | None = None,
) -> list[GapPair]:
    """Paired objective values for each allocation, for scatter plots.

    The separations of each objective run as one multiplexed inner-max
    group, sharing one deadline, start + limits.time_limit (see
    rand_benchmark); a pair with a separation stopped at that deadline or
    at its node limit is not finished.
    """
    F = H if isinstance(H, SpectralCache) else spectral_cache(H)
    if space is None:
        space = CovariateSpace.hypercube()
    if len(allocations) == 0:
        return []
    (surr, _, surr_runs), (orig, _, orig_runs) = (
        worst_case_stack(objective_stack(F, allocations, objective), space, F, limits)
        for objective in ("surrogate", "original")
    )
    return [
        GapPair(
            original=None if np.isnan(o) else float(o),
            surrogate=float(s),
            finished=all(run is None or run.optimal for run in runs),
        )
        for o, s, *runs in zip(orig, surr, surr_runs, orig_runs)
    ]
