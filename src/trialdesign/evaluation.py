"""Design evaluation: response simulation, model refits, variance reduction.

The headline metric compares the worst optimized design against the
average random one: for covariate vectors z0, the percent reduction

    100 * (z0' E_x[Sigma_beta] z0 - z0' Sigma_beta(x*) z0)
        / (z0' E_x[Sigma_beta] z0)

where the expectation runs over random balanced allocations (confounded
draws are redrawn).  A scan utility pairs original and surrogate values
on random allocations to show how tight the surrogate is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariates import as_matrix
from .errors import AllConfounded, ConfoundedDesign
from .limits import SolveLimits
from .objective import (
    Allocation,
    CovariateSpace,
    SpectralCache,
    allocation_vector,
    original_value,
    random_balanced_signs,
    sigma_beta,
    spectral_cache,
    surrogate_value,
)

# relative singular-value cutoff for the stacked regression design
FIT_RANK_RTOL = 1e-10

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
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.ndim != 1 or beta.ndim != 1 or alpha.size != beta.size:
            raise ValueError("alpha and beta must be vectors of equal length")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        alpha.flags.writeable = False
        beta.flags.writeable = False
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

    Raises ConfoundedDesign when the stacked design is rank deficient,
    which is exactly when Sigma_beta does not exist.
    """
    A = as_matrix(H)
    xv = allocation_vector(x)
    yv = np.asarray(y, dtype=float)
    if yv.shape != (A.shape[0],):
        raise ValueError("response length must match the row count")
    X = np.hstack([A, xv[:, None] * A])
    singular = np.linalg.svd(X, compute_uv=False)
    if singular[-1] <= FIT_RANK_RTOL * singular[0]:
        raise ConfoundedDesign("stacked design [H | DxH] is rank deficient")
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
    cache: SpectralCache | None = None,
) -> VarianceReductionReport:
    """Percent variance reduction of x_star against random designs.

    Raises ConfoundedDesign when x_star itself confounds, and
    AllConfounded when random designs keep confounding past the redraw
    budget.
    """
    if z0_count < 1 or rand_designs < 1:
        raise ValueError("z0_count and rand_designs must be positive")
    A = as_matrix(H)
    n, p = A.shape
    if cache is None:
        cache = spectral_cache(A)
    optimal_sigma = sigma_beta(A, x_star, cache)

    rng = np.random.default_rng(seed)
    Z0 = sample_z0(p, z0_count, rng)

    mean_sigma = np.zeros((p, p))
    accepted = 0
    redraws = 0
    budget = REDRAW_FACTOR * rand_designs
    while accepted < rand_designs:
        if redraws >= budget:
            raise AllConfounded(
                f"random designs kept confounding after {redraws} redraws"
            )
        signs = random_balanced_signs(n, rng)
        try:
            mean_sigma += sigma_beta(A, signs.astype(float), cache)
        except ConfoundedDesign:
            redraws += 1
            continue
        accepted += 1
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
    """Original objective (None when confounded) paired with the surrogate."""

    original: float | None
    surrogate: float


def surrogate_gap_scan(
    H,
    allocations,
    space: CovariateSpace | None = None,
    cache: SpectralCache | None = None,
    limits: SolveLimits | None = None,
) -> list[GapPair]:
    """Paired objective values for each allocation, for scatter plots."""
    A = as_matrix(H)
    if cache is None:
        cache = spectral_cache(A)
    if space is None:
        space = CovariateSpace.hypercube()

    def one(alloc) -> GapPair:
        surr = float(surrogate_value(A, alloc, space, cache, limits)[0])
        try:
            orig = float(original_value(A, alloc, space, cache, limits)[0])
        except ConfoundedDesign:
            return GapPair(original=None, surrogate=surr)
        return GapPair(original=orig, surrogate=surr)

    return [one(alloc) for alloc in allocations]
