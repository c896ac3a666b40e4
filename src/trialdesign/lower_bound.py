"""Single-level approximation: minimize the row-averaged surrogate.

Averaging the surrogate objective over z drawn from the rows of H
collapses the bi-level problem to one balanced-sign quadratic

    min_x  p/n + x'(M ∘ M)x / n,    M = H(H'H)^-1 H',

which lower-bounds the worst case over the rows.  The solve is a single
call into the quadratic engine; the report also evaluates the surrogate
and original objectives of the returned allocation.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .bqp import CutSet, minimize_max_quadratic, resolve_mode
from .covariates import matrix_hash
from .errors import ConfoundedDesign
from .limits import SolveLimits
from .objective import (
    CovariateSpace,
    SpectralCache,
    lb_matrix,
    original_value,
    spectral_cache,
    surrogate_value,
)
from .report import DesignReport


def solve_lb(
    H,
    limits: SolveLimits | None = None,
    report_space: CovariateSpace | None = None,
) -> DesignReport:
    """Minimize the averaged surrogate, solving its master in limits.mode."""
    if limits is None:
        limits = SolveLimits()
    t0 = time.monotonic()
    F = H if isinstance(H, SpectralCache) else spectral_cache(H)
    n, p = F.n, F.p
    if report_space is None:
        report_space = CovariateSpace.hypercube()
    resolved = resolve_mode(n, limits.mode)

    cuts = CutSet(constants=np.zeros(1), matrices=lb_matrix(F)[None, :, :])
    result = minimize_max_quadratic(cuts, replace(limits, mode=resolved))
    x_star = result.x_star

    lb_objective = float(p / n + result.value / n)
    lb_lower = float(p / n + result.lower_bound / n)
    surr, _ = surrogate_value(F, x_star, report_space)
    try:
        orig, _ = original_value(F, x_star, report_space)
        confounded = False
    except ConfoundedDesign:
        orig = None
        confounded = True

    diagnostics = {
        "lb_objective": lb_objective,
        "lb_lower_bound": lb_lower,
        "bqp_value": float(result.value),
        "bqp_status": result.status,
        "nodes": result.nodes,
        "restarts": result.restarts,
        "gap": float(result.gap),
        "mode_resolved": resolved,
        "confounded": confounded,
    }
    parameters = {
        "epsilon": limits.epsilon,
        "time_limit": limits.time_limit,
        "node_limit": limits.node_limit,
        "mode": limits.mode,
        "space": report_space.kind,
    }
    return DesignReport(
        method="LB_APPROX",
        allocation=x_star,
        surrogate_value=float(surr),
        original_value=orig,
        status=result.status,
        wall_time=time.monotonic() - t0,
        seed=limits.seed,
        n=n,
        p=p,
        matrix_sha256=matrix_hash(F.matrix),
        diagnostics=diagnostics,
        parameters=parameters,
    )
