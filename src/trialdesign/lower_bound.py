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
from .report import DesignReport, solver_parameters


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

    # M o M is exactly symmetric and PSD, so its array is the cut, uncopied
    cuts = CutSet._built(np.zeros(1), lb_matrix(F)[None])
    result = minimize_max_quadratic(cuts, replace(limits, mode=resolved))
    x_star = result.x_star

    lb_objective = float(p / n + result.value / n)
    lb_lower = float(p / n + result.lower_bound / n)
    surr, _ = surrogate_value(F, x_star, report_space)
    try:
        orig, _ = original_value(F, x_star, report_space)
    except ConfoundedDesign:
        orig = None

    diagnostics = {
        "lb_objective": lb_objective,
        "lb_lower_bound": lb_lower,
        "bqp_value": float(result.value),
        "bqp_status": result.status,
        "nodes": result.nodes,
        "restarts": result.restarts,
        # in the units of lb_objective and lb_lower_bound
        "gap": float(result.gap / n),
        "mode_resolved": resolved,
        "confounded": orig is None,
    }
    return DesignReport.from_run(
        "LB_APPROX", F, t0, allocation=x_star, surrogate_value=surr, original_value=orig,
        status=result.status, seed=limits.seed, diagnostics=diagnostics,
        parameters=solver_parameters(limits, report_space),
    )
