"""Cutting-plane search for the min-max surrogate design.

The master problem keeps a finite set Z_m of covariate vectors and
minimizes theta = max_k (z_k'(H'H)^-1 z_k + x'Upsilon(z_k,H)x) over
balanced sign vectors.  The separation step maximizes the surrogate
quadratic at the master solution over the reported profile space
(objective.worst_case_stack); the loop stops once theta_m >= delta_m -
epsilon.  Each iteration that goes on adds a profile of that space not
yet in Z_m (a repeat raises DuplicateCut), so the loop ends within as
many iterations as the space has distinct profiles, 2^(p-1) on the
hypercube, plus one for the verification switch below.  A separation
depends on the allocation alone, so when a master returns the allocation
just separated, as the first verification master can, its iteration
reuses that separation instead of solving it again.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import numpy as np

from .bqp import BqpResult, CutSet, minimize_max_quadratic, resolve_mode, solver_method
from .errors import ConfoundedDesign, DuplicateCut
# unused here, but perfbench/tracing.py wraps solve_inner_max by name in
# this module too, and its install raises AttributeError without it
from .inner_max import solve_inner_max  # noqa: F401
from .limits import SolveLimits
from .objective import (
    CovariateSpace, SpectralCache, original_value, spectral_cache, surrogate_matrix,
    surrogate_value, upsilon, worst_case_quadratic, worst_case_stack,
)
from .report import DesignReport, solver_parameters


def _seed_vectors(p: int) -> list[np.ndarray]:
    # the all-ones and the alternating profile, which coincide at p = 1
    return [np.ones(p), (-1.0) ** np.arange(p)][: min(p, 2)]


def solve_exact(
    H,
    limits: SolveLimits | None = None,
    report_space: CovariateSpace | None = None,
    verbose: bool = False,
) -> DesignReport:
    """Run the cutting-plane loop on report_space; report the best allocation seen.

    Masters are solved in limits.mode.  Separations maximize over
    report_space, so every cut is one of its profiles: the hypercube's
    loop starts from the all-ones and alternating profiles, a finite
    space's from its profile of largest z'(H'H)^-1 z.  The report gives
    the design's surrogate and original values on report_space.

    Every master reports a status and a lower bound (bqp's contract), and
    the loop reads only those: the bound is the best master bound, and
    status is "optimal" only when the final master certified its value
    and the separation solve was exact; hitting a time or node budget
    downgrades it to "incumbent" with the best design found so far.
    limits.node_limit budgets each master; separations get the remaining
    time only.  One master/separation round always runs, however small
    the time limit.
    """
    if limits is None:
        limits = SolveLimits()
    t0 = time.monotonic()
    deadline = t0 + limits.time_limit
    F = H if isinstance(H, SpectralCache) else spectral_cache(H)
    n, p = F.n, F.p
    if report_space is None:
        report_space = CovariateSpace.hypercube()

    # under "auto", past the enumeration cutover heuristic masters find the
    # design and exact ones then verify it, unless a heuristic master's
    # root test already certified it
    mode_now = resolve_mode(n, limits.mode)

    Z = (_seed_vectors(p) if report_space.kind == "hypercube"
         else [worst_case_quadratic(F.gram_inverse, report_space, F)[1]])
    cut_pairs = [(float(z @ F.gram_inverse @ z), upsilon(F, z)) for z in Z]

    history: list[tuple[float, float, float]] = []
    best_delta = np.inf
    best_x = None
    best_finished = False
    theta_lb = -np.inf  # best certified master bound
    master_nodes = 0
    prev_x = None
    delta = None
    continue_from: BqpResult | None = None
    converged = False
    iteration = 0

    while True:
        remaining = deadline - time.monotonic()
        if iteration and remaining <= 0.01:
            break  # the first master/separation round always runs
        iteration += 1
        master_limits = replace(limits, time_limit=max(remaining, 0.05), mode=mode_now)
        master: BqpResult = minimize_max_quadratic(
            CutSet.from_pairs(cut_pairs), master_limits, warm_start=prev_x,
            incumbent=continue_from,
        )
        continue_from = None
        theta = master.value
        x_m = master.x_star
        master_nodes += master.nodes
        # every cut is a profile of report_space, so any master bound is a
        # bound on the design problem there
        theta_lb = max(theta_lb, master.lower_bound)

        # a separation depends on the allocation alone: a repeat reuses it;
        # search is the inner max's result, None on a finite space
        if delta is None or not np.array_equal(x_m.x, prev_x.x):
            remaining = max(deadline - time.monotonic(), 0.05)
            (delta,), (z_new,), (search,) = worst_case_stack(
                surrogate_matrix(F, x_m)[None], report_space, F,
                SolveLimits(time_limit=remaining),
            )
            finished = search is None or search.optimal
        prev_x = x_m
        history.append((float(theta), float(delta), time.monotonic() - t0))
        if verbose:
            print(
                f"iter {iteration}: theta={theta:.8f} delta={delta:.8f} "
                f"cuts={len(Z)} master={mode_now}/{master.status}",
                file=sys.stderr,
            )
        if delta < best_delta or best_x is None:
            best_delta, best_x, best_finished = delta, x_m, finished

        if theta >= delta - limits.epsilon:
            converged = master.status == "optimal" and finished
            if (
                not converged
                and limits.mode == "auto"
                and mode_now == "heuristic"
                and deadline - time.monotonic() > 0.05
            ):
                # the heuristic master did not certify: re-run the loop
                # with exact masters while budget remains, the first of
                # them continuing from this master on the same cuts
                mode_now = "exact"
                continue_from = master
                continue
            break
        if any(np.array_equal(z_new, z) for z in Z):
            raise DuplicateCut(
                "separation returned an existing cut before the stopping test fired"
            )
        Z.append(z_new)
        cut_pairs.append((float(z_new @ F.gram_inverse @ z_new), upsilon(F, z_new)))

    # a finished separation already maximized over report_space; one
    # stopped at a limit only bounds the design's value from below
    surr = best_delta if best_finished else surrogate_value(F, best_x, report_space)[0]
    try:
        orig, _ = original_value(F, best_x, report_space)
    except ConfoundedDesign:
        orig = None

    # theta and delta round differently, so a certified bound can pass the
    # value it certifies by an ulp; the value is itself a valid bound
    theta_lb = min(theta_lb, surr)
    diagnostics = {
        "iterations": iteration,
        "cuts": len(Z),
        "master_nodes": master_nodes,
        "master_mode_final": mode_now,
        "master_method": solver_method(n, mode_now),
        "subproblem_method": "candidates" if search is None else search.method,
        "history": [[t, d, s] for t, d, s in history],
        "lower_bound": float(theta_lb),
        "gap": float(surr - theta_lb),
        "confounded": orig is None,
    }
    return DesignReport.from_run(
        "EXACT", F, t0, allocation=best_x, surrogate_value=surr, original_value=orig,
        status="optimal" if converged else "incumbent", seed=limits.seed,
        diagnostics=diagnostics, parameters=solver_parameters(limits, report_space),
    )
