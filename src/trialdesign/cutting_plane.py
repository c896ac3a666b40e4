"""Cutting-plane search for the min-max surrogate design.

The master problem keeps a finite set Z_m of covariate vectors and
minimizes theta = max_k (z_k'(H'H)^-1 z_k + x'Upsilon(z_k,H)x) over
balanced sign vectors.  The separation step maximizes the surrogate
quadratic at the master solution over the full hypercube; the loop stops
once theta_m >= delta_m - epsilon.  Each iteration that goes on adds a
hypercube vertex not yet in Z_m (a repeat raises DuplicateCut), so the
loop ends within 2^(p-1) iterations, plus one for the verification
switch below.  A separation depends on the allocation alone, so when a
master returns the allocation just separated, as the first verification
master can, its iteration reuses that separation instead of solving it
again.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import numpy as np

from .bqp import BqpResult, CutSet, minimize_max_quadratic, resolve_mode, solver_method
from .errors import ConfoundedDesign, DuplicateCut
from .inner_max import InnerMaxProblem, solve_inner_max
from .limits import SolveLimits
from .objective import (
    CovariateSpace,
    SpectralCache,
    original_value,
    spectral_cache,
    surrogate_matrix,
    surrogate_value,
    upsilon,
)
from .report import DesignReport, solver_parameters


def _seed_vectors(p: int) -> list[np.ndarray]:
    ones = np.ones(p)
    alternating = np.array([(-1.0) ** i for i in range(p)])
    seeds = [ones]
    if not np.array_equal(alternating, ones):
        seeds.append(alternating)
    return seeds


def solve_exact(
    H,
    limits: SolveLimits | None = None,
    report_space: CovariateSpace | None = None,
    verbose: bool = False,
) -> DesignReport:
    """Run the cutting-plane loop and report the best allocation seen.

    Masters are solved in limits.mode.  The loop minimizes the surrogate
    over the hypercube; the report gives the design's surrogate and
    original values on report_space, and diagnostics keep the hypercube
    value that lower_bound and gap refer to as hypercube_value.

    Every master reports a status and a lower bound (bqp's contract), and
    the loop reads only those: the bound is the best master bound, and
    status is "optimal" only when the final master certified its value,
    the separation solve was exact and report_space is the hypercube, the
    problem the loop certifies; hitting a time or node budget
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

    Z = [np.asarray(z, dtype=float) for z in _seed_vectors(p)]
    cut_pairs = [(float(z @ F.gram_inverse @ z), upsilon(F, z)) for z in Z]

    history: list[tuple[float, float, float]] = []
    best_delta = np.inf
    best_x = None
    best_finished = False
    theta_lb = -np.inf  # best certified master bound
    master_nodes = 0
    prev_x = None
    sub = None
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
        # every cut is a hypercube vertex, so any master bound is a bound
        # on the design problem
        theta_lb = max(theta_lb, master.lower_bound)

        # a separation depends on the allocation alone: a repeat reuses it
        if sub is None or not np.array_equal(x_m.x, prev_x.x):
            remaining = max(deadline - time.monotonic(), 0.05)
            sub = solve_inner_max(
                InnerMaxProblem(surrogate_matrix(F, x_m)),
                limits=SolveLimits(time_limit=remaining),
            )
        prev_x = x_m
        delta = sub.value
        history.append((float(theta), float(delta), time.monotonic() - t0))
        if verbose:
            print(
                f"iter {iteration}: theta={theta:.8f} delta={delta:.8f} "
                f"cuts={len(Z)} master={mode_now}/{master.status}",
                file=sys.stderr,
            )
        if delta < best_delta or best_x is None:
            best_delta, best_x, best_finished = delta, x_m, sub.optimal

        if theta >= delta - limits.epsilon:
            converged = master.status == "optimal" and sub.optimal
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
        z_new = sub.z_star
        if any(np.array_equal(z_new, z) for z in Z):
            raise DuplicateCut(
                "separation returned an existing cut before the stopping test fired"
            )
        Z.append(z_new)
        cut_pairs.append((float(z_new @ F.gram_inverse @ z_new), upsilon(F, z_new)))

    # a finished separation already maximized over the hypercube; one
    # stopped at a limit only bounds the design's value from below
    cube_value = best_delta if best_finished else surrogate_value(F, best_x)[0]
    if report_space.kind == "hypercube":
        surr = cube_value
    else:
        surr, _ = surrogate_value(F, best_x, report_space)
    try:
        orig, _ = original_value(F, best_x, report_space)
    except ConfoundedDesign:
        orig = None

    # theta and delta round differently, so a certified bound can pass the
    # value it certifies by an ulp; the value is itself a valid bound
    theta_lb = min(theta_lb, cube_value)
    diagnostics = {
        "iterations": iteration,
        "cuts": len(Z),
        "master_nodes": master_nodes,
        "master_mode_final": mode_now,
        "master_method": solver_method(n, mode_now),
        "subproblem_method": sub.method,
        "history": [[t, d, s] for t, d, s in history],
        "lower_bound": float(theta_lb),
        "gap": float(cube_value - theta_lb),
        "hypercube_value": float(cube_value),
        "confounded": orig is None,
    }
    # the loop certifies the hypercube problem only: on another space the
    # hypercube bound bounds nothing, so its design stays an incumbent
    certified = converged and report_space.kind == "hypercube"
    return DesignReport.from_run(
        "EXACT", F, t0, allocation=best_x, surrogate_value=surr, original_value=orig,
        status="optimal" if certified else "incumbent", seed=limits.seed,
        diagnostics=diagnostics, parameters=solver_parameters(limits, report_space),
    )
