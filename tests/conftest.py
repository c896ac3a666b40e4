"""Shared fixtures and independent oracles for the test suite.

Oracles here are deliberately naive: full enumeration and direct matrix
algebra, written without reusing solver internals, so the tests check
the implementation against something that cannot share its bugs.
"""

import heapq
import itertools
import os
import time

import numpy as np
import pytest
from hypothesis import settings

from trialdesign.bqp import MOVE_RTOL, _exact_cut_values

# HYPOTHESIS_PROFILE=ci runs the property tests on a fixed example
# sequence, so a failure replays with the same examples; other runs keep
# Hypothesis's random exploration
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_design(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Intercept plus iid +/-1 columns, redrawn until full column rank."""
    while True:
        H = np.hstack([np.ones((n, 1)), rng.choice([-1.0, 1.0], size=(n, p - 1))])
        if np.linalg.matrix_rank(H) == p:
            return H


def balanced_corners(n: int) -> np.ndarray:
    """All sign vectors with |sum| <= 1, one per row."""
    X = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return X[np.abs(X.sum(axis=1)) <= 1]


def hypercube_vertices(p: int) -> np.ndarray:
    """All covariate vertices {1} x {-1,1}^(p-1), one per row."""
    if p == 1:
        return np.ones((1, 1))
    Z = np.array(list(itertools.product((-1.0, 1.0), repeat=p - 1)))
    return np.hstack([np.ones((Z.shape[0], 1)), Z])


def oracle_sigma_beta(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interaction-effect covariance by direct inversion."""
    G = H.T @ H
    S = H.T @ (x[:, None] * H)
    C = G - S @ np.linalg.inv(G) @ S
    return np.linalg.inv(C)


def oracle_psi(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    G_inv = np.linalg.inv(H.T @ H)
    S = H.T @ (x[:, None] * H)
    return G_inv @ S @ G_inv @ S @ G_inv


def oracle_surrogate_matrix(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.linalg.inv(H.T @ H) + oracle_psi(H, x)


def oracle_upsilon(H: np.ndarray, z: np.ndarray) -> np.ndarray:
    hat = H @ np.linalg.inv(H.T @ H) @ H.T
    u = H @ np.linalg.inv(H.T @ H) @ z
    M = hat * np.outer(u, u)
    return 0.5 * (M + M.T)


def oracle_lb_matrix(H: np.ndarray) -> np.ndarray:
    hat = H @ np.linalg.inv(H.T @ H) @ H.T
    return hat * hat


def brute_max_quadratic(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Max of z'Mz over the covariate hypercube by full enumeration."""
    Z = hypercube_vertices(M.shape[0])
    vals = np.einsum("zi,ij,zj->z", Z, M, Z)
    best = int(np.argmax(vals))
    return Z[best], float(vals[best])


def brute_min_max_cuts(
    constants: np.ndarray, matrices: np.ndarray, X: np.ndarray
) -> float:
    """Min over given sign rows of max_k (c_k + x'A_k x)."""
    vals = constants[None, :] + np.einsum("mi,kij,mj->mk", X, matrices, X)
    return float(vals.max(axis=1).min())


def brute_bilevel_surrogate(H: np.ndarray, Z: np.ndarray | None = None) -> float:
    """Min over all balanced x of max over z (surrogate), z ranging over the
    rows of Z, all hypercube vertices when Z is None."""
    n, p = H.shape
    if Z is None:
        Z = hypercube_vertices(p)
    best = np.inf
    for x in balanced_corners(n):
        M = oracle_surrogate_matrix(H, x)
        best = min(best, float(np.einsum("zi,ij,zj->z", Z, M, Z).max()))
    return best


def naive_descent(
    c: np.ndarray, A: np.ndarray, diag: np.ndarray, x0: np.ndarray, deadline: float
) -> tuple[np.ndarray, float]:
    """Steepest descent that re-gathers the whole swap block on every move.

    Reference for the heuristic's slot-indexed descent: the same moves,
    the same tie rule (row-major argmin over sorted index sets, so the
    smallest (plus, minus) pair wins) and the same arithmetic order.  The
    closing value comes from the solver's own ``_exact_cut_values``, whose
    BLAS products round as the descent's do; the tests check that helper
    against the three-operand einsum separately.
    """
    K = A.shape[0]
    x = x0.astype(float).copy()
    g = A @ x
    f = c + g @ x
    while time.monotonic() <= deadline:
        cur = float(f.max())
        tol = MOVE_RTOL * (1.0 + abs(cur))
        plus = np.flatnonzero(x > 0)
        minus = np.flatnonzero(x < 0)
        best_val = np.inf
        best_move: tuple[int, ...] | None = None
        if plus.size and minus.size:
            block = None
            for k in range(K):
                u = -4.0 * g[k, plus] + 4.0 * diag[k, plus]
                v = 4.0 * g[k, minus] + 4.0 * diag[k, minus]
                cand = f[k] + u[:, None] + v[None, :] - 8.0 * A[k][np.ix_(plus, minus)]
                block = cand if block is None else np.maximum(block, cand)
            flat = int(np.argmin(block))
            i, j = divmod(flat, minus.size)
            best_val = float(block[i, j])
            best_move = (int(plus[i]), int(minus[j]))
        total = int(round(x.sum()))
        if total != 0:
            side = np.flatnonzero(x == float(np.sign(total)))
            if side.size:
                single = None
                for k in range(K):
                    cand = f[k] - 4.0 * x[side] * g[k, side] + 4.0 * diag[k, side]
                    single = cand if single is None else np.maximum(single, cand)
                t = int(np.argmin(single))
                if float(single[t]) < best_val:
                    best_val = float(single[t])
                    best_move = (int(side[t]),)
        if best_move is None or best_val >= cur - tol:
            break
        for idx in best_move:
            g -= 2.0 * x[idx] * A[:, :, idx]
        for idx in best_move:
            x[idx] = -x[idx]
        f = c + g @ x
    return x, float(_exact_cut_values(c, A, x).max())


def naive_branch_and_bound(
    w: np.ndarray, N: np.ndarray, node_limit: int, deadline: float
) -> tuple[np.ndarray, int, bool, float]:
    """Interval branch and bound that rebuilds every node bound from scratch.

    Reference for the solver's incremental search: the same static
    branch order, best-first pop order (bound, then push order), greedy
    completions, polish start and lexicographic tie rule, with each
    bound summed over the fixed/free index sets of its node.  Maximizes
    w'y + y'Ny over {-1,+1}^q and returns (y, nodes, optimal, gap).
    """
    q = w.size
    absN = np.abs(N).copy()
    np.fill_diagonal(absN, 0.0)
    diagN = np.diag(N).copy()
    absw = np.abs(w)
    # static branch order: heaviest total pairwise mass first
    order = np.argsort(-(absw / 2.0 + absN.sum(axis=1)), kind="stable")

    def exact_value(y: np.ndarray) -> float:
        return float(w @ y + y @ N @ y)

    def interval_bound(fixed: np.ndarray) -> float:
        # every pair touching a free coordinate relaxed to |.|
        free = fixed == 0
        yf = fixed.astype(float)
        val_fixed = float(w @ yf + yf @ N @ yf)
        return (
            val_fixed
            + float(diagN[free].sum())
            + float(absw[free].sum())
            + 2.0 * float(absN[np.ix_(~free, free)].sum())
            + float(absN[np.ix_(free, free)].sum())
        )

    def greedy_completion(fixed: np.ndarray) -> np.ndarray:
        free = fixed == 0
        yf = fixed.astype(float)
        lin = w + 2.0 * N @ yf
        return np.where(free, np.where(lin >= 0.0, 1.0, -1.0), yf)

    # single-flip ascent from the sign of w, until no strict improvement
    best_y = np.where(w >= 0.0, 1.0, -1.0)
    start_val = exact_value(best_y)
    while True:
        deltas = -2.0 * best_y * (w + 2.0 * N @ best_y) + 4.0 * np.diag(N)
        i = int(np.argmax(deltas))
        if deltas[i] <= 1e-12 * (1.0 + abs(start_val)):
            break
        best_y[i] = -best_y[i]
        start_val += float(deltas[i])
    best_val = exact_value(best_y)

    def offer(y: np.ndarray) -> None:
        nonlocal best_y, best_val
        val = exact_value(y)
        if val > best_val or (val == best_val and tuple(y) < tuple(best_y)):
            best_y, best_val = y.copy(), val

    root = np.zeros(q, dtype=np.int8)
    heap: list[tuple[float, int, np.ndarray]] = [(-interval_bound(root), 0, root)]
    counter = 1
    nodes = 0
    optimal = True
    gap = 0.0
    while heap:
        if nodes >= node_limit or time.monotonic() > deadline:
            optimal = False
            gap = max(0.0, -heap[0][0] - best_val)
            break
        neg_bound, _, fixed = heapq.heappop(heap)
        nodes += 1
        if -neg_bound < best_val:
            break  # every open node is dominated by the incumbent
        branch = next((int(i) for i in order if fixed[i] == 0), None)
        if branch is None:
            offer(fixed.astype(float))
            continue
        for sign in (-1, 1):
            child = fixed.copy()
            child[branch] = sign
            if not np.any(child == 0):
                offer(child.astype(float))
                continue
            offer(greedy_completion(child))
            child_bound = interval_bound(child)
            if child_bound >= best_val:
                heapq.heappush(heap, (-child_bound, counter, child))
                counter += 1
    return best_y, nodes, optimal, gap


@pytest.fixture
def toy_design() -> np.ndarray:
    """4x2 design whose objective values are known by hand."""
    return np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
