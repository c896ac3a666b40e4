"""Exact maximization of z'Mz over {1} x {-1,+1}^(p-1).

Small problems (p-1 <= 22) are enumerated by the engine that solves
small exact masters, ``bqp._enumerate``: it minimizes z'(-M)z over every
sign vector with z_0 = +1, evaluating blocks of leading signs against a
tabulated table of trailing signs.  Larger problems run best-first
branch-and-bound with an interval bound that relaxes each pairwise
product touching a free coordinate to [-1, 1].  Branching follows one
static order, so the relaxed part of a bound depends only on the depth
and is tabulated once; a child's bound then follows from its parent's
fixed-part value and one product N y in O(p), as does its greedy
completion.  Ties are broken toward the lexicographically smallest z in
both paths.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .bqp import _enumerate
from .limits import SolveLimits

# free-coordinate count at or below which enumeration is used
ENUM_MAX_FREE = 22

METHODS = ("auto", "enumeration", "branch_and_bound")


@dataclass(frozen=True, eq=False)
class InnerMaxProblem:
    """Symmetric p x p matrix M; the leading coordinate of z is pinned."""

    M: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.M, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("M must be a square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("M has non-finite entries")
        if np.max(np.abs(arr - arr.T)) > 1e-12:
            raise ValueError("M must be symmetric to 1e-12")
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "M", arr)

    @property
    def p(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True, eq=False)
class InnerMaxResult:
    """Argmax z (first entry +1), its value, and search diagnostics."""

    z_star: np.ndarray
    value: float
    nodes_explored: int
    method: str
    optimal: bool
    gap: float


def _polish(y: np.ndarray, w: np.ndarray, N: np.ndarray) -> np.ndarray:
    # single-flip ascent until no strict improvement
    y = y.copy()
    val = float(w @ y + y @ N @ y)
    four_diag = 4.0 * np.diag(N)
    while True:
        grad = w + 2.0 * N @ y
        deltas = -2.0 * y * grad + four_diag
        i = int(np.argmax(deltas))
        if deltas[i] <= 1e-12 * (1.0 + abs(val)):
            return y
        y[i] = -y[i]
        val += float(deltas[i])


def _branch_and_bound(
    w: np.ndarray,
    N: np.ndarray,
    limits: SolveLimits,
    deadline: float,
) -> tuple[np.ndarray, int, bool, float]:
    """Best-first search over partial sign fixings (constant term omitted).

    Branching follows a static order, so a node at depth d has fixed
    exactly the coordinates order[:d].  Its interval bound is the value of
    the fixed part plus tail[d], the relaxed mass of every term touching a
    free coordinate, which depends on d alone.  A heap entry carries its
    depth and fixed-part value; popping it costs one matrix-vector product,
    and each child's value, bound and greedy completion follow in O(q).
    """
    q = w.size
    absN = np.abs(N).copy()
    np.fill_diagonal(absN, 0.0)
    diagN = np.diag(N).copy()
    absw = np.abs(w)
    # static branch order: heaviest total pairwise mass first
    order = np.argsort(-(absw / 2.0 + absN.sum(axis=1)), kind="stable")
    absN_o = absN[np.ix_(order, order)]
    free_o = diagN[order] + absw[order]
    # relaxed value of the free part at each depth, every pair touching a
    # free coordinate taken at |.|
    tail = [
        float(free_o[d:].sum() + 2.0 * absN_o[:d, d:].sum() + absN_o[d:, d:].sum())
        for d in range(q + 1)
    ]
    # free_at[d, i]: coordinate i is still free at depth d
    free_at = np.argsort(order)[None, :] >= np.arange(q + 1)[:, None]
    branch_at = order.tolist()
    w_at = w[order].tolist()
    diag_at = diagN[order].tolist()
    # A child's greedy completion is worth at most the child's bound.  Every
    # bound and value here sums at most ~q^2 terms of total magnitude
    # below S = sum|w| + sum|N|, so their rounding errors stay far below
    # margin, and a child bounded under best_val - margin has a completion
    # that offer() would reject: skipping it changes no incumbent.
    margin = 1e-9 * float(absw.sum() + np.abs(N).sum())
    N2 = 2.0 * N  # N is exactly symmetric, so row b of N2 is 2 N[:, b]

    def exact_value(y: np.ndarray) -> float:
        return float(w @ y + y @ N @ y)

    best_y = _polish(np.where(w >= 0.0, 1.0, -1.0), w, N)
    best_val = exact_value(best_y)

    def offer(y: np.ndarray) -> None:
        nonlocal best_y, best_val
        val = exact_value(y)
        if val > best_val or (val == best_val and tuple(y) < tuple(best_y)):
            best_y, best_val = y.copy(), val

    # heap entry: (-bound, tie counter, depth, value of the fixed part,
    # int8 signs as bytes, which take less memory than an array object)
    heap: list[tuple[float, int, int, float, bytes]] = [(-tail[0], 0, 0, 0.0, bytes(q))]
    counter = 1
    nodes = 0
    optimal = True
    gap = 0.0
    while heap:
        if nodes >= limits.node_limit or time.monotonic() > deadline:
            optimal = False
            gap = max(0.0, -heap[0][0] - best_val)
            break
        neg_bound, _, depth, val_fixed, signs = heapq.heappop(heap)
        nodes += 1
        if -neg_bound < best_val:
            break  # every open node is dominated by the incumbent
        fixed = np.frombuffer(signs, dtype=np.int8)
        b = branch_at[depth]
        w_b, n_bb = w_at[depth], diag_at[depth]
        depth += 1
        # 2 N yf at the parent; setting y_b = s moves it by 2s N[:, b] and
        # the value of the fixed part by s w_b + 2s (N yf)_b + N_bb
        g2 = 2.0 * (N @ fixed)
        g2_b = float(g2[b])
        for sign, g2_child in ((-1, g2 - N2[b]), (1, g2 + N2[b])):
            child = fixed.copy()
            child[b] = sign
            if depth == q:
                offer(child.astype(float))
                continue
            child_val = val_fixed + sign * w_b + sign * g2_b + n_bb
            child_bound = child_val + tail[depth]
            if child_bound < best_val - margin:
                continue  # its greedy completion could not win the offer
            lin = w + g2_child
            offer(np.where(free_at[depth], np.where(lin >= 0.0, 1.0, -1.0), child))
            if child_bound >= best_val:
                heapq.heappush(heap, (-child_bound, counter, depth, child_val, child.tobytes()))
                counter += 1
    return best_y, nodes, optimal, gap


def solve_inner_max(
    problem: InnerMaxProblem,
    limits: SolveLimits | None = None,
    method: str = "auto",
) -> InnerMaxResult:
    """Maximize z'Mz with z[0] = +1; exact unless a limit interrupts."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if limits is None:
        limits = SolveLimits()
    M = problem.M
    q = problem.p - 1
    if method == "auto" or q == 0:
        method = "enumeration" if q <= ENUM_MAX_FREE else "branch_and_bound"
    if method == "enumeration":
        z = _enumerate(np.zeros(1), -M[None], balanced=False)[0]
        nodes, optimal, gap = 1 << q, True, 0.0
    else:
        # fold the pinned leading coordinate into a linear term
        w, N = 2.0 * M[0, 1:], M[1:, 1:].copy()
        deadline = time.monotonic() + limits.time_limit
        y, nodes, optimal, gap = _branch_and_bound(w, N, limits, deadline)
        z = np.concatenate([[1.0], y])
    z.flags.writeable = False
    value = float(z @ M @ z)
    return InnerMaxResult(
        z_star=z, value=value, nodes_explored=nodes,
        method=method, optimal=optimal, gap=gap,
    )
