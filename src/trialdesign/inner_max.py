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
completion.  That node arithmetic is batched: up to EXPAND_MAX heap-top
nodes are expanded in one set of array operations, while the pop order
and every decision (limits, pruning, incumbents, pushes) stay one node
at a time, as in an unbatched search.  Both paths break ties toward the
lexicographically smallest z only where values are computed exactly
(integer or dyadic entries).  Otherwise rounding can decide: branch and
bound prunes and pushes on bounds summed in one order, and enumeration
judges ties on its block values.
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

# most heap-top nodes that branch and bound expands in one batch; on
# 24-coordinate searches of ~14,000 nodes, 64 and 128 ran alike, 8 ran
# 1.7x and 256 1.1x slower
EXPAND_MAX = 64

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
    depth and fixed-part value; expanding it takes the product 2 N y, from
    which each child's value, bound and greedy completion follow in O(q).

    Up to EXPAND_MAX heap-top entries are popped and expanded together:
    one (k, q) @ 2N product, then the children's values, bounds, greedy
    completions and approximate completion values as array operations.
    Every decision then follows one node at a time, in pop order.  Should
    a child pushed meanwhile outrank the next popped entry, the rest go
    back on the heap with their keys and keep their expansions for their
    turn, so nodes are expanded in the order, and with the outcome, of a
    search that pops them one at a time.  The batch doubles, up to
    EXPAND_MAX, while batches are used up, and shrinks to the number used
    when one is cut short: diving searches run batches of mostly one to
    four nodes, flat frontiers mostly full ones.
    """
    q = w.size
    absN = np.abs(N).copy()
    np.fill_diagonal(absN, 0.0)
    diagN = np.diag(N).copy()
    absw = np.abs(w)
    # static branch order: heaviest total pairwise mass first
    order = np.argsort(-(absw / 2.0 + absN.sum(axis=1)), kind="stable")
    absN_o = absN[np.ix_(order, order)]
    # relaxed value of the free part at each depth d: every pair touching a
    # free coordinate taken at |.|, that is each k >= d with its pairs to
    # the coordinates branched before it
    mass = diagN[order] + absw[order] + 2.0 * np.tril(absN_o).sum(axis=1)
    tail = np.zeros(q + 1)
    tail[:q] = np.cumsum(mass[::-1])[::-1]
    # A child's greedy completion is worth at most the child's bound.  Every
    # bound and value here sums at most ~q^2 terms of total magnitude
    # below S = sum|w| + sum|N|, so their rounding errors stay far below
    # margin, and a child bounded under best_val - margin has a completion
    # that offer() would reject: skipping it changes no incumbent.  So does
    # a completion whose approximate value lies under best_val - margin.
    margin = 1e-9 * float(absw.sum() + np.abs(N).sum())
    N2 = 2.0 * N  # N is exactly symmetric, so row b of N2 is 2 N[:, b]
    sign = np.array([-1.0, 1.0])[:, None]
    # per depth d: N_bb of the coordinate b = order[d] branched on, and
    # the relaxed mass left at its children's depth
    diag_at, tail_at = diagN[order], tail[1:]
    # A child of sign s of a depth-d node completes a free y_i to +1 iff
    # its lin_i = (w + 2 N yf)_i + 2s N_bi >= 0, that is iff the parent's
    # (w + 2 N yf)_i >= thr_at[d, c, i] = -2s N_bi, c indexing s; at i = b
    # the threshold -s inf sets y_b = s.
    thr_at = -sign * N2[order][:, None, :]
    thr_at[np.arange(q), :, order] = -np.inf * sign.T
    branch_at = order.tolist()

    def exact_value(y: np.ndarray) -> float:
        return float(w @ y + y @ N @ y)

    best_y = _polish(np.where(w >= 0.0, 1.0, -1.0), w, N)
    best_val = exact_value(best_y)

    def offer(y: np.ndarray) -> None:
        nonlocal best_y, best_val
        val = exact_value(y)
        if val > best_val or (val == best_val and tuple(y) < tuple(best_y)):
            best_y, best_val = y.copy(), val

    def expand(entries: list) -> zip:
        # per entry, its children in sign order (-1, +1): values, bounds,
        # approximate values of their completions, and the completions
        k = len(entries)
        _, _, depths, vals_fixed, signs = zip(*entries)
        depth = np.array(depths)
        fixed = np.frombuffer(b"".join(signs), dtype=np.int8).reshape(k, q)
        # lin = w + 2 N yf at each parent; setting y_b = s moves it by
        # 2s N[:, b] and the value of the fixed part by s lin_b + N_bb
        lin = w + fixed @ N2
        val = np.array(vals_fixed) + sign * lin[np.arange(k), order[depth]] + diag_at[depth]
        bound = val + tail_at[depth]
        y = np.where(lin[:, None, :] >= thr_at[depth], 1.0, -1.0)
        np.copyto(y, fixed[:, None, :], where=fixed[:, None, :] != 0)
        flat = y.reshape(2 * k, q)
        approx = np.einsum("ij,ij->i", flat @ N + w, flat).reshape(k, 2)
        return zip(val.T.tolist(), bound.T.tolist(), approx.tolist(), y)

    # heap entry: (-bound, tie counter, depth, value of the fixed part,
    # int8 signs as bytes, which take less memory than an array object)
    heap: list[tuple[float, int, int, float, bytes]] = [(-tail[0], 0, 0, 0.0, bytes(q))]
    counter = 1
    nodes = 0
    optimal = True
    gap = 0.0
    size = 1
    # expansions of popped entries, by tie counter, until their turn
    expanded: dict[int, tuple] = {}
    done = False
    while heap and not done:
        batch = [heapq.heappop(heap) for _ in range(min(size, len(heap)))]
        fresh = [entry for entry in batch if entry[1] not in expanded]
        if fresh:
            expanded.update(zip([entry[1] for entry in fresh], expand(fresh)))
        used = 0
        for i, entry in enumerate(batch):
            if heap and heap[0] < entry:
                # a child pushed in this batch comes first; the rest wait
                # their turn, each keeping a copy of its own rows only
                for later in batch[i:]:
                    vals, bounds, approx, ys = expanded[later[1]]
                    expanded[later[1]] = (vals, bounds, approx, ys.copy())
                    heapq.heappush(heap, later)
                break
            neg_bound, _, depth, _, signs = entry
            if nodes >= limits.node_limit or time.monotonic() > deadline:
                optimal = False
                gap = max(0.0, -neg_bound - best_val)
                done = True
                break
            nodes += 1
            used += 1
            if -neg_bound < best_val:
                done = True
                break  # every open node is dominated by the incumbent
            b = branch_at[depth]
            depth += 1
            child = bytearray(signs)
            for s_b, val, bound, approx, y in zip((255, 1), *expanded.pop(entry[1])):
                if depth < q and bound < best_val - margin:
                    continue  # its greedy completion could not win the offer
                if approx >= best_val - margin:
                    offer(y)
                if depth < q and bound >= best_val:
                    child[b] = s_b  # int8 -1 or +1
                    heapq.heappush(heap, (-bound, counter, depth, val, bytes(child)))
                    counter += 1
        size = min(EXPAND_MAX, 2 * size) if used == len(batch) else max(1, used)
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
