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
nodes are expanded in one set of array operations, which hand back each
child's value, bound and approximate completion value as flat lists read
by position, while the pop order and every decision (limits, pruning,
incumbents, pushes) stay one node at a time, as in an unbatched search.
Both paths break ties toward the lexicographically smallest z only where
values are computed exactly (integer or dyadic entries).  Otherwise rounding can decide: branch and
bound prunes and pushes on bounds summed in one order, and enumeration
judges ties on its block values.

A search is a generator: it yields the fresh heap entries of each batch
and is sent their expansions, which one module-level function computes.
solve_inner_max drives one search; solve_inner_max_group drives many,
and each round expands the fresh entries of every running search in one
pass, so the per-call cost of the array operations is paid once per
round rather than once per search.  The products with a search's own
matrix run over that search's entries alone, and the rest is elementwise
or rowwise, so a search takes the same path and the same bits alone or
in a group.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .bqp import BLOCK_ENTRIES, _enumerate
from .limits import SolveLimits

# free-coordinate count at or below which enumeration is used
ENUM_MAX_FREE = 22

# most heap-top nodes that branch and bound expands in one batch; on
# 24-coordinate searches of ~14,000 nodes, 64 and 128 ran alike, 8 ran
# 1.7x and 256 1.1x slower
EXPAND_MAX = 64

METHODS = ("auto", "enumeration", "branch_and_bound")

# child signs (-1, +1) as a column, against a parent's rows
_SIGN = np.array([[-1.0], [1.0]])


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


class _Tables:
    """Per-search tables of the searches in one group, one block per slot.

    The search in slot j keeps w, N and 2N at index j and, for each depth
    d at row j*q + d, the coordinate b branched on there, N_bb, the relaxed
    mass left at its children's depth and the completion thresholds.
    """

    def __init__(self, slots: int, q: int) -> None:
        self.q = q
        self.w = np.empty((slots, q))
        self.N = np.empty((slots, q, q))
        self.N2 = np.empty((slots, q, q))
        self.branch = np.empty(slots * q, dtype=np.intp)
        self.diag_at = np.empty(slots * q)
        self.tail_at = np.empty(slots * q)
        self.thr_at = np.empty((slots * q, 2, q))

    def load(self, slot: int, M: np.ndarray) -> tuple[float, float, list[int]]:
        """Fill the slot for the search of M; return its root bound, its
        rounding margin and its branch order."""
        q = self.q
        # fold the pinned leading coordinate into a linear term
        w, N = self.w[slot], self.N[slot]
        w[:] = 2.0 * M[0, 1:]
        N[:] = M[1:, 1:]
        absN = np.abs(N)
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
        rows = slice(slot * q, (slot + 1) * q)
        # per depth d: the coordinate b = order[d] branched on, N_bb, and the
        # relaxed mass left at its children's depth
        self.branch[rows], self.diag_at[rows], self.tail_at[rows] = order, diagN[order], tail[1:]
        N2 = self.N2[slot]
        N2[:] = 2.0 * N  # N is exactly symmetric, so row b of N2 is 2 N[:, b]
        # A child of sign s of a depth-d node completes a free y_i to +1 iff
        # its lin_i = (w + 2 N yf)_i + 2s N_bi >= 0, that is iff the parent's
        # (w + 2 N yf)_i >= thr_at[d, c, i] = -2s N_bi, c indexing s; at i = b
        # the threshold -s inf sets y_b = s.
        thr_at = self.thr_at[rows]
        thr_at[:] = -_SIGN * N2[order][:, None, :]
        thr_at[np.arange(q), :, order] = -np.inf * _SIGN.T
        # A child's greedy completion is worth at most the child's bound.  Every
        # bound and value here sums at most ~q^2 terms of total magnitude
        # below S = sum|w| + sum|N|, so their rounding errors stay far below
        # margin, and a child bounded under best_val - margin has a completion
        # that offer() would reject: skipping it changes no incumbent.  So does
        # a completion whose approximate value lies under best_val - margin.
        margin = 1e-9 * float(absw.sum() + np.abs(N).sum())
        return float(tail[0]), margin, order.tolist()


def _expand(tables: _Tables, requests: list) -> list[tuple]:
    """Expand the fresh entries of every search of a round in one pass.

    requests holds (slot, entries) per search.  Returns, per request, the
    children of its entries by position: flat lists of values, bounds and
    approximate completion values, child 2i being sign -1 of entry i and
    child 2i + 1 sign +1, and the completions as one (2k, q) block in the
    same order.  The products with a search's own matrices run over its
    own entries alone, the operands a search expanded alone would have,
    so they give the same bits; every other operation is elementwise or
    rowwise.
    """
    q = tables.q
    entries = [entry for _, batch in requests for entry in batch]
    k = len(entries)
    _, _, depths, vals_fixed, signs = zip(*entries)
    key = np.array(depths)
    # cast once here rather than inside each search's product
    fixed = np.frombuffer(b"".join(signs), dtype=np.int8).reshape(k, q).astype(float)
    spans = []
    start = 0
    for slot, batch in requests:
        spans.append((slot, start, start + len(batch)))
        key[start : start + len(batch)] += slot * q
        start += len(batch)

    def by_search(product) -> np.ndarray:
        parts = [product(j, a, b) for j, a, b in spans]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # lin = w + 2 N yf at each parent; setting y_b = s moves it by
    # 2s N[:, b] and the value of the fixed part by s lin_b + N_bb
    lin = by_search(lambda j, a, b: tables.w[j] + fixed[a:b] @ tables.N2[j])
    val = np.array(vals_fixed) + _SIGN * lin[np.arange(k), tables.branch[key]] + tables.diag_at[key]
    bound = val + tables.tail_at[key]
    y = np.where(lin[:, None, :] >= tables.thr_at[key], 1.0, -1.0)
    np.copyto(y, fixed[:, None, :], where=fixed[:, None, :] != 0)
    flat = y.reshape(2 * k, q)
    Nyw = by_search(lambda j, a, b: flat[2 * a : 2 * b] @ tables.N[j] + tables.w[j])
    approx = np.einsum("ij,ij->i", Nyw, flat)
    vals, bounds, approxs = val.T.ravel().tolist(), bound.T.ravel().tolist(), approx.tolist()
    # the completions are views of one block; a search copies the rows of
    # an entry it keeps past the round (_branch_and_bound)
    return [
        (vals[2 * a : 2 * b], bounds[2 * a : 2 * b], approxs[2 * a : 2 * b], flat[2 * a : 2 * b])
        for _, a, b in spans
    ]


def _branch_and_bound(
    M: np.ndarray, limits: SolveLimits, deadline: float, tables: _Tables, slot: int
):
    """Best-first search over partial sign fixings of z = (1, y).

    It maximizes w'y + y'Ny, with w = 2 M[0, 1:] and N = M[1:, 1:]; the
    constant M[0, 0] is omitted.

    Branching follows a static order, so a node at depth d has fixed
    exactly the coordinates order[:d].  Its interval bound is the value of
    the fixed part plus tail[d], the relaxed mass of every term touching a
    free coordinate, which depends on d alone.  A heap entry carries its
    depth and fixed-part value; expanding it takes the product 2 N y, from
    which each child's value, bound and greedy completion follow in O(q).

    Up to EXPAND_MAX heap-top entries are popped and expanded together:
    one (k, q) @ 2N product, then the children's values, bounds, greedy
    completions and approximate completion values as array operations.
    Every decision then follows one node at a time, in pop order, reading
    the expansions of a fresh batch by position: the children of its i-th
    fresh entry are 2i and 2i + 1.  Should a child pushed meanwhile
    outrank the next popped entry, the rest go back on the heap with their
    keys and keep their expansions, by tie counter, for their turn, so
    nodes are expanded in the order, and with the outcome, of a search
    that pops them one at a time.  The batch doubles, up to
    EXPAND_MAX, while batches are used up, and shrinks to the number used
    when one is cut short: diving searches run batches of mostly one to
    four nodes, flat frontiers mostly full ones.

    The node loop writes out both children, tests the leaf depth once per
    node and keeps best_val - margin in a local, cut, that an offer
    refreshes; a child's signs are its parent's bytes with one replaced.

    A generator: it loads its tables into the given slot, yields the
    fresh entries of each batch and is sent their expansions by _expand;
    it returns (y, nodes, optimal, gap).
    """
    q = tables.q
    root_bound, margin, branch_at = tables.load(slot, M)
    w, N = tables.w[slot], tables.N[slot]
    node_limit = limits.node_limit
    # bound here rather than at import, so that stand-ins for heapq and
    # time installed on this module before a search apply to it
    heappop, heappush, monotonic = heapq.heappop, heapq.heappush, time.monotonic

    def exact_value(y: np.ndarray) -> float:
        return float(w @ y + y @ N @ y)

    best_y = _polish(np.where(w >= 0.0, 1.0, -1.0), w, N)
    best_val = exact_value(best_y)
    # a child bounded, or a completion valued, under cut cannot win an offer
    cut = best_val - margin

    def offer(y: np.ndarray) -> None:
        nonlocal best_y, best_val, cut
        val = exact_value(y)
        if val > best_val or (val == best_val and tuple(y) < tuple(best_y)):
            best_y, best_val, cut = y.copy(), val, val - margin

    # heap entry: (-bound, tie counter, depth, value of the fixed part,
    # int8 signs as bytes, which take less memory than an array object)
    heap: list[tuple[float, int, int, float, bytes]] = [(-root_bound, 0, 0, 0.0, bytes(q))]
    counter = 1
    nodes = 0
    size = 1
    # expansions of entries pushed back after a cut, by tie counter
    expanded: dict[int, tuple] = {}
    while heap:
        batch = [heappop(heap) for _ in range(min(size, len(heap)))]
        fresh = [entry for entry in batch if entry[1] not in expanded]
        if fresh:
            vals, bounds, approxs, ys = yield fresh
        at = 0  # position of the next fresh entry's first child
        for i, entry in enumerate(batch):
            if heap and heap[0] < entry:
                # a child pushed in this batch comes first; the rest wait
                # their turn, each keeping a copy of its own rows only
                for later in batch[i:]:
                    if later[1] not in expanded:
                        two = slice(at, at + 2)
                        expanded[later[1]] = (vals[two], bounds[two], approxs[two], ys[two].copy())
                        at += 2
                    heappush(heap, later)
                size = max(1, i)
                break
            neg_bound, tie, depth, _, signs = entry
            if nodes >= node_limit or monotonic() > deadline:
                return best_y, nodes, False, max(0.0, -neg_bound - best_val)
            nodes += 1
            if -neg_bound < best_val:
                return best_y, nodes, True, 0.0  # every open node is dominated by the incumbent
            if tie in expanded:
                c_vals, c_bounds, c_approxs, c_ys = expanded.pop(tie)
                c = 0
            else:
                c_vals, c_bounds, c_approxs, c_ys = vals, bounds, approxs, ys
                c = at
                at += 2
            b = branch_at[depth]
            head, rest = signs[:b], signs[b + 1 :]
            depth += 1
            if depth == q:  # leaves: only their values count
                if c_approxs[c] >= cut:
                    offer(c_ys[c])
                if c_approxs[c + 1] >= cut:
                    offer(c_ys[c + 1])
                continue
            # child of sign -1 (int8 0xff), then of sign +1
            bound = c_bounds[c]
            if bound >= cut:
                if c_approxs[c] >= cut:
                    offer(c_ys[c])
                if bound >= best_val:
                    heappush(heap, (-bound, counter, depth, c_vals[c], head + b"\xff" + rest))
                    counter += 1
            bound = c_bounds[c + 1]
            if bound >= cut:
                if c_approxs[c + 1] >= cut:
                    offer(c_ys[c + 1])
                if bound >= best_val:
                    heappush(heap, (-bound, counter, depth, c_vals[c + 1], head + b"\x01" + rest))
                    counter += 1
        else:
            size = min(EXPAND_MAX, 2 * size)
    return best_y, nodes, True, 0.0


def _multiplex(matrices: list, limits: SolveLimits, deadline: float) -> list[tuple]:
    """Run the branch and bound of every matrix, all of one width q + 1.

    Searches run slots at a time; a slot freed by a finished search takes
    the next one.  The slots are as many as fit about BLOCK_ENTRIES
    entries, each with its tables (4 q^2 entries: N, 2N and two thresholds
    per depth) and its share of a round's largest temporary (two children
    of up to EXPAND_MAX entries).  Returns (y, nodes, optimal, gap) per
    search, in order.
    """
    q = matrices[0].shape[0] - 1
    slots = max(1, BLOCK_ENTRIES // (4 * q * q + 2 * EXPAND_MAX * q))
    tables = _Tables(min(len(matrices), slots), q)
    found: list = [None] * len(matrices)
    running: dict[int, tuple] = {}  # slot -> (search index, generator, fresh entries)
    free = list(range(len(tables.w)))[::-1]
    waiting = iter(range(len(matrices)))

    def advance(slot: int, index: int, search, sent) -> None:
        try:
            running[slot] = (index, search, search.send(sent))
        except StopIteration as stop:
            found[index] = stop.value
            free.append(slot)

    while True:
        while free:
            index = next(waiting, None)
            if index is None:
                break
            slot = free.pop()
            advance(slot, index, _branch_and_bound(matrices[index], limits, deadline, tables, slot), None)
        if not running:
            return found
        requests = [(slot, fresh) for slot, (_, _, fresh) in running.items()]
        for (slot, _), expansion in zip(requests, _expand(tables, requests)):
            index, search, _ = running.pop(slot)
            advance(slot, index, search, expansion)


def _solve(problems: list, limits: SolveLimits | None, method: str) -> list[InnerMaxResult]:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if limits is None:
        limits = SolveLimits()
    found: list = [None] * len(problems)
    by_width: dict[int, list[int]] = {}  # q -> problems searched by branch and bound
    for i, problem in enumerate(problems):
        q = problem.p - 1
        use = method
        if use == "auto" or q == 0:
            use = "enumeration" if q <= ENUM_MAX_FREE else "branch_and_bound"
        if use == "enumeration":
            z = _enumerate(np.zeros(1), -problem.M[None], balanced=False)[0]
            found[i] = (z, 1 << q, use, True, 0.0)
        else:
            by_width.setdefault(q, []).append(i)
    if by_width:
        deadline = time.monotonic() + limits.time_limit
        for indices in by_width.values():
            matrices = [problems[i].M for i in indices]
            for i, (y, nodes, optimal, gap) in zip(indices, _multiplex(matrices, limits, deadline)):
                found[i] = (np.concatenate([[1.0], y]), nodes, "branch_and_bound", optimal, gap)
    results = []
    for problem, (z, nodes, use, optimal, gap) in zip(problems, found):
        z.flags.writeable = False
        results.append(
            InnerMaxResult(
                z_star=z, value=float(z @ problem.M @ z), nodes_explored=nodes,
                method=use, optimal=optimal, gap=gap,
            )
        )
    return results


def solve_inner_max(
    problem: InnerMaxProblem,
    limits: SolveLimits | None = None,
    method: str = "auto",
) -> InnerMaxResult:
    """Maximize z'Mz with z[0] = +1; exact unless a limit interrupts."""
    return _solve([problem], limits, method)[0]


def solve_inner_max_group(
    problems: list[InnerMaxProblem],
    limits: SolveLimits | None = None,
) -> list[InnerMaxResult]:
    """solve_inner_max in auto mode for every problem, branch and bound
    multiplexed.

    The searches of each width share every round of node expansion.  Each
    search keeps its own node_limit, and takes the same path, with the
    same result, as it would alone.  The time limit is the group's: every
    search stops at one deadline, start + limits.time_limit, where start
    is when the group begins its first search.
    """
    return _solve(problems, limits, "auto")
