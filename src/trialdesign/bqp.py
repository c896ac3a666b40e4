"""Minimize the worst of several PSD quadratic forms over balanced signs.

The problem is min_x max_k (c_k + x'A_k x) over x in {-1,+1}^n with
|sum x| <= 1.  Heuristic mode runs seeded multi-start steepest descent
over balance-preserving moves: opposite-sign pair swaps, plus single
flips when n is odd.  Each descent scores all swaps from a block
8 A_k[plus, minus] kept in slot order, rewriting one row and one column
per swap instead of gathering the block again; the block costs a
quarter of the cut stack.  Exact ties go to the smallest (plus index,
minus index) pair, so results depend only on the seed.

Exact mode runs best-first branch-and-bound with two bounds per node: a
cheap interval bound that relaxes every pairwise product touching a free
coordinate, and a certified convex bound from projected gradient on each
cut's quadratic over the box-and-balance polytope (the gradient
linearization at the final iterate is minimized exactly over that
polytope, so the bound is valid even before the gradient iteration
converges).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from .limits import SolveLimits
from .objective import Allocation, allocation_vector, random_balanced_signs

# cut matrices must be symmetric PSD up to this slack
CUT_PSD_ATOL = 1e-8

# projected-gradient settings for the convex node bound
PG_MAX_ITER = 500
PG_RTOL = 1e-7
PG_CHECK_EVERY = 25
POWER_ITERS = 50

# strict-decrease guard for the descent heuristic
MOVE_RTOL = 1e-12
MIN_RESTARTS = 32

STATUSES = ("optimal", "incumbent")


@dataclass(frozen=True, eq=False)
class CutSet:
    """K cuts (c_k, A_k) sharing one allocation dimension n."""

    constants: np.ndarray
    matrices: np.ndarray

    def __post_init__(self) -> None:
        cons = np.asarray(self.constants, dtype=float).copy()
        mats = np.asarray(self.matrices, dtype=float).copy()
        if cons.ndim != 1 or cons.size == 0:
            raise ValueError("constants must be a non-empty vector")
        if mats.ndim != 3 or mats.shape[0] != cons.size or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must be a (K, n, n) stack matching constants")
        if not (np.all(np.isfinite(cons)) and np.all(np.isfinite(mats))):
            raise ValueError("cut data has non-finite entries")
        asym = np.max(np.abs(mats - mats.transpose(0, 2, 1)))
        if asym > CUT_PSD_ATOL:
            raise ValueError(f"cut matrices must be symmetric, max asymmetry {asym:.3e}")
        mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        for k in range(cons.size):
            low = float(np.linalg.eigvalsh(mats[k])[0])
            if low < -CUT_PSD_ATOL:
                raise ValueError(f"cut {k} is not PSD: smallest eigenvalue {low:.3e}")
        cons.flags.writeable = False
        mats.flags.writeable = False
        object.__setattr__(self, "constants", cons)
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @property
    def k(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def from_pairs(cls, pairs) -> "CutSet":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("need at least one cut")
        return cls(
            constants=np.array([float(c) for c, _ in pairs]),
            matrices=np.stack([np.asarray(A, dtype=float) for _, A in pairs]),
        )


@dataclass(frozen=True, eq=False)
class BqpResult:
    """Best allocation found, its value, and the certificate state."""

    x_star: Allocation
    value: float
    lower_bound: float
    status: str
    nodes: int
    restarts: int
    gap: float

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}")
        if self.value < self.lower_bound - 1e-8:
            raise ValueError("value sits below its own lower bound")


def _exact_cut_values(c: np.ndarray, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return c + np.einsum("kij,i,j->k", A, x, x)


def _sum_interval(n: int) -> tuple[int, int]:
    # reachable balanced sums: exactly 0 for even n, +/-1 for odd n
    return (0, 0) if n % 2 == 0 else (-1, 1)


def _canonical(x: np.ndarray) -> np.ndarray:
    return x if x[0] > 0 else -x


# ---------------------------------------------------------------------------
# heuristic: multi-start steepest descent over balance-preserving moves


def _descent(
    c: np.ndarray, A: np.ndarray, diag: np.ndarray, x0: np.ndarray, deadline: float
) -> tuple[np.ndarray, float]:
    """Steepest descent until no swap (or odd-n flip) strictly improves.

    Swap candidates live in a slot-indexed block: P and M hold the +1 and
    -1 coordinates in slot order, and S8[k, a, b] = 8 A_k[P[a], M[b]].
    A swap trades the two coordinates' slots, so one row and one column
    of S8 are rewritten (O(Kn)) rather than the block re-gathered
    (O(Kn^2)).  An odd-n single flip resizes the block and rebuilds it.
    S8 is a quarter of the (K, n, n) cut stack; the one or two (n/2)^2
    work buffers are reused across moves.

    Every candidate value is computed in the same order as a plain
    re-gather would, ((f_k + u_a) + v_b) - 8 a_ab, so values are bit for
    bit those of the reference descent in the tests.  Exact ties, common
    when covariate rows repeat, go to the smallest (plus index, minus
    index) pair whatever the slot order.
    """
    K = A.shape[0]
    x = x0.astype(float).copy()
    g = A @ x
    f = c + g @ x
    S8 = None
    while time.monotonic() <= deadline:
        cur = float(f.max())
        tol = MOVE_RTOL * (1.0 + abs(cur))
        if S8 is None:
            P = np.flatnonzero(x > 0)
            M = np.flatnonzero(x < 0)
            total = P.size - M.size  # swaps keep the sum
            S8 = 8.0 * A[:, P[:, None], M[None, :]]
            blk = np.empty(S8.shape[1:])
            buf = np.empty_like(blk) if K > 1 else blk
            # blk[a, b] = lhs[a] . rhs[:, b] = (f_k + u_a) * 1 + 1 * v_b:
            # both products are exact, so each entry is rounded once, as
            # by np.add, while BLAS avoids numpy's per-row broadcast cost
            lhs = np.ones((2, P.size)).T
            rhs = np.ones((2, M.size))
        best_val = np.inf
        best_move: tuple[int, ...] | None = None
        if P.size and M.size:
            gP, gM = g[:, P], g[:, M]
            dP, dM = diag[:, P], diag[:, M]
            for k in range(K):
                u = -4.0 * gP[k] + 4.0 * dP[k]
                lhs[:, 0] = f[k] + u
                rhs[1] = 4.0 * gM[k] + 4.0 * dM[k]
                out = blk if k == 0 else buf
                np.matmul(lhs, rhs, out=out)
                np.subtract(out, S8[k], out=out)
                if k:
                    np.maximum(blk, buf, out=blk)
            rowmin = blk.min(axis=1)
            best_val = float(rowmin.min())
            rows = np.flatnonzero(rowmin == best_val)
            a = int(rows[np.argmin(P[rows])])
            cols = np.flatnonzero(blk[a] == best_val)
            b = int(cols[np.argmin(M[cols])])
            best_move = (int(P[a]), int(M[b]))
        if total != 0:
            side = np.flatnonzero(x == float(np.sign(total)))
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
        if len(best_move) == 1:
            S8 = None
        else:
            P[a], M[b] = best_move[1], best_move[0]
            np.multiply(A[:, P[a], M], 8.0, out=S8[:, a, :])
            np.multiply(A[:, P, M[b]], 8.0, out=S8[:, :, b])
    return x, float(_exact_cut_values(c, A, x).max())


def _heuristic_core(
    c: np.ndarray,
    A: np.ndarray,
    diag: np.ndarray,
    n: int,
    limits: SolveLimits,
    warm_start,
    deadline: float,
) -> tuple[np.ndarray, float, int]:
    rng = np.random.default_rng(limits.seed)
    restarts = max(MIN_RESTARTS, n // 4)
    starts: list[np.ndarray] = []
    if warm_start is not None:
        wv = allocation_vector(warm_start)
        if wv.size != n:
            raise ValueError(f"warm start length {wv.size} != n = {n}")
        if abs(wv.sum()) > 1:
            raise ValueError("warm start must be balanced")
        starts.append(wv)
    starts.extend(random_balanced_signs(n, rng).astype(float) for _ in range(restarts))
    best_x: np.ndarray | None = None
    best_val = np.inf
    for x0 in starts:
        xv, val = _descent(c, A, diag, x0, deadline)
        xc = _canonical(xv)
        if val < best_val or (val == best_val and tuple(xc) < tuple(best_x)):
            best_x, best_val = xc.copy(), val
    assert best_x is not None
    return best_x, best_val, len(starts)


# ---------------------------------------------------------------------------
# convex relaxation machinery shared by both modes


def _lambda_max(Ak: np.ndarray) -> float:
    n = Ak.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(POWER_ITERS):
        w = Ak @ v
        norm = float(np.linalg.norm(w))
        if norm <= 0.0:
            return 0.0
        v = w / norm
    return float(v @ Ak @ v)


def _project_rows(
    V: np.ndarray, l: np.ndarray, u: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Project each row onto {w : l <= w <= u, lo <= sum w <= hi}.

    The projection is clip(V + lambda, l, u) for a per-row shift lambda;
    the row sum is piecewise linear in lambda with knots at l - V and
    u - V, so the right shift falls out of one sorted sweep.
    """
    l = np.broadcast_to(l, V.shape)
    u = np.broadcast_to(u, V.shape)
    W = np.clip(V, l, u)
    sums = W.sum(axis=1)
    need_up = sums < lo
    need_dn = sums > hi
    active = need_up | need_dn
    if not active.any():
        return W
    rows = np.flatnonzero(active)
    Va, la, ua = V[rows], l[rows], u[rows]
    target = np.where(need_up[rows], float(lo), float(hi))
    # sum(clip(V + lam)) = sum(l) + psi(lam); psi gains slope 1 at each
    # lower knot (index < n in the event table) and loses it at the
    # matching upper knot
    ncol = V.shape[1]
    events = np.concatenate([la - Va, ua - Va], axis=1)
    order = np.argsort(events, axis=1)
    ridx = np.arange(rows.shape[0])[:, None]
    ev = events[ridx, order]
    slope = np.cumsum(np.where(order < ncol, 1.0, -1.0), axis=1)
    psi = np.empty_like(ev)
    psi[:, 0] = 0.0
    np.cumsum(slope[:, :-1] * (ev[:, 1:] - ev[:, :-1]), axis=1, out=psi[:, 1:])
    T = target - la.sum(axis=1)
    j = np.clip(np.sum(psi <= T[:, None], axis=1) - 1, 0, ev.shape[1] - 1)
    rsel = ridx[:, 0]
    slope_j = np.maximum(slope[rsel, j], 1e-300)
    lam = ev[rsel, j] + (T - psi[rsel, j]) / slope_j
    W[rows] = np.clip(Va + lam[:, None], la, ua)
    return W


def _linear_min_rows(
    G: np.ndarray, l: np.ndarray, u: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Exact row-wise min of g'w over the box-and-sum polytope.

    Greedy exchange: start at the box minimizer, then push the row sum
    into [lo, hi] through the coordinates that cost least per unit.
    """
    L = np.broadcast_to(l, G.shape)
    U = np.broadcast_to(u, G.shape)
    W = np.where(G > 0, L, U)
    vals = np.einsum("ri,ri->r", G, W)
    sums = W.sum(axis=1)
    span = U - L
    need_up = np.maximum(lo - sums, 0.0)
    need_dn = np.maximum(sums - hi, 0.0)
    ridx = np.arange(G.shape[0])[:, None]
    # raise through positive gradients ascending (coords sitting at l)
    order = np.argsort(G, axis=1)
    g_ord = G[ridx, order]
    s_ord = (span * (G > 0))[ridx, order]
    cum = np.cumsum(s_ord, axis=1)
    take = np.clip(need_up[:, None] - (cum - s_ord), 0.0, s_ord)
    vals = vals + np.einsum("ri,ri->r", g_ord, take)
    # lower through nonpositive gradients descending (coords sitting at u)
    order = order[:, ::-1]
    g_ord = G[ridx, order]
    s_ord = (span * (G <= 0))[ridx, order]
    cum = np.cumsum(s_ord, axis=1)
    take = np.clip(need_dn[:, None] - (cum - s_ord), 0.0, s_ord)
    vals = vals - np.einsum("ri,ri->r", g_ord, take)
    return vals


def _certified_bounds(
    c: np.ndarray,
    A: np.ndarray,
    Y: np.ndarray,
    f: np.ndarray,
    l: np.ndarray,
    u: np.ndarray,
    lo: float,
    hi: float,
) -> np.ndarray:
    # f(y) + min gradient step over the feasible box-and-sum set; valid
    # for any iterate by convexity, regardless of how converged Y is
    G = 2.0 * np.einsum("kij,kj->ki", A, Y)
    linmin = _linear_min_rows(G, l, u, lo, hi)
    return f + linmin - np.einsum("ki,ki->k", G, Y)


def _batched_pg(
    c: np.ndarray,
    A: np.ndarray,
    Y0: np.ndarray,
    l: np.ndarray,
    u: np.ndarray,
    lo: float,
    hi: float,
    step: float,
    deadline: float,
    stop_above: float | None = None,
    group_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run projected gradient per cut; return iterates and certified bounds.

    When ``stop_above`` is given, bounds are certified periodically and the
    loop exits as soon as every group of ``group_size`` consecutive rows
    (one branch node per group) holds a cut proving that node prunable.
    """
    Y = _project_rows(Y0, l, u, lo, hi)
    f = c + np.einsum("kij,ki,kj->k", A, Y, Y)
    for it in range(1, PG_MAX_ITER + 1):
        G = 2.0 * np.einsum("kij,kj->ki", A, Y)
        Y = _project_rows(Y - step * G, l, u, lo, hi)
        f_new = c + np.einsum("kij,ki,kj->k", A, Y, Y)
        improvement = float(np.max((f - f_new) / np.maximum(1.0, np.abs(f))))
        f = f_new
        if improvement < PG_RTOL or time.monotonic() > deadline:
            break
        if stop_above is not None and it % PG_CHECK_EVERY == 0:
            bounds = _certified_bounds(c, A, Y, f, l, u, lo, hi)
            gs = group_size if group_size is not None else bounds.shape[0]
            if float(bounds.reshape(-1, gs).max(axis=1).min()) >= stop_above:
                return Y, bounds
    return Y, _certified_bounds(c, A, Y, f, l, u, lo, hi)


def _corner_bounds(
    c: np.ndarray, A: np.ndarray, diag: np.ndarray, fixed: np.ndarray
) -> np.ndarray:
    """Interval bound per cut: every pair with a free coordinate goes to -|.|."""
    free = fixed == 0
    xf = fixed.astype(float)
    gf = A @ xf
    fixed_val = c + gf @ xf
    dfree = diag[:, free]
    block = np.abs(A[:, free][:, :, free])
    offdiag = block.sum(axis=(1, 2)) - np.abs(dfree).sum(axis=1)
    return (
        fixed_val
        + dfree.sum(axis=1)
        - 2.0 * np.abs(gf[:, free]).sum(axis=1)
        - offdiag
    )


# ---------------------------------------------------------------------------
# exact branch-and-bound


def _completion_counts(n: int, s: int, nf: int) -> list[int]:
    # +1 counts among the free coordinates that land the sum in balance
    lo, hi = _sum_interval(n)
    options = set()
    for target in range(lo, hi + 1):
        t = target - s
        if abs(t) <= nf and (t + nf) % 2 == 0:
            options.add((t + nf) // 2)
    return sorted(options)


def _completions(fixed: np.ndarray, ytilde: np.ndarray, m_options: list[int]) -> list[np.ndarray]:
    free_idx = np.flatnonzero(fixed == 0)
    order = np.argsort(-ytilde[free_idx], kind="stable")
    out = []
    for m in m_options:
        x = fixed.astype(float)
        x[free_idx] = -1.0
        x[free_idx[order[:m]]] = 1.0
        out.append(x)
    return out


def _heuristic(cuts: CutSet, limits: SolveLimits, warm_start) -> BqpResult:
    c, A = cuts.constants, cuts.matrices
    n = cuts.n
    diag = np.einsum("kii->ki", A).copy()
    deadline = time.monotonic() + limits.time_limit
    best_x, best_val, restarts = _heuristic_core(c, A, diag, n, limits, warm_start, deadline)
    # root convex relaxation: a certificate when the descent hits bottom
    lo, hi = _sum_interval(n)
    l, u = np.full(n, -1.0), np.full(n, 1.0)
    step = 1.0 / (2.0 * max(max(_lambda_max(A[k]) for k in range(cuts.k)), 1e-12))
    _, pg = _batched_pg(c, A, np.tile(best_x, (cuts.k, 1)), l, u, lo, hi, step, deadline)
    corner = _corner_bounds(c, A, diag, np.zeros(n, dtype=np.int8))
    root_bound = float(np.maximum(pg, corner).max())
    status = "optimal" if best_val <= root_bound + limits.epsilon else "incumbent"
    lower = min(best_val, root_bound)
    return BqpResult(
        x_star=Allocation(best_x.astype(np.int64)),
        value=best_val,
        lower_bound=lower,
        status=status,
        nodes=0,
        restarts=restarts,
        gap=best_val - lower,
    )


def _exact(cuts: CutSet, limits: SolveLimits, warm_start) -> BqpResult:
    start_time = time.monotonic()
    deadline = start_time + limits.time_limit
    c, A = cuts.constants, cuts.matrices
    n, K = cuts.n, cuts.k
    diag = np.einsum("kii->ki", A).copy()
    lo, hi = _sum_interval(n)
    eps = limits.epsilon

    seed_budget = max(min(limits.time_limit * 0.25, 30.0), 0.05)
    best_x, best_val, restarts = _heuristic_core(
        c, A, diag, n, limits, warm_start, time.monotonic() + seed_budget
    )

    step = 1.0 / (2.0 * max(max(_lambda_max(A[k]) for k in range(K)), 1e-12))

    def offer(xv: np.ndarray) -> None:
        nonlocal best_x, best_val
        val = float(_exact_cut_values(c, A, xv).max())
        xc = _canonical(xv)
        if val < best_val or (val == best_val and tuple(xc) < tuple(best_x)):
            best_x, best_val = xc.copy(), val

    # nodes sharing one projected-gradient call are stacked K rows apiece
    c2 = np.concatenate([c, c])
    A2 = np.concatenate([A, A], axis=0)

    def relax_nodes(pending: list, warm: np.ndarray) -> list:
        # pending: (fixed, corner) per node; warm: parent iterates (K, n)
        r = len(pending)
        L = np.empty((r * K, n))
        U = np.empty((r * K, n))
        for g, (fixed, _) in enumerate(pending):
            xf = fixed.astype(float)
            free = fixed == 0
            L[g * K : (g + 1) * K] = np.where(free, -1.0, xf)
            U[g * K : (g + 1) * K] = np.where(free, 1.0, xf)
        Y, pg = _batched_pg(
            c2[: r * K],
            A2[: r * K],
            np.concatenate([warm] * r, axis=0),
            L,
            U,
            lo,
            hi,
            step,
            deadline,
            stop_above=best_val - eps,
            group_size=K,
        )
        out = []
        for g, (_, corner) in enumerate(pending):
            per_cut = np.maximum(corner, pg[g * K : (g + 1) * K])
            binding = int(np.argmax(per_cut))
            rows = Y[g * K : (g + 1) * K]
            out.append((float(per_cut[binding]), rows[binding].copy(), rows.copy()))
        return out

    counter = itertools.count()
    root = np.zeros(n, dtype=np.int8)
    root[0] = 1  # x -> -x symmetry
    warm0 = np.tile(best_x.astype(float), (K, 1))
    corner0 = _corner_bounds(c, A, diag, root)
    if float(corner0.max()) >= best_val - eps:
        bound0, ybind0, yfull0 = float(corner0.max()), best_x.copy(), warm0
    else:
        bound0, ybind0, yfull0 = relax_nodes([(root, corner0)], warm0)[0]
    heap = [(bound0, next(counter), root, ybind0, yfull0)]
    prune_lb = np.inf
    nodes = 0
    status = "optimal"
    open_bound: float | None = None
    while heap:
        if nodes >= limits.node_limit or time.monotonic() > deadline:
            status = "incumbent"
            open_bound = heap[0][0]
            break
        bound, _, fixed, ytilde, ywarm = heapq.heappop(heap)
        if bound >= best_val - eps:
            open_bound = bound
            break  # best-first: every open node is at or above this bound
        nodes += 1
        free_idx = np.flatnonzero(fixed == 0)
        branch = int(free_idx[int(np.argmin(np.abs(ytilde[free_idx])))])
        pending = []
        for sign in (-1, 1):
            child = fixed.copy()
            child[branch] = sign
            s = int(child.sum())
            nf = n - int(np.count_nonzero(child))
            m_options = _completion_counts(n, s, nf)
            if not m_options:
                continue
            if nf == 0:
                offer(child.astype(float))
                continue
            if all(m in (0, nf) for m in m_options):
                for xv in _completions(child, np.zeros(n), m_options):
                    offer(xv)
                continue
            corner = _corner_bounds(c, A, diag, child)
            if float(corner.max()) >= best_val - eps:
                prune_lb = min(prune_lb, float(corner.max()))
                continue
            pending.append((child, corner, m_options))
        if not pending:
            continue
        evals = relax_nodes([(ch, co) for ch, co, _ in pending], ywarm)
        for (child, _, m_options), (child_bound, ybind, yfull) in zip(pending, evals):
            for xv in _completions(child, ybind, m_options):
                offer(xv)
            if child_bound >= best_val - eps:
                prune_lb = min(prune_lb, child_bound)
                continue
            heapq.heappush(heap, (child_bound, next(counter), child, ybind, yfull))
    lower_candidates = [best_val]
    if open_bound is not None:
        lower_candidates.append(open_bound)
    if np.isfinite(prune_lb):
        lower_candidates.append(prune_lb)
    lower = min(lower_candidates)
    return BqpResult(
        x_star=Allocation(best_x.astype(np.int64)),
        value=best_val,
        lower_bound=lower,
        status=status,
        nodes=nodes,
        restarts=restarts,
        gap=best_val - lower,
    )


def minimize_max_quadratic(
    cuts: CutSet,
    limits: SolveLimits | None = None,
    warm_start=None,
) -> BqpResult:
    """Entry point; limits.mode picks the heuristic or the exact search."""
    if limits is None:
        limits = SolveLimits()
    if cuts.n < 2:
        raise ValueError("need at least two subjects")
    if limits.mode == "heuristic":
        return _heuristic(cuts, limits, warm_start)
    return _exact(cuts, limits, warm_start)
