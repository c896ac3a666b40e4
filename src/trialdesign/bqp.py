"""Minimize the worst of several PSD quadratic forms over balanced signs.

The problem is min_x max_k (c_k + x'A_k x) over x in {-1,+1}^n with
|sum x| <= 1.  Heuristic mode runs seeded multi-start steepest descent
over balance-preserving moves: opposite-sign pair swaps, plus single
flips when n is odd.  Each descent scores all swaps from a block
8 A_k[plus, minus] kept in slot order, rewriting one row and one column
per swap instead of gathering the block again; the block costs a
quarter of the cut stack.  Exact ties go to the smallest (plus index,
minus index) pair, so results depend only on the seed.

Exact mode enumerates every canonical balanced allocation when n is at
most ENUM_MAX_N: blocks of leading signs meet a tabulated table of
trailing signs in one matrix product per block and cut.  The same
engine, run without the balance constraint, enumerates the separation
max z'Mz for inner_max as min z'(-M)z.  Past that, exact mode first
runs the descent and its root test, and when that fails continues with
best-first branch-and-bound from the descent's incumbent.  Each node has
one bound, certified once its relaxation ends: accelerated projected
gradient with restart (FISTA) on each cut's quadratic over the
box-and-balance polytope, after which the gradient linearization at the
final iterate is minimized exactly over that polytope, so the bound is
valid even before the gradient iteration converges.  An iteration costs
one batched matrix-vector product and one projection for every node and
cut in the batch.

Every method returns one contract.  lower_bound is a valid bound on the
optimum and is never below min(value, root bound), where the root bound
is max(max c, the interval bound at the root); status is "optimal"
exactly when value is certified to within epsilon of the optimum.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .limits import SolveLimits
from .objective import Allocation, allocation_vector, random_balanced_signs

# cut matrices must be symmetric PSD up to this slack
CUT_PSD_ATOL = 1e-8

# projected-gradient settings for the convex node bound
PG_MAX_ITER = 500
PG_RTOL = 1e-7

# strict-decrease guard for the descent heuristic
MOVE_RTOL = 1e-12
MIN_RESTARTS = 32

# exact masters with at most this many subjects are enumerated
ENUM_MAX_N = 28

# trailing coordinates tabulated once for the enumeration
SUFFIX_BITS = 12

# entries in one enumeration block, so each temporary holds about 1 MB
BLOCK_ENTRIES = 1 << 17

STATUSES = ("optimal", "incumbent")


@dataclass(frozen=True, eq=False)
class CutSet:
    """K cuts (c_k, A_k) sharing one allocation dimension n.

    The PSD check computes every cut's spectrum, so the largest
    eigenvalues are kept (``lambda_max``, (K,)), as are the diagonals
    (``diagonals``, (K, n)); both are read-only.
    """

    constants: np.ndarray
    matrices: np.ndarray
    lambda_max: np.ndarray = field(init=False, repr=False)
    diagonals: np.ndarray = field(init=False, repr=False)

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
        high = np.empty(cons.size)
        for k in range(cons.size):
            eig = np.linalg.eigvalsh(mats[k])
            if eig[0] < -CUT_PSD_ATOL:
                raise ValueError(f"cut {k} is not PSD: smallest eigenvalue {eig[0]:.3e}")
            high[k] = eig[-1]
        diag = np.einsum("kii->ki", mats).copy()
        for name, arr in (("constants", cons), ("matrices", mats),
                          ("lambda_max", high), ("diagonals", diag)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
            # rows then columns gathers faster than one 2-d fancy index, and
            # the C-ordered output keeps each S8[k] contiguous for the moves
            S8 = np.multiply(A[:, P][:, :, M], 8.0, out=np.empty((K, P.size, M.size)))
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


def _heuristic(cuts: CutSet, limits: SolveLimits, warm_start) -> BqpResult:
    """Multi-start descent and the root test: optimal when the best value
    is within epsilon of the root bound, which is then the lower bound."""
    deadline = time.monotonic() + limits.time_limit
    rng = np.random.default_rng(limits.seed)
    restarts = max(MIN_RESTARTS, cuts.n // 4)
    starts = [] if warm_start is None else [allocation_vector(warm_start)]
    starts.extend(random_balanced_signs(cuts.n, rng).astype(float) for _ in range(restarts))
    best_x, best_val = None, np.inf
    for x0 in starts:
        xv, val = _descent(cuts.constants, cuts.matrices, cuts.diagonals, x0, deadline)
        xc = _canonical(xv)
        if val < best_val or (val == best_val and tuple(xc) < tuple(best_x)):
            best_x, best_val = xc.copy(), val
    root_bound = _root_bound(cuts)
    status = "optimal" if best_val <= root_bound + limits.epsilon else "incumbent"
    lower = min(best_val, root_bound)
    return BqpResult(
        x_star=Allocation(best_x.astype(np.int64)),
        value=best_val,
        lower_bound=lower,
        status=status,
        nodes=0,
        restarts=len(starts),
        gap=best_val - lower,
    )


# ---------------------------------------------------------------------------
# convex relaxation machinery shared by both modes


class _BoxSumProjector:
    """Row-wise projection onto {w : l <= w <= u, lo <= sum w <= hi}.

    The projection is clip(V + lambda, l, u) for a per-row shift lambda;
    the row sum is piecewise linear in lambda with knots at l - V and
    u - V, so the right shift falls out of one sorted sweep.  The bounds
    stay fixed for a whole projected-gradient run, so they are laid out
    contiguously once, with their row sums and the sweep's buffers.
    Gathers index the flattened rows, which costs less than a 2-d fancy
    index or take_along_axis on rows this short.
    """

    def __init__(self, l: np.ndarray, u: np.ndarray, lo: float, hi: float, nrows: int):
        n = np.shape(l)[-1]
        self.L = np.ascontiguousarray(np.broadcast_to(l, (nrows, n)), dtype=float)
        self.U = np.ascontiguousarray(np.broadcast_to(u, (nrows, n)), dtype=float)
        self.L_sum = np.add.reduce(self.L, axis=1)
        self.lo, self.hi = float(lo), float(hi)
        # sum(clip(V + lam)) = sum(l) + psi(lam); psi gains slope 1 at each
        # lower knot (index < n in the event table) and loses it at the
        # matching upper knot
        self.knot_slope = np.concatenate([np.ones(n), -np.ones(n)])
        self.offsets = np.arange(nrows)[:, None] * (2 * n)
        self.events = np.empty((nrows, 2 * n))
        self.psi = np.empty((nrows, 2 * n))
        self.psi[:, 0] = 0.0

    def __call__(self, V: np.ndarray) -> np.ndarray:
        W = np.minimum(np.maximum(V, self.L), self.U)
        sums = np.add.reduce(W, axis=1)
        need_up = sums < self.lo
        active = need_up | (sums > self.hi)
        m = np.count_nonzero(active)
        if m == 0:
            return W
        # balanced rows (lo = hi = 0) are almost always all active
        rows = slice(None) if m == active.size else np.flatnonzero(active)
        Va, la, ua = V[rows], self.L[rows], self.U[rows]
        n = V.shape[1]
        events, psi, offsets = self.events[:m], self.psi[:m], self.offsets[:m]
        np.subtract(la, Va, out=events[:, :n])
        np.subtract(ua, Va, out=events[:, n:])
        order = np.argsort(events, axis=1)
        slope = np.add.accumulate(self.knot_slope[order], axis=1)
        order += offsets
        ev = events.ravel()[order]
        np.add.accumulate(
            slope[:, :-1] * (ev[:, 1:] - ev[:, :-1]), axis=1, out=psi[:, 1:]
        )
        T = np.where(need_up[rows], self.lo, self.hi) - self.L_sum[rows]
        # last knot with psi <= T, or the first when T < 0 (an infeasible
        # row): psi starts at 0 and never decreases
        j = (psi[:, 1:] <= T[:, None]).sum(axis=1)
        j += offsets[:, 0]
        slope_j = np.maximum(slope.ravel()[j], 1e-300)
        lam = ev.ravel()[j] + (T - psi.ravel()[j]) / slope_j
        Wa = np.minimum(np.maximum(Va + lam[:, None], la), ua)
        if m == active.size:
            return Wa
        W[rows] = Wa
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
) -> tuple[np.ndarray, np.ndarray]:
    """Run accelerated projected gradient per cut; return iterates and certified bounds.

    FISTA with gradient restart: a row steps from its extrapolated point
    Z to the new iterate X = proj(Z - step * 2 A Z), then extrapolates
    Z = X + beta (X - Y) from its previous iterate Y.  A row whose step
    ran against its momentum, (Z - X).(X - Y) > 0, restarts with t = 1
    and beta = 0.  Each iteration costs one batched product A X and one
    projection: the value c + X.AX, the next gradient and the product at
    the next Z (AX + beta (AX - AY)) all follow from it.  The loop stops
    when the relative change of every value falls below PG_RTOL, after
    PG_MAX_ITER iterations or at the deadline; the bounds are certified
    once, at the final iterate.
    """
    project = _BoxSumProjector(l, u, lo, hi, Y0.shape[0])
    Y = project(Y0)
    AY = np.matmul(A, Y[:, :, None])[:, :, 0]
    f = c + np.einsum("ki,ki->k", Y, AY)
    Z, AZ = Y, AY
    t = np.ones(Y.shape[0])
    for _ in range(PG_MAX_ITER):
        X = project(Z - (2.0 * step) * AZ)
        AX = np.matmul(A, X[:, :, None])[:, :, 0]
        f_new = c + np.einsum("ki,ki->k", X, AX)
        change = float(np.max(np.abs(f - f_new) / np.maximum(1.0, np.abs(f))))
        D = X - Y
        t[np.einsum("ki,ki->k", Z - X, D) > 0.0] = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = ((t - 1.0) / t_next)[:, None]
        t = t_next
        Z = X + beta * D
        AZ = AX + beta * (AX - AY)
        Y, AY, f = X, AX, f_new
        if change < PG_RTOL or time.monotonic() > deadline:
            break
    # f(y) + min gradient step over the feasible box-and-sum set; valid
    # for any iterate by convexity, regardless of how converged Y is
    G = 2.0 * AY
    return Y, f + _linear_min_rows(G, l, u, lo, hi) - np.einsum("ki,ki->k", G, Y)


def _root_bound(cuts: CutSet) -> float:
    """max(max c, interval bound at the root), which every allocation meets.

    y = 0 meets the box and the balance and every cut is PSD, so the
    root relaxation is max(c) exactly.  The interval bound relaxes every
    off-diagonal product x_i x_j to -|A_ij|, and may beat it.
    """
    # column-major operands sum each cut in one running sum rather than
    # numpy's pairwise blocks; that order fixes the bound's last bits,
    # which every master's lower bound and status carry
    c = cuts.constants
    A = np.asfortranarray(cuts.matrices)
    diag = np.asfortranarray(cuts.diagonals)
    offdiag = np.abs(A).sum(axis=(1, 2)) - np.abs(diag).sum(axis=1)
    corner = c + diag.sum(axis=1) - offdiag
    return max(float(c.max()), float(corner.max()))


# ---------------------------------------------------------------------------
# exact enumeration for small problems


def sign_rows(ids: np.ndarray, bits: int) -> np.ndarray:
    """+/-1 rows of the integers ids, leading bit first (bit 0 -> -1).

    Increasing ids give lexicographically increasing rows.
    """
    return (((ids[:, None] >> np.arange(bits - 1, -1, -1)) & 1) * 2 - 1).astype(float)


@functools.cache
def suffix_rows(m: int) -> np.ndarray:
    """Every +/-1 row of width m in lexicographic order, read-only.

    Built once per width and shared by every enumeration that uses it.
    """
    rows = sign_rows(np.arange(1 << m), m)
    rows.flags.writeable = False
    return rows


def _enumerate(
    c: np.ndarray, A: np.ndarray, balanced: bool, deadline: float = np.inf
) -> tuple[np.ndarray, bool]:
    """Minimize max_k c_k + x'A_k x over x_0 = +1, one block at a time.

    x ranges over all signs, or over the balanced ones (|sum x| <= 1)
    when ``balanced``.  x = (+1, prefix, suffix): the leading sign is
    pinned and the last m <= SUFFIX_BITS signs form the suffix.  With
    h = (+1, prefix) each cut splits as c + h'A_hh h + 2 h'A_hs s + s'A_ss s,
    so a block of heads meets its suffixes in one product
    [2 A_sh h, c + h'A_hh h, 1] . [s; 1; s'A_ss s] per cut, the suffix
    values being tabulated once; a running max over the cuts follows.
    A balanced search groups heads by plus count, and each group meets
    only the suffixes that balance it; an unconstrained one is a single
    group of every head and suffix.  Heads and suffixes are both in
    lexicographic order, so the first minimum of a block is its
    lexicographically smallest, and equal minima of two blocks go the same
    way.  Ties are judged on these block values, so two vectors whose
    values differ only by rounding are ordered by it.  Heads are built per
    block, so no temporary exceeds about BLOCK_ENTRIES entries whatever n
    is.

    Returns the minimizer and whether the search finished; the deadline
    is checked between blocks, after the first.
    """
    K, n = A.shape[0], A.shape[1]
    m = min(n - 1, SUFFIX_BITS)
    h = n - m
    suffixes = suffix_rows(m)
    suffix_vals = np.stack(
        [np.einsum("ij,ij->i", suffixes @ A[k, h:, h:], suffixes) for k in range(K)]
    )
    head_ids = np.arange(1 << (h - 1))
    if balanced:
        lo, hi = _sum_interval(n)
        # plus counts t among the n - 1 free signs with a balanced sum 2t + 2 - n
        totals = np.array([t for t in range(n) if lo <= 2 * t + 2 - n <= hi])
        suffix_plus = np.count_nonzero(suffixes > 0, axis=1)
        head_plus = np.zeros_like(head_ids)
        for bit in range(h - 1):
            head_plus += (head_ids >> bit) & 1
        # (heads with j plus signs, the suffixes that balance them)
        groups = [
            (head_ids[head_plus == j], np.flatnonzero(np.isin(suffix_plus, totals - j)))
            for j in range(h)
        ]
    else:
        groups = [(head_ids, slice(None))]

    best_x: np.ndarray | None = None
    best_val = np.inf
    for ids, cols in groups:
        S = suffixes[cols]
        if S.shape[0] == 0:
            continue
        rhs = np.empty((K, m + 2, S.shape[0]))
        rhs[:, :m] = S.T
        rhs[:, m] = 1.0
        rhs[:, m + 1] = suffix_vals[:, cols]
        step = max(1, BLOCK_ENTRIES // max(S.shape[0], n))
        for start in range(0, ids.size, step):
            if best_x is not None and time.monotonic() > deadline:
                return best_x, False
            chunk = ids[start : start + step]
            # a set leading bit pins the first sign to +1
            H = sign_rows(chunk + (1 << (h - 1)), h)
            lhs = np.empty((chunk.size, m + 2))
            lhs[:, m + 1] = 1.0
            worst = np.empty((chunk.size, S.shape[0]))
            out = np.empty_like(worst) if K > 1 else worst
            for k in range(K):
                G = H @ A[k, :h]
                np.multiply(G[:, h:], 2.0, out=lhs[:, :m])
                lhs[:, m] = c[k] + np.einsum("ij,ij->i", G[:, :h], H)
                np.matmul(lhs, rhs[k], out=out if k else worst)
                if k:
                    np.maximum(worst, out, out=worst)
            flat = int(np.argmin(worst))
            val = float(worst.flat[flat])
            a, b = divmod(flat, S.shape[0])
            x = np.concatenate([H[a], S[b]])
            if val < best_val or (val == best_val and tuple(x) < tuple(best_x)):
                best_x, best_val = x, val
    assert best_x is not None
    return best_x, True


def _enumerate_master(cuts: CutSet, deadline: float) -> BqpResult:
    """Every canonical balanced allocation, by ``_enumerate``.

    A search cut short returns its best allocation with the root bound.
    """
    c, A = cuts.constants, cuts.matrices
    x, finished = _enumerate(c, A, True, deadline)
    value = float(_exact_cut_values(c, A, x).max())
    lower = value if finished else min(_root_bound(cuts), value)
    return BqpResult(
        x_star=Allocation(x.astype(np.int64)),
        value=value,
        lower_bound=lower,
        status="optimal" if finished else "incumbent",
        nodes=0,
        restarts=0,
        gap=value - lower,
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


def _exact(cuts: CutSet, limits: SolveLimits, seed: BqpResult, deadline: float) -> BqpResult:
    """Branch and bound from ``seed``, a descent that failed its root test.

    The descent's allocation is the first incumbent, and its lower bound,
    the root bound, floors the reported bound.
    """
    c, A = cuts.constants, cuts.matrices
    n, K = cuts.n, cuts.k
    lo, hi = _sum_interval(n)
    eps = limits.epsilon
    best_x, best_val = seed.x_star.x.astype(float), seed.value

    step = 1.0 / (2.0 * max(float(cuts.lambda_max.max()), 1e-12))

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
        # pending: fixings per node; warm: parent iterates (K, n)
        r = len(pending)
        L = np.empty((r * K, n))
        U = np.empty((r * K, n))
        for g, fixed in enumerate(pending):
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
        )
        # per node: its bound, the binding cut's iterate, and every iterate
        bounds, Y = pg.reshape(r, K), Y.reshape(r, K, n)
        return [
            (float(bounds[g, b]), Y[g, b].copy(), Y[g].copy())
            for g, b in enumerate(np.argmax(bounds, axis=1))
        ]

    counter = itertools.count()
    root = np.zeros(n, dtype=np.int8)
    root[0] = 1  # x -> -x symmetry
    warm0 = np.tile(best_x, (K, 1))
    bound0, ybind0, yfull0 = relax_nodes([root], warm0)[0]
    heap = [(bound0, next(counter), root, ybind0, yfull0)]
    prune_lb = open_bound = np.inf
    nodes = 0
    status = "optimal"
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
            pending.append((child, m_options))
        if not pending:
            continue
        evals = relax_nodes([child for child, _ in pending], ywarm)
        for (child, m_options), (child_bound, ybind, yfull) in zip(pending, evals):
            for xv in _completions(child, ybind, m_options):
                offer(xv)
            if child_bound >= best_val - eps:
                prune_lb = min(prune_lb, child_bound)
                continue
            heapq.heappush(heap, (child_bound, next(counter), child, ybind, yfull))
    # the heap keys stay unfloored, so the tree is the same; only the
    # reported bound takes the root bound as its floor
    lower = min(best_val, max(seed.lower_bound, min(open_bound, prune_lb)))
    return BqpResult(
        x_star=Allocation(best_x.astype(np.int64)),
        value=best_val,
        lower_bound=lower,
        status=status,
        nodes=nodes,
        restarts=seed.restarts,
        gap=best_val - lower,
    )


def solver_method(n: int, mode: str) -> str:
    """The method that solves an n-subject problem in this mode."""
    if mode == "heuristic":
        return "descent"
    return "enumeration" if n <= ENUM_MAX_N else "branch_and_bound"


def resolve_mode(n: int, mode: str) -> str:
    """"exact" or "heuristic" for a SolveLimits mode and n subjects.

    "auto" is exact where the n-subject master enumerates (n up to
    ENUM_MAX_N) and heuristic past that.
    """
    if mode != "auto":
        return mode
    return "exact" if n <= ENUM_MAX_N else "heuristic"


def minimize_max_quadratic(
    cuts: CutSet,
    limits: SolveLimits | None = None,
    warm_start=None,
) -> BqpResult:
    """Entry point; the method follows limits.mode and n (see ``resolve_mode``)."""
    if limits is None:
        limits = SolveLimits()
    n = cuts.n
    if n < 2:
        raise ValueError("need at least two subjects")
    if warm_start is not None:
        wv = allocation_vector(warm_start)
        if wv.size != n:
            raise ValueError(f"warm start length {wv.size} != n = {n}")
        if abs(wv.sum()) > 1:
            raise ValueError("warm start must be balanced")
    method = solver_method(n, resolve_mode(n, limits.mode))
    if method == "descent":
        return _heuristic(cuts, limits, warm_start)
    if method == "enumeration":
        return _enumerate_master(cuts, time.monotonic() + limits.time_limit)
    # the branch and bound continues from a descent whose root test did
    # not certify, under the same deadline
    deadline = time.monotonic() + limits.time_limit
    seed = _heuristic(cuts, limits, warm_start)
    if seed.status == "optimal":
        return seed
    return _exact(cuts, limits, seed, deadline)
