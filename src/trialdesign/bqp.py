"""Minimize the worst of several PSD quadratic forms over balanced signs.

The problem is min_x max_k (c_k + x'A_k x) over x in {-1,+1}^n with
|sum x| <= 1.  Every method solves it at even n, with sum x = 0: the
entry point solves odd n as n + 1 subjects, the last a phantom that is
zero in every cut and takes minus the real sum, then drops the phantom
and values the allocation on the real cuts.  The method follows the
real n.  Heuristic mode runs seeded multi-start steepest descent over
balance-preserving moves, opposite-sign pair swaps (with the phantom, a
single flip from the larger arm).  Each descent scores all swaps from a
block 8 A_k[plus, minus] kept in slot order, rewriting one row and one
column per swap instead of gathering the block again; the block costs a
quarter of the cut stack.  Exact ties go to the smallest (plus index,
minus index) pair, the phantom's index being n, so results depend only
on the seed.

The descent runs from RESTARTS = 32 seeded starts at every n, plus the
warm start when one is given.  The count comes from a curve of value
against restarts (in CHANGES.md): on LB designs with n from 200 to 1000,
the best of 32 descents and the best of n/4 differed in design value by
at most 5.1e-4 relative, either way, except on one iid draw of three at
n = 200, p = 25 (1%); 32 descents cost an eighth of n/4 at n = 1000.
The starts descend in order, in stacks of R = BLOCK_ENTRIES // (K
ceil(n/2)^2), so a stack's swap blocks hold about BLOCK_ENTRIES entries:
13 starts at n = 200 with one cut, 5 at n = 100 with ten.  A round
makes one move in every running start of a stack with one set of array
operations, so at trial sizes a move pays numpy's call overhead once per
stack; each start still ends bit for bit where it would alone.  The
deadline is read once per round, so under an expiring time limit a
stack's starts stop together.

Where one cut's swap block is large, a stack saves little of that
overhead.  So from n = 295, where stacks of one-cut blocks would hold
fewer than LONE_STACK_BELOW starts, a stack holds one start at any K, as
it does wherever one start's K blocks exceed BLOCK_ENTRIES.  Stacks of
one draw their cold starts from a seeded greedy pair walk instead of
random signs: each start signs its subjects in pairs, in its own random
order, giving each pair the opposite signs that keep
max_k (c_k + x'A_k x) over the signed subjects smaller.  With the LB cut
this keeps the p x p matrix U'D_xU small, since x'(M o M)x is its
squared Frobenius norm.  Walk starts begin near the floor and need fewer
moves: lone walked LB masters took 1.4-2.3 times less CPU than lone
random starts at n = 600 and 1000 (CHANGES.md).  The walk costs two to
four descent moves per start and reads no deadline.  Larger stacks keep
random starts: they share each move's numpy overhead, so the walk's n/2
sequential steps cost about what they save, and at small n/p^2 its less
diverse starts end worse.  LONE_STACK_BELOW cites the curve that puts
the cutover at n = 295.

Exact mode enumerates every canonical balanced allocation when n is at
most ENUM_MAX_N: blocks of leading signs meet a tabulated table of
trailing signs in one matrix product per block and cut.  The same
engine, run without the balance constraint, enumerates the separation
max z'Mz for inner_max as min z'(-M)z.  Past that, exact mode is auto
mode: the descent and its root test.  A depth-first branch and bound
on the interval bound of inner_max, flipped for minimization, only
continues a descent that did not certify, given as ``incumbent`` to an
exact-mode solve of the same cuts.  Its kept children's completions
wait as distinct pending starts and descend a stack at a time.

A CutSet made from a caller's arrays is checked once, as it is made:
symmetric within CUT_PSD_ATOL, and PSD by one stacked eigenvalue test.
The cuts the package builds, and their phantom padding, are exactly
symmetric and PSD by construction, so they skip that check.

Every method returns one contract.  lower_bound is a valid bound on the
optimum and is never below min(value, root bound), where the root bound
is max(max c, the interval bound at the root); status is "optimal"
exactly when value is certified to within epsilon of the optimum.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .limits import SolveLimits
from .objective import Allocation, allocation_vector, random_balanced_stack

# cut matrices given to CutSet must be symmetric PSD up to this slack
CUT_PSD_ATOL = 1e-8

# strict-decrease guard for the descent heuristic
MOVE_RTOL = 1e-12

# seeded descents per heuristic solve, at every n, from walk starts where a
# descent stack holds one start (n >= 295) and random ones elsewhere (see
# the module docstring)
RESTARTS = 32

# exact masters with at most this many subjects are enumerated
ENUM_MAX_N = 28

# trailing coordinates tabulated once for the enumeration
SUFFIX_BITS = 12

# entries in one enumeration block or descent stack, so each temporary
# holds about 1 MB
BLOCK_ENTRIES = 1 << 17

# a descent stack holds one start, from walk starts, where stacks of one-cut
# swap blocks would hold fewer than this many (n >= 295).  From the curve in
# CHANGES.md, lone walked LB descents against stacks: 0.26-0.36 of the CPU
# at p = 4 and 0.66-0.95 at p = 25 for n = 300-400; up to 1.27 times it at
# n = 230-280, p = 25
LONE_STACK_BELOW = 6

STATUSES = ("optimal", "incumbent")


@dataclass(frozen=True, eq=False)
class CutSet:
    """K cuts (c_k, A_k) sharing one allocation dimension n.

    Cuts given here are checked once: shapes, finite entries, symmetry
    within CUT_PSD_ATOL, and PSD, by one stacked eigenvalue test of the
    symmetrized copy that is kept (smallest eigenvalue at least
    -CUT_PSD_ATOL).  The cuts the package builds, Upsilon(z) and M o M,
    are Hadamard products of PSD matrices, exactly symmetric as computed,
    so they come through ``_built`` and skip the check.  The constants,
    matrices and diagonals (``diagonals``, (K, n)) are kept read-only.
    So is ``root_bound``, computed on first read.
    """

    constants: np.ndarray
    matrices: np.ndarray
    diagonals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cons = np.asarray(self.constants, dtype=float).copy()
        mats = np.asarray(self.matrices, dtype=float)
        if cons.ndim != 1 or cons.size == 0:
            raise ValueError("constants must be a non-empty vector")
        if mats.ndim != 3 or mats.shape[0] != cons.size or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must be a (K, n, n) stack matching constants")
        if mats.shape[1] == 0:
            raise ValueError("cuts need at least one subject")
        if not (np.all(np.isfinite(cons)) and np.all(np.isfinite(mats))):
            raise ValueError("cut data has non-finite entries")
        # one new array holds the asymmetry, then the symmetrized stack:
        # the caller's stack is read, never stored or written
        given, mats = mats, mats - mats.transpose(0, 2, 1)
        asym = np.max(np.abs(mats, out=mats))
        if asym > CUT_PSD_ATOL:
            raise ValueError(f"cut matrices must be symmetric, max asymmetry {asym:.3e}")
        np.add(given, given.transpose(0, 2, 1), out=mats)
        np.divide(mats, 2.0, out=mats)
        low = np.linalg.eigvalsh(mats)[:, 0]
        bad = np.flatnonzero(low < -CUT_PSD_ATOL)
        if bad.size:
            k = bad[0]
            raise ValueError(f"cut {k} is not PSD: smallest eigenvalue {low[k]:.3e}")
        # keep the checked copies read-only, with their diagonals, as _built does
        for name, arr in vars(CutSet._built(cons, mats)).items():
            object.__setattr__(self, name, arr)

    @classmethod
    def _built(cls, constants: np.ndarray, matrices: np.ndarray) -> "CutSet":
        """Cuts the package built: a fresh (K, n, n) stack, exactly symmetric
        and PSD by construction, kept as given, unchecked and uncopied."""
        cuts = object.__new__(cls)
        diag = np.einsum("kii->ki", matrices).copy()
        for name, arr in (("constants", constants), ("matrices", matrices), ("diagonals", diag)):
            arr.flags.writeable = False
            object.__setattr__(cuts, name, arr)
        return cuts

    @functools.cached_property
    def root_bound(self) -> float:
        """max(max c, interval bound at the root), which every allocation meets.

        Every cut is PSD, so no allocation puts cut k below c_k.  The
        interval bound relaxes every off-diagonal product x_i x_j to
        -|A_ij|, and may beat it.
        """
        c, diag = self.constants, self.diagonals
        offdiag = np.abs(self.matrices).sum(axis=(1, 2)) - np.abs(diag).sum(axis=1)
        corner = c + diag.sum(axis=1) - offdiag
        return max(float(c.max()), float(corner.max()))

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


def _with_phantom(cuts: CutSet) -> CutSet:
    """The cuts with a phantom subject n: a zero row, column and diagonal
    entry in every cut.

    Zero entries keep every cut exactly symmetric and PSD.  They change
    no bound either, but the sums of the padded arrays could round
    differently, so the cuts' own root bound is kept.
    """
    padded = CutSet._built(cuts.constants, np.pad(cuts.matrices, ((0, 0), (0, 1), (0, 1))))
    object.__setattr__(padded, "root_bound", cuts.root_bound)
    return padded


@dataclass(frozen=True, eq=False)
class BqpResult:
    """Best allocation found, its value, and the certificate state."""

    x_star: Allocation
    value: float
    lower_bound: float
    status: str
    nodes: int
    restarts: int

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}")
        if self.value < self.lower_bound - 1e-8:
            raise ValueError("value sits below its own lower bound")

    @property
    def gap(self) -> float:
        return self.value - self.lower_bound


def _exact_cut_values(c: np.ndarray, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    # one batched matrix-vector product, then a row dot: both BLAS
    return c + (A @ x) @ x


def _canonical(x: np.ndarray) -> np.ndarray:
    return x if x[0] > 0 else -x


# ---------------------------------------------------------------------------
# heuristic: multi-start steepest descent over balance-preserving moves


def _descent_one(
    c: np.ndarray, A: np.ndarray, diag: np.ndarray, x0: np.ndarray, deadline: float
) -> np.ndarray:
    """``_descent`` of one start, a move at a time.

    A stack of one runs here: scalar indices cost less than a stack's
    array indexing, and at n = 600 the stacked rounds were 8-13% slower
    per move.  The moves, tie rule and arithmetic are the stack's.
    """
    K = A.shape[0]
    x = x0.astype(float)
    g = A @ x
    f = c + g @ x
    P = np.flatnonzero(x > 0)
    M = np.flatnonzero(x < 0)
    # rows then columns gathers faster than one 2-d fancy index, and the
    # C-ordered output keeps each S8[k] contiguous for the moves
    S8 = np.multiply(A[:, P][:, :, M], 8.0, out=np.empty((K, P.size, M.size)))
    blk = np.empty(S8.shape[1:])
    buf = np.empty_like(blk) if K > 1 else blk
    # blk[a, b] = lhs[a] . rhs[:, b] = (f_k + u_a) * 1 + 1 * v_b: both
    # products are exact, so each entry is rounded once, as by np.add,
    # while BLAS avoids numpy's per-row broadcast cost
    lhs = np.ones((2, P.size)).T
    rhs = np.ones((2, M.size))
    while time.monotonic() <= deadline:
        cur = float(f.max())
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
        if best_val >= cur - MOVE_RTOL * (1.0 + abs(cur)):
            break
        rows = np.flatnonzero(rowmin == best_val)
        a = int(rows[np.argmin(P[rows])])
        cols = np.flatnonzero(blk[a] == best_val)
        b = int(cols[np.argmin(M[cols])])
        # i leaves the plus side, j the minus side
        i, j = int(P[a]), int(M[b])
        # A is exactly symmetric: contiguous rows stand in for columns
        g -= 2.0 * A[:, i]
        g += 2.0 * A[:, j]
        x[i], x[j] = -1.0, 1.0
        f = c + g @ x
        P[a], M[b] = j, i
        np.multiply(A[:, j, M], 8.0, out=S8[:, a, :])
        np.multiply(A[:, i, P], 8.0, out=S8[:, :, b])
    return x


def _descent(
    c: np.ndarray, A: np.ndarray, diag: np.ndarray, X0: np.ndarray, deadline: float
) -> np.ndarray:
    """Steepest descent from each row of X0 until no swap strictly
    improves; returns the final rows.

    n is even and every row sums to 0.  The rows descend together: each round makes one
    move in every running row with one set of array operations, and rows
    that cannot improve leave the stack.  Each row's state is a slice of
    stacked arrays, kept in no particular order: moving rows come first,
    so most writes hit a leading slice.  A is exactly symmetric (a
    checked ``CutSet`` is symmetrized, a built one is so by construction),
    so rows of A serve where columns are meant.

    Swap candidates live in a slot-indexed block per row: PM[r, 0] and
    PM[r, 1] hold the +1 and -1 coordinates in slot order, and
    S8[r, k, a, b] = 8 A_k[P[a], M[b]].  A swap trades the two
    coordinates' slots, so one row and one column of S8[r] are rewritten
    (O(Kn)) rather than the block re-gathered (O(Kn^2)).

    Every candidate value is computed in the same order as a plain
    re-gather would, ((f_k + u_a) + v_b) - 8 a_ab, so each row ends bit
    for bit where the reference descent in the tests ends from it.  Exact
    ties, common when covariate rows repeat, go to the smallest (plus
    index, minus index) pair whatever the slot order.  The deadline is
    read once per round, so the running rows stop together.
    """
    if len(X0) == 1:
        return _descent_one(c, A, diag, X0[0], deadline)[None]
    K, n = A.shape[0], A.shape[1]
    m = n // 2
    X = np.array(X0, dtype=float)
    R = X.shape[0]
    # g and 4 diag share one buffer, so one take gathers both at the slots
    GD = np.empty((R + 1) * K * n)
    G = GD[: R * K * n].reshape(R, K, n)
    np.multiply(diag, 4.0, out=GD[R * K * n :].reshape(K, n))
    np.matmul(A, X[:, None, :, None], out=G[..., None])
    F = c + np.matmul(G, X[:, :, None])[..., 0]
    PM = np.empty((R, 2, m), dtype=np.intp)
    S8 = np.empty((R, K, m, m))
    for r in range(R):
        # sorted slots; rows then columns gathers faster than one 2-d
        # fancy index
        PM[r, 0] = np.flatnonzero(X[r] > 0)
        PM[r, 1] = np.flatnonzero(X[r] < 0)
        np.multiply(A[:, PM[r, 0]][:, :, PM[r, 1]], 8.0, out=S8[r])
    # the chosen slots (a, b)
    AB = np.empty((R, 2), dtype=np.intp)
    ids = np.arange(R)
    state = (X, G, F, PM, S8, AB, ids)

    def to_front(keep: np.ndarray) -> int:
        # exchange rows so the kept ones lead; returns how many lead
        k = np.count_nonzero(keep)
        holes = np.flatnonzero(~keep[:k])
        if holes.size:
            donors = k + np.flatnonzero(keep[k:])
            for arr in state:
                arr[holes], arr[donors] = arr[donors], arr[holes]
        return k

    # Q[r, k] = (f_k + u, 1, v): lhs = Q[:2]^T and rhs = Q[1:] give
    # blk[a, b] = (f_k + u_a) * 1 + 1 * v_b; both products are exact, so
    # each entry is rounded once, as by np.add, while BLAS avoids numpy's
    # per-row broadcast cost
    Q = np.ones((R, K, 3, m))
    blk = np.empty((R, K, m, m))
    sign4 = np.array([[-4.0], [4.0]])
    pair = np.arange(2)
    # flat offsets of g_k (first) and 4 d_k (second) for each row and cut
    offGD = np.empty((R, K, 2, 1, 1), dtype=np.intp)
    offGD[:, :, 0] = (np.arange(R * K) * n).reshape(R, K, 1, 1)
    offGD[:, :, 1] = ((R * K + np.arange(K)) * n).reshape(K, 1, 1)
    offV = (np.arange(R * 2 * K) * n).reshape(R, 2, K, 1)
    At = A.transpose(1, 0, 2)
    rows = np.arange(R)
    X_out = np.empty_like(X)
    live = R
    while live and time.monotonic() <= deadline:
        r = rows[:live]
        # [-4 g_P; 4 g_M] and [4 d_P; 4 d_M] per row and cut
        TD = np.take(GD, PM[:live, None, None] + offGD[:live])
        T, D = TD[:, :, 0], TD[:, :, 1]
        np.multiply(T, sign4, out=T)
        cur = F[:live].max(axis=1)
        floor = cur - MOVE_RTOL * (1.0 + np.abs(cur))
        q = Q[:live]
        np.add(T, D, out=q[:, :, ::2])
        np.add(q[:, :, 0], F[:live, :, None], out=q[:, :, 0])
        b_ = blk[:live]
        np.matmul(q[:, :, :2].swapaxes(2, 3), q[:, :, 1:], out=b_)
        np.subtract(b_, S8[:live], out=b_)
        # the worst cut of each candidate, gathered in the first cut's block
        w = b_[:, 0]
        for k in range(1, K):
            np.maximum(w, b_[:, k], out=w)
        flat = w.reshape(live, -1)
        best = flat.min(axis=1)
        # every entry at its row's minimum, in row order; per row the one
        # of smallest (plus index, minus index) wins
        hit = np.flatnonzero(flat == best[:, None])
        at, slot = np.divmod(hit, m * m)
        a, b = np.divmod(slot, m)
        order = np.lexsort((PM[at, 1, b], PM[at, 0, a], at))
        win = order[np.searchsorted(at, r)]
        AB[:live, 0] = a[win]
        AB[:live, 1] = b[win]
        move = best < floor
        if np.count_nonzero(move) < live:
            k = to_front(move)
            X_out[ids[k:live]] = X[k:live]
            live = k
            if not live:
                break
        s, rs = slice(0, live), rows[:live]
        # i leaves the plus side, j the minus side
        IJ = PM[rs[:, None], pair, AB[s]]
        A2 = At[IJ]
        A2 *= 2.0
        G[s] -= A2[:, 0]
        G[s] += A2[:, 1]
        X[rs[:, None], IJ] = (-1.0, 1.0)
        np.add(c, np.matmul(G[s], X[s, :, None])[..., 0], out=F[s])
        PM[rs[:, None], pair, AB[s]] = IJ[:, ::-1]
        # 8 A[i, P] is S8's column b, 8 A[j, M] its row a
        V = np.take(A2, offV[s] + PM[s, :, None])
        V *= 4.0
        S8[rs, :, AB[s, 0]] = V[:, 1]
        S8[rs, :, :, AB[s, 1]] = V[:, 0]
    X_out[ids[:live]] = X[:live]
    return X_out


def _stack_size(cuts: CutSet) -> int:
    """Starts per descent stack: its swap blocks hold about BLOCK_ENTRIES
    entries, and it holds one start where one-cut blocks would fill a
    stack of fewer than LONE_STACK_BELOW.

    The lone rule reads one cut's block, whatever K: a lone descent pays
    numpy's call overhead once per cut and move, and a stack once per
    move, so the share of each move that stacking saves depends on the
    block alone.  At n = 100 with 7-26 cuts, stacks of 2-8 took 0.46-0.81
    of the lone walked descents' CPU (CHANGES.md)."""
    block = (cuts.n // 2) ** 2
    if BLOCK_ENTRIES // block < LONE_STACK_BELOW:
        return 1
    return max(1, BLOCK_ENTRIES // (cuts.k * block))


def _walk(c: np.ndarray, A: np.ndarray, diag: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Greedy pair walk: one balanced start per row of orders, a
    permutation of the n subjects (n even).

    A start signs its subjects two at a time, in its row's order.  The
    pair (i, j) gets opposite signs, x_i = s = -x_j, with s chosen to give
    the smaller max_k (c_k + x_S'A_k x_S) over the subjects S signed so
    far; a tie gives i the +1.  With g_k = A_k x_S, cut k's value f_k
    becomes (f_k + e_k) + s d_k, where e_k = (A_k,ii + A_k,jj) - 2 A_k,ij
    and d_k = 2 (g_k,i - g_k,j), and g_k gains s (A_k,i - A_k,j).  The
    starts walk together, elementwise, so each ends bit for bit where it
    would alone; they walk BLOCK_ENTRIES // (K n) at a time, so that g
    holds about BLOCK_ENTRIES entries.
    """
    K, n = A.shape[0], A.shape[1]
    X = np.empty(orders.shape)
    At = A.transpose(1, 0, 2)
    width = max(1, BLOCK_ENTRIES // (K * n))
    for lo in range(0, len(orders), width):
        I, J = orders[lo : lo + width, ::2], orders[lo : lo + width, 1::2]
        rows = np.arange(len(I))
        # e_k of every pair, indexed (pair, start, cut)
        E = ((diag[:, I] + diag[:, J]) - 2.0 * A[:, I, J]).transpose(2, 1, 0)
        G = np.zeros((len(I), K, n))
        F = np.tile(c, (len(I), 1))
        up = np.empty(I.shape, dtype=bool)
        for t, (i, j) in enumerate(zip(I.T, J.T)):
            D = G[rows, :, i] - G[rows, :, j]
            D *= 2.0
            F += E[t]
            plus, minus = F + D, F - D
            up[:, t] = plus.max(axis=1) <= minus.max(axis=1)
            F = np.where(up[:, t, None], plus, minus)
            # s (a_i - a_j) is a_p - a_m exactly, p the subject signed +1
            # and m the one signed -1, since rounding is symmetric
            p, m = np.where(up[:, t], i, j), np.where(up[:, t], j, i)
            G += At[p] - At[m]
        X[lo + rows[:, None], I] = np.where(up, 1.0, -1.0)
        X[lo + rows[:, None], J] = np.where(up, -1.0, 1.0)
    return X


def _heuristic(cuts: CutSet, limits: SolveLimits, warm_start: np.ndarray | None) -> BqpResult:
    """Multi-start descent and the root test: optimal when the best value
    is within epsilon of the root bound, which is then the lower bound.

    The starts descend in order, in ``_stack_size`` stacks.  Where a
    stack holds one start (n >= 295, or many cuts), each move pays the
    full swap scan, so the cold starts are ``_walk`` starts, each from its
    own seeded permutation: they need fewer moves.  Elsewhere they are
    random balanced signs.  The warm start is not walked, and the walk
    reads no deadline: it costs two to four descent moves per start.  Each
    final row is valued here by ``_exact_cut_values``."""
    deadline = time.monotonic() + limits.time_limit
    rng = np.random.default_rng(limits.seed)
    c, A, n = cuts.constants, cuts.matrices, cuts.n
    size = _stack_size(cuts)
    starts = [] if warm_start is None else [warm_start]
    if size == 1:
        orders = rng.permuted(np.tile(np.arange(n), (RESTARTS, 1)), axis=1)
        starts.extend(_walk(c, A, cuts.diagonals, orders))
    else:
        starts.extend(random_balanced_stack(n, RESTARTS, rng))
    starts = np.array(starts, dtype=float)
    best_x, best_val = None, np.inf
    for s in range(0, len(starts), size):
        for xv in _descent(c, A, cuts.diagonals, starts[s : s + size], deadline):
            val = float(_exact_cut_values(c, A, xv).max())
            xc = _canonical(xv)
            if val < best_val or (val == best_val and tuple(xc) < tuple(best_x)):
                best_x, best_val = xc, val
    return BqpResult(
        x_star=Allocation(best_x.astype(np.int64)),
        value=best_val,
        lower_bound=min(best_val, cuts.root_bound),
        status="optimal" if best_val <= cuts.root_bound + limits.epsilon else "incumbent",
        nodes=0,
        restarts=len(starts),
    )


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

    x ranges over all signs, or over the balanced ones (sum x = 0, n
    even) when ``balanced``.  x = (+1, prefix, suffix): the leading sign
    is pinned and the last m <= SUFFIX_BITS signs form the suffix.  With
    h = (+1, prefix) each cut splits as c + h'A_hh h + 2 h'A_hs s + s'A_ss s,
    so a block of heads meets its suffixes in one product
    [2 A_sh h, c + h'A_hh h, 1] . [s; 1; s'A_ss s] per cut, the suffix
    values being tabulated once; a running max over the cuts follows.
    A balanced search groups heads by plus count, and each group meets
    only the suffixes whose plus count balances it; an unconstrained one
    is a single group of every head and suffix.  Heads and suffixes are both in
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
        suffix_plus = np.count_nonzero(suffixes > 0, axis=1)
        head_plus = np.zeros_like(head_ids)
        for bit in range(h - 1):
            head_plus += (head_ids >> bit) & 1
        # (heads with j plus signs, the suffixes that balance them): the
        # n - 1 free signs hold n / 2 - 1 plus signs
        groups = [
            (head_ids[head_plus == j], np.flatnonzero(suffix_plus == n // 2 - 1 - j))
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
    return BqpResult(
        x_star=Allocation(x.astype(np.int64)),
        value=value,
        lower_bound=value if finished else min(cuts.root_bound, value),
        status="optimal" if finished else "incumbent",
        nodes=0,
        restarts=0,
    )


# ---------------------------------------------------------------------------
# exact branch-and-bound


def _interval_tables(cuts: CutSet) -> tuple[np.ndarray, np.ndarray]:
    """The branch order and, per cut and depth, the relaxed free part.

    Subject 0 comes first (x_0 = +1 by the x -> -x symmetry), then the
    others by their total |A| over every cut, heaviest first.  A node at
    depth d has fixed x on order[:d].  Relaxing each product x_i x_j that
    touches a free subject to -|A_ij| leaves each free subject i with
    A_ii - 2 sum |A_ij| over the j before it in the order, so the sum of
    these over order[d:], tail[k, d], depends on the depth alone.
    """
    A, diag = cuts.matrices, cuts.diagonals
    weight = sum(np.abs(Ak).sum(axis=0) for Ak in A)
    order = np.concatenate([[0], 1 + np.argsort(-weight[1:], kind="stable")])
    tail = np.zeros((cuts.k, cuts.n + 1))
    for k, Ak in enumerate(A):
        before = np.tril(np.abs(Ak[np.ix_(order, order)]), -1).sum(axis=1)
        tail[k, :-1] = np.cumsum((diag[k, order] - 2.0 * before)[::-1])[::-1]
    return order, tail


def _exact(cuts: CutSet, limits: SolveLimits, seed: BqpResult, deadline: float) -> BqpResult:
    """Depth-first branch and bound from ``seed``, a descent that failed its
    root test: its allocation is the first incumbent, and its lower bound,
    the root bound, floors the reported bound.

    A node at depth d has fixed x on order[:d] (``_interval_tables``) and
    carries each cut's fixed-part value v_k and g = A x, its free entries
    at 0; its bound is max(max c, max_k c_k + v_k + tail[k, d]), and a
    child updates v and g in O(Kn).  The lower-bound child is expanded
    first, so the stack holds at most one sibling per depth.  At a limit,
    the open bound is the least bound on the stack or pruned.

    A child neither pruned nor fully fixed is kept.  Its completion, the
    free subjects with the smallest gradient of its binding cut at +1 as
    balance needs, joins one dict of distinct pending starts.  When R =
    ``_stack_size`` starts are pending, or the search ends, they descend
    as one ``_descent`` stack and their ends are offered in order.  So the
    incumbent changes once per stack, and with R = 1 once per kept child.
    A start of the previous stack is not pending again: offering its end
    a second time could change nothing.
    """
    c, A, diag = cuts.constants, cuts.matrices, cuts.diagonals
    eps = limits.epsilon
    order, tail = _interval_tables(cuts)
    c_max = float(c.max())
    size = _stack_size(cuts)
    best_x, best_val = seed.x_star.x.astype(float), seed.value
    pending: dict = {}
    latest: set = set()

    def offer(xv: np.ndarray) -> None:
        # only a lower value replaces the incumbent: a tie keeps the
        # descent's allocation, whose separation a cutting-plane loop reuses
        nonlocal best_x, best_val
        val = float(_exact_cut_values(c, A, xv).max())
        if val < best_val:
            best_x, best_val = _canonical(xv).copy(), val

    def descend_pending() -> None:
        nonlocal latest
        ends = _descent(c, A, diag, np.array(list(pending.values())), deadline)
        latest = set(pending)
        pending.clear()
        for xv in ends:
            offer(xv)

    x = np.zeros(cuts.n)
    x[0] = 1.0
    v, g = diag[:, 0].copy(), A[:, 0].copy()
    stack = [(max(c_max, float((c + v + tail[:, 1]).max())), 1, x, v, g)]
    pruned = np.inf
    nodes = 0
    status = "optimal"
    while stack:
        if nodes >= limits.node_limit or time.monotonic() > deadline:
            status = "incumbent"
            break
        bound, d, x, v, g = stack.pop()
        if bound >= best_val - eps:
            pruned = min(pruned, bound)
            continue
        nodes += 1
        b, free = order[d], order[d + 1 :]
        kept = []
        for s in (-1.0, 1.0):
            # the free subjects' plus count that brings the sum to 0
            m = (free.size - int(x.sum() + s)) // 2
            if not 0 <= m <= free.size:
                continue
            child = x.copy()
            child[b] = s
            child_v = v + 2.0 * s * g[:, b] + diag[:, b]
            if m in (0, free.size):
                child[free] = 1.0 if m else -1.0
                offer(child)
                continue
            cut_bounds = c + child_v + tail[:, d + 1]
            k = int(np.argmax(cut_bounds))
            child_bound = max(c_max, float(cut_bounds[k]))
            if child_bound >= best_val - eps:
                pruned = min(pruned, child_bound)
                continue
            child_g = g + s * A[:, b]
            y = child.copy()
            y[free] = -1.0
            y[free[np.argsort(child_g[k, free], kind="stable")[:m]]] = 1.0
            key = y.tobytes()
            if key not in latest:
                pending[key] = y
                if len(pending) == size:
                    descend_pending()
            kept.append((child_bound, d + 1, child, child_v, child_g))
        # the stack's top is expanded next: the lower bound goes last
        kept.sort(key=lambda entry: entry[0], reverse=True)
        stack.extend(kept)
    if pending:
        descend_pending()
    open_bound = min([pruned] + [entry[0] for entry in stack])
    return BqpResult(
        x_star=Allocation(best_x.astype(np.int64)),
        value=best_val,
        lower_bound=min(best_val, max(seed.lower_bound, open_bound)),
        status=status,
        nodes=nodes,
        restarts=seed.restarts,
    )


def solver_method(n: int, mode: str) -> str:
    """The method that solves an n-subject problem in a resolved mode;
    past ENUM_MAX_N, exact mode only continues an incumbent."""
    if mode == "heuristic":
        return "descent"
    return "enumeration" if n <= ENUM_MAX_N else "branch_and_bound"


def resolve_mode(n: int, mode: str) -> str:
    """"exact" or "heuristic" for a SolveLimits mode and n subjects.

    "auto" and "exact" alike are exact where the n-subject master
    enumerates (n up to ENUM_MAX_N) and heuristic past that.
    """
    if mode == "heuristic":
        return mode
    return "exact" if n <= ENUM_MAX_N else "heuristic"


def _solve(
    method: str, cuts: CutSet, limits: SolveLimits, warm_start, incumbent
) -> BqpResult:
    """``minimize_max_quadratic`` by the given method, at even n."""
    if method == "descent":
        return _heuristic(cuts, limits, warm_start)
    if method == "enumeration":
        return _enumerate_master(cuts, time.monotonic() + limits.time_limit)
    seed = replace(incumbent, restarts=0)
    if seed.status == "optimal":
        return seed
    return _exact(cuts, limits, seed, time.monotonic() + limits.time_limit)


def minimize_max_quadratic(
    cuts: CutSet,
    limits: SolveLimits | None = None,
    warm_start=None,
    incumbent: BqpResult | None = None,
) -> BqpResult:
    """Entry point; the method follows limits.mode and n (see ``resolve_mode``).

    Past ENUM_MAX_N, a result that did not certify is continued by branch
    and bound when passed as ``incumbent`` to an exact-mode solve of the
    same cuts and epsilon, which then reports no restarts; no other solve
    takes an incumbent.

    At odd n the cuts gain the phantom of the module docstring, and a
    warm start or incumbent its entry -sum x.
    """
    if limits is None:
        limits = SolveLimits()
    n = cuts.n
    if n < 2:
        raise ValueError("need at least two subjects")
    wv = None
    if warm_start is not None:
        wv = allocation_vector(warm_start)
        if wv.size != n:
            raise ValueError(f"warm start length {wv.size} != n = {n}")
        if abs(wv.sum()) > 1:
            raise ValueError("warm start must be balanced")
    method = solver_method(n, resolve_mode(n, limits.mode))
    if incumbent is not None:
        if limits.mode != "exact" or method != "descent" or incumbent.x_star.n != n:
            raise ValueError(f"an incumbent continues only an n = {n} branch and bound")
        method = "branch_and_bound"
    if n % 2 == 0:
        return _solve(method, cuts, limits, wv, incumbent)
    if wv is not None:
        wv = np.append(wv, -wv.sum())
    if incumbent is not None:
        x = incumbent.x_star.x
        incumbent = replace(incumbent, x_star=Allocation(np.append(x, -x.sum())))
    result = _solve(method, _with_phantom(cuts), limits, wv, incumbent)
    x = result.x_star.x[:n]
    value = float(_exact_cut_values(cuts.constants, cuts.matrices, x.astype(float)).max())
    # the real cuts may round the value differently; a bound that met the
    # padded value meets this one
    lower = value if result.gap == 0.0 else min(result.lower_bound, value)
    return replace(result, x_star=Allocation(x), value=value, lower_bound=lower)
