"""Allocation objectives for two-arm designs with covariate interactions.

For covariates H (n x p, intercept first) and a +/-1 allocation x, the
model y_i = h_i'alpha + (x_i/2) h_i'beta + noise has interaction-effect
covariance proportional to

    Sigma_beta(x, H) = (H'H - H'DxH (H'H)^-1 H'DxH)^-1

with Dx = diag(x).  The design problem minimizes the worst case of
z'Sigma_beta z over a covariate space Z.  Because Sigma_beta is awkward
to optimize directly, a surrogate replaces it with

    (H'H)^-1 + Psi(x, H),
    Psi = (H'H)^-1 H'DxH (H'H)^-1 H'DxH (H'H)^-1,

the first two terms of the Neumann expansion of Sigma_beta.  The
surrogate's inner maximization moves to allocation space through

    z'Psi(x, H)z = x'Upsilon(z, H)x,
    Upsilon(z, H) = M ∘ (M_z),  M = H(H'H)^-1 H',
    M_z = H(H'H)^-1 z z' (H'H)^-1 H',

a PSD Hadamard product, and averaging z over the rows of H gives the
single-level lower-bound objective p/n + x'(M ∘ M)x / n.

All of these depend on H through one factorization.  spectral_cache(H)
computes it once: H, its thin-SVD factor U (so M = UU'), H'H and its
inverse.  Every function here that takes H also accepts that object in
H's place, and then factors nothing again.

Psi and Sigma_beta have stacked kernels for R allocations at once, the
rows of an (R, n) matrix X: H'DxH for all of them is one product X K,
K holding the rowwise outer products h_i h_i', and the rest are stacked
matrix products.  Sigma_beta's confounding test runs as a Cholesky
screen that clears most designs for one stacked inverse, with the
eigenvalue test deciding the rest (sigma_beta_stack).  cross_gram, psi,
surrogate_matrix and sigma_beta are the one-allocation case of these
kernels, and worst_case_stack maximizes over profiles for a whole stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .covariates import as_matrix, frozen_copy
from .errors import ConfoundedDesign, IllConditioned
from .limits import SolveLimits

# relative eigenvalue floor under which Sigma_beta counts as singular
CONFOUND_RTOL = 1e-10

# Gram condition number beyond which factorizations are refused
CONDITION_LIMIT = 1e12


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True, eq=False)
class Allocation:
    """A +/-1 treatment assignment with |sum x| <= 1."""

    x: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.x)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("allocation must be a non-empty 1-d vector")
        if not np.all(np.isin(arr, (-1, 1))):
            raise ValueError("allocation entries must be +1 or -1")
        arr = arr.astype(np.int64)
        if abs(int(arr.sum())) > 1:
            raise ValueError(f"allocation is unbalanced: sum = {int(arr.sum())}")
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def n_plus(self) -> int:
        return int(np.sum(self.x == 1))

    @property
    def n_minus(self) -> int:
        return int(np.sum(self.x == -1))

    @property
    def imbalance(self) -> int:
        return abs(int(self.x.sum()))

    @classmethod
    def from_signs(cls, signs) -> "Allocation":
        return cls(np.asarray(signs))


def allocation_vector(x) -> np.ndarray:
    """Accept an Allocation or a raw +/-1 vector; return a float vector.

    Raw vectors skip the balance check so that deliberately unbalanced
    assignments can still be evaluated.
    """
    if isinstance(x, Allocation):
        return x.x.astype(float)
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("allocation must be a non-empty 1-d vector")
    return _allocation_rows(arr[None], arr.size)[0]


def _allocation_rows(X, n: int) -> np.ndarray:
    # X as an (R, n) float stack: a 2-d array, or a sequence of Allocation
    # objects and raw +/-1 vectors; the one check of allocation entries
    if not isinstance(X, np.ndarray):
        X = [x.x if isinstance(x, Allocation) else x for x in X]
    rows = np.asarray(X, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("allocations must form a non-empty 2-d stack")
    if rows.shape[1] != n:
        raise ValueError(f"allocation length {rows.shape[1]} != n = {n}")
    if not np.all(np.abs(rows) == 1.0):
        raise ValueError("allocation entries must be +1 or -1")
    return rows


def random_balanced_signs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random balanced +/-1 vector; odd n leans either way."""
    if n < 1:
        raise ValueError("n must be positive")
    n_plus = n // 2
    if n % 2 == 1 and rng.integers(0, 2) == 1:
        n_plus += 1
    signs = np.full(n, -1, dtype=np.int64)
    signs[rng.permutation(n)[:n_plus]] = 1
    return signs


def random_balanced_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count rows of random_balanced_signs(n, rng), drawn in order.

    At even n one rng.permuted call shuffles every row: it gives the rows
    of count successive rng.permutation(n) calls and leaves rng in the
    same state.  At odd n each draw first picks its leaning, so the rows
    are drawn one at a time.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 1:
        rows = [random_balanced_signs(n, rng) for _ in range(count)]
        return np.array(rows, dtype=np.int64).reshape(count, n)
    order = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    signs = np.full((count, n), -1, dtype=np.int64)
    np.put_along_axis(signs, order[:, : n // 2], 1, axis=1)
    return signs


@dataclass(frozen=True, eq=False)
class CovariateSpace:
    """Inner maximization domain for z (first entry pinned to +1).

    kind "hypercube": all of {1} x {-1,+1}^(p-1); "rows": the rows of H;
    "explicit": a caller-supplied list of vectors.
    """

    kind: str
    vectors: np.ndarray | None = None
    dimension: int | None = None

    @classmethod
    def hypercube(cls, p: int | None = None) -> "CovariateSpace":
        if p is not None and p < 1:
            raise ValueError("p must be at least 1")
        return cls(kind="hypercube", dimension=p)

    @classmethod
    def rows(cls) -> "CovariateSpace":
        return cls(kind="rows")

    @classmethod
    def explicit(cls, vectors) -> "CovariateSpace":
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("explicit space needs a non-empty 2-d array of z vectors")
        if not np.all(arr[:, 0] == 1.0):
            raise ValueError("every z must have first entry +1")
        return cls(kind="explicit", vectors=frozen_copy(arr))

    def resolve(self, H) -> np.ndarray | None:
        """Candidate rows for finite spaces; None means the full hypercube."""
        A = as_matrix(H)
        p = A.shape[1]
        if self.kind == "hypercube":
            if self.dimension is not None and self.dimension != p:
                raise ValueError(f"space declared p={self.dimension}, matrix has p={p}")
            return None
        if self.kind == "rows":
            return A
        if self.kind == "explicit":
            assert self.vectors is not None
            if self.vectors.shape[1] != p:
                raise ValueError(
                    f"explicit z vectors have width {self.vectors.shape[1]}, matrix has p={p}"
                )
            return self.vectors
        raise ValueError(f"unknown space kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class SpectralCache:
    """One factorization of H, accepted wherever H is.

    matrix is a read-only copy of H and U its n x p orthonormal factor
    from the thin SVD H = U S V', so the hat matrix M is U U'.
    """

    matrix: np.ndarray
    U: np.ndarray
    gram: np.ndarray
    gram_inverse: np.ndarray
    gram_max_eigenvalue: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    def __array__(self, dtype=None, copy=None):
        # as_matrix, and numpy generally, see the matrix this factors
        return np.array(self.matrix, dtype=dtype, copy=copy)


def spectral_cache(H) -> SpectralCache:
    """Factor H once; raises IllConditioned when cond(H'H) > 1e12."""
    A = frozen_copy(as_matrix(H))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= 0:
        raise IllConditioned("Gram matrix is singular")
    cond = float((s[0] / s[-1]) ** 2)
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"cond(H'H) = {cond:.3e} exceeds {CONDITION_LIMIT:g}")
    gram = frozen_copy(_sym((Vt.T * s**2) @ Vt))
    return SpectralCache(
        matrix=A,
        U=frozen_copy(U),
        gram=gram,
        gram_inverse=frozen_copy(_sym((Vt.T * s**-2) @ Vt)),
        gram_max_eigenvalue=float(np.linalg.eigvalsh(gram)[-1]),
    )


def _factored(H) -> SpectralCache:
    return H if isinstance(H, SpectralCache) else spectral_cache(H)


def stack_size(H) -> int:
    """Allocations per stacked call, so that what one holds at a time stays
    within about bqp.BLOCK_ENTRIES entries.  cross_gram_stack's K takes at
    most half of them; the (R, n) allocations and at most four (R, p, p)
    stacks held together take the other half."""
    from .bqp import BLOCK_ENTRIES

    n, p = as_matrix(H).shape
    return max(1, BLOCK_ENTRIES // (2 * (n + 4 * p * p)))


@functools.cache
def _upper(p: int) -> tuple[np.ndarray, np.ndarray]:
    # index pairs (a, b), a <= b, of a p x p matrix; built once per width
    a, b = np.triu_indices(p)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def cross_gram_stack(H, X) -> np.ndarray:
    """H'DxH for every row x of the (R, n) stack X, as (R, p, p).

    X may also be a sequence of Allocation objects or raw +/-1 vectors.
    Every stacked kernel reaches X through here, where it is checked once.

    All R at once are X @ K, row i of K holding the products h_ia h_ib,
    a <= b, of row i of H: the upper triangle of h_i h_i'.  K is built for
    blocks of rows of H, so that it and the gather it is built from stay
    within half of bqp.BLOCK_ENTRIES entries whatever n is.
    """
    from .bqp import BLOCK_ENTRIES

    A = as_matrix(H)
    n, p = A.shape
    X = _allocation_rows(X, n)
    a, b = _upper(p)
    step = max(1, BLOCK_ENTRIES // (4 * a.size))
    upper = None
    for start in range(0, n, step):
        B = A[start : start + step]
        K = B[:, a]
        K *= B[:, b]
        part = X[:, start : start + step] @ K
        upper = part if upper is None else upper + part
    S = np.empty((len(X), p, p))
    S[:, a, b] = upper
    S[:, b, a] = upper
    return S


def cross_gram(H, x) -> np.ndarray:
    """H'DxH, the covariate imbalance between the two arms."""
    return cross_gram_stack(H, [x])[0]


def _cholesky_cleared(A: np.ndarray) -> np.ndarray:
    # which matrices of the stack have a Cholesky factor; numpy raises for
    # the whole stack when one fails, so a failing stack is split in two
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.zeros(1, dtype=bool)
        half = len(A) // 2
        return np.concatenate([_cholesky_cleared(A[:half]), _cholesky_cleared(A[half:])])
    return np.ones(len(A), dtype=bool)


def _complement_inverse(C: np.ndarray, gram_max: float) -> tuple[np.ndarray, dict[int, str]]:
    # Sigma_beta = C^-1 for a stack of C = H'H - H'DxH (H'H)^-1 H'DxH,
    # with sigma_beta_stack's confounding test
    tau = CONFOUND_RTOL * gram_max
    cleared = _cholesky_cleared(C - 2.0 * tau * np.eye(C.shape[-1]))
    sigma = np.full_like(C, np.nan)
    if cleared.any():
        sigma[cleared] = _sym(np.linalg.inv(C[cleared]))
    reasons: dict[int, str] = {}
    for r in np.flatnonzero(~cleared).tolist():
        w, V = np.linalg.eigh(C[r])
        # C <= H'H in the PSD order, so the Gram scale bounds how small an
        # eigenvalue of C can be before the inverse is meaningless; C's own
        # largest eigenvalue is useless as a yardstick when all of C collapses
        scale = max(float(w[-1]), gram_max)
        if w[-1] <= 0 or w[0] <= CONFOUND_RTOL * scale:
            reasons[r] = (
                f"allocation confounds treatment with covariates "
                f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
            )
        else:
            sigma[r] = _sym((V / w) @ V.T)
    return sigma, reasons


def sigma_beta_stack(H, X) -> tuple[np.ndarray, dict[int, str]]:
    """Sigma_beta for every row x of the (R, n) stack X.

    Returns the (R, p, p) stack, NaN where a design confounds, and the
    reason for each confounded row by index.  A design confounds when
    C = H'H - H'DxH (H'H)^-1 H'DxH has an eigenvalue at or below tau, 1e-10
    times the larger of C's and H'H's largest.  A Cholesky screen decides
    most designs without an eigendecomposition: C - 2 tau' I, with tau' =
    1e-10 times H'H's largest, has a Cholesky factor only if C's smallest
    eigenvalue exceeds 2 tau' less the factorization's backward error,
    about p eps times C's largest and so 1e5 times smaller than tau'.  So
    every design the screen clears passes the eigenvalue test, and their
    Sigma_beta come from one stacked inverse.  Every other design goes
    through the eigenvalue test itself, which decides it.
    """
    F = _factored(H)
    S = cross_gram_stack(F.matrix, X)
    C = _sym(F.gram - S @ F.gram_inverse @ S)
    del S  # freed before the inverse's temporaries
    return _complement_inverse(C, F.gram_max_eigenvalue)


def sigma_beta(H, x) -> np.ndarray:
    """Interaction-effect covariance at unit noise variance.

    Raises ConfoundedDesign when the matrix being inverted has an
    eigenvalue at or below 1e-10 times its largest (see sigma_beta_stack,
    of which this is the one-allocation case).
    """
    sigma, reasons = sigma_beta_stack(H, [x])
    if reasons:
        raise ConfoundedDesign(reasons[0])
    return sigma[0]


def psi_stack(H, X) -> np.ndarray:
    """Psi for every row x of the (R, n) stack X, as (R, p, p)."""
    F = _factored(H)
    W = F.gram_inverse @ cross_gram_stack(F.matrix, X)
    return _sym(W @ F.gram_inverse @ W.swapaxes(-1, -2))


def psi(H, x) -> np.ndarray:
    """Second-order surrogate term; PSD and zero iff H'DxH = 0."""
    return psi_stack(H, [x])[0]


def surrogate_matrix(H, x) -> np.ndarray:
    """(H'H)^-1 + Psi(x, H); always defined, unlike Sigma_beta."""
    F = _factored(H)
    return F.gram_inverse + psi(F, x)


def objective_stack(H, X, objective: str) -> np.ndarray:
    """Surrogate matrices ("surrogate") or Sigma_beta ("original") of every
    row of the (R, n) stack X, NaN where Sigma_beta confounds.

    X may also be a sequence of allocations, as for cross_gram_stack.  The
    rows go through the stacked kernels stack_size(H) at a time.
    """
    if objective not in ("surrogate", "original"):
        raise ValueError(f"objective must be 'surrogate' or 'original', got {objective!r}")
    F = _factored(H)
    step = stack_size(F)
    parts = []
    for start in range(0, len(X), step):
        chunk = X[start : start + step]
        if objective == "surrogate":
            parts.append(F.gram_inverse + psi_stack(F, chunk))
        else:
            parts.append(sigma_beta_stack(F, chunk)[0])
    return np.concatenate(parts) if parts else np.empty((0, F.p, F.p))


def upsilon(H, z) -> np.ndarray:
    """Allocation-space quadratic form with z'Psi(x,H)z = x'Upsilon(z,H)x."""
    F = _factored(H)
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 1 or zv.size != F.p:
        raise ValueError(f"z must be a vector of length p = {F.p}")
    if zv[0] != 1.0:
        raise ValueError("z must have first entry +1")
    u = F.matrix @ (F.gram_inverse @ zv)
    hat = F.U @ F.U.T  # numpy's symmetric rank-p update: exactly symmetric
    return np.multiply(hat, np.outer(u, u), out=hat)


def lb_matrix(H) -> np.ndarray:
    """Elementwise square of the hat matrix; PSD by the Schur product."""
    F = _factored(H)
    hat = F.U @ F.U.T  # exactly symmetric, as in upsilon
    return np.multiply(hat, hat, out=hat)


def lb_value(H, x) -> float:
    """Row-averaged surrogate objective p/n + x'(M ∘ M)x / n.

    With M = UU', x'(M ∘ M)x = ||U'DxU||_F^2, a p x p product.
    """
    F = _factored(H)
    xv = allocation_vector(x)
    if xv.size != F.n:
        raise ValueError(f"allocation length {xv.size} != n = {F.n}")
    G = F.U.T @ (xv[:, None] * F.U)
    return float(F.p / F.n + np.sum(G * G) / F.n)


def _max_over_candidates(M: np.ndarray, Z: np.ndarray) -> tuple[float, np.ndarray]:
    # ties resolved toward the lexicographically smallest z
    values = np.einsum("ij,jk,ik->i", Z, M, Z)
    top = float(values.max())
    ties = np.flatnonzero(values == top)
    index = ties[0] if ties.size == 1 else min(ties, key=lambda i: tuple(Z[i]))
    return float(values[index]), Z[index].copy()


def worst_case_stack(Ms, space: CovariateSpace, H, limits: SolveLimits | None = None):
    """max_z z'Mz over the space for every matrix M of a stack.

    Returns the values and the argmax profiles as rows, both NaN where M
    has a NaN, and per matrix the inner-max result of its hypercube
    separation (None where none ran).  The separations of a stack run as
    one multiplexed group, inner_max.solve_inner_max_group: they share one
    deadline, start + limits.time_limit, and each keeps its own node_limit.
    A separation stopped at a limit has optimal False, and its value only
    bounds the worst case from below.
    """
    Ms = np.asarray(Ms, dtype=float)
    values = np.full(len(Ms), np.nan)
    profiles = np.full(Ms.shape[:2], np.nan)
    results: list = [None] * len(Ms)
    valid = np.flatnonzero(~np.isnan(Ms).any(axis=(1, 2))).tolist()
    Z = space.resolve(H)
    if Z is not None:
        for i in valid:
            values[i], profiles[i] = _max_over_candidates(Ms[i], Z)
        return values, profiles, results
    from . import inner_max

    problems = [inner_max.InnerMaxProblem(Ms[i]) for i in valid]
    # a lone matrix goes through solve_inner_max, the one-search entry
    # point that wrappers of the inner-max layer see; both run _solve
    if len(problems) == 1:
        found = [inner_max.solve_inner_max(problems[0], limits)]
    else:
        found = inner_max.solve_inner_max_group(problems, limits)
    for i, result in zip(valid, found):
        values[i], profiles[i], results[i] = result.value, result.z_star, result
    return values, profiles, results


def worst_case_quadratic(
    M: np.ndarray,
    space: CovariateSpace,
    H,
    limits: SolveLimits | None = None,
) -> tuple[float, np.ndarray]:
    """max_z z'Mz over the space, with its argmax: worst_case_stack's
    one-matrix case."""
    values, profiles, _ = worst_case_stack(np.asarray(M, dtype=float)[None], space, H, limits)
    return float(values[0]), profiles[0]


def original_value(
    H,
    x,
    space: CovariateSpace | None = None,
    limits: SolveLimits | None = None,
) -> tuple[float, np.ndarray]:
    """Worst-case z'Sigma_beta(x,H)z over the space (hypercube default).

    Returns the value and the worst covariate profile achieving it.
    """
    F = _factored(H)
    if space is None:
        space = CovariateSpace.hypercube()
    return worst_case_quadratic(sigma_beta(F, x), space, F, limits)


def surrogate_value(
    H,
    x,
    space: CovariateSpace | None = None,
    limits: SolveLimits | None = None,
) -> tuple[float, np.ndarray]:
    """Worst-case z'((H'H)^-1 + Psi)z over the space (hypercube default).

    Returns the value and the worst covariate profile achieving it.
    """
    F = _factored(H)
    if space is None:
        space = CovariateSpace.hypercube()
    return worst_case_quadratic(surrogate_matrix(F, x), space, F, limits)
