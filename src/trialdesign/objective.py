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
"""

from __future__ import annotations

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
    return (M + M.T) / 2.0


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
    if not np.all(np.isin(arr, (-1.0, 1.0))):
        raise ValueError("allocation entries must be +1 or -1")
    return arr


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


def cross_gram(H, x) -> np.ndarray:
    """H'DxH, the covariate imbalance between the two arms."""
    A = as_matrix(H)
    xv = allocation_vector(x)
    if xv.size != A.shape[0]:
        raise ValueError(f"allocation length {xv.size} != n = {A.shape[0]}")
    return _sym(A.T @ (xv[:, None] * A))


def sigma_beta(H, x) -> np.ndarray:
    """Interaction-effect covariance at unit noise variance.

    Raises ConfoundedDesign when the matrix being inverted has an
    eigenvalue at or below 1e-10 times its largest.
    """
    F = _factored(H)
    S = cross_gram(F.matrix, x)
    C = _sym(F.gram - S @ F.gram_inverse @ S)
    w, V = np.linalg.eigh(C)
    # C <= H'H in the PSD order, so the Gram scale bounds how small an
    # eigenvalue of C can be before the inverse is meaningless; C's own
    # largest eigenvalue is useless as a yardstick when all of C collapses
    scale = max(float(w[-1]), F.gram_max_eigenvalue)
    if w[-1] <= 0 or w[0] <= CONFOUND_RTOL * scale:
        raise ConfoundedDesign(
            f"allocation confounds treatment with covariates "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return _sym((V / w) @ V.T)


def psi(H, x) -> np.ndarray:
    """Second-order surrogate term; PSD and zero iff H'DxH = 0."""
    F = _factored(H)
    W = F.gram_inverse @ cross_gram(F.matrix, x)
    return _sym(W @ F.gram_inverse @ W.T)


def surrogate_matrix(H, x) -> np.ndarray:
    """(H'H)^-1 + Psi(x, H); always defined, unlike Sigma_beta."""
    F = _factored(H)
    return F.gram_inverse + psi(F, x)


def upsilon(H, z) -> np.ndarray:
    """Allocation-space quadratic form with z'Psi(x,H)z = x'Upsilon(z,H)x."""
    F = _factored(H)
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 1 or zv.size != F.p:
        raise ValueError(f"z must be a vector of length p = {F.p}")
    if zv[0] != 1.0:
        raise ValueError("z must have first entry +1")
    u = F.matrix @ (F.gram_inverse @ zv)
    return _sym(F.U @ F.U.T) * np.outer(u, u)


def lb_matrix(H) -> np.ndarray:
    """Elementwise square of the hat matrix; PSD by the Schur product."""
    F = _factored(H)
    hat = _sym(F.U @ F.U.T)
    return hat * hat


def lb_value(H, x) -> float:
    """Row-averaged surrogate objective p/n + x'(M ∘ M)x / n."""
    F = _factored(H)
    xv = allocation_vector(x)
    if xv.size != F.n:
        raise ValueError(f"allocation length {xv.size} != n = {F.n}")
    return float(F.p / F.n + xv @ lb_matrix(F) @ xv / F.n)


def _max_over_candidates(M: np.ndarray, Z: np.ndarray) -> tuple[float, np.ndarray]:
    # ties resolved toward the lexicographically smallest z
    values = np.einsum("ij,jk,ik->i", Z, M, Z)
    top = float(values.max())
    ties = np.flatnonzero(values == top)
    index = ties[0] if ties.size == 1 else min(ties, key=lambda i: tuple(Z[i]))
    return float(values[index]), Z[index].copy()


def worst_case_quadratic(
    M: np.ndarray,
    space: CovariateSpace,
    H,
    limits: SolveLimits | None = None,
) -> tuple[float, np.ndarray]:
    """max_z z'Mz over the space, with its argmax."""
    Z = space.resolve(H)
    if Z is None:
        from .inner_max import InnerMaxProblem, solve_inner_max

        result = solve_inner_max(InnerMaxProblem(M), limits=limits)
        return result.value, result.z_star
    return _max_over_candidates(M, Z)


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
