"""Output checks against naive recomputation.

The oracles use direct inverses and full enumeration.  Above p = 12 the
hypercube is too large for plain numpy, so the maximum over profiles
comes from the program's own Gray-code enumeration run on the naive
matrix, which shares no code with interval branch and bound.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

VALUE_RTOL = 1e-9
BRUTE_FORCE_MAX_N = 20
BRUTE_FORCE_ATOL = 1e-6
NAIVE_ENUM_MAX_P = 12
# an allocation the program calls confounded must be near singular here
CONFOUND_CHECK_RTOL = 1e-8


def hypercube(p: int) -> np.ndarray:
    body = np.array(list(itertools.product((-1.0, 1.0), repeat=p - 1))).reshape(-1, p - 1)
    return np.hstack([np.ones((body.shape[0], 1)), body])


def naive_matrices(H: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Surrogate matrix and Sigma_beta (None when near singular)."""
    G = H.T @ H
    Gi = np.linalg.inv(G)
    S = H.T @ (x[:, None] * H)
    surrogate = Gi + Gi @ S @ Gi @ S @ Gi
    C = G - S @ Gi @ S
    w = np.linalg.eigvalsh((C + C.T) / 2.0)
    if w[0] <= CONFOUND_CHECK_RTOL * np.linalg.eigvalsh(G)[-1]:
        return surrogate, None
    return surrogate, np.linalg.inv(C)


def worst_case(M: np.ndarray) -> float:
    M = (M + M.T) / 2.0
    p = M.shape[0]
    if p <= NAIVE_ENUM_MAX_P:
        Z = hypercube(p)
        return float(np.einsum("ij,jk,ik->i", Z, M, Z).max())
    from trialdesign.inner_max import InnerMaxProblem, solve_inner_max

    return solve_inner_max(InnerMaxProblem(M), method="enumeration").value


def brute_force_optimum(H: np.ndarray) -> float:
    """min over balanced x of the worst-case surrogate, all x at once."""
    n, p = H.shape
    rest = np.array(list(itertools.combinations(range(1, n), n // 2 - 1)))
    X = -np.ones((rest.shape[0], n))
    X[:, 0] = 1.0  # x and -x give the same objective
    X[np.arange(rest.shape[0])[:, None], rest] = 1.0
    Gi = np.linalg.inv(H.T @ H)
    S = np.einsum("ki,ia,ib->kab", X, H, H)
    W = Gi @ S
    M = Gi + W @ W @ Gi
    Z = hypercube(p)
    values = np.einsum("za,kab,zb->kz", Z, M, Z)
    return float(values.max(axis=1).min())


def _close(reported: float, expected: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(reported - expected) <= rtol * max(abs(expected), 1e-300)


class Checker:
    """Checks each command's output; caches oracles per input."""

    def __init__(self, plan):
        self.plan = plan
        self._values: dict = {}
        self._optima: dict = {}

    def values(self, key: str, x: np.ndarray) -> tuple[float, float | None]:
        token = (key, x.tobytes())
        if token not in self._values:
            surrogate, sigma = naive_matrices(self.plan.matrices[key], x)
            self._values[token] = (
                worst_case(surrogate),
                None if sigma is None else worst_case(sigma),
            )
        return self._values[token]

    def optimum(self, key: str) -> float:
        if key not in self._optima:
            self._optima[key] = brute_force_optimum(self.plan.matrices[key])
        return self._optima[key]

    def _objectives(self, key: str, x: np.ndarray, doc: dict, errors: list[str]) -> None:
        surrogate, original = self.values(key, x)
        if not _close(doc["surrogate_value"], surrogate):
            errors.append(f"surrogate_value {doc['surrogate_value']!r} != naive {surrogate!r}")
        if original is None:
            if doc["original_value"] is not None:
                errors.append("original_value reported for a near-singular design")
        elif doc["original_value"] is None or not _close(doc["original_value"], original):
            errors.append(f"original_value {doc['original_value']!r} != naive {original!r}")

    def check(self, step, stdout: str, produced: dict) -> list[str]:
        """Return the failed checks; produced carries a pass's earlier outputs."""
        errors: list[str] = []
        H = self.plan.matrices[step.matrix]
        n, p = H.shape
        if step.kind == "encode":
            from trialdesign.report import read_matrix_csv

            doc = json.loads(stdout)
            written = read_matrix_csv(step.argv[step.argv.index("--out") + 1])
            if (doc["n"], doc["p"]) != (n, p) or not np.array_equal(written, H):
                errors.append("encoded matrix differs from the naive encoding")
            return errors
        doc = json.loads(stdout)
        if step.kind == "design":
            x = np.asarray(doc["allocation"], dtype=float)
            if x.shape != (n,) or not np.all(np.isin(x, (-1.0, 1.0))) or abs(x.sum()) > 1:
                return [f"allocation is not a balanced +/-1 vector of length {n}"]
            produced[step.matrix] = x
            self._objectives(step.matrix, x, doc, errors)
            if doc["method"] == "EXACT" and doc["status"] == "optimal":
                bound = doc["diagnostics"]["lower_bound"]
                if bound is None or bound > doc["surrogate_value"] + 1e-12:
                    errors.append(f"optimal status with lower bound {bound!r}")
                if n <= BRUTE_FORCE_MAX_N:
                    best = self.optimum(step.matrix)
                    if abs(doc["surrogate_value"] - best) > BRUTE_FORCE_ATOL:
                        errors.append(f"optimal value {doc['surrogate_value']!r} != brute force {best!r}")
            return errors
        # evaluate
        x = self.plan.allocations.get(step.allocation) if step.allocation else produced.get(step.matrix)
        if x is None:
            return ["evaluate ran without a known allocation"]
        self._objectives(step.matrix, x, doc, errors)
        for name, rand in doc["rand"].items():
            q = [rand["quantiles"][k] for k in ("0.01", "0.05", "0.5")]
            if not q[0] <= q[1] <= q[2]:
                errors.append(f"rand {name} quantiles out of order: {q}")
        vr = doc.get("variance_reduction")
        if vr is not None and not 0.0 <= vr["fraction_positive"] <= 1.0:
            errors.append(f"variance reduction fraction {vr['fraction_positive']!r} outside [0, 1]")
        return errors
