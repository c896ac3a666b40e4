import tracemalloc

import numpy as np
import pytest

from conftest import (
    balanced_corners,
    brute_max_quadratic,
    hypercube_vertices,
    oracle_lb_matrix,
    oracle_psi,
    oracle_sigma_beta,
    oracle_surrogate_matrix,
    oracle_upsilon,
    random_design,
)
from trialdesign.baselines import rand_benchmark, random_balanced_allocations
from trialdesign.errors import ConfoundedDesign, IllConditioned
from trialdesign.evaluation import surrogate_gap_scan, variance_reduction
from trialdesign import objective
from trialdesign.objective import (
    CONFOUND_RTOL,
    Allocation,
    CovariateSpace,
    allocation_vector,
    cross_gram,
    cross_gram_stack,
    lb_matrix,
    lb_value,
    original_value,
    psi,
    psi_stack,
    random_balanced_signs,
    random_balanced_stack,
    sigma_beta,
    sigma_beta_stack,
    spectral_cache,
    surrogate_matrix,
    surrogate_value,
    upsilon,
    worst_case_quadratic,
    worst_case_stack,
)

INTERCEPT_ONLY = np.array([[1.0], [1.0]])


class TestAllocation:
    def test_balance_enforced(self):
        with pytest.raises(ValueError, match="unbalanced"):
            Allocation(np.array([1, 1, 1, -1]))

    def test_entries_checked(self):
        with pytest.raises(ValueError):
            Allocation(np.array([1, 0, -1]))

    def test_odd_n_allows_lean(self):
        a = Allocation(np.array([1, 1, -1]))
        assert (a.n_plus, a.n_minus, a.imbalance) == (2, 1, 1)

    def test_vector_is_frozen(self):
        a = Allocation(np.array([1, -1]))
        with pytest.raises(ValueError):
            a.x[0] = -1

    def test_raw_vectors_skip_balance(self):
        v = allocation_vector([1.0, 1.0, 1.0, -1.0])
        assert v.sum() == 2.0

    def test_random_balanced_signs(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 16):
            for _ in range(20):
                s = random_balanced_signs(n, rng)
                assert abs(int(s.sum())) <= 1
                assert np.all(np.isin(s, (-1, 1)))

    def test_random_balanced_signs_deterministic(self):
        a = random_balanced_signs(12, np.random.default_rng(5))
        b = random_balanced_signs(12, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestRandomBalancedStack:
    """The batched draw gives the sequential draws' rows and leaves the
    generator where they leave it, so every later draw is unchanged."""

    @pytest.mark.parametrize("n", [1, 2, 3, 60, 61, 200])
    @pytest.mark.parametrize("count", [1, 7, 250])
    def test_equals_sequential_draws(self, n, count):
        for seed in range(3):
            batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
            X = random_balanced_stack(n, count, batched)
            expected = [random_balanced_signs(n, sequential) for _ in range(count)]
            assert X.shape == (count, n) and X.dtype == np.int64
            assert np.array_equal(X, expected)
            assert batched.bit_generator.state == sequential.bit_generator.state
            assert batched.random() == sequential.random()

    def test_rejects_empty_allocations(self):
        with pytest.raises(ValueError, match="positive"):
            random_balanced_stack(0, 3, np.random.default_rng(0))


class TestSpectralCache:
    def test_intercept_only(self):
        cache = spectral_cache(INTERCEPT_ONLY)
        assert cache.gram == pytest.approx(np.array([[2.0]]))
        assert cache.gram_inverse == pytest.approx(np.array([[0.5]]))
        assert cache.U @ cache.U.T == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_orthogonal_toy(self, toy_design):
        cache = spectral_cache(toy_design)
        assert cache.gram == pytest.approx(np.diag([4.0, 4.0]))
        oracle_hat = toy_design @ np.linalg.inv(toy_design.T @ toy_design) @ toy_design.T
        assert cache.U @ cache.U.T == pytest.approx(oracle_hat, abs=1e-12)

    def test_hat_idempotent_on_random_instance(self):
        rng = np.random.default_rng(2)
        H = random_design(50, 5, rng)
        cache = spectral_cache(H)
        assert cache.U.shape == (50, 5)
        assert np.max(np.abs(cache.U.T @ cache.U - np.eye(5))) <= 1e-12
        oracle_hat = H @ np.linalg.inv(H.T @ H) @ H.T
        assert np.max(np.abs(cache.U @ cache.U.T - oracle_hat)) <= 1e-10

    def test_holds_a_read_only_copy_of_h(self):
        H = random_design(12, 3, np.random.default_rng(4))
        cache = spectral_cache(H)
        assert np.array_equal(cache.matrix, H) and (cache.n, cache.p) == (12, 3)
        assert not cache.matrix.flags.writeable and not cache.U.flags.writeable
        assert H.flags.writeable
        H[0, 1] += 1.0
        assert not np.array_equal(cache.matrix, H)

    def test_factoring_stays_small(self):
        # n x p and p x p arrays only: no n x n hat matrix and no check of it
        H = random_design(2000, 10, np.random.default_rng(6))
        tracemalloc.start()
        try:
            cache = spectral_cache(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) == 2000 * 10

    def test_ill_conditioned_raises(self):
        H = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [1.0, 1.0]])
        with pytest.raises(IllConditioned):
            spectral_cache(H)


class TestSigmaBeta:
    def test_balanced_intercept_only(self):
        got = sigma_beta(INTERCEPT_ONLY, np.array([1, -1]))
        assert got == pytest.approx(np.array([[0.5]]))

    def test_one_arm_confounds(self):
        with pytest.raises(ConfoundedDesign):
            sigma_beta(INTERCEPT_ONLY, np.array([1, 1]))

    def test_allocation_matching_column_confounds(self, toy_design):
        with pytest.raises(ConfoundedDesign):
            sigma_beta(toy_design, np.array([1, -1, 1, -1]))

    def test_matches_direct_inversion(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            n, p = int(rng.integers(8, 24)) * 2, int(rng.integers(2, 5))
            H = random_design(n, p, rng)
            x = random_balanced_signs(n, rng)
            try:
                got = sigma_beta(H, x)
            except ConfoundedDesign:
                continue
            assert got == pytest.approx(oracle_sigma_beta(H, x.astype(float)), abs=1e-9)

    def test_length_mismatch(self, toy_design):
        with pytest.raises(ValueError, match="length"):
            sigma_beta(toy_design, np.array([1, -1]))

    def test_cached_gram_is_not_refactored(self, monkeypatch):
        rng = np.random.default_rng(31)
        H = random_design(40, 4, rng)
        cache = spectral_cache(H)
        assert cache.gram_max_eigenvalue == float(np.linalg.eigvalsh(cache.gram)[-1])
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(np.array_equal(a, cache.gram))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for _ in range(5):
            try:
                sigma_beta(cache, random_balanced_signs(40, rng))
            except ConfoundedDesign:
                pass
        assert not any(seen)


def parent_complement_inverse(C: np.ndarray, gram_max: float) -> np.ndarray | None:
    """The one-matrix rule the Cholesky screen stands in for: eigendecompose
    C, refuse it when an eigenvalue is at or below 1e-10 times the larger of
    C's and H'H's largest, else invert through the eigenvectors."""
    w, V = np.linalg.eigh(C)
    if w[-1] <= 0 or w[0] <= CONFOUND_RTOL * max(float(w[-1]), gram_max):
        return None
    M = (V / w) @ V.T
    return (M + M.T) / 2.0


class TestStackedKernel:
    def test_every_balanced_allocation_of_the_toy(self, toy_design):
        # six allocations, two of them confounded
        X = balanced_corners(4)
        sigma, reasons = sigma_beta_stack(toy_design, X)
        assert sorted(reasons) == [r for r in range(len(X)) if abs(X[r] @ toy_design[:, 1]) == 4]
        assert len(reasons) == 2
        for r, x in enumerate(X):
            if r in reasons:
                assert np.isnan(sigma[r]).all()
                with pytest.raises(ConfoundedDesign, match="eigenvalue range"):
                    sigma_beta(toy_design, x)
            else:
                assert sigma[r] == pytest.approx(oracle_sigma_beta(toy_design, x), abs=1e-12)
                assert np.array_equal(sigma[r], sigma_beta(toy_design, x))
        assert psi_stack(toy_design, X) == pytest.approx(
            np.array([oracle_psi(toy_design, x) for x in X]), abs=1e-12
        )

    def test_stack_against_oracles_and_single_calls(self):
        rng = np.random.default_rng(5)
        H = random_design(30, 5, rng)
        X = np.array([random_balanced_signs(30, rng) for _ in range(40)], dtype=float)
        sigma, reasons = sigma_beta_stack(H, X)
        assert not reasons
        for r, x in enumerate(X):
            assert sigma[r] == pytest.approx(oracle_sigma_beta(H, x), rel=1e-10, abs=1e-12)
            # +/-1 matrices give exact cross grams, so one row of a stack
            # carries the bits of the same allocation alone
            assert np.array_equal(cross_gram_stack(H, X)[r], cross_gram(H, x))
            assert np.array_equal(psi_stack(H, X)[r], psi(H, x))

    def test_near_threshold_designs_go_to_the_eigenvalue_test(self, monkeypatch):
        # C with smallest eigenvalue 0.5 tau, 1.5 tau, 2 tau and 3 tau, where
        # tau = 1e-10 times H'H's largest: the screen must leave the first
        # three to the eigenvalue test, which refuses the first only
        rng = np.random.default_rng(8)
        gram_max = 4.0
        tau = CONFOUND_RTOL * gram_max
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        stack, inverses = [], []
        for factor in (0.5, 1.5, 2.0, 3.0):
            w = np.array([factor * tau, 0.3, 0.7, 1.1, 2.0, 3.5])
            C = (Q * w) @ Q.T
            stack.append((C + C.T) / 2.0)
            inverses.append((Q / w) @ Q.T)
        stack = np.array(stack)
        eigh = np.linalg.eigh
        seen = []

        def counting(a, *args, **kwargs):
            seen.append(a.copy())
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        sigma, reasons = objective._complement_inverse(stack, gram_max)
        assert len(seen) == 3
        assert all(np.array_equal(a, b) for a, b in zip(seen, stack[:3]))
        assert list(reasons) == [0]
        for r in range(4):
            expected = parent_complement_inverse(stack[r], gram_max)
            if expected is None:
                assert np.isnan(sigma[r]).all()
            elif r < 3:
                assert np.array_equal(sigma[r], expected)
            else:
                # cleared: from the stacked inverse, at condition number 1e10
                assert sigma[r] == pytest.approx(inverses[r], rel=1e-5)

    def test_rejects_malformed_stacks(self, toy_design):
        with pytest.raises(ValueError, match="length"):
            sigma_beta_stack(toy_design, np.ones((2, 3)))
        with pytest.raises(ValueError, match="entries"):
            psi_stack(toy_design, np.zeros((1, 4)))
        with pytest.raises(ValueError, match="2-d"):
            cross_gram_stack(toy_design, np.ones(4))


class TestPsi:
    def test_zero_when_cross_gram_vanishes(self, toy_design):
        assert psi(toy_design, np.array([1, -1, -1, 1])) == pytest.approx(np.zeros((2, 2)))

    def test_intercept_only_one_arm(self):
        # s = sum x = 2, so psi = s^2 / n^3 = 4 / 8
        got = psi(INTERCEPT_ONLY, np.array([1.0, 1.0]))
        assert got == pytest.approx(np.array([[0.5]]))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            H = random_design(20, 3, rng)
            x = random_balanced_signs(20, rng)
            assert psi(H, x) == pytest.approx(oracle_psi(H, x.astype(float)), abs=1e-10)


class TestUpsilon:
    def test_intercept_only_closed_form(self):
        got = upsilon(INTERCEPT_ONLY, np.array([1.0]))
        assert got == pytest.approx(np.full((2, 2), 0.125))
        x = np.array([1.0, 1.0])
        z = np.array([1.0])
        assert x @ got @ x == pytest.approx(0.5)
        assert z @ psi(INTERCEPT_ONLY, x) @ z == pytest.approx(0.5)

    def test_zero_quadratic_when_cross_gram_vanishes(self, toy_design):
        x = np.array([1.0, -1.0, -1.0, 1.0])
        for z in hypercube_vertices(2):
            assert x @ upsilon(toy_design, z) @ x == pytest.approx(0.0, abs=1e-12)

    def test_identity_against_psi(self):
        # z' Psi(x,H) z == x' Upsilon(z,H) x on random triples
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(3, 21)) * 2
            p = int(rng.integers(2, min(7, n // 2 + 1)))
            H = random_design(n, p, rng)
            x = random_balanced_signs(n, rng).astype(float)
            z = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=p - 1)])
            left = z @ oracle_psi(H, x) @ z
            right = x @ upsilon(H, z) @ x
            assert abs(left - right) <= 1e-8 * (1.0 + abs(left))

    def test_matches_oracle_matrix(self):
        rng = np.random.default_rng(8)
        H = random_design(16, 4, rng)
        z = np.array([1.0, -1.0, 1.0, 1.0])
        assert upsilon(H, z) == pytest.approx(oracle_upsilon(H, z), abs=1e-12)

    def test_first_entry_must_be_one(self, toy_design):
        with pytest.raises(ValueError, match="first entry"):
            upsilon(toy_design, np.array([-1.0, 1.0]))

    def test_psd(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(3, 16)) * 2
            p = int(rng.integers(2, min(6, n // 2 + 1)))
            H = random_design(n, p, rng)
            z = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=p - 1)])
            eigmin = float(np.linalg.eigvalsh(upsilon(H, z))[0])
            assert eigmin >= -1e-8


class TestLbMatrix:
    def test_intercept_only(self):
        assert lb_matrix(INTERCEPT_ONLY) == pytest.approx(np.full((2, 2), 0.25))

    def test_block_structure(self, toy_design):
        Q = lb_matrix(toy_design)
        same = toy_design[:, 1][:, None] == toy_design[:, 1][None, :]
        assert Q == pytest.approx(np.where(same, 0.25, 0.0))

    def test_matches_oracle_and_psd(self):
        rng = np.random.default_rng(3)
        H = random_design(30, 4, rng)
        Q = lb_matrix(H)
        assert Q == pytest.approx(oracle_lb_matrix(H), abs=1e-12)
        assert float(np.linalg.eigvalsh(Q)[0]) >= -1e-10


class TestLbValue:
    def test_toy_values(self, toy_design):
        assert lb_value(toy_design, np.array([1, -1, -1, 1])) == pytest.approx(0.5)
        assert lb_value(toy_design, np.array([1, -1, 1, -1])) == pytest.approx(1.0)

    def test_matches_n_by_n_form(self):
        # the p x p evaluation against p/n + x'(M ∘ M)x / n built densely
        rng = np.random.default_rng(31)
        for n, p in [(8, 2), (15, 3), (40, 5), (120, 10)]:
            H = random_design(n, p, rng)
            Q = oracle_lb_matrix(H)
            balanced = random_balanced_signs(n, rng)
            unbalanced = np.where(rng.random(n) < 0.8, 1, -1)
            unbalanced[:2] = 1
            for x in (balanced, unbalanced):
                ref = p / n + x @ Q @ x / n
                assert lb_value(H, x) == pytest.approx(ref, rel=1e-12)

    def test_lower_bounds_row_surrogate(self):
        # averaged objective never exceeds the worst case over the rows
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(4, 16)) * 2
            p = int(rng.integers(2, min(6, n // 2 + 1)))
            H = random_design(n, p, rng)
            x = random_balanced_signs(n, rng)
            surr, _ = surrogate_value(H, x, CovariateSpace.rows())
            assert lb_value(H, x) <= surr + 1e-8


class TestWorstCase:
    def test_original_toy(self, toy_design):
        value, z = original_value(toy_design, np.array([1, -1, -1, 1]))
        assert value == pytest.approx(0.5)
        # both vertices tie at 0.5; the lexicographically smaller z wins
        assert np.array_equal(z, [1.0, -1.0])

    def test_original_rows_space(self):
        value, z = original_value(
            INTERCEPT_ONLY, np.array([1, -1]), CovariateSpace.rows()
        )
        assert value == pytest.approx(0.5)
        assert np.array_equal(z, [1.0])

    def test_surrogate_toy_values(self, toy_design):
        value, _ = surrogate_value(toy_design, np.array([1, -1, -1, 1]))
        assert value == pytest.approx(0.5)
        value, z = surrogate_value(toy_design, [1.0, 1.0, 1.0, -1.0])
        assert value == pytest.approx(1.0)
        assert np.array_equal(z, [1.0, 1.0])

    def test_matches_brute_scan(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            H = random_design(20, 4, rng)
            x = random_balanced_signs(20, rng)
            want_s = brute_max_quadratic(oracle_surrogate_matrix(H, x.astype(float)))[1]
            got_s, _ = surrogate_value(H, x)
            assert got_s == pytest.approx(want_s, abs=1e-9)
            try:
                got_o, _ = original_value(H, x)
            except ConfoundedDesign:
                continue
            want_o = brute_max_quadratic(oracle_sigma_beta(H, x.astype(float)))[1]
            assert got_o == pytest.approx(want_o, abs=1e-9)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(14)
        H = random_design(16, 3, rng)
        x = random_balanced_signs(16, rng)
        for fn in (surrogate_value, original_value):
            assert fn(H, x)[0] == pytest.approx(fn(H, -x)[0], abs=1e-12)
        assert lb_value(H, x) == pytest.approx(lb_value(H, -x), abs=1e-12)

    def test_consistency_when_cross_gram_zero(self, toy_design):
        x = np.array([1, -1, -1, 1])
        cache = spectral_cache(toy_design)
        base = brute_max_quadratic(cache.gram_inverse)[1]
        assert original_value(toy_design, x)[0] == pytest.approx(base)
        assert surrogate_value(toy_design, x)[0] == pytest.approx(base)

    def test_explicit_space(self, toy_design):
        space = CovariateSpace.explicit([[1.0, 1.0]])
        value, z = surrogate_value(toy_design, np.array([1, -1, -1, 1]), space)
        assert value == pytest.approx(0.5)
        assert np.array_equal(z, [1.0, 1.0])

    def test_explicit_space_validation(self):
        with pytest.raises(ValueError, match="first entry"):
            CovariateSpace.explicit([[0.0, 1.0]])

    def test_space_dimension_mismatch(self, toy_design):
        space = CovariateSpace.hypercube(3)
        with pytest.raises(ValueError, match="p=3"):
            surrogate_value(toy_design, np.array([1, -1, -1, 1]), space)

    def test_worst_case_tie_break_is_lexicographic(self):
        # symmetric matrix gives equal values at all vertices
        M = np.eye(3)
        space = CovariateSpace.explicit(hypercube_vertices(3))
        value, z = worst_case_quadratic(M, space, np.ones((6, 3)))
        assert value == pytest.approx(3.0)
        assert np.array_equal(z, [1.0, -1.0, -1.0])

    @pytest.mark.parametrize("space", [CovariateSpace.hypercube(), CovariateSpace.rows()])
    def test_stack_rows_are_the_one_matrix_case(self, space):
        # each row of a stack, a NaN matrix among them, against
        # worst_case_quadratic on that matrix alone
        rng = np.random.default_rng(18)
        H = random_design(12, 4, rng)
        Ms = np.array([surrogate_matrix(H, random_balanced_signs(12, rng)) for _ in range(3)])
        Ms[1] = np.nan
        values, profiles, results = worst_case_stack(Ms, space, H)
        assert np.isnan(values[1]) and np.isnan(profiles[1]).all() and results[1] is None
        for i in (0, 2):
            value, z = worst_case_quadratic(Ms[i], space, H)
            assert values[i] == value and np.array_equal(profiles[i], z)
            assert (results[i] is None) == (space.kind != "hypercube")


def _outputs_on(X, x, z, allocations, space) -> dict:
    """Each function that takes H, called on X; a raised error stands for its output."""
    calls = {
        "cross_gram": lambda: cross_gram(X, x),
        "sigma_beta": lambda: sigma_beta(X, x),
        "psi": lambda: psi(X, x),
        "surrogate_matrix": lambda: surrogate_matrix(X, x),
        "upsilon": lambda: upsilon(X, z),
        "lb_matrix": lambda: lb_matrix(X),
        "lb_value": lambda: lb_value(X, x),
        "original_value": lambda: original_value(X, x, space),
        "surrogate_value": lambda: surrogate_value(X, x, space),
        "rand_benchmark": lambda: rand_benchmark(X, "original", space, replicates=4, seed=3).values,
        "variance_reduction": lambda: variance_reduction(
            X, x, z0_count=4, rand_designs=4, seed=3
        ).reduction_percent,
        "surrogate_gap_scan": lambda: surrogate_gap_scan(X, allocations, space),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except ConfoundedDesign as err:
            out[name] = type(err).__name__
    return out


def _same(a, b) -> bool:
    if isinstance(a, tuple) and not hasattr(a, "_fields"):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, list):
        return a == b
    return np.array_equal(a, b, equal_nan=not isinstance(a, str))


class TestFactorizationInPlaceOfH:
    """spectral_cache(H) stands for H wherever H is taken, and is never refactored."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(77)
        for _ in range(6):
            p = int(rng.integers(1, 5))
            n = int(rng.integers(2 * p + 2, 30))
            H = random_design(n, p, rng)
            x = random_balanced_signs(n, rng)
            z = np.concatenate([[1.0], rng.choice([-1.0, 1.0], p - 1)])
            allocations = random_balanced_allocations(n, 3, seed=int(rng.integers(100)))
            space = CovariateSpace.rows() if rng.integers(2) else CovariateSpace.hypercube()
            yield H, x, z, allocations, space

    def test_every_function_agrees_on_h_and_its_factorization(self):
        for H, x, z, allocations, space in self._instances():
            on_matrix = _outputs_on(H, x, z, allocations, space)
            on_cache = _outputs_on(spectral_cache(H), x, z, allocations, space)
            assert len(on_matrix) == 12
            for name, got in on_cache.items():
                assert _same(on_matrix[name], got), name

    def test_passing_the_factorization_factors_nothing(self, monkeypatch):
        instances = [(spectral_cache(inst[0]),) + inst for inst in self._instances()]
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for cache, H, x, z, allocations, space in instances:
            _outputs_on(cache, x, z, allocations, space)
            assert calls == []
            surrogate_value(H, x, space)
            assert len(calls) == 1  # a plain matrix is factored once per call
            calls.clear()
