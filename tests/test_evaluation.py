import numpy as np
import pytest

from conftest import hypercube_vertices, oracle_sigma_beta, random_design
from trialdesign import bqp, evaluation
from trialdesign.errors import AllConfounded, ConfoundedDesign
from trialdesign.limits import SolveLimits
from trialdesign.evaluation import (
    FittedModel,
    SimulationSpec,
    fit_interaction_model,
    recommend,
    sample_z0,
    simulate_responses,
    surrogate_gap_scan,
    variance_reduction,
)
from trialdesign.objective import (
    CONFOUND_RTOL,
    Allocation,
    original_value,
    random_balanced_signs,
    sigma_beta,
    surrogate_value,
)

ALTERNATING_20 = np.array([1.0, -1.0] * 10)


class TestSimulationSpec:
    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            SimulationSpec(alpha=np.zeros(2), beta=np.zeros(2), sigma=0.0, seed=0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SimulationSpec(alpha=np.zeros(2), beta=np.zeros(3), sigma=1.0, seed=0)

    def test_coefficients_read_only(self):
        spec = SimulationSpec(alpha=np.zeros(2), beta=np.ones(2), sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            spec.beta[0] = 2.0


class TestSimulateResponses:
    def test_interaction_only_reproduces_allocation(self):
        rng = np.random.default_rng(1)
        H = random_design(20, 3, rng)
        spec = SimulationSpec(
            alpha=np.zeros(3), beta=np.array([1.0, 0.0, 0.0]), sigma=1e-12, seed=5
        )
        y = simulate_responses(H, ALTERNATING_20, spec)
        assert np.max(np.abs(y - ALTERNATING_20)) < 1e-9

    def test_intercept_only_is_flat(self):
        rng = np.random.default_rng(2)
        H = random_design(20, 3, rng)
        spec = SimulationSpec(
            alpha=np.array([1.0, 0.0, 0.0]), beta=np.zeros(3), sigma=1e-12, seed=5
        )
        y = simulate_responses(H, ALTERNATING_20, spec)
        assert y == pytest.approx(np.ones(20), abs=1e-9)

    def test_noise_mean_is_centered(self):
        rng = np.random.default_rng(3)
        n = 50
        H = random_design(n, 2, rng)
        x = np.array([1.0, -1.0] * 25)
        spec = SimulationSpec(alpha=np.zeros(2), beta=np.zeros(2), sigma=1.0, seed=11)
        y = simulate_responses(H, x, spec)
        assert abs(float(y.mean())) <= 4.0 / np.sqrt(n)

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        H = random_design(10, 2, rng)
        x = np.array([1.0, -1.0] * 5)
        spec = SimulationSpec(alpha=np.ones(2), beta=np.ones(2), sigma=1.0, seed=7)
        assert simulate_responses(H, x, spec).tolist() == simulate_responses(
            H, x, spec
        ).tolist()

    def test_rejects_mismatched_lengths(self):
        rng = np.random.default_rng(5)
        H = random_design(10, 2, rng)
        x = np.array([1.0, -1.0] * 5)
        bad_coeffs = SimulationSpec(alpha=np.zeros(3), beta=np.zeros(3), sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="coefficient length"):
            simulate_responses(H, x, bad_coeffs)
        good = SimulationSpec(alpha=np.zeros(2), beta=np.zeros(2), sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="allocation length"):
            simulate_responses(H, x[:-2], good)


class TestFitInteractionModel:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(6)
        H = random_design(20, 3, rng)
        alpha = rng.normal(size=3)
        beta = rng.normal(size=3)
        y = H @ alpha + ALTERNATING_20 * (H @ beta)
        model = fit_interaction_model(H, ALTERNATING_20, y)
        assert model.alpha_hat == pytest.approx(alpha, abs=1e-8)
        assert model.beta_hat == pytest.approx(beta, abs=1e-8)

    def test_allocation_matching_covariate_confounds(self):
        rng = np.random.default_rng(7)
        column = rng.permutation(np.repeat([1.0, -1.0], 5))
        H = np.column_stack([np.ones(10), column])
        with pytest.raises(ConfoundedDesign, match="rank deficient"):
            fit_interaction_model(H, column, np.zeros(10))

    def test_refuses_exactly_what_sigma_beta_refuses(self):
        # a near-confounded design: the allocation almost reproduces a
        # covariate's interaction column; sigma_beta's eigenvalue rule
        # refuses it, which a singular-value cutoff of 1e-10 did not
        rng = np.random.default_rng(0)
        a, r = rng.normal(size=40), rng.normal(size=40)
        x = random_balanced_signs(40, rng).astype(float)
        H = np.column_stack([np.ones(40), a, x * a + 1e-7 * r])
        with pytest.raises(ConfoundedDesign):
            sigma_beta(H, x)
        with pytest.raises(ConfoundedDesign, match="rank deficient"):
            fit_interaction_model(H, x, np.zeros(40))

    def test_rejects_response_length(self):
        rng = np.random.default_rng(8)
        H = random_design(10, 2, rng)
        with pytest.raises(ValueError, match="response length"):
            fit_interaction_model(H, np.array([1.0, -1.0] * 5), np.zeros(9))

    def test_refit_covariance_matches_formula(self):
        # empirical variance of beta_hat over 2000 refits tracks the
        # diagonal of Sigma_beta at 10% relative tolerance
        rng = np.random.default_rng(9)
        n, p, refits = 60, 4, 2000
        H = random_design(n, p, rng)
        x = rng.permutation(np.repeat([1.0, -1.0], n // 2))
        alpha = rng.normal(size=p)
        beta = rng.normal(size=p)
        target = np.diag(sigma_beta(H, x))
        draws = np.empty((refits, p))
        for r in range(refits):
            spec = SimulationSpec(alpha=alpha, beta=beta, sigma=1.0, seed=50_000 + r)
            y = simulate_responses(H, x, spec)
            draws[r] = fit_interaction_model(H, x, y).beta_hat
        empirical = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(empirical - target) <= 0.10 * target)


class TestRecommend:
    def test_positive_intercept_effect(self):
        model = FittedModel(alpha_hat=np.zeros(3), beta_hat=np.array([1.0, 0.0, 0.0]))
        for z in hypercube_vertices(3):
            assert recommend(model, z) == 1

    def test_negative_intercept_effect(self):
        model = FittedModel(alpha_hat=np.zeros(3), beta_hat=np.array([-1.0, 0.0, 0.0]))
        for z in hypercube_vertices(3):
            assert recommend(model, z) == -1

    def test_single_coordinate_sign(self):
        model = FittedModel(alpha_hat=np.zeros(3), beta_hat=np.array([0.0, 1.0, 0.0]))
        assert recommend(model, np.array([1.0, -1.0, 1.0])) == -1

    def test_tie_resolves_positive(self):
        model = FittedModel(alpha_hat=np.zeros(2), beta_hat=np.array([0.0, 1.0]))
        assert recommend(model, np.array([1.0, 0.0])) == 1

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(10)
        beta = rng.normal(size=4)
        small = FittedModel(alpha_hat=np.zeros(4), beta_hat=beta)
        large = FittedModel(alpha_hat=np.zeros(4), beta_hat=250.0 * beta)
        for z in hypercube_vertices(4):
            assert recommend(small, z) == recommend(large, z)

    def test_rejects_length_mismatch(self):
        model = FittedModel(alpha_hat=np.zeros(2), beta_hat=np.zeros(2))
        with pytest.raises(ValueError, match="length"):
            recommend(model, np.ones(3))


class TestSampleZ0:
    def test_shape_and_levels(self):
        rng = np.random.default_rng(11)
        Z0 = sample_z0(5, 40, rng)
        assert Z0.shape == (40, 5)
        assert np.all(Z0[:, 0] == 1.0)
        assert np.all(np.isin(Z0[:, 1:], (-1.0, 1.0)))

    def test_intercept_only(self):
        rng = np.random.default_rng(12)
        assert sample_z0(1, 3, rng).tolist() == [[1.0], [1.0], [1.0]]


class TestVarianceReduction:
    def test_self_comparison_is_zero(self):
        # x_star set to the single random design the call will draw
        rng = np.random.default_rng(13)
        H = random_design(12, 2, rng)
        seed, z0_count = 17, 25
        replay = np.random.default_rng(seed)
        sample_z0(2, z0_count, replay)
        drawn = random_balanced_signs(12, replay)
        report = variance_reduction(
            H, drawn.astype(float), z0_count=z0_count, rand_designs=1, seed=seed
        )
        assert report.reduction_percent == pytest.approx(np.zeros(z0_count), abs=1e-12)
        assert report.fraction_positive == 0.0

    def test_intercept_only_pair_has_unique_variance(self):
        report = variance_reduction(
            np.ones((2, 1)), np.array([1.0, -1.0]), z0_count=10, rand_designs=3, seed=1
        )
        assert report.reduction_percent == pytest.approx(np.zeros(10), abs=1e-12)
        assert report.mean_variance == pytest.approx(np.full(10, 0.5))

    def test_matches_replayed_average(self):
        # redo the seeded draws by hand and reproduce every report column;
        # seeds chosen so no draw confounds and the replay stays in step
        rng = np.random.default_rng(12)
        H = random_design(10, 3, rng)
        x_star = np.array([1.0, -1.0] * 5)
        seed, z0_count, designs = 23, 15, 8
        report = variance_reduction(
            H, x_star, z0_count=z0_count, rand_designs=designs, seed=seed
        )
        assert report.redraws == 0

        replay = np.random.default_rng(seed)
        Z0 = sample_z0(3, z0_count, replay)
        total = np.zeros((3, 3))
        for _ in range(designs):
            signs = random_balanced_signs(10, replay)
            total += oracle_sigma_beta(H, signs.astype(float))
        mean_sigma = total / designs
        mean_var = np.einsum("ij,jk,ik->i", Z0, mean_sigma, Z0)
        opt_var = np.einsum(
            "ij,jk,ik->i", Z0, oracle_sigma_beta(H, x_star), Z0
        )
        assert report.z0.tolist() == Z0.tolist()
        assert report.mean_variance == pytest.approx(mean_var, abs=1e-10)
        assert report.optimal_variance == pytest.approx(opt_var, abs=1e-10)
        assert report.reduction_percent == pytest.approx(
            100.0 * (mean_var - opt_var) / mean_var, abs=1e-10
        )
        assert report.fraction_positive == float(
            np.mean(report.reduction_percent > 0.0)
        )

    def test_redraws_confounded_designs(self, toy_design):
        report = variance_reduction(
            toy_design,
            np.array([1.0, 1.0, -1.0, -1.0]),
            z0_count=5,
            rand_designs=12,
            seed=3,
        )
        assert report.redraws >= 1
        assert report.rand_designs == 12

    def test_confounded_target_raises(self, toy_design):
        with pytest.raises(ConfoundedDesign):
            variance_reduction(toy_design, np.array([1.0, -1.0, 1.0, -1.0]))

    def test_rejects_empty_counts(self, toy_design):
        with pytest.raises(ValueError, match="positive"):
            variance_reduction(
                toy_design, np.array([1.0, 1.0, -1.0, -1.0]), z0_count=0
            )

    def test_row_and_summary_views(self):
        report = variance_reduction(
            np.ones((2, 1)), np.array([1.0, -1.0]), z0_count=4, rand_designs=2, seed=9
        )
        rows = report.to_rows()
        assert len(rows) == 4
        assert rows[0]["z0"] == "+"
        assert set(rows[0]) == {
            "z0", "mean_variance", "optimal_variance", "reduction_percent",
        }
        summary = report.summary()
        assert summary["z0_count"] == 4
        assert summary["fraction_positive"] == 0.0


def serial_variance_replay(H, seed, z0_count, rand_designs, budget):
    """Redo variance_reduction's draws one at a time with naive algebra.

    Returns z0, the mean random-design variances (None where the redraw
    budget ran out) and the redraw count."""
    rng = np.random.default_rng(seed)
    Z0 = sample_z0(H.shape[1], z0_count, rng)
    G = H.T @ H
    gram_max = np.linalg.eigvalsh(G)[-1]
    total = np.zeros_like(G)
    accepted = redraws = 0
    while accepted < rand_designs:
        if redraws >= budget:
            return Z0, None, redraws
        x = random_balanced_signs(H.shape[0], rng).astype(float)
        S = H.T @ (x[:, None] * H)
        w = np.linalg.eigvalsh(G - S @ np.linalg.inv(G) @ S)
        if w[0] <= CONFOUND_RTOL * max(w[-1], gram_max):
            redraws += 1
            continue
        total += oracle_sigma_beta(H, x)
        accepted += 1
    return Z0, np.einsum("ij,jk,ik->i", Z0, total / rand_designs, Z0), redraws


class TestStackedRandomDesigns:
    """variance_reduction draws and evaluates its random designs in stacks."""

    @staticmethod
    def rare_level_design(rng):
        # a binary covariate held by two of ten subjects: about 4 in 9
        # balanced allocations put both in one arm and confound
        rare = -np.ones(10)
        rare[rng.permutation(10)[:2]] = 1.0
        H = np.column_stack([np.ones(10), rare, rng.choice([-1.0, 1.0], size=10)])
        while True:
            x_star = random_balanced_signs(10, rng).astype(float)
            try:
                sigma_beta(H, x_star)
            except ConfoundedDesign:
                continue
            return H, x_star

    @pytest.mark.parametrize("block_entries", [bqp.BLOCK_ENTRIES, 30])
    def test_replay_with_confounded_draws(self, block_entries, monkeypatch):
        # 30 entries make stacks of three designs, so the draws straddle stacks
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", block_entries)
        H, x_star = self.rare_level_design(np.random.default_rng(40))
        for seed in range(6):
            report = variance_reduction(H, x_star, z0_count=7, rand_designs=11, seed=seed)
            Z0, mean_var, redraws = serial_variance_replay(H, seed, 7, 11, 1100)
            assert report.redraws == redraws
            assert report.z0.tolist() == Z0.tolist()
            assert report.mean_variance == pytest.approx(mean_var, rel=1e-12)
        assert redraws > 0

    def test_budget_runs_out_where_serial_draws_do(self, monkeypatch):
        # a budget of one redraw per design runs out on some seeds only
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", 30)
        monkeypatch.setattr(evaluation, "REDRAW_FACTOR", 1)
        H, x_star = self.rare_level_design(np.random.default_rng(41))
        outcomes = set()
        for seed in range(16):
            _, mean_var, redraws = serial_variance_replay(H, seed, 3, 8, 8)
            if mean_var is None:
                with pytest.raises(AllConfounded, match=f"after {redraws} redraws"):
                    variance_reduction(H, x_star, z0_count=3, rand_designs=8, seed=seed)
            else:
                report = variance_reduction(H, x_star, z0_count=3, rand_designs=8, seed=seed)
                assert report.redraws == redraws
                assert report.mean_variance == pytest.approx(mean_var, rel=1e-12)
            outcomes.add(mean_var is None)
        assert outcomes == {True, False}


class TestSurrogateGapScan:
    def test_cancelled_interaction_makes_pairs_equal(self, toy_design):
        pairs = surrogate_gap_scan(
            toy_design, [Allocation(np.array([1, 1, -1, -1]))]
        )
        assert len(pairs) == 1
        assert pairs[0].original == pytest.approx(pairs[0].surrogate, abs=1e-12)
        assert pairs[0].surrogate == pytest.approx(0.5)

    def test_confounded_pair_reports_none(self, toy_design):
        pairs = surrogate_gap_scan(
            toy_design, [Allocation(np.array([1, -1, 1, -1]))]
        )
        assert pairs[0].original is None
        assert pairs[0].surrogate == pytest.approx(1.0)

    def test_surrogate_never_exceeds_original(self):
        # the surrogate truncates a PSD series, so it sits below the
        # original value wherever the original exists
        rng = np.random.default_rng(15)
        H = random_design(30, 3, rng)
        allocations = [
            Allocation(random_balanced_signs(30, rng)) for _ in range(20)
        ]
        pairs = surrogate_gap_scan(H, allocations)
        assert len(pairs) == 20
        for pair in pairs:
            if pair.original is not None:
                assert pair.surrogate <= pair.original + 1e-9

    def test_pairs_match_one_allocation_at_a_time(self):
        # the stacked scan against surrogate_value and original_value per
        # allocation, confounded allocations included
        rng = np.random.default_rng(16)
        H, _ = TestStackedRandomDesigns.rare_level_design(rng)
        allocations = [Allocation(random_balanced_signs(10, rng)) for _ in range(12)]
        pairs = surrogate_gap_scan(H, allocations)
        assert any(pair.original is None for pair in pairs)
        for alloc, pair in zip(allocations, pairs):
            assert pair.surrogate == surrogate_value(H, alloc)[0]
            try:
                original = original_value(H, alloc)[0]
            except ConfoundedDesign:
                assert pair.original is None
            else:
                assert pair.original == pytest.approx(original, rel=1e-12)

    def test_no_allocations(self, toy_design):
        assert surrogate_gap_scan(toy_design, []) == []

    @pytest.mark.parametrize("limits", [SolveLimits(node_limit=1), SolveLimits(time_limit=1e-9)])
    def test_limit_stopped_pairs_are_not_finished(self, limits):
        # neither one node nor a deadline passed at the start finishes a
        # p = 25 search, so every pair holds lower bounds and says so;
        # without the limit every pair finishes
        H = random_design(60, 25, np.random.default_rng(43))
        allocations = [Allocation(random_balanced_signs(60, np.random.default_rng(s))) for s in range(3)]
        stopped = surrogate_gap_scan(H, allocations, limits=limits)
        assert [pair.finished for pair in stopped] == [False] * 3
        full = surrogate_gap_scan(H, allocations)
        assert all(pair.finished for pair in full)
        for low, pair in zip(stopped, full):
            assert low.surrogate <= pair.surrogate + 1e-12
