import time

import numpy as np
import pytest

from conftest import brute_bilevel_surrogate, hypercube_vertices, random_design
from trialdesign import bqp, cutting_plane, inner_max
from trialdesign.covariates import SyntheticSpec, generate_synthetic, matrix_hash
from trialdesign.cutting_plane import solve_exact
from trialdesign.inner_max import solve_inner_max
from trialdesign.limits import SolveLimits
from trialdesign.objective import CovariateSpace, surrogate_value


class TestKnownInstances:
    def test_alternating_design(self, toy_design):
        report = solve_exact(toy_design)
        assert report.method == "EXACT"
        assert report.status == "optimal"
        assert report.surrogate_value == pytest.approx(0.5, abs=1e-9)
        assert report.original_value == pytest.approx(0.5, abs=1e-9)
        assert report.diagnostics["iterations"] <= 2
        assert abs(int(report.allocation.x.sum())) == 0

    def test_small_synthetic_matches_enumeration(self):
        H = generate_synthetic(SyntheticSpec(n=10, p=3, seed=1))
        report = solve_exact(H)
        ref = brute_bilevel_surrogate(H.data)
        assert report.status == "optimal"
        assert report.surrogate_value == pytest.approx(ref, abs=1e-6)

    def test_intercept_only_even(self):
        report = solve_exact(np.ones((6, 1)))
        assert report.status == "optimal"
        assert report.surrogate_value == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert int(report.allocation.x.sum()) == 0

    def test_intercept_only_odd(self):
        # minimal imbalance s = 1 gives (1 + (s/n)^2) / n
        report = solve_exact(np.ones((5, 1)))
        assert report.status == "optimal"
        assert report.surrogate_value == pytest.approx((1.0 + 0.04) / 5.0, abs=1e-12)
        assert abs(int(report.allocation.x.sum())) == 1


class TestAgainstBruteForce:
    def test_matches_bilevel_enumeration(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(4, 13))
            n -= n % 2
            p = int(rng.integers(2, 5))
            H = random_design(n, max(2, min(p, n // 2)), rng)
            report = solve_exact(H, SolveLimits(seed=trial))
            ref = brute_bilevel_surrogate(H)
            p_used = H.shape[1]
            assert report.status == "optimal"
            assert abs(report.surrogate_value - ref) <= 1e-6
            assert report.diagnostics["iterations"] <= 2 ** (p_used - 1)
            assert report.diagnostics["cuts"] <= 2 ** (p_used - 1)
            thetas = [step[0] for step in report.diagnostics["history"]]
            deltas = [step[1] for step in report.diagnostics["history"]]
            # master bounds climb toward the optimum from below,
            # subproblem values stay above it
            assert all(b >= a - 1e-9 for a, b in zip(thetas, thetas[1:]))
            assert all(t <= ref + 1e-6 for t in thetas)
            assert all(d >= ref - 1e-6 for d in deltas)

    @pytest.mark.parametrize("n, p, seed", [(12, 4, 0), (14, 6, 1), (16, 8, 2)])
    def test_matches_bilevel_enumeration_on_finite_spaces(self, n, p, seed):
        # the loop separates on the reported space, so it certifies there
        H = generate_synthetic(SyntheticSpec(n=n, p=p, seed=seed)).data
        vertices = hypercube_vertices(p)
        picked = np.random.default_rng(seed).choice(len(vertices), size=4, replace=False)
        for space, Z in (
            (CovariateSpace.rows(), H),
            (CovariateSpace.explicit(vertices[picked]), vertices[picked]),
        ):
            report = solve_exact(H, report_space=space)
            assert report.status == "optimal"
            assert abs(report.surrogate_value - brute_bilevel_surrogate(H, Z)) <= 1e-9
            assert report.diagnostics["lower_bound"] <= report.surrogate_value
            assert report.diagnostics["subproblem_method"] == "candidates"
            assert report.diagnostics["cuts"] <= len(np.unique(Z, axis=0))

    def test_rows_optimum_of_a_hypercube_suboptimal_design(self):
        # the hypercube-optimal design sits 33.6% above this rows optimum,
        # which brute force over all 92,378 balanced allocations also gives
        H = generate_synthetic(SyntheticSpec(n=20, p=6, seed=2))
        report = solve_exact(H, report_space=CovariateSpace.rows())
        assert report.status == "optimal"
        assert report.surrogate_value == pytest.approx(0.49306142703712275, abs=1e-12)
        cube = surrogate_value(H, solve_exact(H).allocation, CovariateSpace.rows())[0]
        assert cube / report.surrogate_value == pytest.approx(1.336, abs=5e-4)

    def test_history_matches_iteration_count(self, toy_design):
        report = solve_exact(toy_design)
        assert len(report.diagnostics["history"]) == report.diagnostics["iterations"]
        assert report.diagnostics["gap"] <= SolveLimits().epsilon + 1e-12
        assert report.diagnostics["lower_bound"] <= report.surrogate_value + 1e-12


class TestMasterModes:
    def test_rejects_unknown_mode(self, toy_design):
        with pytest.raises(ValueError, match="mode"):
            solve_exact(toy_design, SolveLimits(mode="fast"))

    def test_heuristic_master_reports_incumbent(self):
        rng = np.random.default_rng(3)
        H = random_design(10, 3, rng)
        report = solve_exact(H, SolveLimits(mode="heuristic"))
        assert report.status == "incumbent"
        assert report.parameters["mode"] == "heuristic"
        assert report.surrogate_value == pytest.approx(
            brute_bilevel_surrogate(H), abs=1e-6
        )

    def test_auto_verifies_heuristic_run_with_exact_masters(self, monkeypatch):
        # force the auto threshold low so a small instance takes the
        # heuristic-then-verify route end to end
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 6)
        rng = np.random.default_rng(5)
        H = random_design(10, 3, rng)
        report = solve_exact(H)
        assert report.parameters["mode"] == "auto"
        assert report.status == "optimal"
        assert report.diagnostics["master_mode_final"] == "exact"
        assert report.surrogate_value == pytest.approx(
            brute_bilevel_surrogate(H), abs=1e-6
        )

    @pytest.mark.parametrize("n, p, seed", [(10, 3, 5), (14, 4, 6)])
    def test_exact_mode_is_auto(self, n, p, seed, monkeypatch):
        # past the cutover exact mode ran a branch and bound from scratch in
        # every master; it now runs auto's masters, and a branch and bound
        # only continues a converged descent given to it as its incumbent
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 6)
        masters = []

        def spy(cuts, limits, warm_start=None, incumbent=None):
            result = bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)
            masters.append((incumbent, result))
            return result

        monkeypatch.setattr(cutting_plane, "minimize_max_quadratic", spy)
        H = random_design(n, p, np.random.default_rng(seed))
        exact = solve_exact(H, SolveLimits(mode="exact"))
        assert any(result.nodes > 0 for _, result in masters)
        assert all(incumbent is not None for incumbent, result in masters if result.nodes > 0)
        auto = solve_exact(H)
        assert exact.parameters["mode"] == "exact"
        assert exact.allocation.x.tolist() == auto.allocation.x.tolist()
        assert (exact.surrogate_value, exact.original_value, exact.status) == (
            auto.surrogate_value, auto.original_value, auto.status,
        )

        def untimed(report):
            d = dict(report.diagnostics)
            d["history"] = [h[:2] for h in d["history"]]
            return d

        assert untimed(exact) == untimed(auto)

    def test_a_cut_after_a_continuation_brings_the_descents_back(self, monkeypatch):
        # with one start per descent, the first continuation here finds an
        # allocation whose separation adds a cut; the next master descends
        # on the grown cut set, and only its converged result is continued
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 6)
        monkeypatch.setattr(bqp, "RESTARTS", 1)
        masters = []

        def spy(cuts, limits, warm_start=None, incumbent=None):
            result = bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)
            masters.append((limits.mode, cuts.k, incumbent is not None, result.nodes > 0))
            return result

        monkeypatch.setattr(cutting_plane, "minimize_max_quadratic", spy)
        H = random_design(12, 5, np.random.default_rng(16))
        report = solve_exact(H)
        assert masters == [
            ("heuristic", 2, False, False), ("exact", 2, True, True),
            ("heuristic", 3, False, False), ("exact", 3, True, True),
        ]
        assert report.status == "optimal"
        assert report.diagnostics["master_mode_final"] == "exact"
        assert report.surrogate_value == pytest.approx(brute_bilevel_surrogate(H), abs=1e-6)

    def test_heuristic_master_root_test_certifies(self):
        # the descent's value sits 6.2e-7 above the root bound, within
        # epsilon, so a heuristic master certifies and auto needs no
        # verification phase
        H = generate_synthetic(SyntheticSpec(n=100, p=4, seed=2))
        heur = solve_exact(H, SolveLimits(mode="heuristic", time_limit=20.0))
        assert heur.status == "optimal"
        gap = heur.surrogate_value - heur.diagnostics["lower_bound"]
        assert 0.0 < gap <= SolveLimits().epsilon
        assert heur.diagnostics["gap"] == gap
        auto = solve_exact(H, SolveLimits(time_limit=20.0))
        assert auto.status == "optimal"
        assert auto.diagnostics["master_mode_final"] == "heuristic"
        assert auto.allocation.x.tolist() == heur.allocation.x.tolist()

    def test_final_master_method_is_reported(self, monkeypatch):
        rng = np.random.default_rng(11)
        H = random_design(10, 3, rng)
        assert solve_exact(H).diagnostics["master_method"] == "enumeration"
        heur = solve_exact(H, SolveLimits(mode="heuristic"))
        assert heur.diagnostics["master_method"] == "descent"
        # n = 20 enumerates under auto, so only limits.mode can pick descent
        H20 = generate_synthetic(SyntheticSpec(n=20, p=4, seed=0))
        heur = solve_exact(H20, SolveLimits(mode="heuristic"))
        assert heur.diagnostics["master_method"] == "descent"
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 6)
        report = solve_exact(H)
        assert report.diagnostics["master_method"] == "branch_and_bound"
        assert report.diagnostics["master_nodes"] > 0


class TestLowerBound:
    def test_heuristic_masters_bound_the_optimum(self):
        rng = np.random.default_rng(13)
        H = random_design(12, 3, rng)
        report = solve_exact(H, SolveLimits(mode="heuristic"))
        bound = report.diagnostics["lower_bound"]
        assert bound is not None and np.isfinite(bound)
        assert bound <= brute_bilevel_surrogate(H) + 1e-9
        assert report.diagnostics["gap"] == pytest.approx(report.surrogate_value - bound)

    def test_verification_under_node_limit_reports_bound_and_gap(self):
        rng = np.random.default_rng(17)
        H = random_design(60, 5, rng)
        report = solve_exact(H, SolveLimits(node_limit=10, time_limit=60.0))
        # the exact master runs out of nodes, so only its bound is known
        assert report.status == "incumbent"
        assert report.diagnostics["master_mode_final"] == "exact"
        bound = report.diagnostics["lower_bound"]
        assert bound is not None and bound <= report.surrogate_value + 1e-12
        assert report.diagnostics["gap"] >= -1e-12

    def test_every_master_bound_reaches_the_root_bound(self, monkeypatch):
        # the verification master of the test above stops at its node
        # limit; its bound must still be at least min(value, max c)
        from trialdesign import cutting_plane

        masters = []

        def spy(cuts, limits, warm_start=None, incumbent=None):
            result = bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)
            masters.append((cuts, limits.mode, result))
            return result

        monkeypatch.setattr(cutting_plane, "minimize_max_quadratic", spy)
        rng = np.random.default_rng(17)
        H = random_design(60, 5, rng)
        report = solve_exact(H, SolveLimits(node_limit=10, time_limit=60.0))
        assert {mode for _, mode, _ in masters} == {"heuristic", "exact"}
        for cuts, _, result in masters:
            floor = min(result.value, float(cuts.constants.max()))
            assert result.lower_bound >= floor
        assert report.diagnostics["lower_bound"] >= max(
            min(r.value, float(c.constants.max())) for c, _, r in masters
        )

    @pytest.mark.blas_bits
    def test_verification_master_runs_no_multi_start(self, monkeypatch):
        # the first exact master solves the converged heuristic master's
        # cut set again, so it continues from that master's result; only
        # its branch and bound's completions descend
        descents, multi_starts = [], []
        real_descent, real_heuristic = bqp._descent, bqp._heuristic

        def count(c, A, diag, X0, deadline):
            descents[-1] += len(X0)
            return real_descent(c, A, diag, X0, deadline)

        def count_heuristic(*args):
            multi_starts[-1] += 1
            return real_heuristic(*args)

        masters = []

        def spy(cuts, limits, warm_start=None, incumbent=None):
            descents.append(0)
            multi_starts.append(0)
            result = bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)
            masters.append((limits.mode, incumbent, result))
            return result

        monkeypatch.setattr(bqp, "_descent", count)
        monkeypatch.setattr(bqp, "_heuristic", count_heuristic)
        monkeypatch.setattr(cutting_plane, "minimize_max_quadratic", spy)
        rng = np.random.default_rng(17)
        H = random_design(60, 5, rng)
        report = solve_exact(H, SolveLimits(node_limit=10, time_limit=60.0))
        assert report.diagnostics["master_mode_final"] == "exact"
        first = [mode for mode, _, _ in masters].index("exact")
        assert first > 0
        # heuristic masters: the seeded descents, and the warm start after the first
        assert multi_starts[:first] == [1] * first
        assert descents[:first] == [bqp.RESTARTS] + [bqp.RESTARTS + 1] * (first - 1)
        _, incumbent, verify = masters[first]
        assert incumbent is masters[first - 1][2]
        assert multi_starts[first] == 0 and verify.restarts == 0
        assert verify.nodes > 0
        history = report.diagnostics["history"]
        assert history[first][:2] == history[first - 1][:2]

    @pytest.mark.blas_bits
    def test_verification_master_reuses_the_separation(self, monkeypatch):
        # the first exact master returns the allocation just separated, so
        # its iteration reuses that separation
        masters, separations = [], []

        def spy(cuts, limits, warm_start=None, incumbent=None):
            result = bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)
            masters.append(result)
            return result

        def count(problem, *args, **kwargs):
            separations.append(problem)
            return solve_inner_max(problem, *args, **kwargs)

        monkeypatch.setattr(cutting_plane, "minimize_max_quadratic", spy)
        monkeypatch.setattr(inner_max, "solve_inner_max", count)
        rng = np.random.default_rng(17)
        H = random_design(60, 5, rng)
        report = solve_exact(H, SolveLimits(node_limit=10, time_limit=60.0))
        assert report.diagnostics["master_mode_final"] == "exact"
        # one search per distinct master allocation, len(masters) - 1 of
        # them, and one for the report's original value
        assert len(separations) == len(masters)
        history = report.diagnostics["history"]
        assert len(history) == len(masters)
        repeats = [
            i for i in range(1, len(masters))
            if np.array_equal(masters[i].x_star.x, masters[i - 1].x_star.x)
        ]
        assert len(repeats) == 1
        assert history[repeats[0]][:2] == history[repeats[0] - 1][:2]

    def test_bound_never_passes_the_value(self):
        # the certified master theta rounded one ulp above the separation's
        # value here, which gave a gap of -1.3e-15 before the clamp
        H = generate_synthetic(SyntheticSpec(n=20, p=10, seed=0))
        report = solve_exact(H)
        assert report.status == "optimal"
        assert report.diagnostics["lower_bound"] == report.surrogate_value
        assert report.diagnostics["gap"] == 0.0


class TestBudgets:
    def test_node_limit_budgets_masters_not_separations(self):
        # p = 24 separations run branch and bound; stopped at the master's
        # 5 nodes they under-reported the design's value
        H = generate_synthetic(SyntheticSpec(n=48, p=24, seed=1))
        report = solve_exact(H, SolveLimits(node_limit=5, time_limit=20.0))
        value, _ = surrogate_value(H, report.allocation)
        assert report.surrogate_value == pytest.approx(value, abs=1e-12)
        assert report.diagnostics["lower_bound"] <= report.surrogate_value

    def test_wall_time_includes_the_report_evaluation(self, toy_design, monkeypatch):
        evaluate = cutting_plane.original_value

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cutting_plane, "original_value", slow)
        assert solve_exact(toy_design).wall_time >= 0.2

    def test_tight_budget_returns_incumbent(self):
        rng = np.random.default_rng(7)
        H = random_design(30, 5, rng)
        report = solve_exact(H, SolveLimits(time_limit=0.05))
        assert report.status == "incumbent"
        assert report.diagnostics["iterations"] >= 1
        assert np.isfinite(report.surrogate_value)
        assert abs(int(report.allocation.x.sum())) == 0


class TestReportFields:
    def test_echoes_inputs(self, toy_design):
        limits = SolveLimits(epsilon=1e-7, seed=11)
        report = solve_exact(toy_design, limits)
        assert report.n == 4
        assert report.p == 2
        assert report.seed == 11
        assert report.matrix_sha256 == matrix_hash(toy_design)
        assert report.parameters["epsilon"] == 1e-7
        assert report.parameters["space"] == "hypercube"
        assert report.wall_time >= 0.0

    def test_reports_surrogate_on_report_space(self):
        H = generate_synthetic(SyntheticSpec(n=20, p=8, seed=1))
        cube = solve_exact(H)
        rows = solve_exact(H, report_space=CovariateSpace.rows())
        for report, space in ((cube, CovariateSpace.hypercube()), (rows, CovariateSpace.rows())):
            assert report.surrogate_value == surrogate_value(H, report.allocation, space)[0]
            assert "hypercube_value" not in report.diagnostics
        # the bound and the gap refer to the space reported on
        assert rows.diagnostics["gap"] == rows.surrogate_value - rows.diagnostics["lower_bound"]
        assert rows.surrogate_value <= surrogate_value(H, cube.allocation, CovariateSpace.rows())[0]

    def test_certifies_the_reported_space(self):
        # on the rows of (20, 6, 2) the hypercube-optimal design is 33.6%
        # above the rows optimum; the rows loop certifies the latter
        for n, seed in ((20, 2), (16, 0), (16, 1), (16, 2)):
            H = generate_synthetic(SyntheticSpec(n=n, p=6, seed=seed))
            cube = solve_exact(H)
            rows = solve_exact(H, report_space=CovariateSpace.rows())
            for report in (cube, rows):
                assert report.status == "optimal"
                assert report.diagnostics["lower_bound"] <= report.surrogate_value
            assert rows.surrogate_value <= surrogate_value(H, cube.allocation, CovariateSpace.rows())[0]

    def test_verbose_progress_lines(self, toy_design, capsys):
        solve_exact(toy_design, verbose=True)
        err = capsys.readouterr().err
        assert "iter 1:" in err
        assert "theta=" in err
