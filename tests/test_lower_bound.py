import numpy as np
import pytest

from conftest import balanced_corners, brute_min_max_cuts, oracle_lb_matrix, random_design
from trialdesign import bqp
from trialdesign.covariates import SyntheticSpec, generate_synthetic
from trialdesign.limits import SolveLimits
from trialdesign.lower_bound import solve_lb
from trialdesign.objective import CovariateSpace, lb_matrix


class TestKnownInstances:
    def test_alternating_design(self, toy_design):
        report = solve_lb(toy_design)
        assert report.method == "LB_APPROX"
        assert report.status == "optimal"
        assert report.diagnostics["bqp_value"] == pytest.approx(0.0, abs=1e-10)
        assert report.diagnostics["lb_objective"] == pytest.approx(0.5, abs=1e-10)
        assert report.surrogate_value == pytest.approx(0.5, abs=1e-9)
        assert report.original_value == pytest.approx(0.5, abs=1e-9)

    def test_intercept_only_pair(self):
        report = solve_lb(np.array([[1.0], [1.0]]))
        assert report.allocation.x.tolist() == [1, -1]
        assert report.diagnostics["lb_objective"] == pytest.approx(0.5, abs=1e-12)

    def test_synthetic_matches_enumeration(self):
        H = generate_synthetic(SyntheticSpec(n=12, p=4, seed=3))
        report = solve_lb(H, SolveLimits(mode="exact"))
        Q = oracle_lb_matrix(H.data)
        ref = brute_min_max_cuts(np.zeros(1), Q[None], balanced_corners(12))
        assert report.diagnostics["bqp_value"] == pytest.approx(ref, abs=1e-8)
        assert report.status == "optimal"


class TestProperties:
    def test_lb_objective_below_row_surrogate(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            n = 2 * int(rng.integers(3, 11))
            p = int(rng.integers(2, min(5, n // 2) + 1))
            H = random_design(n, p, rng)
            report = solve_lb(H, report_space=CovariateSpace.rows())
            assert (
                report.diagnostics["lb_objective"]
                <= report.surrogate_value + 1e-8
            )

    def test_heuristic_never_beats_exact(self):
        rng = np.random.default_rng(19)
        matches = 0
        for _ in range(10):
            n = 2 * int(rng.integers(3, 8))
            H = random_design(n, 3, rng)
            exact = solve_lb(H, SolveLimits(mode="exact"))
            heur = solve_lb(H, SolveLimits(mode="heuristic"))
            assert (
                heur.diagnostics["bqp_value"]
                >= exact.diagnostics["bqp_value"] - 1e-9
            )
            if heur.diagnostics["bqp_value"] <= exact.diagnostics["bqp_value"] + 1e-9:
                matches += 1
        assert matches >= 9

    def test_lb_matrix_scale_invariant(self):
        rng = np.random.default_rng(23)
        H = random_design(10, 3, rng)
        assert np.allclose(lb_matrix(3.0 * H), lb_matrix(H), atol=1e-12)

    def test_heuristic_root_bound_is_exact(self):
        # y = 0 solves the root relaxation of the single PSD cut with c = 0
        rng = np.random.default_rng(29)
        for n, p in [(42, 3), (60, 4), (100, 5)]:
            report = solve_lb(random_design(n, p, rng))
            assert report.diagnostics["mode_resolved"] == "heuristic"
            assert report.diagnostics["lb_lower_bound"] == p / n

    def test_lower_bound_tracks_engine(self, toy_design):
        report = solve_lb(toy_design)
        assert (
            report.diagnostics["lb_lower_bound"]
            <= report.diagnostics["lb_objective"] + 1e-12
        )


class TestModes:
    def test_rejects_unknown_mode(self, toy_design):
        with pytest.raises(ValueError, match="mode"):
            solve_lb(toy_design, SolveLimits(mode="annealing"))

    def test_auto_resolves_exact_for_small_n(self, toy_design):
        report = solve_lb(toy_design)
        assert report.diagnostics["mode_resolved"] == "exact"
        assert report.parameters["mode"] == "auto"

    def test_auto_resolves_heuristic_past_threshold(self, toy_design, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 2)
        report = solve_lb(toy_design)
        assert report.diagnostics["mode_resolved"] == "heuristic"
        assert report.diagnostics["nodes"] == 0

    def test_auto_is_exact_only_where_the_engine_enumerates(self):
        # past ENUM_MAX_N a master branch and bound ran out its budget at n
        # in the low thirties; auto takes the descent there
        rng = np.random.default_rng(8)
        n = bqp.ENUM_MAX_N
        assert solve_lb(random_design(n, 4, rng)).diagnostics["mode_resolved"] == "exact"
        report = solve_lb(random_design(n + 2, 4, rng), SolveLimits(time_limit=5.0))
        assert report.diagnostics["mode_resolved"] == "heuristic"
        assert report.diagnostics["nodes"] == 0

    def test_exact_is_auto_past_threshold(self, monkeypatch):
        # exact mode ran a branch and bound here, 41k-81k nodes in 5 s at
        # n = 30-60 for auto's design and bound
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(10)
        for n in (12, 15):
            H = random_design(n, 3, rng)
            exact = solve_lb(H, SolveLimits(mode="exact"))
            auto = solve_lb(H)
            assert exact.diagnostics["nodes"] == 0
            assert exact.diagnostics["mode_resolved"] == "heuristic"
            assert exact.parameters["mode"] == "exact"
            assert exact.allocation.x.tolist() == auto.allocation.x.tolist()
            assert exact.diagnostics == auto.diagnostics
            assert (exact.surrogate_value, exact.original_value, exact.status) == (
                auto.surrogate_value, auto.original_value, auto.status,
            )

    def test_explicit_heuristic_echoed(self):
        # n = 20 enumerates under auto, so only limits.mode can pick descent
        H = generate_synthetic(SyntheticSpec(n=20, p=4, seed=0))
        report = solve_lb(H, SolveLimits(mode="heuristic"))
        assert report.diagnostics["mode_resolved"] == "heuristic"
        assert report.parameters["mode"] == "heuristic"
        assert report.diagnostics["restarts"] >= 32

    def test_restarts_stay_at_32_past_n_128(self):
        H = generate_synthetic(SyntheticSpec(n=200, p=4, seed=0))
        report = solve_lb(H)
        assert report.diagnostics["mode_resolved"] == "heuristic"
        assert report.diagnostics["restarts"] == bqp.RESTARTS == 32

    def test_gap_is_in_objective_units(self):
        # the bqp gap was 0.0220 here, against an objective gap of 0.000367
        H = generate_synthetic(SyntheticSpec(n=60, p=5, seed=1))
        d = solve_lb(H).diagnostics
        assert d["gap"] == pytest.approx(d["lb_objective"] - d["lb_lower_bound"], rel=1e-9)
        assert 3e-4 < d["gap"] < 4e-4


class TestReportFields:
    def test_echoes_inputs(self, toy_design):
        limits = SolveLimits(epsilon=1e-5, seed=21)
        report = solve_lb(toy_design, limits)
        assert report.n == 4
        assert report.p == 2
        assert report.seed == 21
        assert report.parameters["epsilon"] == 1e-5
        assert report.parameters["space"] == "hypercube"
        assert report.diagnostics["confounded"] is False
