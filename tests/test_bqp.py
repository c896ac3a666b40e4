import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    balanced_corners,
    brute_max_quadratic,
    brute_min_max_cuts,
    naive_descent,
    oracle_lb_matrix,
    random_design,
)
from trialdesign import bqp
from trialdesign.bqp import (
    BqpResult,
    CutSet,
    _descent,
    minimize_max_quadratic,
)
from trialdesign.inner_max import InnerMaxProblem, solve_inner_max
from trialdesign.limits import SolveLimits
from trialdesign.objective import Allocation, random_balanced_signs


def random_cuts(n: int, k: int, rng: np.random.Generator) -> CutSet:
    mats = []
    for _ in range(k):
        B = rng.normal(size=(n, n))
        mats.append(B @ B.T / n)
    return CutSet(constants=rng.uniform(0.0, 0.5, size=k), matrices=np.stack(mats))


def brute_value(cuts: CutSet) -> float:
    return brute_min_max_cuts(cuts.constants, cuts.matrices, balanced_corners(cuts.n))


@pytest.mark.blas_bits
class TestCutSet:
    def test_properties_and_read_only(self):
        cuts = CutSet(constants=np.array([0.5]), matrices=np.eye(3)[None])
        assert cuts.n == 3
        assert cuts.k == 1
        with pytest.raises(ValueError):
            cuts.matrices[0, 0, 0] = 2.0

    def test_keeps_read_only_diagonals(self):
        rng = np.random.default_rng(3)
        cuts = random_cuts(9, 3, rng)
        for k, A in enumerate(cuts.matrices):
            assert cuts.diagonals[k].tolist() == np.diag(A).tolist()
        with pytest.raises(ValueError):
            cuts.diagonals[0, 0] = 0.0

    def test_from_pairs(self):
        cuts = CutSet.from_pairs([(0.5, np.eye(2)), (1.0, 2.0 * np.eye(2))])
        assert cuts.k == 2
        assert cuts.constants.tolist() == [0.5, 1.0]

    def test_from_pairs_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            CutSet.from_pairs([])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            CutSet(constants=np.array([0.0, 1.0]), matrices=np.eye(2)[None])

    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CutSet(constants=np.zeros(1), matrices=A[None])

    def test_rejects_indefinite(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not PSD"):
            CutSet(constants=np.zeros(1), matrices=A[None])

    def test_names_the_first_indefinite_cut(self):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]])
        mats = np.stack([np.eye(2), bad, 2.0 * bad])
        with pytest.raises(ValueError, match=r"cut 1 is not PSD: smallest eigenvalue -1\.000e\+00"):
            CutSet(constants=np.zeros(3), matrices=mats)

    @pytest.mark.parametrize("n, k", [(5, 8), (60, 3), (200, 2)])
    def test_stacked_spectrum_matches_each_cut(self, monkeypatch, n, k):
        # entries this large skip the screen, so every cut goes to one
        # stacked eigvalsh; each cut alone gives the same bits
        source = random_cuts(n, k, np.random.default_rng(n))
        mats = 1e8 * source.matrices
        stacked = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            stacked.append(eigvalsh(a))
            return stacked[-1]

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", spy)
            CutSet(constants=source.constants, matrices=mats)
        assert len(stacked) == 1 and stacked[0].shape == (k, n)
        for A, spectrum in zip(mats, stacked[0]):
            assert np.array_equal(spectrum, np.linalg.eigvalsh(A))

    def test_rejects_non_finite(self):
        A = np.full((2, 2), np.inf)
        with pytest.raises(ValueError, match="finite"):
            CutSet(constants=np.zeros(1), matrices=A[None])

    def test_symmetrizes_within_tolerance(self):
        A = np.array([[1.0, 0.5 + 1e-10], [0.5, 1.0]])
        cuts = CutSet(constants=np.zeros(1), matrices=A[None])
        assert cuts.matrices[0, 0, 1] == cuts.matrices[0, 1, 0]

    def test_leaves_the_callers_arrays_alone(self):
        rng = np.random.default_rng(5)
        source = random_cuts(6, 2, rng)
        c, A = source.constants.copy(), source.matrices.copy()
        A[0, 0, 1] += 1e-10  # symmetrized on the way in
        c_before, A_before = c.copy(), A.copy()
        cuts = CutSet(constants=c, matrices=A)
        assert c.flags.writeable and A.flags.writeable
        assert np.array_equal(c, c_before) and np.array_equal(A, A_before)
        for stored, given in ((cuts.constants, c), (cuts.matrices, A)):
            assert not np.shares_memory(stored, given)


@pytest.mark.blas_bits
class TestCutSetScreen:
    """The Cholesky screen clears PSD stacks without a spectrum; the
    eigenvalue test still decides every cut it does not clear."""

    @staticmethod
    def spy_eigvalsh(monkeypatch) -> list:
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            calls.append(np.array(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return calls

    def test_psd_stack_needs_no_spectrum(self, monkeypatch):
        calls = self.spy_eigvalsh(monkeypatch)
        rng = np.random.default_rng(11)
        B = rng.normal(size=(3, 50, 4))
        cuts = CutSet(constants=np.zeros(3), matrices=B @ B.transpose(0, 2, 1))
        # nor does the root bound, read on demand
        assert cuts.root_bound >= 0.0
        assert calls == []

    @pytest.mark.parametrize("low, accepted", [(-0.6, True), (-0.999, True), (-1.5, False)])
    def test_shallow_negative_eigenvalues_go_to_the_eigenvalue_test(
        self, low, accepted, monkeypatch
    ):
        # an eigenvalue in (-CUT_PSD_ATOL, -CUT_PSD_ATOL / 2) fails the screen
        # but passes the test; below -CUT_PSD_ATOL both reject
        calls = self.spy_eigvalsh(monkeypatch)
        Q, _ = np.linalg.qr(np.random.default_rng(13).normal(size=(6, 6)))
        spectrum = np.array([low * bqp.CUT_PSD_ATOL, 0.0, 1.0, 1.0, 2.0, 3.0])
        bad = (Q * spectrum) @ Q.T
        mats = np.stack([np.eye(6), bad])
        if accepted:
            CutSet(constants=np.zeros(2), matrices=mats)
        else:
            with pytest.raises(ValueError, match=r"cut 1 is not PSD: smallest eigenvalue -1\.5"):
                CutSet(constants=np.zeros(2), matrices=mats)
        # only the cut the screen did not clear was tested
        assert len(calls) == 1 and calls[0].shape == (1, 6, 6)

    @pytest.mark.parametrize("block_entries", [64, 1 << 17])
    def test_blocked_factor_agrees_with_numpy(self, block_entries, monkeypatch):
        # 64 entries make blocks of two columns at n = 30
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(19)
        n = 30
        mats = []
        for shift in (1e-9, 0.5, -1e-6, -0.5):
            B = rng.normal(size=(n, 8))
            mats.append(B @ B.T + shift * np.eye(n))
        mats = np.stack(mats)
        numpy_cleared = []
        for A in mats:
            try:
                np.linalg.cholesky(A)
                numpy_cleared.append(True)
            except np.linalg.LinAlgError:
                numpy_cleared.append(False)
        assert numpy_cleared == [True, True, False, False]
        assert bqp._factor_in_place(mats.copy()).tolist() == numpy_cleared

    def test_large_entries_skip_the_screen(self, monkeypatch):
        # with n eps max|A| above CUT_PSD_ATOL / 2 the factor proves too
        # little, so the eigenvalue test decides
        calls = self.spy_eigvalsh(monkeypatch)
        mats = np.stack([np.eye(4), 1e8 * np.eye(4)])
        CutSet(constants=np.zeros(2), matrices=mats)
        assert len(calls) == 1 and calls[0].shape == (1, 4, 4)
        assert calls[0][0, 0, 0] == 1e8


class TestResult:
    def test_rejects_value_below_bound(self):
        alloc = Allocation(np.array([1, -1]))
        with pytest.raises(ValueError, match="below"):
            BqpResult(
                x_star=alloc, value=0.0, lower_bound=1.0,
                status="optimal", nodes=0, restarts=0,
            )

    def test_rejects_unknown_status(self):
        alloc = Allocation(np.array([1, -1]))
        with pytest.raises(ValueError, match="status"):
            BqpResult(
                x_star=alloc, value=1.0, lower_bound=0.0,
                status="done", nodes=0, restarts=0,
            )


class TestKnownInstances:
    def test_two_subject_off_diagonal_cancellation(self):
        cuts = CutSet(
            constants=np.zeros(1),
            matrices=np.array([[[0.25, 0.25], [0.25, 0.25]]]),
        )
        for mode in ("exact", "heuristic"):
            res = minimize_max_quadratic(cuts, SolveLimits(mode=mode))
            assert res.x_star.x.tolist() == [1, -1]
            assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_alternating_design_reaches_zero(self, toy_design):
        cuts = CutSet(constants=np.zeros(1), matrices=oracle_lb_matrix(toy_design)[None])
        res = minimize_max_quadratic(cuts, SolveLimits(mode="exact"))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.status == "optimal"
        assert res.x_star.x.tolist() in ([1, -1, -1, 1], [1, 1, -1, -1])

    def test_rejects_single_subject(self):
        cuts = CutSet(constants=np.zeros(1), matrices=np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match="two subjects"):
            minimize_max_quadratic(cuts)


def exact_branch_and_bound(cuts: CutSet, limits: SolveLimits, warm_start=None) -> BqpResult:
    """Exact mode past the enumeration cutover: the descent's root test,
    then branch and bound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bqp, "ENUM_MAX_N", 1)
        return minimize_max_quadratic(cuts, limits, warm_start)


class TestExact:
    """Exact mode through the public entry, which enumerates these small n.

    TestExactBranchAndBound reruns every test on the branch and bound.
    """

    solve = staticmethod(minimize_max_quadratic)

    def test_three_cut_instance_matches_enumeration(self):
        rng = np.random.default_rng(5)
        cuts = random_cuts(12, 3, rng)
        res = self.solve(cuts, SolveLimits(mode="exact"))
        assert res.status == "optimal"
        assert res.value == pytest.approx(brute_value(cuts), abs=1e-8)

    def test_matches_enumeration_across_sizes(self):
        rng = np.random.default_rng(17)
        for n, k in [(6, 1), (7, 2), (9, 3), (10, 1), (11, 4), (12, 2)]:
            cuts = random_cuts(n, k, rng)
            res = self.solve(cuts, SolveLimits(mode="exact", seed=3))
            x = res.x_star.x
            assert res.status == "optimal"
            assert res.value == pytest.approx(brute_value(cuts), abs=1e-8)
            assert x[0] == 1
            assert abs(int(x.sum())) <= 1
            recomputed = cuts.constants + np.einsum(
                "kij,i,j->k", cuts.matrices, x, x
            )
            assert res.value == pytest.approx(float(recomputed.max()), abs=1e-10)
            assert res.lower_bound <= res.value + 1e-8
            assert res.gap <= SolveLimits().epsilon + 1e-12

    def test_constant_shift_moves_value_only(self):
        rng = np.random.default_rng(29)
        cuts = random_cuts(8, 2, rng)
        shifted = CutSet(constants=cuts.constants + 5.0, matrices=cuts.matrices)
        a = self.solve(cuts, SolveLimits(mode="exact"))
        b = self.solve(shifted, SolveLimits(mode="exact"))
        assert b.value == pytest.approx(a.value + 5.0, abs=1e-9)
        assert b.x_star.x.tolist() == a.x_star.x.tolist()

    def test_node_limit_returns_feasible_incumbent(self):
        # only the branch and bound counts nodes, so it runs directly here
        rng = np.random.default_rng(37)
        v = rng.normal(size=12)
        cuts = CutSet(constants=np.zeros(1), matrices=np.outer(v, v)[None])
        res = exact_branch_and_bound(cuts, SolveLimits(mode="exact", node_limit=1))
        ref = brute_value(cuts)
        assert res.status == "incumbent"
        assert res.gap > 0.0
        assert res.value >= ref - 1e-10
        assert res.lower_bound <= ref + 1e-8
        assert abs(int(res.x_star.x.sum())) <= 1

    def test_time_limit_returns_feasible_incumbent(self):
        rng = np.random.default_rng(41)
        cuts = random_cuts(40, 3, rng)
        res = self.solve(cuts, SolveLimits(mode="exact", time_limit=0.3))
        assert res.status == "incumbent"
        assert res.gap >= 0.0
        assert res.value >= res.lower_bound - 1e-8
        assert abs(int(res.x_star.x.sum())) <= 1


@pytest.mark.blas_bits
class TestExactBranchAndBound(TestExact):
    solve = staticmethod(exact_branch_and_bound)


@pytest.mark.blas_bits
class TestMasterContract:
    """Every method's status and lower bound mean the same thing.

    lower_bound <= optimum <= value; optimal means value - lower_bound <=
    epsilon; and lower_bound >= min(value, root bound), the root bound
    being max(max c, the interval bound at the root), itself at most the
    optimum.
    """

    @staticmethod
    def cut_sets():
        rng = np.random.default_rng(241)
        for n in range(6, 15):
            k = int(rng.integers(1, 5))
            yield random_cuts(n, k, rng)
            low = rng.normal(size=(k, n, 2))
            yield CutSet(constants=rng.uniform(0.0, 2.0, size=k), matrices=low @ low.transpose(0, 2, 1))

    def test_every_method_keeps_the_contract(self):
        eps = SolveLimits().epsilon
        solves = [
            lambda cuts: minimize_max_quadratic(cuts, SolveLimits(mode="exact")),
            lambda cuts: minimize_max_quadratic(cuts, SolveLimits(mode="heuristic")),
            lambda cuts: exact_branch_and_bound(cuts, SolveLimits(mode="exact")),
            lambda cuts: exact_branch_and_bound(cuts, SolveLimits(mode="exact", node_limit=1)),
        ]
        for cuts in self.cut_sets():
            ref = brute_value(cuts)
            root = cuts.root_bound
            assert root <= ref
            for solve in solves:
                res = solve(cuts)
                assert res.lower_bound <= ref + 1e-9
                assert ref <= res.value + 1e-9
                assert res.lower_bound >= min(res.value, root)
                assert res.gap == res.value - res.lower_bound
                if res.status == "optimal":
                    assert res.gap <= eps

    def test_branch_and_bound_certifies_at_the_root_test(self):
        # a dominant cut with a tiny quadratic part: max c is within
        # epsilon of every value, so the descent certifies without a node
        rng = np.random.default_rng(251)
        cuts = random_cuts(12, 2, rng)
        cuts = CutSet(
            constants=np.array([10.0, float(cuts.constants[1])]),
            matrices=np.stack([1e-8 * cuts.matrices[0], cuts.matrices[1]]),
        )
        res = exact_branch_and_bound(cuts, SolveLimits(mode="exact"))
        assert res.status == "optimal" and res.nodes == 0
        assert res.lower_bound == 10.0 < res.value
        assert res.value == pytest.approx(brute_value(cuts), abs=1e-12)


def lex_first_min(cuts: CutSet) -> tuple[np.ndarray, float]:
    """Lexicographically smallest canonical minimizer, by full enumeration."""
    X = balanced_corners(cuts.n)
    X = X[X[:, 0] > 0]  # rows come in lexicographic order
    vals = (
        cuts.constants[None, :] + np.einsum("mi,kij,mj->mk", X, cuts.matrices, X)
    ).max(axis=1)
    best = int(np.argmin(vals))
    return X[best], float(vals[best])


def integer_cuts(n: int, k: int, rng: np.random.Generator) -> CutSet:
    # low-rank {-1, 0, 1} factors: exact integer values with many ties
    mats = []
    for _ in range(k):
        B = rng.integers(-1, 2, size=(n, 2)).astype(float)
        mats.append(B @ B.T)
    return CutSet(constants=rng.integers(0, 3, size=k).astype(float), matrices=np.stack(mats))


class TestSuffixRows:
    """The suffix sign table of the enumeration, built once per width."""

    @pytest.mark.parametrize("m", range(14))
    def test_rows_are_every_sign_vector_in_lexicographic_order(self, m):
        ids = np.arange(1 << m)
        expected = (((ids[:, None] >> np.arange(m - 1, -1, -1)) & 1) * 2 - 1).astype(float)
        rows = bqp.suffix_rows(m)
        assert rows.shape == (1 << m, m) and rows.dtype == float
        assert np.array_equal(rows, expected)
        as_tuples = [tuple(row) for row in rows.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_one_read_only_table_per_width(self):
        rows = bqp.suffix_rows(6)
        assert bqp.suffix_rows(6) is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


class TestMasterEnumeration:
    """The enumeration engine against full enumeration: exact masters up to
    ENUM_MAX_N, and the unconstrained search of the separation."""

    # the second layout splits every block down to one head row, so ties
    # are settled between blocks, and gives the heads most of the signs
    LAYOUTS = [(bqp.SUFFIX_BITS, bqp.BLOCK_ENTRIES), (3, 16)]

    @pytest.mark.parametrize("suffix_bits, block_entries", LAYOUTS)
    def test_random_cuts_match_brute_force(self, suffix_bits, block_entries, monkeypatch):
        monkeypatch.setattr(bqp, "SUFFIX_BITS", suffix_bits)
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(211)
        for n in range(2, 17):
            for k in range(1, 7):
                cuts = random_cuts(n, k, rng)
                res = minimize_max_quadratic(cuts, SolveLimits(mode="exact"))
                x = res.x_star.x
                assert res.status == "optimal"
                assert res.value == pytest.approx(lex_first_min(cuts)[1], abs=1e-10)
                assert res.value == float(bqp._exact_cut_values(
                    cuts.constants, cuts.matrices, x.astype(float)).max())
                assert res.lower_bound == res.value and res.gap == 0.0
                assert x[0] == 1 and abs(int(x.sum())) <= 1
                assert res.nodes == 0 and res.restarts == 0

    @pytest.mark.parametrize("suffix_bits, block_entries", LAYOUTS)
    def test_ties_go_to_lexicographically_smallest(self, suffix_bits, block_entries, monkeypatch):
        monkeypatch.setattr(bqp, "SUFFIX_BITS", suffix_bits)
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(223)
        for n in range(2, 17):
            for k in range(1, 7):
                cuts = integer_cuts(n, k, rng)
                x_ref, v_ref = lex_first_min(cuts)
                res = minimize_max_quadratic(cuts, SolveLimits(mode="exact"))
                assert res.value == v_ref
                assert res.x_star.x.tolist() == x_ref.astype(int).tolist()

    @pytest.mark.parametrize("suffix_bits, block_entries", LAYOUTS)
    def test_separation_matches_brute_force(self, suffix_bits, block_entries, monkeypatch):
        monkeypatch.setattr(bqp, "SUFFIX_BITS", suffix_bits)
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(227)
        for q in range(17):
            R = rng.normal(size=(q + 1, q + 1))
            # sparse couplings in {-1, 0, 1}: exact sums and tied optima
            T = np.triu(rng.integers(-1, 2, size=R.shape) * (rng.random(R.shape) < 0.3), 1)
            for M in ((R + R.T) / 2.0, (T + T.T).astype(float)):
                res = solve_inner_max(InnerMaxProblem(M=M), method="enumeration")
                z_ref, val_ref = brute_max_quadratic(M)
                assert res.z_star.tolist() == z_ref.tolist()
                assert res.value == pytest.approx(val_ref, abs=1e-10)
                assert res.nodes_explored == 2**q
                assert res.method == "enumeration" and res.optimal and res.gap == 0.0

    def test_node_limit_does_not_stop_enumeration(self):
        rng = np.random.default_rng(37)
        v = rng.normal(size=12)
        cuts = CutSet(constants=np.zeros(1), matrices=np.outer(v, v)[None])
        res = minimize_max_quadratic(cuts, SolveLimits(mode="exact", node_limit=1))
        assert res.status == "optimal"
        assert res.value == pytest.approx(brute_value(cuts), abs=1e-10)
        assert res.nodes == 0

    def test_expired_deadline_returns_incumbent_with_valid_bound(self, monkeypatch):
        # tiny blocks, so the search has many chances to stop early
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", 64)
        rng = np.random.default_rng(229)
        cuts = random_cuts(16, 3, rng)
        _, ref = lex_first_min(cuts)
        res = minimize_max_quadratic(cuts, SolveLimits(mode="exact", time_limit=1e-9))
        x = res.x_star.x
        assert res.status == "incumbent"
        assert res.lower_bound == float(cuts.constants.max()) <= ref
        assert res.value >= ref - 1e-12
        assert res.gap == res.value - res.lower_bound
        assert x[0] == 1 and int(x.sum()) == 0

    def test_cutover_follows_enum_max_n(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(233)
        assert bqp.solver_method(8, "exact") == "enumeration"
        assert bqp.solver_method(9, "exact") == "branch_and_bound"
        assert bqp.solver_method(8, "heuristic") == "descent"
        small = minimize_max_quadratic(random_cuts(8, 2, rng), SolveLimits(mode="exact"))
        assert small.restarts == 0
        # past the cutover the branch and bound continues from a descent
        large = minimize_max_quadratic(random_cuts(10, 2, rng), SolveLimits(mode="exact"))
        assert large.restarts == bqp.RESTARTS

    def test_default_mode_resolves_per_n(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(233)
        called = []
        for name in ("_enumerate_master", "_heuristic", "_exact"):

            def spy(*args, _name=name, _real=getattr(bqp, name)):
                called.append(_name)
                return _real(*args)

            monkeypatch.setattr(bqp, name, spy)
        minimize_max_quadratic(random_cuts(8, 2, rng))
        minimize_max_quadratic(random_cuts(10, 2, rng))
        assert called == ["_enumerate_master", "_heuristic"]

    def test_warm_start_checked_in_every_mode(self):
        rng = np.random.default_rng(239)
        cuts = random_cuts(6, 1, rng)
        with pytest.raises(ValueError, match="balanced"):
            minimize_max_quadratic(
                cuts, SolveLimits(mode="exact"), warm_start=[1.0] * 5 + [-1.0]
            )


class TestHeuristic:
    def test_never_beats_exact_and_stays_feasible(self):
        rng = np.random.default_rng(53)
        for n, k in [(6, 1), (8, 2), (9, 2), (12, 3)]:
            cuts = random_cuts(n, k, rng)
            heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
            assert heur.value >= brute_value(cuts) - 1e-9
            assert heur.x_star.x[0] == 1
            assert abs(int(heur.x_star.x.sum())) <= 1
            assert heur.status in ("optimal", "incumbent")

    def test_seed_determinism(self):
        rng = np.random.default_rng(61)
        cuts = random_cuts(14, 2, rng)
        a = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=9))
        b = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=9))
        assert a.value == b.value
        assert a.x_star.x.tolist() == b.x_star.x.tolist()
        assert a.restarts >= 32

    def test_warm_start_accepted(self):
        rng = np.random.default_rng(67)
        cuts = random_cuts(8, 1, rng)
        warm = Allocation(np.array([1, -1, 1, -1, 1, -1, 1, -1]))
        res = minimize_max_quadratic(
            cuts, SolveLimits(mode="heuristic"), warm_start=warm
        )
        assert res.restarts == 33

    def test_warm_start_length_checked(self):
        rng = np.random.default_rng(71)
        cuts = random_cuts(8, 1, rng)
        with pytest.raises(ValueError, match="length"):
            minimize_max_quadratic(
                cuts, SolveLimits(mode="heuristic"), warm_start=[1.0, -1.0]
            )

    def test_warm_start_balance_checked(self):
        rng = np.random.default_rng(73)
        cuts = random_cuts(4, 1, rng)
        with pytest.raises(ValueError, match="balanced"):
            minimize_max_quadratic(
                cuts, SolveLimits(mode="heuristic"), warm_start=[1.0, 1.0, 1.0, -1.0]
            )


@pytest.mark.blas_bits
class TestRestarts:
    """One count of seeded descents at every n, plus the warm start."""

    @pytest.mark.parametrize("n", [40, 200, 600])
    def test_count_does_not_grow_with_n(self, n, monkeypatch):
        starts = []

        def stub(c, A, diag, X0, deadline):
            starts.extend(X0)
            return X0

        monkeypatch.setattr(bqp, "_descent", stub)
        cuts = CutSet(constants=np.zeros(1), matrices=np.eye(n)[None])
        cold = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert cold.restarts == len(starts) == bqp.RESTARTS == 32
        starts.clear()
        warm = np.tile([1, -1], n // 2)
        res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"), warm_start=warm)
        assert res.restarts == len(starts) == 33
        assert np.array_equal(starts[0], warm)

    @pytest.mark.parametrize("n, k, sizes", [
        (200, 1, [13, 13, 7]),
        (100, 4, [13, 13, 7]),
        (401, 1, [3] * 11),
        (600, 1, [1] * 33),
    ])
    def test_starts_run_in_order_in_block_sized_stacks(self, n, k, sizes, monkeypatch):
        # a stack's swap blocks hold about BLOCK_ENTRIES entries
        stacks = []
        descent = bqp._descent

        def spy(c, A, diag, X0, deadline):
            stacks.append(np.array(X0))
            return descent(c, A, diag, X0, deadline)

        monkeypatch.setattr(bqp, "_descent", spy)
        rng = np.random.default_rng(n + k)
        B = rng.normal(size=(k, n, 3))
        cuts = CutSet(constants=np.zeros(k), matrices=B @ B.transpose(0, 2, 1))
        warm = random_balanced_signs(n, rng)
        minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=5), warm_start=warm)
        assert [len(X) for X in stacks] == sizes
        # odd n descends on m = n + 1 subjects: the phantom comes last, at
        # minus the warm start's sum, and the starts are drawn at m
        m = n + n % 2
        seeded = np.random.default_rng(5)
        expected = [np.append(warm, -warm.sum())[:m]]
        expected += [random_balanced_signs(m, seeded) for _ in range(bqp.RESTARTS)]
        assert np.array_equal(np.concatenate(stacks), expected)


@pytest.mark.blas_bits
class TestExactCutValues:
    """The closing value's BLAS products agree with the 3-operand einsum."""

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    @pytest.mark.parametrize("n", [6, 7, 41, 200, 600])
    def test_matches_three_operand_einsum(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        B = rng.normal(size=(k, n, min(n, 40)))
        A = B @ B.transpose(0, 2, 1)
        c = rng.uniform(0.0, 1.0, size=k)
        for _ in range(3):
            x = rng.choice([-1.0, 1.0], size=n)
            np.testing.assert_allclose(
                bqp._exact_cut_values(c, A, x),
                c + np.einsum("kij,i,j->k", A, x, x),
                rtol=1e-12,
                atol=0.0,
            )


@pytest.mark.blas_bits
class TestIncumbentContinuation:
    """An exact solve past the cutover can continue from a heuristic result."""

    def test_continues_without_a_multi_start_rerun(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(257)
        cuts = random_cuts(14, 3, rng)
        heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert heur.status == "incumbent"
        fresh = minimize_max_quadratic(cuts, SolveLimits(mode="exact"), warm_start=heur.x_star)

        def forbidden(*args):
            raise AssertionError("the continued solve reran the multi-start descent")

        # the search's completions still descend, one start at a time
        monkeypatch.setattr(bqp, "_heuristic", forbidden)
        cont = minimize_max_quadratic(
            cuts, SolveLimits(mode="exact"), warm_start=heur.x_star, incumbent=heur
        )
        assert cont.x_star.x.tolist() == fresh.x_star.x.tolist()
        assert (cont.value, cont.lower_bound, cont.status, cont.nodes) == (
            fresh.value, fresh.lower_bound, fresh.status, fresh.nodes,
        )
        assert cont.nodes > 0
        assert (cont.restarts, fresh.restarts) == (0, 33)

    def test_only_branch_and_bound_takes_an_incumbent(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(263)
        small, large = random_cuts(8, 2, rng), random_cuts(10, 2, rng)
        heur = minimize_max_quadratic(large, SolveLimits(mode="heuristic"))
        for cuts, mode in ((large, "heuristic"), (small, "exact"), (large, "auto")):
            with pytest.raises(ValueError, match="incumbent"):
                minimize_max_quadratic(cuts, SolveLimits(mode=mode), incumbent=heur)
        with pytest.raises(ValueError, match="incumbent"):
            minimize_max_quadratic(
                random_cuts(12, 2, rng), SolveLimits(mode="exact"), incumbent=heur
            )


@pytest.mark.blas_bits
class TestDescentOracle:
    """Each row of a descent stack must end where the gather-based
    reference descent ends from it, bit for bit."""

    @staticmethod
    def padded(cuts: CutSet, X0: np.ndarray) -> tuple[np.ndarray, ...]:
        # odd n descends with the phantom subject last, at minus the sum
        if cuts.n % 2:
            cuts, X0 = bqp._with_phantom(cuts), np.column_stack([X0, -X0.sum(axis=1)])
        return cuts.matrices, cuts.diagonals, X0

    def run_stack(self, cuts: CutSet, X0: np.ndarray) -> np.ndarray:
        # the phantom is stripped before the rows are valued
        c, A = cuts.constants, cuts.matrices
        diag = np.einsum("kii->ki", A).copy()
        X = _descent(c, *self.padded(cuts, X0), np.inf)[:, : cuts.n]
        values = np.array([float(bqp._exact_cut_values(c, A, x).max()) for x in X])
        assert X.shape == X0.shape and values.shape == (len(X0),)
        for x0, x, value in zip(X0, X, values):
            x_ref, v_ref = naive_descent(c, A, diag, x0, np.inf)
            assert np.array_equal(x, x_ref)
            assert value == v_ref
        return X

    @staticmethod
    def starts(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.array([random_balanced_signs(n, rng) for _ in range(count)], dtype=float)

    def test_lb_matrix_with_exact_ties(self):
        # iid +/-1 covariates at p=4 give at most 8 distinct rows, so the
        # swap block is full of exact ties.  A tie only decides between
        # slots out of index order after a swap has been reversed, which
        # is rare; with this seed it happens (in the fourth descent), and
        # a "first slot wins" rule fails the test.
        rng = np.random.default_rng(118)
        H = random_design(200, 4, rng)
        assert np.unique(H, axis=0).shape[0] <= 8
        cuts = CutSet(constants=np.zeros(1), matrices=oracle_lb_matrix(H)[None])
        self.run_stack(cuts, self.starts(200, 13, rng))

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_random_psd_cuts(self, k):
        rng = np.random.default_rng(103 + k)
        cuts = random_cuts(40, k, rng)
        self.run_stack(cuts, self.starts(40, 6, rng))

    def test_odd_n_single_flips(self):
        # swaps of real subjects keep the sum; a final sum of the other
        # sign proves that a swap with the phantom, a single flip, happened
        rng = np.random.default_rng(107)
        for k in (1, 3, 5):
            flipped = 0
            for n in (31, 45, 61):
                cuts = random_cuts(n, k, rng)
                X0 = self.starts(n, 8, rng)
                X = self.run_stack(cuts, X0)
                flipped += int(np.count_nonzero(X.sum(axis=1) != X0.sum(axis=1)))
            assert flipped > 0

    def test_rows_stop_in_different_rounds(self, monkeypatch):
        # the stack runs until its longest descent stops; one start sits at
        # its own fixed point, so it leaves in the first round
        rng = np.random.default_rng(113)
        cuts = random_cuts(60, 2, rng)
        X0 = self.starts(60, 7, rng)
        X0[3] = self.run_stack(cuts, X0[3:4])[0]
        reads = []

        class Clock:
            @staticmethod
            def monotonic():
                reads.append(1)
                return 0.0

        monkeypatch.setattr(bqp, "time", Clock)
        rounds = []
        for x0 in X0:
            reads.clear()
            self.run_stack(cuts, x0[None])
            rounds.append(len(reads))
        reads.clear()
        self.run_stack(cuts, X0)
        assert rounds[3] == 1
        assert len(set(rounds)) > 2
        # the deadline is read once per round
        assert len(reads) == max(rounds)

    def test_warm_start(self):
        rng = np.random.default_rng(109)
        H = random_design(120, 5, rng)
        cuts = CutSet(constants=np.zeros(1), matrices=oracle_lb_matrix(H)[None])
        X0 = np.vstack([np.tile([1.0, -1.0], 60), self.starts(120, 4, rng)])
        X = self.run_stack(cuts, X0)
        # a descent from its own fixed point makes no move, alone or stacked
        assert np.array_equal(self.run_stack(cuts, X), X)
        assert np.array_equal(self.run_stack(cuts, X[:1]), X[:1])

    @pytest.mark.parametrize("n", [40, 41])
    def test_stack_of_one(self, n):
        rng = np.random.default_rng(127 + n)
        cuts = random_cuts(n, 2, rng)
        for _ in range(3):
            self.run_stack(cuts, self.starts(n, 1, rng))

    @pytest.mark.parametrize("count", [1, 5])
    def test_expired_deadline_returns_every_start_unmoved(self, count):
        rng = np.random.default_rng(131)
        cuts = random_cuts(41, 3, rng)
        c, A = cuts.constants, cuts.matrices
        X0 = self.starts(41, count, rng)
        padded = self.padded(cuts, X0)
        X = _descent(c, *padded, time.monotonic() - 1.0)
        assert np.array_equal(X, padded[2])
        X = X[:, :41]
        values = np.array([float(bqp._exact_cut_values(c, A, x).max()) for x in X])
        assert np.array_equal(X, X0)
        assert values.tolist() == [float(bqp._exact_cut_values(c, A, x).max()) for x in X0]



@pytest.mark.blas_bits
class TestPhantom:
    """Odd n descends on n + 1 subjects, and the heuristic reports the
    real problem's allocation and value."""

    @pytest.mark.parametrize("n", [31, 40, 45, 61])
    def test_value_is_the_allocations_exact_value(self, n):
        rng = np.random.default_rng(137 + n)
        for k in (1, 3):
            cuts = random_cuts(n, k, rng)
            res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
            x = res.x_star.x.astype(float)
            assert res.value == float(
                bqp._exact_cut_values(cuts.constants, cuts.matrices, x).max()
            )

    @pytest.mark.parametrize("n", [15, 21, 31])
    def test_tied_cuts_end_balanced_with_no_improving_move(self, n):
        # integer values: every improvement is at least 1, far above the
        # descent's tolerance, and every tie is exact
        rng = np.random.default_rng(139 + n)
        for k in (1, 2, 4):
            cuts = integer_cuts(n, k, rng)
            c, A = cuts.constants, cuts.matrices
            res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=k))
            again = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=k))
            assert again.x_star.x.tolist() == res.x_star.x.tolist()
            assert again.value == res.value
            x = res.x_star.x.astype(float)
            assert abs(x.sum()) == 1
            # every swap, and every flip from the larger arm
            moves = [(i, j) for i in np.flatnonzero(x > 0) for j in np.flatnonzero(x < 0)]
            moves += [(i,) for i in np.flatnonzero(x == np.sign(x.sum()))]
            Y = np.tile(x, (len(moves), 1))
            for y, move in zip(Y, moves):
                y[list(move)] *= -1.0
            assert np.all(np.abs(Y.sum(axis=1)) == 1)
            values = (c + np.einsum("mi,kij,mj->mk", Y, A, Y)).max(axis=1)
            assert values.min() >= res.value

    @pytest.mark.parametrize("n", [31, 45])
    def test_stacks_of_one_match_the_reference(self, n, monkeypatch):
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", 1)
        descent = bqp._descent
        runs = []

        def spy(c, A, diag, X0, deadline):
            X = descent(c, A, diag, X0, deadline)
            runs.append((np.array(X0), X))
            return X

        monkeypatch.setattr(bqp, "_descent", spy)
        rng = np.random.default_rng(149 + n)
        cuts = random_cuts(n, 2, rng)
        c, A, diag = cuts.constants, cuts.matrices, cuts.diagonals
        res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=3))
        assert len(runs) == bqp.RESTARTS
        ref_values = []
        for X0, X in runs:
            assert X0.shape == X.shape == (1, n + 1)
            x_ref, v_ref = naive_descent(c, A, diag, X0[0, :n], np.inf)
            assert np.array_equal(X[0, :n], x_ref)
            ref_values.append(v_ref)
        assert res.value == min(ref_values)

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_every_method_solves_the_real_problem(self, n, monkeypatch):
        # the masters run on n + 1 subjects; integer cuts make every value
        # exact and put every other allocation at least 1 from the optimum
        rng = np.random.default_rng(157 + n)
        eps = SolveLimits().epsilon
        nodes = 0
        for cuts in (integer_cuts(n, 2, rng), random_cuts(n, 1, rng), random_cuts(n, 3, rng)):
            c, A = cuts.constants, cuts.matrices
            opt = brute_value(cuts)
            integer = float(opt).is_integer()
            enum = minimize_max_quadratic(cuts, SolveLimits(mode="exact"))
            heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
            bnb = exact_branch_and_bound(cuts, SolveLimits(mode="exact"))
            for res in (enum, heur, bnb):
                x = res.x_star.x
                assert x.size == n and abs(int(x.sum())) == 1
                assert res.value == float(bqp._exact_cut_values(c, A, x.astype(float)).max())
                assert res.lower_bound <= opt + 1e-9
            assert enum.status == bnb.status == "optimal"
            if integer:
                assert enum.value == bnb.value == opt
            else:
                assert enum.value == pytest.approx(opt, rel=1e-12)
                assert opt - 1e-12 <= bnb.value <= opt + eps
            nodes += bnb.nodes
            # an odd-n incumbent gains the phantom as a warm start does
            limits = SolveLimits(mode="exact")
            with monkeypatch.context() as m:
                m.setattr(bqp, "ENUM_MAX_N", 1)
                fresh = minimize_max_quadratic(cuts, limits, warm_start=heur.x_star)
                cont = minimize_max_quadratic(cuts, limits, warm_start=heur.x_star, incumbent=heur)
            assert cont.x_star.x.tolist() == fresh.x_star.x.tolist()
            assert (cont.value, cont.lower_bound, cont.status, cont.nodes) == (
                fresh.value, fresh.lower_bound, fresh.status, fresh.nodes,
            )
            # no multi-start rerun
            assert cont.restarts == 0
        # the padded tree was searched, not only certified at its root
        assert nodes > 0


class TestNodeBounds:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(6, 13),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
        data=st.data(),
    )
    def test_relaxation_bounds_stay_below_subcube_minimum(self, n, k, seed, integer, data):
        # a node's interval bound on each cut must not exceed that cut's
        # minimum over the node's balanced completions; odd n is searched
        # with the phantom subject
        rng = np.random.default_rng(seed)
        cuts = integer_cuts(n, k, rng) if integer else random_cuts(n, k, rng)
        if n % 2:
            cuts = bqp._with_phantom(cuts)
        c, A = cuts.constants, cuts.matrices
        order, tail = bqp._interval_tables(cuts)
        assert order[0] == 0 and sorted(order) == list(range(cuts.n))
        corners = balanced_corners(cuts.n)
        corners = corners[corners[:, 0] > 0]
        x = corners[data.draw(st.integers(0, len(corners) - 1))]
        d = data.draw(st.integers(1, cuts.n))
        prefix = order[:d]
        sub = corners[np.all(corners[:, prefix] == x[prefix], axis=1)]
        true_min = (c + np.einsum("mi,kij,mj->mk", sub, A, sub)).min(axis=0)
        xf = np.zeros(cuts.n)
        xf[prefix] = x[prefix]
        bound = c + np.einsum("kij,i,j->k", A, xf, xf) + tail[:, d]
        assert np.all(bound <= true_min + 1e-9 * (1.0 + np.abs(true_min)))


class TestOpenList:
    def test_depth_first_memory_does_not_grow_with_nodes(self, monkeypatch):
        # the stack holds at most one sibling per depth, each entry O(Kn),
        # so 2,000 nodes at n = 60 peak near 0.1 MB; a best-first heap of
        # the same nodes held about 5 MB
        rng = np.random.default_rng(271)
        cuts = random_cuts(60, 3, rng)
        heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert heur.status == "incumbent"
        # completions stay as built, which keeps the search fast
        monkeypatch.setattr(bqp, "_descent", lambda c, A, diag, X0, deadline: X0)
        limits = SolveLimits(mode="exact", node_limit=2000)
        tracemalloc.start()
        try:
            res = minimize_max_quadratic(cuts, limits, incumbent=heur)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.status, res.nodes) == ("incumbent", 2000)
        assert peak < 500_000
