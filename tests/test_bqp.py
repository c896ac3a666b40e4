import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    balanced_corners,
    brute_max_quadratic,
    brute_min_max_cuts,
    naive_descent,
    naive_master_branch_and_bound,
    naive_walk,
    oracle_lb_matrix,
    random_design,
)
from trialdesign import bqp, cutting_plane, lower_bound
from trialdesign.bqp import (
    BqpResult,
    CutSet,
    _descent,
    minimize_max_quadratic,
)
from trialdesign.inner_max import InnerMaxProblem, solve_inner_max
from trialdesign.limits import SolveLimits
from trialdesign.objective import Allocation, CovariateSpace, random_balanced_signs


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

    def test_rejects_zero_subjects(self):
        with pytest.raises(ValueError, match="cuts need at least one subject"):
            CutSet(constants=np.zeros(1), matrices=np.zeros((1, 0, 0)))

    @pytest.mark.parametrize("n, k", [(5, 8), (60, 3), (200, 2)])
    def test_stacked_spectrum_matches_each_cut(self, monkeypatch, n, k):
        # every cut goes to one stacked eigvalsh; each cut alone gives the
        # same bits
        source = random_cuts(n, k, np.random.default_rng(n))
        stacked = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            stacked.append(eigvalsh(a))
            return stacked[-1]

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", spy)
            CutSet(constants=source.constants, matrices=source.matrices)
        assert len(stacked) == 1 and stacked[0].shape == (k, n)
        for A, spectrum in zip(source.matrices, stacked[0]):
            assert np.array_equal(spectrum, np.linalg.eigvalsh(A))

    @pytest.mark.parametrize("low, accepted", [(-0.6, True), (-0.999, True), (-1.5, False)])
    def test_accepts_eigenvalues_down_to_the_tolerance(self, low, accepted):
        # the eigenvalue test accepts a smallest eigenvalue down to
        # -CUT_PSD_ATOL and rejects one below it
        Q, _ = np.linalg.qr(np.random.default_rng(13).normal(size=(6, 6)))
        spectrum = np.array([low * bqp.CUT_PSD_ATOL, 0.0, 1.0, 1.0, 2.0, 3.0])
        bad = (Q * spectrum) @ Q.T
        mats = np.stack([np.eye(6), bad])
        if accepted:
            CutSet(constants=np.zeros(2), matrices=mats)
        else:
            with pytest.raises(ValueError, match=r"cut 1 is not PSD: smallest eigenvalue -1\.5"):
                CutSet(constants=np.zeros(2), matrices=mats)

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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.blas_bits
class TestBuiltCuts:
    """The cut sets the solvers build skip CutSet's check, so the checked
    constructor is their oracle: it must accept each of them and keep
    every bit."""

    @staticmethod
    def assert_passes_the_check(cuts: CutSet) -> None:
        checked = CutSet(constants=cuts.constants, matrices=cuts.matrices)
        assert same_bits(checked.matrices, cuts.matrices)
        assert same_bits(checked.diagonals, cuts.diagonals)
        assert same_bits(checked.root_bound, cuts.root_bound)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(6, 40),
        p=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        rows=st.booleans(),
        mode=st.sampled_from(["auto", "heuristic"]),
    )
    def test_exact_masters_get_checked_bits(self, n, p, seed, rows, mode):
        # even and odd n; with ENUM_MAX_N = 12, auto descends past n = 12
        # and continues an uncertified descent by branch and bound
        H = random_design(n, p, np.random.default_rng(seed))
        masters, padded = [], []
        solve = bqp._solve

        def spy(cuts, limits, warm_start=None, incumbent=None):
            masters.append(cuts)
            return bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)

        def spy_solve(method, cuts, *args):
            padded.append(cuts)
            return solve(method, cuts, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bqp, "ENUM_MAX_N", 12)
            patch.setattr(bqp, "_solve", spy_solve)
            patch.setattr(cutting_plane, "minimize_max_quadratic", spy)
            cutting_plane.solve_exact(
                H, SolveLimits(mode=mode, node_limit=200),
                CovariateSpace.rows() if rows else None,
            )
        assert masters and len(padded) == len(masters)
        for cuts in masters:
            self.assert_passes_the_check(cuts)
        for cuts, real in zip(padded, masters):
            # the phantom's cuts keep the real cuts' root bound
            assert cuts.n == n + n % 2
            checked = CutSet(constants=cuts.constants, matrices=cuts.matrices)
            assert same_bits(checked.matrices, cuts.matrices)
            assert same_bits(checked.diagonals, cuts.diagonals)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 80), p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_lb_master_gets_checked_bits_without_a_copy(self, n, p, seed):
        H = random_design(n, p, np.random.default_rng(seed))
        built, masters = [], []

        def spy_lb_matrix(F):
            built.append(bqp_lb_matrix(F))
            return built[-1]

        def spy(cuts, limits, warm_start=None, incumbent=None):
            masters.append(cuts)
            return bqp.minimize_max_quadratic(cuts, limits, warm_start, incumbent)

        bqp_lb_matrix = lower_bound.lb_matrix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lower_bound, "lb_matrix", spy_lb_matrix)
            patch.setattr(lower_bound, "minimize_max_quadratic", spy)
            lower_bound.solve_lb(H)
        (cuts,) = masters
        self.assert_passes_the_check(cuts)
        # the cut is the lb_matrix array itself: no second n x n copy
        (Q,) = built
        assert np.shares_memory(cuts.matrices, Q)


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
    """A master past the enumeration cutover, continued: the descent and
    its root test, then an exact-mode solve with that result as its
    incumbent."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bqp, "ENUM_MAX_N", 1)
        seed = minimize_max_quadratic(cuts, replace(limits, mode="heuristic"), warm_start)
        return minimize_max_quadratic(cuts, limits, incumbent=seed)


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
        for mode in ("auto", "exact"):
            assert (bqp.resolve_mode(8, mode), bqp.resolve_mode(9, mode)) == ("exact", "heuristic")
        assert bqp.resolve_mode(8, "heuristic") == "heuristic"
        assert bqp.solver_method(8, "exact") == "enumeration"
        assert bqp.solver_method(9, "exact") == "branch_and_bound"
        assert bqp.solver_method(8, "heuristic") == "descent"
        small = minimize_max_quadratic(random_cuts(8, 2, rng), SolveLimits(mode="exact"))
        assert small.restarts == 0
        # past the cutover exact mode is the descent and its root test,
        # which does not certify these cuts
        cuts = random_cuts(10, 2, rng)
        large = minimize_max_quadratic(cuts, SolveLimits(mode="exact"))
        heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert (large.status, large.nodes, large.restarts) == ("incumbent", 0, bqp.RESTARTS)
        assert large.x_star.x.tolist() == heur.x_star.x.tolist()
        assert (large.value, large.lower_bound) == (heur.value, heur.lower_bound)

    def test_exact_mode_runs_no_search_without_an_incumbent(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(234)

        def forbidden(*args):
            raise AssertionError("an exact solve without an incumbent ran the branch and bound")

        monkeypatch.setattr(bqp, "_exact", forbidden)
        for n, k in [(10, 2), (11, 3), (14, 3), (40, 2)]:
            res = minimize_max_quadratic(random_cuts(n, k, rng), SolveLimits(mode="exact"))
            assert (res.status, res.nodes) == ("incumbent", 0)

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
        (401, 1, [1] * 33),
        (600, 1, [1] * 33),
        (400, 1, [1] * 33),
    ])
    def test_starts_run_in_order_in_block_sized_stacks(self, n, k, sizes, monkeypatch):
        # a stack's swap blocks hold about BLOCK_ENTRIES entries; from
        # n = 295 a stack holds one start
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
        if sizes[1] == 1:
            # stacks of one walk their cold starts, each from its own
            # seeded permutation; odd n walks the padded cuts
            walked = bqp._with_phantom(cuts) if n % 2 else cuts
            orders = [seeded.permutation(m) for _ in range(bqp.RESTARTS)]
            expected += [naive_walk(walked.constants, walked.matrices, o) for o in orders]
        else:
            expected += [random_balanced_signs(m, seeded) for _ in range(bqp.RESTARTS)]
        assert np.array_equal(np.concatenate(stacks), expected)


class TestStackSize:
    """Stacks fill BLOCK_ENTRIES, except that a stack holds one start
    where one-cut stacks would hold fewer than LONE_STACK_BELOW."""

    @pytest.mark.parametrize("n, k, size", [
        # the workloads' shapes: cohort and LB at n = 200, exact's n = 100
        # masters, lb-large
        (200, 1, 13),
        (100, 4, 13),
        (400, 1, 1),
        (600, 1, 1),
        # either side of the lone rule with one cut
        (294, 1, 6),
        (296, 1, 1),
        # more cuts shrink a stack but cannot make it lone below n = 295
        (100, 10, 5),
        (100, 26, 2),
        (240, 4, 2),
        # ... nor keep it stacked above
        (296, 2, 1),
        # K cuts that fill BLOCK_ENTRIES alone
        (200, 14, 1),
    ])
    def test_rule(self, n, k, size):
        cuts = CutSet(constants=np.zeros(k), matrices=np.zeros((k, n, n)))
        assert bqp._stack_size(cuts) == size

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("n, k", [(296, 1), (300, 2)])
    def test_lone_stacks_walk_then_descend_like_the_references(self, n, k, monkeypatch):
        # the rule itself, not a patched BLOCK_ENTRIES, makes stacks of one
        descent = bqp._descent
        starts = []

        def spy(c, A, diag, X0, deadline):
            starts.append(np.array(X0))
            return descent(c, A, diag, X0, deadline)

        monkeypatch.setattr(bqp, "_descent", spy)
        rng = np.random.default_rng(211 + n + k)
        B = rng.normal(size=(k, n, 6))
        cuts = CutSet(constants=rng.normal(size=k), matrices=B @ B.transpose(0, 2, 1))
        c, A, diag = cuts.constants, cuts.matrices, cuts.diagonals
        assert bqp._stack_size(cuts) == 1
        res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=6))
        assert [len(X0) for X0 in starts] == [1] * bqp.RESTARTS
        seeded = np.random.default_rng(6)
        ref_values = []
        for X0 in starts:
            x0 = naive_walk(c, A, seeded.permutation(n))
            assert np.array_equal(X0[0], x0)
            ref_values.append(naive_descent(c, A, diag, x0, np.inf)[1])
        assert res.value == min(ref_values)


class TestWalk:
    """Where a descent stack holds one start, the cold starts come from the
    greedy pair walk; each must be the one-start reference's."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(8, 60),
        k=st.integers(1, 4),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_walk_matches_the_reference(self, n, k, integer, seed):
        # integer cuts tie often and exactly; odd n walks the padded cuts
        rng = np.random.default_rng(seed)
        cuts = (integer_cuts if integer else random_cuts)(n, k, rng)
        if n % 2:
            cuts = bqp._with_phantom(cuts)
        c, A = cuts.constants, cuts.matrices
        orders = np.array([rng.permutation(cuts.n) for _ in range(5)])
        X = bqp._walk(c, A, cuts.diagonals, orders)
        assert X.shape == orders.shape
        for x, order in zip(X, orders):
            assert np.array_equal(x, naive_walk(c, A, order))
        assert np.all(np.abs(X) == 1.0) and np.all(X.sum(axis=1) == 0.0)
        # the first pair, walked from nothing, always ties
        assert np.all(X[np.arange(len(X)), orders[:, 0]] == 1.0)

    @pytest.mark.blas_bits
    @pytest.mark.parametrize("n, k", [(40, 1), (60, 3)])
    def test_stack_of_one_walks_then_descends_like_the_references(self, n, k, monkeypatch):
        # one start per descent stack and per walk block; odd n is
        # TestPhantom's
        monkeypatch.setattr(bqp, "BLOCK_ENTRIES", 1)
        descent = bqp._descent
        starts = []

        def spy(c, A, diag, X0, deadline):
            starts.append(np.array(X0))
            return descent(c, A, diag, X0, deadline)

        monkeypatch.setattr(bqp, "_descent", spy)
        rng = np.random.default_rng(163 + n)
        cuts = random_cuts(n, k, rng)
        c, A, diag = cuts.constants, cuts.matrices, cuts.diagonals
        res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=4))
        assert [len(X0) for X0 in starts] == [1] * bqp.RESTARTS
        seeded = np.random.default_rng(4)
        ref_values = []
        for X0 in starts:
            x0 = naive_walk(c, A, seeded.permutation(n))
            assert np.array_equal(X0[0], x0)
            ref_values.append(naive_descent(c, A, diag, x0, np.inf)[1])
        assert res.value == min(ref_values)
        # a seed reproduces its starts
        first = np.concatenate(starts)
        starts.clear()
        again = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic", seed=4))
        assert np.array_equal(np.concatenate(starts), first)
        assert again.x_star.x.tolist() == res.x_star.x.tolist()


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
    """Past the cutover, an exact-mode solve given a heuristic result as
    its incumbent continues it by branch and bound; no other solve does."""

    def test_continues_without_a_multi_start_rerun(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(257)
        cuts = random_cuts(14, 3, rng)
        limits = SolveLimits(mode="exact")
        heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert heur.status == "incumbent"

        def forbidden(*args):
            raise AssertionError("the continued solve reran the multi-start descent")

        # the search's completions still descend
        monkeypatch.setattr(bqp, "_heuristic", forbidden)
        cont = minimize_max_quadratic(cuts, limits, incumbent=heur)
        ref = naive_master_branch_and_bound(cuts, limits, heur, np.inf)
        assert cont.x_star.x.tolist() == ref.x_star.x.tolist()
        assert (cont.value, cont.lower_bound, cont.status, cont.nodes) == (
            ref.value, ref.lower_bound, ref.status, ref.nodes,
        )
        assert cont.nodes > 0 and cont.restarts == 0

    def test_only_branch_and_bound_takes_an_incumbent(self, monkeypatch):
        # under auto, which exact mode equals in every solve without an
        # incumbent, and at or below the cutover, an incumbent is refused
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
        cont = minimize_max_quadratic(large, SolveLimits(mode="exact"), incumbent=heur)
        assert heur.status == "incumbent" and cont.nodes > 0


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
        # stacks of one walk their starts on the padded cuts
        padded, seeded = bqp._with_phantom(cuts), np.random.default_rng(3)
        ref_values = []
        for X0, X in runs:
            assert X0.shape == X.shape == (1, n + 1)
            order = seeded.permutation(n + 1)
            assert np.array_equal(X0[0], naive_walk(padded.constants, padded.matrices, order))
            x_ref, v_ref = naive_descent(c, A, diag, X0[0, :n], np.inf)
            assert np.array_equal(X[0, :n], x_ref)
            ref_values.append(v_ref)
        assert res.value == min(ref_values)

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_every_method_solves_the_real_problem(self, n):
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
            # bnb continued heur: an odd-n incumbent gains the phantom's
            # entry -sum x, and the search runs on the padded cuts
            x = heur.x_star.x
            seed = replace(heur, x_star=Allocation(np.append(x, -x.sum())))
            ref = naive_master_branch_and_bound(
                bqp._with_phantom(cuts), SolveLimits(mode="exact"), seed, np.inf
            )
            assert bnb.x_star.x.tolist() == ref.x_star.x[:n].tolist()
            assert (bnb.status, bnb.nodes, bnb.restarts) == (ref.status, ref.nodes, 0)
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


@pytest.mark.blas_bits
class TestLookAheadStacks:
    """The branch and bound descends its completions in look-ahead
    stacks, and must end where one descent per kept child ends."""

    @staticmethod
    def forced(n: int, k: int, seed: int, integer: bool, node_limit: int, weak: bool = False):
        # the cuts and seed of an exact master past the cutover: the
        # multi-start descent, or with weak, one random undescended
        # allocation, which completions then improve often.  Odd n runs
        # on the phantom-padded cuts, as in the solver
        rng = np.random.default_rng(seed)
        cuts = integer_cuts(n, k, rng) if integer else random_cuts(n, k, rng)
        if n % 2:
            cuts = bqp._with_phantom(cuts)
        limits = SolveLimits(mode="exact", node_limit=node_limit)
        if not weak:
            return cuts, limits, bqp._heuristic(cuts, limits, None)
        x = random_balanced_signs(cuts.n, rng)
        value = float(bqp._exact_cut_values(cuts.constants, cuts.matrices, x).max())
        start = BqpResult(
            x_star=Allocation(x.astype(np.int64)), value=value,
            lower_bound=min(value, cuts.root_bound), status="incumbent", nodes=0, restarts=0,
        )
        return cuts, limits, start

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 40),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
        node_limit=st.integers(1, 300),
        stack=st.sampled_from([None, 1, 2, 5]),
        weak=st.booleans(),
    )
    def test_matches_one_descent_per_kept_child(
        self, n, k, seed, integer, node_limit, stack, weak
    ):
        # stack: rows per look-ahead stack, or None for the block rule,
        # which at these n puts most searches in one or two stacks
        cuts, limits, start = self.forced(n, k, seed, integer, node_limit, weak)
        with pytest.MonkeyPatch.context() as patch:
            if stack is not None:
                patch.setattr(bqp, "_stack_size", lambda cuts: stack)
            res = bqp._exact(cuts, limits, start, np.inf)
        ref = naive_master_branch_and_bound(cuts, limits, start, np.inf)
        assert res.x_star.x.tolist() == ref.x_star.x.tolist()
        assert (res.value, res.lower_bound, res.status, res.nodes) == (
            ref.value, ref.lower_bound, ref.status, ref.nodes,
        )

    @pytest.mark.parametrize(
        "n, k, integer, stack",
        [(30, 1, False, 3), (41, 3, False, None), (36, 2, True, 3), (60, 4, True, None)],
    )
    def test_stacks_hold_distinct_starts_the_cache_lacks(self, n, k, integer, stack, monkeypatch):
        cuts, limits, start = self.forced(n, k, 281 + n, integer, 300)
        if stack is not None:
            monkeypatch.setattr(bqp, "_stack_size", lambda cuts: stack)
        descent = bqp._descent
        stacks = []

        def spy(c, A, diag, X0, deadline):
            stacks.append({x.tobytes() for x in X0})
            assert len(stacks[-1]) == len(X0)
            return descent(c, A, diag, X0, deadline)

        monkeypatch.setattr(bqp, "_descent", spy)
        res = bqp._exact(cuts, limits, start, np.inf)
        ours = stacks.copy()
        stacks.clear()
        ref = naive_master_branch_and_bound(cuts, limits, start, np.inf)
        assert res.nodes == ref.nodes > 0
        # stacks of at most R rows, fewer calls than one per kept child,
        # and no start of the latest stack descends again
        assert 0 < len(ours) < len(stacks)
        assert max(map(len, ours)) <= bqp._stack_size(cuts)
        for before, after in zip(ours, ours[1:]):
            assert not before & after


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
