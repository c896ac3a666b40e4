import time

import numpy as np
import pytest

from conftest import (
    balanced_corners,
    brute_max_quadratic,
    brute_min_max_cuts,
    naive_batched_pg,
    naive_descent,
    naive_project_rows,
    oracle_lb_matrix,
    random_design,
)
from trialdesign import bqp
from trialdesign.bqp import (
    BqpResult,
    CutSet,
    _batched_pg,
    _BoxSumProjector,
    _descent,
    _root_bound,
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

    def test_keeps_spectrum_top_and_diagonals(self):
        rng = np.random.default_rng(3)
        cuts = random_cuts(9, 3, rng)
        for k, A in enumerate(cuts.matrices):
            assert cuts.lambda_max[k] == np.linalg.eigvalsh(A)[-1]
            assert cuts.diagonals[k].tolist() == np.diag(A).tolist()
        for arr in (cuts.lambda_max, cuts.diagonals):
            with pytest.raises(ValueError):
                arr[0] = 0.0

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
    def test_stacked_spectrum_matches_each_cut(self, n, k):
        # the check runs one stacked eigvalsh; each cut alone gives the same bits
        cuts = random_cuts(n, k, np.random.default_rng(n))
        for A, top in zip(cuts.matrices, cuts.lambda_max):
            assert top == np.linalg.eigvalsh(A)[-1]

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


class TestResult:
    def test_rejects_value_below_bound(self):
        alloc = Allocation(np.array([1, -1]))
        with pytest.raises(ValueError, match="below"):
            BqpResult(
                x_star=alloc, value=0.0, lower_bound=1.0,
                status="optimal", nodes=0, restarts=0, gap=0.0,
            )

    def test_rejects_unknown_status(self):
        alloc = Allocation(np.array([1, -1]))
        with pytest.raises(ValueError, match="status"):
            BqpResult(
                x_star=alloc, value=1.0, lower_bound=0.0,
                status="done", nodes=0, restarts=0, gap=1.0,
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
            root = _root_bound(cuts)
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

        def stub(c, A, diag, x0, deadline):
            starts.append(x0)
            return x0, float(bqp._exact_cut_values(c, A, x0).max())

        monkeypatch.setattr(bqp, "_descent", stub)
        cuts = CutSet(constants=np.zeros(1), matrices=np.eye(n)[None])
        cold = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert cold.restarts == len(starts) == bqp.RESTARTS == 32
        starts.clear()
        warm = np.tile([1, -1], n // 2)
        res = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"), warm_start=warm)
        assert res.restarts == len(starts) == 33
        assert np.array_equal(starts[0], warm)


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

    def test_continues_without_a_descent(self, monkeypatch):
        monkeypatch.setattr(bqp, "ENUM_MAX_N", 8)
        rng = np.random.default_rng(257)
        cuts = random_cuts(14, 3, rng)
        heur = minimize_max_quadratic(cuts, SolveLimits(mode="heuristic"))
        assert heur.status == "incumbent"
        fresh = minimize_max_quadratic(cuts, SolveLimits(mode="exact"), warm_start=heur.x_star)

        def forbidden(*args):
            raise AssertionError("the continued solve ran a descent")

        monkeypatch.setattr(bqp, "_descent", forbidden)
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
    """The slot-indexed descent must match the gather-based one bit for bit."""

    @staticmethod
    def run_both(cuts: CutSet, x0: np.ndarray) -> np.ndarray:
        c, A = cuts.constants, cuts.matrices
        diag = np.einsum("kii->ki", A).copy()
        x_new, v_new = _descent(c, A, diag, x0, np.inf)
        x_old, v_old = naive_descent(c, A, diag, x0, np.inf)
        assert np.array_equal(x_new, x_old)
        assert v_new == v_old
        return x_new

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
        for _ in range(4):
            self.run_both(cuts, random_balanced_signs(200, rng).astype(float))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_random_psd_cuts(self, k):
        rng = np.random.default_rng(103 + k)
        cuts = random_cuts(40, k, rng)
        for _ in range(3):
            self.run_both(cuts, random_balanced_signs(40, rng).astype(float))

    def test_odd_n_single_flips(self):
        # swaps keep the sum; a final sum of the other sign proves that a
        # single flip (and so a block rebuild) happened
        rng = np.random.default_rng(107)
        flipped = 0
        for n, k in [(31, 1), (31, 2), (45, 3), (61, 1)]:
            cuts = random_cuts(n, k, rng)
            for _ in range(4):
                x0 = random_balanced_signs(n, rng).astype(float)
                x = self.run_both(cuts, x0)
                flipped += int(x.sum() != x0.sum())
        assert flipped > 0

    def test_warm_start(self):
        rng = np.random.default_rng(109)
        H = random_design(120, 5, rng)
        cuts = CutSet(constants=np.zeros(1), matrices=oracle_lb_matrix(H)[None])
        warm = np.tile([1.0, -1.0], 60)
        x = self.run_both(cuts, warm)
        # a descent from its own fixed point makes no move
        assert np.array_equal(self.run_both(cuts, x), x)


class TestNodeBounds:
    def test_relaxation_bounds_stay_below_subcube_minimum(self):
        # the node bound must under-estimate the best balanced completion
        rng = np.random.default_rng(83)
        deadline = time.monotonic() + 30.0
        for _ in range(20):
            n, k = 10, int(rng.integers(1, 4))
            cuts = random_cuts(n, k, rng)
            c, A = cuts.constants, cuts.matrices

            source = rng.permutation(np.repeat([1.0, -1.0], n // 2))
            fixed = np.zeros(n, dtype=np.int8)
            nfix = int(rng.integers(2, 6))
            fixed[:nfix] = source[:nfix].astype(np.int8)

            corners = balanced_corners(n)
            mask = np.all(corners[:, :nfix] == source[:nfix], axis=1)
            true_min = brute_min_max_cuts(c, A, corners[mask])

            xf = fixed.astype(float)
            free = fixed == 0
            L = np.tile(np.where(free, -1.0, xf), (k, 1))
            U = np.tile(np.where(free, 1.0, xf), (k, 1))
            step = 1.0 / (2.0 * max(np.linalg.eigvalsh(A[j])[-1] for j in range(k)))
            _, pg = _batched_pg(
                c, A, np.tile(source, (k, 1)), L, U, 0, 0, step, deadline
            )
            assert float(pg.max()) <= true_min + 1e-8


def pinned_box(n: int, k: int, nfix: int, rng: np.random.Generator):
    """Per-row bounds of a branch node: nfix coordinates pinned to balanced signs."""
    source = rng.permutation(np.resize([1.0, -1.0], n))
    pinned = rng.permutation(n)[:nfix]
    l, u = np.full(n, -1.0), np.full(n, 1.0)
    l[pinned] = u[pinned] = source[pinned]
    return np.tile(l, (k, 1)), np.tile(u, (k, 1)), source, pinned


class TestProjectionOracle:
    """The set-up-once projector must match the plain sorted sweep bit for bit."""

    @pytest.mark.parametrize(
        "rows, n, lo, hi",
        [(4, 12, 0, 0), (6, 13, -1, 1), (1, 2, 0, 0), (3, 600, 0, 0), (2, 601, -1, 1)],
    )
    def test_random_rows(self, rows, n, lo, hi):
        rng = np.random.default_rng(1000 * rows + n)
        for trial in range(40):
            L, U, _, _ = pinned_box(n, rows, int(rng.integers(0, n // 2 + 1)), rng)
            proj = _BoxSumProjector(L, U, lo, hi, rows)
            # one projector serves many calls, as in a gradient run
            for scale in (0.3, 1.0, 4.0):
                V = rng.normal(scale=scale, size=(rows, n))
                if trial % 4 == 1:
                    # some rows already feasible, so only the rest are swept
                    V[::2] = naive_project_rows(V[::2], L[::2], U[::2], lo, hi)
                assert np.array_equal(proj(V), naive_project_rows(V, L, U, lo, hi))

    def test_feasible_rows_pass_through(self):
        rng = np.random.default_rng(7)
        L, U = np.full((3, 10), -1.0), np.full((3, 10), 1.0)
        V = naive_project_rows(rng.normal(size=(3, 10)), L, U, 0, 0)
        out = _BoxSumProjector(L, U, 0, 0, 3)(V)
        assert np.array_equal(out, V)

    def test_infeasible_rows_match(self):
        # pins summing past hi leave no feasible point; the sweep then
        # shifts from its first knot, and both versions must agree on it
        rng = np.random.default_rng(13)
        L, U = np.full((2, 8), -1.0), np.full((2, 8), 1.0)
        L[:, :5] = U[:, :5] = 1.0
        V = rng.normal(size=(2, 8))
        out = _BoxSumProjector(L, U, 0, 0, 2)(V)
        assert np.array_equal(out, naive_project_rows(V, L, U, 0, 0))

    def test_shared_bounds_broadcast(self):
        # one (n,) box serves every row
        rng = np.random.default_rng(11)
        l, u = np.full(9, -1.0), np.full(9, 1.0)
        V = rng.normal(scale=2.0, size=(4, 9))
        out = _BoxSumProjector(l, u, -1, 1, 4)(V)
        assert np.array_equal(out, naive_project_rows(V, l, u, -1, 1))


class TestRelaxationOracle:
    """Accelerated node bounds against plain projected gradient and enumeration."""

    @staticmethod
    def cases(count: int = 50):
        rng = np.random.default_rng(2024)
        for case in range(count):
            n, k = int(rng.integers(6, 13)), int(rng.integers(1, 5))
            cuts = random_cuts(n, k, rng)
            L, U, source, pinned = pinned_box(n, k, int(rng.integers(0, n // 2)), rng)
            lo, hi = (0, 0) if n % 2 == 0 else (-1, 1)
            step = 1.0 / (2.0 * max(np.linalg.eigvalsh(A)[-1] for A in cuts.matrices))
            Y0 = np.tile(source, (k, 1)) if case % 2 else rng.uniform(-1, 1, size=(k, n))
            yield cuts, L, U, lo, hi, step, Y0, source, pinned

    def test_bounds_valid_and_no_looser_than_plain_gradient(self, monkeypatch):
        short_new, short_old = [], []
        for cuts, L, U, lo, hi, step, Y0, source, pinned in self.cases():
            c, A = cuts.constants, cuts.matrices
            corners = balanced_corners(cuts.n)
            sub = corners[np.all(corners[:, pinned] == source[pinned], axis=1)]
            # per-cut minimum over the node's balanced completions
            true_min = (c[None, :] + np.einsum("mi,kij,mj->mk", sub, A, sub)).min(axis=0)
            _, new = _batched_pg(c, A, Y0, L, U, lo, hi, step, np.inf)
            Y_old, old = naive_batched_pg(c, A, Y0, L, U, lo, hi, step, np.inf)
            old_value = c + np.einsum("kij,ki,kj->k", A, Y_old, Y_old)
            assert np.all(new <= true_min + 1e-9)
            assert np.all(new <= old_value + 1e-9)
            with monkeypatch.context() as m:
                m.setattr(bqp, "PG_MAX_ITER", 1000)
                m.setattr(bqp, "PG_RTOL", 0.0)
                _, ref = _batched_pg(c, A, Y0, L, U, lo, hi, step, np.inf)
            ref = np.maximum.reduce([ref, new, old])
            short_new.extend(ref - new)
            short_old.extend(ref - old)
        assert np.median(short_new) <= np.median(short_old)

    def test_stacked_node_bounds_are_valid(self):
        for cuts, L, U, lo, hi, step, Y0, source, pinned in self.cases(12):
            c, A = cuts.constants, cuts.matrices
            corners = balanced_corners(cuts.n)
            sub = corners[np.all(corners[:, pinned] == source[pinned], axis=1)]
            true_min = (c[None, :] + np.einsum("mi,kij,mj->mk", sub, A, sub)).min(axis=0)
            # two nodes stacked K rows apiece, as the branch and bound does
            k = cuts.k
            _, bounds = _batched_pg(
                np.tile(c, 2), np.concatenate([A, A]), np.tile(Y0, (2, 1)),
                np.tile(L, (2, 1)), np.tile(U, (2, 1)), lo, hi, step, np.inf,
            )
            assert np.all(bounds.reshape(2, k) <= true_min + 1e-9)

    @pytest.mark.blas_bits
    def test_one_stack_serves_stacked_groups(self):
        # one (K, n, n) stack over two groups of K rows gives the bits of
        # the stack repeated once per group
        for cuts, L, U, lo, hi, step, Y0, _, _ in self.cases(12):
            c, A = cuts.constants, cuts.matrices
            Y0 = np.concatenate([Y0, -Y0])
            L2, U2 = np.tile(L, (2, 1)), np.tile(U, (2, 1))
            shared = _batched_pg(c, A, Y0, L2, U2, lo, hi, step, np.inf)
            repeated = _batched_pg(
                np.tile(c, 2), np.concatenate([A, A]), Y0, L2, U2, lo, hi, step, np.inf
            )
            for got, want in zip(shared, repeated):
                assert np.array_equal(got, want)

    def test_iterates_follow_fista_with_gradient_restart(self, monkeypatch):
        # rebuild each extrapolated point from the recorded iterates with
        # the restart rule, and check the next projection input against it
        restarts = 0
        for cuts, L, U, lo, hi, step, Y0, _, _ in self.cases():
            c, A = cuts.constants, cuts.matrices
            seen: list[tuple[np.ndarray, np.ndarray]] = []
            call = _BoxSumProjector.__call__

            def spy(self, V, call=call, seen=seen):
                W = call(self, V)
                seen.append((V.copy(), W.copy()))
                return W

            with monkeypatch.context() as m:
                m.setattr(_BoxSumProjector, "__call__", spy)
                _batched_pg(c, A, Y0, L, U, lo, hi, step, np.inf)
            X = [w for _, w in seen]
            Z, t = X[0], np.ones(cuts.k)
            for it in range(1, len(seen)):
                expected = Z - 2.0 * step * np.einsum("kij,kj->ki", A, Z)
                np.testing.assert_allclose(seen[it][0], expected, rtol=1e-9, atol=1e-12)
                D = X[it] - X[it - 1]
                restart = np.einsum("ki,ki->k", Z - X[it], D) > 0.0
                restarts += int(restart.sum())
                t = np.where(restart, 1.0, t)
                t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
                Z = X[it] + ((t - 1.0) / t_next)[:, None] * D
                t = t_next
            # accelerated values are not monotone: a rise must not stop the
            # run, only a change below the tolerance or the iteration cap
            if len(X) <= bqp.PG_MAX_ITER:
                f = [c + np.einsum("kij,ki,kj->k", A, x, x) for x in X[-2:]]
                change = np.abs(f[0] - f[1]) / np.maximum(1.0, np.abs(f[0]))
                assert float(change.max()) < bqp.PG_RTOL
        assert restarts > 0
