import heapq
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import brute_max_quadratic, naive_branch_and_bound, random_design
from trialdesign import inner_max
from trialdesign.inner_max import (
    ENUM_MAX_FREE,
    InnerMaxProblem,
    solve_inner_max,
    solve_inner_max_group,
)
from trialdesign.limits import SolveLimits
from trialdesign.objective import (
    psi_stack,
    random_balanced_signs,
    sigma_beta_stack,
    spectral_cache,
)


def random_symmetric(p: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.normal(size=(p, p))
    return (M + M.T) / 2.0


class TestProblem:
    def test_dimension_property(self):
        prob = InnerMaxProblem(M=np.eye(3))
        assert prob.p == 3

    def test_matrix_is_read_only(self):
        prob = InnerMaxProblem(M=np.eye(2))
        with pytest.raises(ValueError):
            prob.M[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            InnerMaxProblem(M=np.ones((2, 3)))

    def test_rejects_asymmetry(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            InnerMaxProblem(M=M)

    def test_accepts_tiny_asymmetry(self):
        M = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        prob = InnerMaxProblem(M=M)
        assert prob.M[0, 1] == prob.M[1, 0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            InnerMaxProblem(M=np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestEnumeration:
    def test_diagonal_lexicographic_tie(self):
        # both signs of z[1] give 1 + 2 = 3; the smaller z wins
        res = solve_inner_max(InnerMaxProblem(M=np.diag([1.0, 2.0])))
        assert res.value == pytest.approx(3.0)
        assert res.z_star.tolist() == [1.0, -1.0]
        assert res.method == "enumeration"
        assert res.optimal

    def test_positive_coupling_favors_agreement(self):
        res = solve_inner_max(InnerMaxProblem(M=np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert res.value == pytest.approx(3.0)
        assert res.z_star.tolist() == [1.0, 1.0]

    def test_single_coordinate(self):
        res = solve_inner_max(InnerMaxProblem(M=np.array([[2.5]])))
        assert res.z_star.tolist() == [1.0]
        assert res.value == pytest.approx(2.5)
        assert res.optimal

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = int(rng.integers(2, 7))
            M = random_symmetric(p, rng)
            res = solve_inner_max(InnerMaxProblem(M=M))
            z_ref, val_ref = brute_max_quadratic(M)
            assert res.value == pytest.approx(val_ref, abs=1e-10)
            assert res.z_star.tolist() == z_ref.tolist()
            assert res.z_star[0] == 1.0
            assert res.value == pytest.approx(
                float(res.z_star @ M @ res.z_star), abs=1e-10
            )

    def test_prefix_walk_beyond_suffix_block(self):
        # p - 1 = 14 exceeds the tabulated suffix width, so blocks of
        # leading signs carry part of the search
        rng = np.random.default_rng(11)
        M = random_symmetric(15, rng)
        res = solve_inner_max(InnerMaxProblem(M=M))
        z_ref, val_ref = brute_max_quadratic(M)
        assert res.value == pytest.approx(val_ref, abs=1e-10)
        assert res.z_star.tolist() == z_ref.tolist()

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            solve_inner_max(InnerMaxProblem(M=np.eye(2)), method="simplex")

    def test_auto_switches_on_free_count(self):
        small = solve_inner_max(InnerMaxProblem(M=np.eye(ENUM_MAX_FREE + 1)))
        assert small.method == "enumeration"

    def test_auto_uses_branch_and_bound_past_cutover(self):
        # A pure diagonal would search the whole tree: every vertex ties and
        # the tie rule keeps each equal-bound node open.  Coupling to the
        # pinned coordinate makes z = 1 the unique optimum, and the tight
        # interval bound prunes every child off its path.
        p = ENUM_MAX_FREE + 2
        M = np.eye(p)
        M[0, 1:] = M[1:, 0] = 0.5
        res = solve_inner_max(InnerMaxProblem(M=M))
        assert res.method == "branch_and_bound"
        assert res.optimal
        assert res.value == 2 * p - 1
        assert res.z_star.tolist() == [1.0] * p
        assert res.nodes_explored == p - 1


class TestBranchAndBound:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = int(rng.integers(2, 13))
            M = random_symmetric(p, rng)
            prob = InnerMaxProblem(M=M)
            bb = solve_inner_max(prob, method="branch_and_bound")
            enum = solve_inner_max(prob, method="enumeration")
            assert bb.optimal
            assert bb.value == pytest.approx(enum.value, abs=1e-10)
            assert bb.z_star.tolist() == enum.z_star.tolist()
            assert bb.method == "branch_and_bound"

    def test_diagonal_shift_adds_constant(self):
        rng = np.random.default_rng(31)
        M = random_symmetric(9, rng)
        base = solve_inner_max(InnerMaxProblem(M=M), method="branch_and_bound")
        shifted = solve_inner_max(
            InnerMaxProblem(M=M + 3.0 * np.eye(9)), method="branch_and_bound"
        )
        assert shifted.value == pytest.approx(base.value + 3.0 * 9, abs=1e-9)

    def test_node_limit_returns_incumbent_with_gap(self):
        rng = np.random.default_rng(43)
        M = random_symmetric(18, rng)
        limits = SolveLimits(node_limit=2)
        res = solve_inner_max(
            InnerMaxProblem(M=M), limits=limits, method="branch_and_bound"
        )
        _, val_ref = brute_max_quadratic(M)
        assert not res.optimal
        assert res.gap >= 0.0
        assert res.value <= val_ref + 1e-10
        assert res.value + res.gap >= val_ref - 1e-10
        assert res.z_star[0] == 1.0
        assert res.value == pytest.approx(
            float(res.z_star @ M @ res.z_star), abs=1e-10
        )


FULL_SEARCH = SolveLimits().node_limit


def integer_tied(p: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse couplings in {-1, 0, 1}: exact sums, tied optima and bounds."""
    A = rng.integers(-1, 2, size=(p, p)) * (rng.random((p, p)) < 0.3)
    A = np.triu(A, 1)
    return (A + A.T).astype(float)


def coupled(p: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric plus a rank-one pull: thousands of nodes at p > 20."""
    u = rng.normal(size=p)
    return random_symmetric(p, rng) + np.outer(u, u)


def cancelling(q: int, rng: np.random.Generator) -> np.ndarray:
    """z'Mz = 2 a'y - C s^2 + 2 B s t with s = u'y, t = v'y and u, v in {-1, 1}^q.

    Optima have s = 0 and small integer values, summed exactly; but there
    (N y)_j = B u_j t reaches 2^57 and more, so a completion's value summed
    as (N y + w)'y loses low bits of w to rounding.
    """
    u, v = rng.choice([-1.0, 1.0], size=(2, q))
    B, C = 2.0**56, 2.0**60
    M = np.zeros((q + 1, q + 1))
    M[1:, 1:] = -C * np.outer(u, u) + B * (np.outer(u, v) + np.outer(v, u))
    M[0, 1:] = M[1:, 0] = rng.integers(-50, 51, size=q) * 2 + 1
    return M


class HeapCalls:
    """Stands in for heapq inside inner_max and records how the search
    used it: the longest run of pops between two pushes, which a batch
    fills, and how many pushes put back an entry that was popped before."""

    def __init__(self) -> None:
        self.pops = 0
        self.run = 0
        self.longest_run = 0
        self.pushed_back = 0
        self.seen: set[int] = set()

    def heappop(self, heap: list) -> tuple:
        self.pops += 1
        self.run += 1
        self.longest_run = max(self.longest_run, self.run)
        return heapq.heappop(heap)

    def heappush(self, heap: list, entry: tuple) -> None:
        self.run = 0
        self.pushed_back += entry[1] in self.seen  # entry[1] is the tie counter
        self.seen.add(entry[1])
        heapq.heappush(heap, entry)

    def pending(self, nodes: int) -> int:
        # entries popped but not yet processed when the search stopped
        return self.pops - self.pushed_back - nodes


@pytest.mark.blas_bits
class TestBranchAndBoundOracle:
    """The incremental search against the from-scratch oracle: the same
    tree in the same order, so the same y, node count and status.  Integer
    matrices are summed exactly by both, so their gaps agree bit for bit;
    otherwise the bounds are summed in a different order."""

    @staticmethod
    def assert_same_search(M: np.ndarray, node_limit: int, exact: bool) -> None:
        prob = InnerMaxProblem(M=M)
        res = solve_inner_max(
            prob, limits=SolveLimits(node_limit=node_limit), method="branch_and_bound"
        )
        y, nodes, optimal, gap = naive_branch_and_bound(
            2.0 * prob.M[0, 1:], prob.M[1:, 1:], node_limit, float("inf")
        )
        assert res.z_star[1:].tolist() == y.tolist()
        assert res.nodes_explored == nodes
        assert res.optimal == optimal
        if exact:
            assert res.gap == gap
        else:
            assert res.gap == pytest.approx(gap, rel=1e-12, abs=1e-12)
        return res

    @pytest.mark.parametrize("seed", range(4))
    def test_random_symmetric(self, seed):
        rng = np.random.default_rng(100 + seed)
        M = random_symmetric(int(rng.integers(14, 21)), rng)
        self.assert_same_search(M, FULL_SEARCH, exact=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_ties(self, seed):
        rng = np.random.default_rng(200 + seed)
        M = integer_tied(int(rng.integers(14, 21)), rng)
        self.assert_same_search(M, FULL_SEARCH, exact=True)

    @pytest.mark.parametrize("node_limit", [1, 2, 50])
    def test_truncated(self, node_limit):
        rng = np.random.default_rng(300)
        self.assert_same_search(random_symmetric(18, rng), node_limit, exact=False)
        self.assert_same_search(integer_tied(18, rng), node_limit, exact=True)

    def test_diagonal_shift(self):
        rng = np.random.default_rng(400)
        M = random_symmetric(16, rng)
        self.assert_same_search(M + 3.0 * np.eye(16), FULL_SEARCH, exact=False)
        self.assert_same_search(M - 3.0 * np.eye(16), FULL_SEARCH, exact=False)

    @staticmethod
    def deep(seed: int, kind=None) -> np.ndarray:
        # seeds whose instances search 1,000-6,000 nodes at p = 21-24
        rng = np.random.default_rng(seed)
        return (kind or coupled)(int(rng.integers(21, 25)), rng)

    @pytest.mark.parametrize("seed", [703, 705])
    def test_deep_search_fills_batches(self, seed, monkeypatch):
        calls = HeapCalls()
        monkeypatch.setattr(inner_max, "heapq", calls)
        M = self.deep(seed)
        res = self.assert_same_search(M, FULL_SEARCH, exact=False)
        assert M.shape[0] - 1 >= 20
        assert res.optimal and res.nodes_explored >= 1000
        assert calls.longest_run >= inner_max.EXPAND_MAX

    @pytest.mark.parametrize("cap", [1, 2, 7])
    def test_batch_cap_does_not_change_the_search(self, cap, monkeypatch):
        # a cap of 1 expands one node at a time
        monkeypatch.setattr(inner_max, "EXPAND_MAX", cap)
        self.assert_same_search(self.deep(705), FULL_SEARCH, exact=False)
        self.assert_same_search(self.deep(601, integer_tied), FULL_SEARCH, exact=True)

    @pytest.mark.parametrize("node_limit", [3, 40, 63, 64, 65, 100, 1001])
    def test_node_limit_inside_a_batch(self, node_limit, monkeypatch):
        # limits below and above the cap of 64; each stops with popped
        # entries of its batch still unexpanded
        for M, exact in ((self.deep(705), False), (self.deep(601, integer_tied), True)):
            calls = HeapCalls()
            monkeypatch.setattr(inner_max, "heapq", calls)
            res = self.assert_same_search(M, node_limit, exact=exact)
            assert not res.optimal and res.nodes_explored == node_limit
            assert calls.pending(res.nodes_explored) > 1

    def test_integer_ties_push_back_outranked_entries(self, monkeypatch):
        calls = HeapCalls()
        monkeypatch.setattr(inner_max, "heapq", calls)
        res = self.assert_same_search(self.deep(601, integer_tied), FULL_SEARCH, exact=True)
        assert res.nodes_explored >= 1000
        assert calls.pushed_back > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_offers_decided_on_exact_values(self, seed):
        # approximate completion values err far inside the margin but
        # beyond the gaps between exact values
        M = cancelling(12, np.random.default_rng(seed))
        self.assert_same_search(M, FULL_SEARCH, exact=True)

    def test_deadline_inside_a_batch(self, monkeypatch):
        # a clock that ticks once per reading: the deadline is read once,
        # then once before each node, so a budget of 100 stops after 100
        calls = HeapCalls()
        clock = itertools.count()
        monkeypatch.setattr(inner_max, "heapq", calls)
        monkeypatch.setattr(inner_max, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
        M = self.deep(705)
        res = solve_inner_max(
            InnerMaxProblem(M=M), limits=SolveLimits(time_limit=100.0), method="branch_and_bound"
        )
        assert not res.optimal and res.gap >= 0.0
        assert res.nodes_explored == 100
        assert calls.pending(res.nodes_explored) > 1
        assert res.z_star[0] == 1.0 and set(res.z_star.tolist()) <= {-1.0, 1.0}
        assert res.value == pytest.approx(float(res.z_star @ M @ res.z_star), abs=1e-10)
        # the state in which a node limit of 100 stops the same search
        y, _, optimal, gap = naive_branch_and_bound(2.0 * M[0, 1:], M[1:, 1:], 100, float("inf"))
        assert res.z_star[1:].tolist() == y.tolist() and not optimal
        assert res.gap == pytest.approx(gap, rel=1e-12, abs=1e-12)


def one_hot_design(rows: int, levels: tuple, rng: np.random.Generator) -> np.ndarray:
    """Intercept plus drop-one +/-1 coding of random categorical factors."""
    while True:
        blocks = [np.ones((rows, 1))]
        for count in levels:
            draw = rng.integers(0, count, size=(rows, 1))
            blocks.append(np.where(draw == np.arange(1, count), 1.0, -1.0))
        H = np.hstack(blocks)
        if np.linalg.matrix_rank(H) == H.shape[1]:
            return H


def rand_separations(H: np.ndarray, count: int, rng: np.random.Generator) -> list:
    """Surrogate and Sigma_beta matrices of random balanced allocations."""
    F = spectral_cache(H)
    X = np.array([random_balanced_signs(F.n, rng) for _ in range(count)], dtype=float)
    sigma, reasons = sigma_beta_stack(F, X)
    surrogate = F.gram_inverse + psi_stack(F, X)
    return [InnerMaxProblem(M) for M in surrogate] + [
        InnerMaxProblem(M) for r, M in enumerate(sigma) if r not in reasons
    ]


@pytest.mark.blas_bits
class TestMultiplexedGroup:
    """A group of searches against one solve_inner_max per problem.

    Each search of a group takes the tree it takes alone, bit for bit:
    the same z_star, value, node count, status and gap."""

    @staticmethod
    def assert_alone_equal(problems, limits=None, method="auto"):
        group = solve_inner_max_group(problems, limits)
        assert len(group) == len(problems)
        for problem, got in zip(problems, group):
            alone = solve_inner_max(problem, limits, method=method)
            assert got.z_star.tolist() == alone.z_star.tolist()
            assert got.value == alone.value
            assert got.nodes_explored == alone.nodes_explored
            assert got.optimal == alone.optimal
            assert got.gap == alone.gap
            assert got.method == alone.method
        return group

    def test_cohort_separations(self):
        # the README cohort's level counts: p = 25, shallow searches
        rng = np.random.default_rng(900)
        H = one_hot_design(200, (9, 3, 3, 4, 2, 2, 3, 6), rng)
        problems = rand_separations(H, 100, rng)
        assert len(problems) >= 190 and problems[0].p == 25
        group = self.assert_alone_equal(problems)
        assert {r.method for r in group} == {"branch_and_bound"}

    def test_iid_separations(self):
        rng = np.random.default_rng(901)
        problems = rand_separations(random_design(60, 25, rng), 8, rng)
        group = self.assert_alone_equal(problems)
        assert all(r.optimal for r in group)
        assert max(r.nodes_explored for r in group) >= 1000

    def test_per_search_node_limit(self):
        # the searches of test_iid_separations take 35 to 13,682 nodes
        rng = np.random.default_rng(901)
        problems = rand_separations(random_design(60, 25, rng), 8, rng)
        group = self.assert_alone_equal(problems, SolveLimits(node_limit=2000))
        stopped = [r for r in group if not r.optimal]
        assert stopped and all(r.nodes_explored == 2000 for r in stopped)
        assert any(r.optimal for r in group)

    @pytest.mark.parametrize("node_limit", [FULL_SEARCH, 40])
    def test_tie_heavy_integer_matrices(self, node_limit, monkeypatch):
        # forced to branch and bound below the enumeration cutover; widths
        # are mixed, so the group runs one multiplexed pass per width
        monkeypatch.setattr(inner_max, "ENUM_MAX_FREE", 0)
        rng = np.random.default_rng(903)
        problems = [InnerMaxProblem(integer_tied(int(rng.integers(15, 22)), rng)) for _ in range(40)]
        assert len({problem.p for problem in problems}) > 3
        self.assert_alone_equal(problems, SolveLimits(node_limit=node_limit), "branch_and_bound")

    def test_enumerated_and_searched_problems_mix(self, monkeypatch):
        monkeypatch.setattr(inner_max, "ENUM_MAX_FREE", 6)
        rng = np.random.default_rng(904)
        problems = [InnerMaxProblem(random_symmetric(p, rng)) for p in (3, 14, 7, 12, 1)]
        group = self.assert_alone_equal(problems)
        assert [r.method for r in group] == [
            "enumeration", "branch_and_bound", "enumeration", "branch_and_bound", "enumeration",
        ]

    def test_slots_are_reused(self, monkeypatch):
        # a budget for one search at a time still runs every search
        monkeypatch.setattr(inner_max, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(inner_max, "ENUM_MAX_FREE", 0)
        rng = np.random.default_rng(905)
        H = one_hot_design(120, (4, 3, 2), rng)
        self.assert_alone_equal(rand_separations(H, 6, rng), method="branch_and_bound")

    def test_group_shares_one_deadline(self, monkeypatch):
        # a clock that ticks once per reading: the group reads its deadline
        # once, then every search reads the clock before each node
        clock = itertools.count()
        monkeypatch.setattr(inner_max, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
        rng = np.random.default_rng(906)
        problems = rand_separations(random_design(60, 25, rng), 3, rng)[:3]
        group = solve_inner_max_group(problems, SolveLimits(time_limit=90.0))
        assert not any(r.optimal for r in group)
        assert sum(r.nodes_explored for r in group) == 90
