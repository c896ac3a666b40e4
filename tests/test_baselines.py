import math

import numpy as np
import pytest

from trialdesign.baselines import (
    RandBenchmark,
    quantile_nearest_rank,
    rand_benchmark,
    random_balanced_allocations,
)
from conftest import random_design
from trialdesign.cutting_plane import solve_exact
from trialdesign.errors import AllConfounded
from trialdesign.limits import SolveLimits
from trialdesign.objective import Allocation, CovariateSpace, original_value, surrogate_value


def all_balanced_allocations(n: int) -> list[Allocation]:
    import itertools

    out = []
    for signs in itertools.product((-1, 1), repeat=n):
        if abs(sum(signs)) <= 1:
            out.append(Allocation(np.array(signs)))
    return out


class TestQuantileNearestRank:
    def test_percent_ladder(self):
        values = list(range(1, 101))
        assert quantile_nearest_rank(values, 0.01) == 1.0
        assert quantile_nearest_rank(values, 0.05) == 5.0
        assert quantile_nearest_rank(values, 0.50) == 50.0

    def test_single_value(self):
        for q in (0.01, 0.05, 0.5, 1.0):
            assert quantile_nearest_rank([7.25], q) == 7.25

    def test_small_sample_rounds_up(self):
        values = [30.0, 10.0, 20.0, 60.0, 50.0, 40.0]
        assert quantile_nearest_rank(values, 0.5) == 30.0
        assert quantile_nearest_rank(values, 1.0) == 60.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least one"):
            quantile_nearest_rank([], 0.5)
        with pytest.raises(ValueError, match="level"):
            quantile_nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError, match="level"):
            quantile_nearest_rank([1.0], 1.5)


class TestRandomBalancedAllocations:
    def test_two_subjects(self):
        for alloc in random_balanced_allocations(2, replicates=20, seed=4):
            assert alloc.x.tolist() in ([1, -1], [-1, 1])

    def test_exact_split_for_even_n(self):
        for alloc in random_balanced_allocations(100, replicates=100, seed=0):
            assert alloc.n_plus == 50
            assert alloc.n_minus == 50

    def test_uniform_over_balanced_states(self):
        # frequency of each of the 6 states within 3 standard errors of 1/6
        reps = 10_000
        counts: dict[tuple, int] = {}
        for alloc in random_balanced_allocations(4, replicates=reps, seed=8):
            key = tuple(alloc.x.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        se = math.sqrt((1 / 6) * (5 / 6) / reps)
        for count in counts.values():
            assert abs(count / reps - 1 / 6) <= 3 * se

    def test_odd_n_extra_slot_is_fair(self):
        reps = 2000
        sums = [int(a.x.sum()) for a in random_balanced_allocations(5, reps, seed=2)]
        assert set(sums) <= {-1, 1}
        plus_rate = sums.count(1) / reps
        se = math.sqrt(0.25 / reps)
        assert abs(plus_rate - 0.5) <= 3 * se

    def test_seed_determinism(self):
        a = random_balanced_allocations(12, replicates=5, seed=3)
        b = random_balanced_allocations(12, replicates=5, seed=3)
        assert all(x.x.tolist() == y.x.tolist() for x, y in zip(a, b))

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError, match="replicate"):
            random_balanced_allocations(4, replicates=0)


class TestRandBenchmark:
    def test_alternating_design_surrogate_census(self, toy_design):
        bench = rand_benchmark(
            toy_design, objective="surrogate",
            allocations=all_balanced_allocations(4),
        )
        assert sorted(bench.values.tolist()) == pytest.approx(
            [0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
        )
        assert bench.quantiles == {0.01: 0.5, 0.05: 0.5, 0.5: 0.5}
        assert bench.confounded == 0
        assert bench.seed is None
        assert bench.replicates == 6

    def test_alternating_design_original_skips_confounded(self, toy_design):
        # the two allocations aligned with the second column confound
        bench = rand_benchmark(
            toy_design, objective="original",
            allocations=all_balanced_allocations(4),
        )
        assert bench.confounded == 2
        assert np.isnan(bench.values).sum() == 2
        valid = bench.values[~np.isnan(bench.values)]
        assert valid.tolist() == pytest.approx([0.5, 0.5, 0.5, 0.5])
        assert bench.quantiles[0.5] == pytest.approx(0.5)

    def test_all_confounded_raises(self, toy_design):
        confounding = [
            Allocation(np.array([1, -1, 1, -1])),
            Allocation(np.array([-1, 1, -1, 1])),
        ]
        with pytest.raises(AllConfounded, match="all 2"):
            rand_benchmark(toy_design, objective="original", allocations=confounding)

    def test_random_draws_never_beat_exact_optimum(self):
        rng = np.random.default_rng(31)
        H = np.hstack([np.ones((8, 1)), rng.choice([-1.0, 1.0], size=(8, 1))])
        optimum = solve_exact(H).surrogate_value
        bench = rand_benchmark(H, replicates=50, seed=5)
        assert float(np.nanmin(bench.values)) >= optimum - 1e-9

    def test_quantiles_monotone_and_deterministic(self):
        rng = np.random.default_rng(37)
        H = np.hstack([np.ones((12, 1)), rng.choice([-1.0, 1.0], size=(12, 2))])
        a = rand_benchmark(H, replicates=40, seed=9)
        b = rand_benchmark(H, replicates=40, seed=9)
        assert a.values.tolist() == b.values.tolist()
        assert a.seed == 9
        assert a.quantiles[0.01] <= a.quantiles[0.05] <= a.quantiles[0.5]

    def test_rejects_unknown_objective(self, toy_design):
        with pytest.raises(ValueError, match="objective"):
            rand_benchmark(toy_design, objective="variance")

    def test_to_dict_replaces_nan(self, toy_design):
        bench = rand_benchmark(
            toy_design, objective="original",
            allocations=all_balanced_allocations(4),
        )
        doc = bench.to_dict()
        assert doc["confounded"] == 2
        assert doc["unfinished"] == 0
        assert doc["separation_nodes"] == 4 * 2  # four enumerations of one free sign
        assert doc["values"].count(None) == 2
        assert set(doc["quantiles"]) == {"0.01", "0.05", "0.5"}

    @pytest.mark.parametrize("objective", ["surrogate", "original"])
    def test_values_match_one_allocation_at_a_time(self, objective):
        rng = np.random.default_rng(41)
        H = random_design(40, 6, rng)
        allocations = random_balanced_allocations(40, replicates=15, seed=2)
        evaluate = surrogate_value if objective == "surrogate" else original_value
        for space in (CovariateSpace.hypercube(), CovariateSpace.rows()):
            bench = rand_benchmark(H, objective, space, allocations=allocations)
            expected = [evaluate(H, alloc, space)[0] for alloc in allocations]
            assert bench.values == pytest.approx(expected, rel=1e-12)

    def test_limit_stopped_separations_are_counted(self):
        # one node cannot finish a p = 25 search: every value is only a
        # lower bound on its replicate's worst case
        H = random_design(60, 25, np.random.default_rng(43))
        bench = rand_benchmark(H, "original", replicates=4, seed=1, limits=SolveLimits(node_limit=1))
        assert bench.unfinished == bench.replicates == 4
        assert bench.separation_nodes == 4
        full = rand_benchmark(H, "original", replicates=4, seed=1)
        assert full.unfinished == 0 and full.separation_nodes > 4
        assert np.all(bench.values <= full.values + 1e-12)
        # the group's one deadline, passed before any search expands a node
        late = rand_benchmark(H, "original", replicates=4, seed=1, limits=SolveLimits(time_limit=1e-9))
        assert late.unfinished == 4 and late.separation_nodes == 0
        assert np.all(late.values <= full.values + 1e-12)
