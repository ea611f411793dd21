import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from poolpart import (
    CostVector,
    MultiplicityFunction,
    ValidationError,
    ValueTable,
    brute_force_solve,
    cost_vector,
    dorfman_infinite_size,
    dp_solve,
    expected_tests_partition,
    iid_model,
    pooling_from_multiplicity,
    q_from_alpha,
)


def flat_costs(n, value=1.0):
    c = np.full(n + 1, value)
    c[0] = np.nan
    return CostVector(n, c)


def random_costs(rng, n, max_size=None):
    m = max_size or n
    c = np.empty(m + 1)
    c[0] = np.nan
    c[1:] = rng.uniform(0.5, 2.0, m) * np.arange(1, m + 1) ** rng.uniform(0, 1)
    return CostVector(n, c)


class TestMultiplicityFunction:
    def test_sum_constraint(self):
        MultiplicityFunction(7, {3: 1, 2: 2})
        with pytest.raises(ValidationError):
            MultiplicityFunction(7, {3: 2})

    def test_zero_multiplicities_dropped(self):
        mu = MultiplicityFunction(4, {4: 1, 2: 0})
        assert mu.as_dict() == {4: 1}

    def test_part_size_bounds(self):
        with pytest.raises(ValidationError):
            MultiplicityFunction(2, {0: 1, 2: 1})
        with pytest.raises(ValidationError):
            MultiplicityFunction(1, {1: -1, 2: 1})

    def test_sizes_counts_and_target_are_integers(self):
        with pytest.raises(ValidationError, match="size 2 must be an integer >= 0, got 2.7"):
            MultiplicityFunction(4, {2: 2.7})
        with pytest.raises(ValidationError, match="target must be an integer >= 1, got 4.9"):
            MultiplicityFunction(4.9, {2: 2})
        with pytest.raises(ValidationError, match="part size must be an integer >= 1, got 2.0"):
            MultiplicityFunction(4, {2.0: 2})
        mu = MultiplicityFunction(np.int64(4), {np.int64(2): np.int64(2)})
        assert mu == MultiplicityFunction(4, {2: 2})
        assert {type(v) for v in (mu.target, *mu.counts[0])} == {int}

    @pytest.mark.parametrize("counts", [[(2, 1), (2, 1)], [(2, 2), (1, 0), (1, 0)]])
    def test_part_size_given_twice(self, counts):
        # one entry per size: counts, as_dict and part_sizes would disagree
        with pytest.raises(ValidationError, match=r"part size \d is given twice"):
            MultiplicityFunction(4, counts)

    def test_equality_and_views(self):
        mu = MultiplicityFunction(10, {2: 1, 4: 2})
        assert mu == MultiplicityFunction(10, {4: 2, 2: 1})
        assert mu.num_parts == 3
        assert mu.max_part == 4
        assert mu.part_sizes() == (4, 4, 2)


class TestDpSolve:
    def test_flat_costs_prefer_one_part(self):
        mu, table = dp_solve(flat_costs(7), 7)
        assert mu.as_dict() == {7: 1}
        assert table.values[7] == 1.0

    def test_linear_costs_tie_break_to_largest(self):
        c = np.arange(8, dtype=float)
        c[0] = np.nan
        mu, table = dp_solve(CostVector(7, c), 7)
        assert mu.as_dict() == {7: 1}
        assert table.values[7] == 7.0

    def test_value_table_shape(self):
        _, table = dp_solve(flat_costs(5), 5)
        assert table.values[0] == 0.0
        assert table.values.shape == (6,)
        assert table.choices.dtype.kind == "i"

    def test_feasibility_and_value_consistency(self):
        rng = np.random.default_rng(301)
        for _ in range(25):
            n = int(rng.integers(1, 26))
            cv = random_costs(rng, n)
            mu, table = dp_solve(cv, n)
            assert sum(i * m for i, m in mu.counts) == n
            recon = math.fsum(float(cv.c[i]) * m for i, m in mu.counts)
            assert abs(recon - table.values[n]) <= 1e-12 * max(1.0, abs(recon))

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            dp_solve(flat_costs(4), 0)
        with pytest.raises(ValidationError):
            dp_solve(flat_costs(4), "4")
        # a target no float64 vector can hold, like a trial count
        cv = cost_vector(q_from_alpha(iid_model(8, 0.1)))
        with pytest.raises(ValidationError, match=f"target must be below {2**60 - 1}, got {10**20}"):
            dp_solve(cv, 10**20)


    def test_target_is_a_non_boolean_integer(self):
        cv = flat_costs(8)
        for solve in (lambda t: dp_solve(cv, t)[0], lambda t: brute_force_solve(cv, t)):
            for bad in (True, 8.0):
                with pytest.raises(ValidationError) as err:
                    solve(bad)
                assert str(err.value) == f"target must be an integer >= 1, got {bad!r}"
            assert solve(np.int64(8)) == solve(8)


class TestBruteForce:
    def test_unique_partition(self):
        assert brute_force_solve(flat_costs(1), 1).as_dict() == {1: 1}

    def test_five_partitions_of_four(self):
        # 4 -> 3.6, 3+1 -> 3.5, 2+2 -> 3.0, 2+1+1 -> 3.5, 1+1+1+1 -> 4.0
        cv = CostVector(4, np.array([np.nan, 1.0, 1.5, 2.5, 3.6]))
        mu = brute_force_solve(cv, 4)
        assert mu.as_dict() == {2: 2}

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            brute_force_solve(flat_costs(31), 31)

    def test_matches_dp(self):
        rng = np.random.default_rng(302)
        for trial in range(40):
            target = int(rng.integers(1, 13))
            cap = int(rng.integers(2, target + 1)) if trial % 3 == 0 and target > 1 else None
            cv = random_costs(rng, target, max_size=cap)
            mu_dp, table = dp_solve(cv, target)
            mu_bf = brute_force_solve(cv, target)
            v_dp = table.values[target]
            v_bf = math.fsum(float(cv.c[i]) * m for i, m in mu_bf.counts)
            assert abs(v_dp - v_bf) <= 1e-12 * max(1.0, abs(v_bf))


class TestRestriction:
    def test_no_part_exceeds_cap_and_value_weakly_grows(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            n = int(rng.integers(4, 22))
            free = random_costs(rng, n)
            cap = int(rng.integers(1, n))
            capped = CostVector(n, free.c[: cap + 1].copy())
            mu_free, t_free = dp_solve(free, n)
            mu_cap, t_cap = dp_solve(capped, n)
            assert mu_cap.max_part <= cap
            assert t_cap.values[n] >= t_free.values[n] - 1e-12 * abs(t_free.values[n])


class TestPoolingMaterialization:
    def test_pair(self):
        f = pooling_from_multiplicity(MultiplicityFunction(2, {2: 1}), [7, 3])
        assert f.groups == ((7, 3),)

    def test_ten_blocks_of_eight(self):
        f = pooling_from_multiplicity(MultiplicityFunction(80, {8: 10}), range(80))
        assert f.groups == tuple(tuple(range(8 * j, 8 * j + 8)) for j in range(10))

    def test_eight_blocks_of_ten(self):
        f = pooling_from_multiplicity(MultiplicityFunction(80, {10: 8}), range(80))
        assert len(f.groups) == 8
        assert all(len(g) == 10 for g in f.groups)

    def test_larger_parts_come_first(self):
        f = pooling_from_multiplicity(MultiplicityFunction(7, {3: 1, 2: 2}), range(7))
        assert f.sizes == (3, 2, 2)
        assert f.groups[0] == (0, 1, 2)

    def test_caller_order_is_respected(self):
        order = [5, 1, 4, 0, 3, 2]
        f = pooling_from_multiplicity(MultiplicityFunction(6, {3: 2}), order)
        assert f.groups == ((5, 1, 4), (0, 3, 2))

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            pooling_from_multiplicity(MultiplicityFunction(4, {4: 1}), range(5))

    def test_index_beyond_intp(self):
        with pytest.raises(ValidationError, match="specimen indices must lie in"):
            pooling_from_multiplicity(MultiplicityFunction(4, {2: 2}), [0, 1, 2, 2**70])

    def test_non_integer_population_rejected(self):
        # [0.9, 1.2] used to pool specimens 0 and 1
        with pytest.raises(ValidationError, match=r"^specimen indices must be integers, got 0\.9$"):
            pooling_from_multiplicity(MultiplicityFunction(2, {2: 1}), [0.9, 1.2])

    def test_reduction_consistency(self):
        # cost of the materialized family equals sum c(i) mu(i)
        rng = np.random.default_rng(304)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            cv = cost_vector(q_from_alpha(iid_model(n, float(rng.uniform(0.01, 0.4)))))
            mu, _ = dp_solve(cv, n)
            f = pooling_from_multiplicity(mu, range(n))
            direct = math.fsum(float(cv.c[i]) * m for i, m in mu.counts)
            assert abs(expected_tests_partition(cv, f) - direct) < 1e-12


class TestDorfmanInfiniteSize:
    def test_low_prevalence_cohort(self):
        assert dorfman_infinite_size(0.01624) == 8

    def test_high_prevalence_prefers_individual_testing(self):
        assert dorfman_infinite_size(0.5) == 1

    def test_size_grows_as_prevalence_falls(self):
        assert dorfman_infinite_size(0.001) > dorfman_infinite_size(0.01)

    def test_break_between_eight_and_nine(self):
        assert dorfman_infinite_size(0.0157) == 9
        assert dorfman_infinite_size(0.0158) == 8

    def test_s_max_cap(self):
        assert dorfman_infinite_size(0.0001, s_max=10) <= 10
        assert dorfman_infinite_size(0.01624, s_max=np.int64(50)) == 8

    def test_domain_errors(self):
        for bad in (-0.2, 1.5, math.nan):
            with pytest.raises(ValidationError):
                dorfman_infinite_size(bad)
        with pytest.raises(ValidationError):
            dorfman_infinite_size(0.1, s_max=0)

    def test_boundaries(self):
        # p = 0 costs 1/s, falling all the way to the cap; p = 1 costs at
        # least 1 + 1/s; a cap of 1 leaves only individual testing
        assert dorfman_infinite_size(0.0, s_max=37) == 37
        assert dorfman_infinite_size(1.0, s_max=37) == 1
        assert dorfman_infinite_size(0.01624, s_max=1) == 1


class TestValueTable:
    def test_head_must_be_zero(self):
        with pytest.raises(ValidationError):
            ValueTable(np.array([1.0, 2.0]), np.array([0, 1]))

    def test_fractional_choice(self):
        with pytest.raises(ValidationError, match="choices entries must be integers"):
            ValueTable([0.0, 1.0], [0, 1.9])

    def test_integral_choices_are_read(self):
        assert ValueTable([0.0, 1.0], [0.0, 1.0]).choices.tolist() == [0, 1]

    def test_empty_table(self):
        with pytest.raises(ValidationError, match="nonempty"):
            ValueTable([], [])


def scalar_dp(cv, target, tie_rtol=1e-12):
    """dp_solve's table as a two-pass scalar loop: the minimum first, then
    the largest part within the tie tolerance.  Oracle for the vectorized
    single pass."""
    values = np.zeros(target + 1)
    choices = np.zeros(target + 1, dtype=int)
    for k in range(1, target + 1):
        limit = min(k, cv.max_size)
        best_v = math.inf
        for i in range(1, limit + 1):
            v = values[k - i] + cv.c[i]
            if v < best_v:
                best_v = v
        tol = tie_rtol * abs(best_v)
        best_i = max(
            i for i in range(1, limit + 1) if values[k - i] + cv.c[i] <= best_v + tol
        )
        values[k] = values[k - best_i] + cv.c[best_i]
        choices[k] = best_i
    return values, choices


def linear_costs(n, max_size=None):
    m = max_size or n
    c = np.empty(m + 1)
    c[0] = np.nan
    c[1:] = 0.1 * np.arange(1, m + 1)
    return CostVector(n, c)


class TestDpMatchesScalarLoop:
    """values and choices are bit-identical to the two-pass scalar loop."""

    def assert_identical(self, cv, target):
        values, choices = scalar_dp(cv, target)
        _, table = dp_solve(cv, target)
        assert np.array_equal(table.values, values)
        assert np.array_equal(table.choices, choices)

    def test_random_costs(self):
        rng = np.random.default_rng(207)
        for _ in range(30):
            n = int(rng.integers(1, 160))
            self.assert_identical(random_costs(rng, n), n)

    def test_linear_tie_heavy_costs(self):
        for n in (1, 2, 7, 50, 137):
            self.assert_identical(linear_costs(n), n)
            self.assert_identical(flat_costs(n), n)

    def test_max_size_below_target(self):
        rng = np.random.default_rng(208)
        for n, m in ((10, 1), (40, 3), (120, 17), (300, 64)):
            self.assert_identical(random_costs(rng, n, max_size=m), n)
            self.assert_identical(linear_costs(n, max_size=m), n)

    def test_float_path_plans(self):
        for n in (101, 384):
            cv = cost_vector(q_from_alpha(iid_model(n, 0.02)), 64)
            self.assert_identical(cv, n)
