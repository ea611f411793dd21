import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_alpha
from test_model import beta_binomial_alpha
from poolpart import (
    CostVector,
    GroupFamily,
    OutcomeVector,
    SymmetricModel,
    ValidationError,
    cost_vector,
    efficiency,
    expected_tests_group,
    expected_tests_partition,
    iid_model,
    q_from_alpha,
    run_dorfman,
)


def iid_curve(n, p):
    return q_from_alpha(iid_model(n, p))


class TestExpectedTestsGroup:
    def test_singleton_costs_one(self):
        qc = iid_curve(10, 0.37)
        assert expected_tests_group(qc, 1) == 1.0

    def test_certain_negative_pool_costs_one(self):
        qc = q_from_alpha(iid_model(8, 0.0))
        assert expected_tests_group(qc, 5) == 1.0

    def test_size8_at_low_prevalence(self):
        u8 = expected_tests_group(iid_curve(80, 0.01624), 8)
        assert abs(u8 - 1.9821631555483282) < 1e-12
        assert abs(8 / u8 - 4.04) < 5e-3

    def test_range_errors(self):
        qc = iid_curve(4, 0.2)
        with pytest.raises(ValidationError):
            expected_tests_group(qc, 0)
        with pytest.raises(ValidationError):
            expected_tests_group(qc, 5)


class TestCostVector:
    def test_no_positives_means_unit_costs(self):
        cv = cost_vector(q_from_alpha(iid_model(3, 0.0)))
        assert_allclose(cv.c[1:], [1.0, 1.0, 1.0])

    def test_dorfman_80(self):
        cv = cost_vector(iid_curve(80, 0.01624))
        assert cv.c[1] == 1.0
        assert abs(cv.c[8] - 1.9821631555483282) < 1e-12
        assert cv.max_size == 80

    def test_single_positive_pair(self):
        qc = q_from_alpha(SymmetricModel(2, np.array([0.0, 1.0, 0.0])))
        cv = cost_vector(qc)
        assert_allclose(cv.c[1:], [1.0, 3.0], atol=1e-15)

    def test_max_size_truncates(self):
        cv = cost_vector(iid_curve(20, 0.1), max_size=7)
        assert cv.max_size == 7
        with pytest.raises(ValidationError):
            cost_vector(iid_curve(20, 0.1), max_size=21)
        with pytest.raises(ValidationError, match="max_size must be an integer >= 1, got 2.5"):
            cost_vector(iid_curve(20, 0.1), max_size=2.5)

    def test_dominance_bounds(self):
        rng = np.random.default_rng(201)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            qc = q_from_alpha(SymmetricModel(n, random_alpha(rng, n)))
            cv = cost_vector(qc)
            assert cv.c[1] == 1.0
            for i in range(2, n + 1):
                assert cv.c[i] == 1.0 + i * (1.0 - qc.q[i])
                assert 1.0 <= cv.c[i] <= 1.0 + i

    @pytest.mark.parametrize("family", ["iid", "beta-binomial"])
    @pytest.mark.parametrize("n", [1, 2, 80, 100, 101, 500])
    def test_matches_per_size_loop(self, family, n):
        # the loop cost_vector ran before it became one numpy expression
        if family == "iid":
            m = iid_model(n, 0.02)
        else:
            m = SymmetricModel(n, beta_binomial_alpha(n, 0.3, 15.0))
        qc = q_from_alpha(m)
        for size in sorted({n, max(1, n // 3), max(1, n - 1)}):
            want = [np.nan] + [expected_tests_group(qc, h) for h in range(1, size + 1)]
            assert cost_vector(qc, max_size=size).c.tobytes() == np.array(want).tobytes()


class TestPartitionCost:
    def test_ten_pools_of_eight(self):
        cv = cost_vector(iid_curve(80, 0.01624))
        f = GroupFamily(tuple(tuple(range(8 * j, 8 * j + 8)) for j in range(10)))
        total = expected_tests_partition(cv, f)
        assert_allclose(total, 10 * cv.c[8], rtol=1e-15)
        assert abs(efficiency(80, total) - 4.04) < 5e-3

    def test_singletons(self):
        cv = cost_vector(q_from_alpha(iid_model(5, 0.0)))
        f = GroupFamily(tuple((i,) for i in range(5)))
        assert expected_tests_partition(cv, f) == 5.0

    def test_hand_example(self):
        cv = CostVector(3, np.array([np.nan, 1.0, 3.0]))
        f = GroupFamily(((0, 1), (2,)))
        assert expected_tests_partition(cv, f) == 4.0

    def test_oversize_group_rejected(self):
        cv = CostVector(4, np.array([np.nan, 1.0, 1.5]))
        with pytest.raises(ValidationError):
            expected_tests_partition(cv, GroupFamily(((0, 1, 2),)))
        # the first oversize group in group order is the one named
        pools = GroupFamily(((0, 1), (2, 3, 4, 5), (6, 7, 8)))
        cv = CostVector(9, np.array([np.nan, 1.0, 1.5]))
        with pytest.raises(ValidationError, match=r"^group of size 4 exceeds .* range 1\.\.2$"):
            expected_tests_partition(cv, pools)

    def test_permutation_invariance_is_exact(self):
        # same multiset of sizes must give the identical float total
        rng = np.random.default_rng(202)
        for _ in range(30):
            n = 40
            cv = cost_vector(q_from_alpha(SymmetricModel(n, random_alpha(rng, n))))
            sizes = []
            left = n
            while left:
                s = int(rng.integers(1, min(left, 9) + 1))
                sizes.append(s)
                left -= s
            ids = list(range(n))
            at, groups = 0, []
            for s in sizes:
                groups.append(tuple(ids[at : at + s]))
                at += s
            f = GroupFamily(tuple(groups))
            relabel = rng.permutation(n)
            order = rng.permutation(len(groups))
            g = GroupFamily(tuple(tuple(int(relabel[i]) for i in groups[j]) for j in order))
            assert expected_tests_partition(cv, f) == expected_tests_partition(cv, g)

    def test_additivity(self):
        cv = cost_vector(iid_curve(30, 0.08))
        f = GroupFamily(((0, 1, 2), (3, 4)))
        g = GroupFamily(((10, 11, 12, 13), (14,)))
        both = GroupFamily(f.groups + g.groups)
        assert_allclose(
            expected_tests_partition(cv, both),
            expected_tests_partition(cv, f) + expected_tests_partition(cv, g),
            rtol=1e-15,
        )


class TestEfficiency:
    def test_individual_testing_baseline(self):
        assert efficiency(80, 80.0) == 1.0

    def test_published_style_ratios(self):
        assert abs(efficiency(80, 19.8210) - 4.0362) < 5e-4
        assert abs(efficiency(8, 2.0224) - 3.956) < 5e-4

    def test_zero_guard(self):
        with pytest.raises(ValidationError):
            efficiency(10, 0.0)
        with pytest.raises(ValidationError):
            efficiency(10, -2.0)


class TestGroupFamily:
    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            GroupFamily(((0, 1), (1, 2)))

    def test_nonempty_groups(self):
        with pytest.raises(ValidationError):
            GroupFamily(((0, 1), ()))
        with pytest.raises(ValidationError):
            GroupFamily(())

    def test_indices_beyond_intp(self):
        with pytest.raises(ValidationError, match=r"^specimen indices must lie in \[0, \d+\]"):
            GroupFamily(((2**70,),))
        with pytest.raises(ValidationError, match="got -1$"):
            GroupFamily(((0, -1),))

    @pytest.mark.parametrize("group", [(0.5, 1.7), (True, 3), (np.float64(3.0), 2)])
    def test_non_integer_indices_rejected(self, group):
        # (0.5, 1.7) used to become (0, 1), and (True, 3) became (1, 3)
        with pytest.raises(ValidationError) as err:
            GroupFamily((group,))
        assert str(err.value) == f"specimen indices must be integers, got {group[0]!r}"

    def test_numpy_integer_indices_pass(self):
        f = GroupFamily(((np.int64(2), np.uint8(0)), (np.int32(1),)))
        assert f.groups == ((2, 0), (1,))
        assert {type(i) for g in f.groups for i in g} == {int}

    def test_properties(self):
        f = GroupFamily(((4, 2, 7), (0,), (3, 5)))
        assert f.sizes == (3, 1, 2)
        assert f.covered == 6

    def test_compiled_layout_on_interleaved_family(self):
        f = GroupFamily(((8, 0, 5), (3,), (2, 9, 4, 6)))
        assert f.members.tolist() == [8, 0, 5, 3, 2, 9, 4, 6]
        assert f.starts.tolist() == [0, 3, 4]
        assert f.retest.tolist() == [3, 0, 4]
        assert f.covered == 8
        assert not f.members.flags.writeable
        rows = np.random.default_rng(5).integers(0, 2, size=(64, 11), dtype=np.uint8)
        rows[0] = 0
        rows[1] = 1
        want = [run_dorfman(f, OutcomeVector(r)).total_tests for r in rows]
        assert f.tests(rows).tolist() == want
        singles = GroupFamily(tuple((i,) for i in range(1000)))
        rows = np.random.default_rng(6).integers(0, 2, size=(8, 1000), dtype=np.uint8)
        want = [run_dorfman(singles, OutcomeVector(r)).total_tests for r in rows]
        assert singles.tests(rows).tolist() == want
