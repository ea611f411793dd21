import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_alpha
from poolpart import (
    GroupFamily,
    MultiplicityFunction,
    OutcomeVector,
    SymmetricModel,
    TestTally,
    TrialSummary,
    ValidationError,
    cost_vector,
    empirical_evaluate,
    empirical_trial_totals,
    expected_tests_partition,
    iid_model,
    mc_trial_totals,
    monte_carlo,
    pooling_from_multiplicity,
    q_from_alpha,
    run_dorfman,
    sample_outcome,
    substream,
)


def blocks(n, size):
    return pooling_from_multiplicity(MultiplicityFunction(n, {size: n // size}), range(n))


def outcome(n, positives=()):
    x = np.zeros(n, dtype=np.uint8)
    x[list(positives)] = 1
    return OutcomeVector(x)


class TestRunDorfman:
    def test_negative_pool_needs_one_test(self):
        t = run_dorfman(blocks(8, 8), outcome(8))
        assert t.total_tests == 1
        assert t.per_group == ((8, 0, 1),)

    def test_positive_pool_retests_every_member(self):
        t = run_dorfman(blocks(8, 8), outcome(8, [3]))
        assert t.total_tests == 9

    def test_one_positive_among_ten_pools(self):
        t = run_dorfman(blocks(80, 8), outcome(80, [17]))
        assert t.total_tests == 18

    def test_positive_singleton_is_never_retested(self):
        f = GroupFamily(((0,), (1, 2)))
        t = run_dorfman(f, outcome(3, [0]))
        assert t.per_group[0] == (1, 1, 1)
        assert t.total_tests == 2

    def test_out_of_range_member(self):
        with pytest.raises(IndexError):
            run_dorfman(GroupFamily(((0, 9),)), outcome(4))

    def test_tally_bounds(self):
        rng = np.random.default_rng(401)
        m = iid_model(24, 0.2)
        f = pooling_from_multiplicity(MultiplicityFunction(24, {6: 2, 4: 2, 1: 4}), range(24))
        lo = len(f.groups)
        hi = sum(1 + len(g) * (len(g) >= 2) for g in f.groups)
        for t in range(50):
            tally = run_dorfman(f, sample_outcome(m, substream(401, 0, t)))
            assert lo <= tally.total_tests <= hi

    def test_tally_self_validates(self):
        with pytest.raises(ValidationError):
            TestTally(4, ((2, 1, 3),))  # total does not match the per-group sum
        with pytest.raises(ValidationError):
            TestTally(2, ((1, 1, 2),))  # singleton can never use 2 tests


class TestMonteCarlo:
    def test_all_negative_point_mass(self):
        m = iid_model(16, 0.0)
        s = monte_carlo(m, blocks(16, 4), 50, 7)
        assert s.mean_tests == 4.0
        assert s.std_error == 0.0
        assert s.mean_efficiency == 4.0

    def test_all_positive_point_mass(self):
        m = iid_model(8, 1.0)
        s = monte_carlo(m, blocks(8, 8), 50, 7)
        assert s.mean_tests == 9.0
        assert s.std_error == 0.0

    def test_determinism_bit_for_bit(self):
        m = iid_model(40, 0.06)
        f = blocks(40, 8)
        a = monte_carlo(m, f, 300, 11)
        b = monte_carlo(m, f, 300, 11)
        assert a == b

    def test_mean_within_three_se_of_analytic(self):
        m = iid_model(20, 0.1)
        f = blocks(20, 4)
        analytic = expected_tests_partition(cost_vector(q_from_alpha(m)), f)
        s = monte_carlo(m, f, 3000, 12)
        assert abs(s.mean_tests - analytic) < 3 * s.std_error

    def test_totals_feed_summary(self):
        m = iid_model(12, 0.3)
        f = blocks(12, 3)
        totals = mc_trial_totals(m, f, 200, 5)
        s = monte_carlo(m, f, 200, 5)
        assert s.mean_tests == float(totals.mean())
        assert s.trials == 200

    def test_trial_guard(self):
        with pytest.raises(ValidationError):
            monte_carlo(iid_model(4, 0.1), blocks(4, 2), 0, 1)


def sampled_batches(model, count, seed):
    return [sample_outcome(model, substream(seed, b, 0)).statuses for b in range(count)]


class TestEmpiricalEvaluate:
    def test_all_negative_batch(self):
        mu = MultiplicityFunction(80, {8: 10})
        batch = [np.zeros(80, dtype=np.uint8)]
        for randomize in (False, True):
            s = empirical_evaluate(batch, mu, randomize, 5, 0)
            assert s.mean_tests == 10.0
            assert s.mean_efficiency == 8.0

    def test_all_positive_batch(self):
        mu = MultiplicityFunction(80, {8: 10})
        s = empirical_evaluate([np.ones(80, dtype=np.uint8)], mu, False, 1, 0)
        assert s.mean_tests == 90.0
        assert s.mean_efficiency == 80.0 / 90.0

    def test_deterministic_mode_reports_one_trial(self):
        batches = sampled_batches(iid_model(40, 0.1), 12, 77)
        s = empirical_evaluate(batches, MultiplicityFunction(40, {8: 5}), False, 999, 3)
        assert s.trials == 1
        assert s.std_error == 0.0

    def test_determinism(self):
        batches = sampled_batches(iid_model(40, 0.1), 10, 88)
        mu = MultiplicityFunction(40, {10: 4})
        assert empirical_evaluate(batches, mu, True, 60, 9) == empirical_evaluate(
            batches, mu, True, 60, 9
        )

    def test_agrees_with_analytic_for_sampled_batches(self):
        # batches drawn from the model: replay mean tests should track the
        # analytic expectation within the cohort's own sampling error
        m = iid_model(40, 0.05)
        batches = sampled_batches(m, 100, 55)
        mu = MultiplicityFunction(40, {8: 5})
        pools = pooling_from_multiplicity(mu, range(40))
        analytic = expected_tests_partition(cost_vector(q_from_alpha(m)), pools)
        s = empirical_evaluate(batches, mu, True, 500, 56)
        per_batch = np.array(
            [run_dorfman(pools, OutcomeVector(b)).total_tests for b in batches], dtype=float
        )
        cohort_se = per_batch.std(ddof=1) / math.sqrt(len(batches))
        bound = 3 * math.sqrt(cohort_se**2 + s.std_error**2)
        assert abs(s.mean_tests - analytic) < bound

    def test_exchangeable_cohort_order_does_not_matter(self):
        # batches from an exchangeable law: randomized and stored-order
        # replay agree within sampling noise
        batches = sampled_batches(iid_model(40, 0.05), 120, 77)
        mu = MultiplicityFunction(40, {8: 5})
        r = empirical_evaluate(batches, mu, True, 400, 78)
        d = empirical_evaluate(batches, mu, False, 1, 78)
        sigma_trial = r.efficiency_std_error * math.sqrt(r.trials)
        z = abs(d.mean_efficiency - r.mean_efficiency) / (
            sigma_trial * math.sqrt(1 + 1 / r.trials)
        )
        assert z < 3.0

    def test_clustered_cohort_order_does_matter(self):
        # positives packed into the leading slots: stored order confines
        # them to one pool, random assignment spreads them out
        rng = np.random.default_rng(9)
        batches = []
        for _ in range(120):
            row = np.zeros(40, dtype=np.uint8)
            if rng.random() < 0.3:
                row[:6] = 1
            batches.append(row)
        mu = MultiplicityFunction(40, {8: 5})
        r = empirical_evaluate(batches, mu, True, 400, 79)
        d = empirical_evaluate(batches, mu, False, 1, 79)
        assert d.mean_efficiency > r.mean_efficiency + 1.0

    def test_per_batch_aggregation(self):
        # design {2:2} on batches 0000 and 1101: totals 2 and 6 tests
        mu = MultiplicityFunction(4, {2: 2})
        batches = [np.array([0, 0, 0, 0]), np.array([1, 1, 0, 1])]
        agg = empirical_evaluate(batches, mu, False, 1, 0)
        per = empirical_evaluate(batches, mu, False, 1, 0, per_batch=True)
        assert agg.mean_tests == 4.0
        assert agg.mean_efficiency == 1.0
        assert per.mean_efficiency == (4.0 / 2.0 + 4.0 / 6.0) / 2.0

    def test_trial_totals_match_summary(self):
        batches = sampled_batches(iid_model(40, 0.08), 9, 31)
        mu = MultiplicityFunction(40, {5: 8})
        totals = empirical_trial_totals(batches, mu, True, 50, 4)
        s = empirical_evaluate(batches, mu, True, 50, 4)
        assert totals.shape == (50,)
        assert s.mean_tests == float((totals / 9).mean())

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            empirical_evaluate(
                [np.zeros(6, dtype=np.uint8)], MultiplicityFunction(4, {2: 2}), False, 1, 0
            )

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            empirical_evaluate([], MultiplicityFunction(4, {2: 2}), False, 1, 0)

    @pytest.mark.parametrize("bad", [2, -1, 0.6])
    @pytest.mark.parametrize("randomize", [False, True])
    @pytest.mark.parametrize("replay", [empirical_evaluate, empirical_trial_totals])
    def test_non_binary_statuses_rejected(self, replay, randomize, bad):
        batches = [np.array([0, 1, 0, 0]), np.array([0, bad, 0, 0])]
        with pytest.raises(ValidationError, match="0/1"):
            replay(batches, MultiplicityFunction(4, {2: 2}), randomize, 5, 0)


class TestTrialSummaryType:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrialSummary(0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            TrialSummary(5, 1.0, -0.1, 1.0, 0.0)

    def test_to_dict_round(self):
        s = TrialSummary(5, 2.0, 0.1, 4.0, 0.2)
        d = s.to_dict()
        assert d["trials"] == 5 and d["mean_efficiency"] == 4.0


class TestBlockKernel:
    """The block-drawing kernel against the stream layout documented in
    poolpart.simulate, rebuilt here one trial at a time."""

    def test_block_size_does_not_change_results(self, monkeypatch):
        import poolpart.simulate as sim

        m = iid_model(40, 0.08)
        f = blocks(40, 5)
        batches = sampled_batches(m, 12, 61)
        mu = MultiplicityFunction(40, {5: 8})

        def run_all():
            return (
                mc_trial_totals(m, f, 300, 62),
                empirical_trial_totals(batches, mu, True, 300, 63),
                empirical_evaluate(batches, mu, True, 300, 63, per_batch=True),
            )

        default = run_all()
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 1)  # one row per block
        one_row = run_all()
        assert default[0].tobytes() == one_row[0].tobytes()
        assert default[1].tobytes() == one_row[1].tobytes()
        assert default[2] == one_row[2]

    def test_constant_batches_draw_nothing(self, monkeypatch):
        import poolpart.simulate as sim

        calls = []

        def counted(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(sim, "substream", counted)
        batches = [np.zeros(20, dtype=np.uint8)] * 3 + [np.ones(20, dtype=np.uint8)] * 2
        mu = MultiplicityFunction(20, {4: 5})
        totals = empirical_trial_totals(batches, mu, True, 40, 5)
        per = empirical_evaluate(batches, mu, True, 40, 5, per_batch=True)
        assert calls == []
        assert np.all(totals == 3 * 5 + 2 * 25)
        assert math.isclose(per.mean_efficiency, (3 * 20 / 5 + 2 * 20 / 25) / 5, rel_tol=1e-15)
        assert per.std_error == per.efficiency_std_error == 0.0

    def test_mc_matches_documented_layout_on_uncovering_family(self):
        # interleaved groups, a singleton, and specimens 1 and 7 in no group
        f = GroupFamily(((8, 0, 5), (3,), (2, 9, 4, 6)))
        m = SymmetricModel(10, random_alpha(np.random.default_rng(64), 10))
        trials, seed = 150, 65
        counts = substream(seed, 0, 0).choice(11, size=trials, p=m.alpha)
        keys = substream(seed, 1, 0).random((trials, 10))
        want = []
        for t in range(trials):
            x = np.zeros(10, dtype=np.uint8)
            x[np.argsort(keys[t])[: counts[t]]] = 1
            want.append(run_dorfman(f, OutcomeVector(x)).total_tests)
        assert mc_trial_totals(m, f, trials, seed).tolist() == want

    def test_replay_matches_documented_layout(self):
        batches = sampled_batches(iid_model(24, 0.15), 6, 66)
        batches[2] = np.zeros(24, dtype=np.uint8)  # constant: draws nothing
        mu = MultiplicityFunction(24, {6: 2, 4: 2, 1: 4})
        pools = pooling_from_multiplicity(mu, range(24))
        trials, seed = 30, 67
        want = np.zeros(trials)
        for b, row in enumerate(batches):
            keys = substream(seed, b, 0).random((trials, 24))
            for t in range(trials):
                want[t] += run_dorfman(pools, OutcomeVector(row[np.argsort(keys[t])])).total_tests
        assert empirical_trial_totals(batches, mu, True, trials, seed).tolist() == want.tolist()

    def test_replay_mean_matches_symmetric_fit_cost(self):
        # with laplace = 0 the symmetric fit is the cohort's count histogram,
        # and a uniformly random assignment draws each pool's members
        # without replacement, so the replay mean equals the fit's analytic
        # cost exactly in expectation
        from poolpart import fit_symmetric

        rng = np.random.default_rng(68)
        batches = []
        for _ in range(150):
            row = np.zeros(40, dtype=np.uint8)
            row[: rng.choice([0, 0, 0, 1, 3, 7])] = 1  # clustered, stored first
            batches.append(row)
        m_sym = fit_symmetric(batches, laplace=0.0)
        for counts in ({8: 5}, {10: 3, 5: 2}, {3: 13, 1: 1}):
            mu = MultiplicityFunction(40, counts)
            pools = pooling_from_multiplicity(mu, range(40))
            analytic = expected_tests_partition(cost_vector(q_from_alpha(m_sym)), pools)
            s = empirical_evaluate(batches, mu, True, 2000, 69)
            assert s.std_error > 0.0
            assert abs(s.mean_tests - analytic) < 4 * s.std_error
