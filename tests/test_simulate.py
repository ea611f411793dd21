import json
import math
from collections import Counter

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
    summarize_totals,
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

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_trials_are_non_boolean_integers(self, bad):
        batches = [np.array([0, 1, 0, 0])]
        for draw in (
            lambda: monte_carlo(iid_model(4, 0.1), blocks(4, 2), bad, 1),
            lambda: empirical_trial_totals(batches, MultiplicityFunction(4, {2: 2}), True, bad, 1),
        ):
            with pytest.raises(ValidationError) as err:
                draw()
            assert str(err.value) == f"trials must be an integer >= 1, got {bad!r}"
        totals = mc_trial_totals(iid_model(4, 0.1), blocks(4, 2), np.int64(3), 1)
        assert totals.tolist() == mc_trial_totals(iid_model(4, 0.1), blocks(4, 2), 3, 1).tolist()


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
        assert agg.mean_tests == 4.0
        assert agg.mean_efficiency == 1.0

    @pytest.mark.parametrize("randomize, trials", [(True, 50), (False, 1)])
    def test_trial_totals_match_summary(self, randomize, trials):
        batches = sampled_batches(iid_model(40, 0.08), 9, 31)
        mu = MultiplicityFunction(40, {5: 8})
        totals = empirical_trial_totals(batches, mu, randomize, 50, 4)
        s = empirical_evaluate(batches, mu, randomize, 50, 4)
        assert totals.shape == (trials,)
        assert s.mean_tests == float((totals / 9).mean())
        assert s == summarize_totals(totals, 40, len(batches))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("replay", [empirical_evaluate, empirical_trial_totals])
    def test_out_of_range_seed_rejected_on_constant_cohort(self, replay, seed):
        # constant batches draw no keys, so the seed is checked up front
        batches = [np.zeros(4, dtype=np.uint8), np.ones(4, dtype=np.uint8)]
        mu = MultiplicityFunction(4, {2: 2})
        with pytest.raises(ValidationError, match="seed"):
            replay(batches, mu, True, 5, seed)
        replay(batches, mu, False, 5, seed)  # stored order uses no seed

    @pytest.mark.parametrize("seed", [1.5, "x", True])
    def test_non_integer_seed_rejected_everywhere(self, seed):
        # 1.5 used to run as seed 1, True as seed 1, "x" as a bare ValueError
        m = iid_model(4, 0.3)
        batches = [np.array([0, 1, 0, 0]), np.array([1, 1, 0, 0])]
        for draw in (
            lambda: substream(seed),
            lambda: monte_carlo(m, blocks(4, 2), 5, seed),
            lambda: empirical_evaluate(batches, MultiplicityFunction(4, {2: 2}), True, 5, seed),
            lambda: sample_outcome(m, seed),
        ):
            with pytest.raises(ValidationError, match=f"^seed must be a uint64, got {seed!r}$"):
                draw()

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

    @pytest.mark.parametrize("trials", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_trials_are_read_by_check_int(self, trials):
        with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
            TrialSummary(trials, 1.0, 0.0, 1.0, 0.0)

    def test_to_dict_round(self):
        for trials in (5, np.int64(5)):  # a numpy count is stored as an int
            s = TrialSummary(trials, 2.0, 0.1, 4.0, 0.2)
            d = s.to_dict()
            assert d["trials"] == 5 and d["mean_efficiency"] == 4.0
            assert type(s.trials) is int and json.loads(json.dumps(d)) == d


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
                empirical_evaluate(batches, mu, True, 300, 63),
            )

        default = run_all()
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 0)  # one row per block
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
        s = empirical_evaluate(batches, mu, True, 40, 5)
        assert calls == []
        assert np.all(totals == 3 * 5 + 2 * 25)
        assert math.isclose(s.mean_efficiency, 5 * 20 / 65, rel_tol=1e-15)
        assert s.std_error == s.efficiency_std_error == 0.0

    def test_mc_matches_documented_layout_on_uncovering_family(self):
        # interleaved groups, a singleton, and specimens 1 and 7 in no group
        f = GroupFamily(((8, 0, 5), (3,), (2, 9, 4, 6)))
        m = SymmetricModel(10, random_alpha(np.random.default_rng(64), 10))
        trials, seed = 150, 65
        x = floyd_outcomes(m, trials, seed)
        want = np.array([run_dorfman(f, OutcomeVector(row)).total_tests for row in x], dtype=float)
        assert mc_trial_totals(m, f, trials, seed).tobytes() == want.tobytes()

    def test_replay_matches_documented_layout(self):
        batches = sampled_batches(iid_model(24, 0.15), 6, 66)
        batches[2] = np.zeros(24, dtype=np.uint8)  # constant: draws nothing
        mu = MultiplicityFunction(24, {6: 2, 4: 2, 1: 4})
        pools = pooling_from_multiplicity(mu, range(24))
        trials, seed = 30, 67
        want = np.zeros(trials)
        for b, row in enumerate(batches):
            uniforms = substream(seed, b, 0)
            for t in range(trials):
                x = floyd_subset(uniforms, 24, int(row.sum()))
                want[t] += run_dorfman(pools, OutcomeVector(x)).total_tests
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


def floyd_subset(uniforms, n, k):
    """One trial of the subset layout documented in poolpart.simulate:
    min(k, n - k) picks by Floyd's algorithm from the next uniforms of
    `uniforms`, as a 0/1 row of n with exactly k positives."""
    picks = min(k, n - k)
    chosen = set()
    for i, u in enumerate(uniforms.random(picks).tolist()):
        j = n - picks + i
        pos = math.floor(u * (j + 1))
        chosen.add(j if pos in chosen else pos)
    x = np.full(n, k > n - k, dtype=np.uint8)
    x[sorted(chosen)] = k <= n - k
    return x


def floyd_outcomes(m, trials, seed, stream=substream):
    """The Monte Carlo layout, one trial at a time: k_t from lane 0, then
    floyd_subset from lane 1, as a (trials x n) outcome matrix."""
    counts = stream(seed, 0, 0).choice(m.n + 1, size=trials, p=m.alpha)
    uniforms = stream(seed, 1, 0)
    return np.array([floyd_subset(uniforms, m.n, k) for k in counts.tolist()])


def floyd_reference(m, f, trials, seed, stream=substream):
    """floyd_outcomes tallied by GroupFamily.tests, as total tests per trial."""
    return f.tests(floyd_outcomes(m, trials, seed, stream)).astype(float)


def replay_reference(batches, mu, trials, seed):
    """The replay layout, one batch at a time: floyd_subset from lane b
    with batch b's positive count in every trial, tallied by
    GroupFamily.tests.  A constant batch reads no uniforms."""
    n = mu.target
    f = pooling_from_multiplicity(mu, range(n))
    totals = np.zeros(trials)
    for b, row in enumerate(batches):
        uniforms, k = substream(seed, b, 0), int(row.sum())
        totals += f.tests(np.array([floyd_subset(uniforms, n, k) for _ in range(trials)]))
    return totals


def argsort_kernel(m, f, trials, seed):
    """The argsort layout mc_trial_totals used before Floyd's algorithm,
    kept as a distribution oracle: trial t's positives are the first k_t
    entries of the argsort of row t of a (trials x n) key matrix."""
    n = m.n
    counts = substream(seed, 0, 0).choice(n + 1, size=trials, p=m.alpha)
    order = substream(seed, 1, 0).random((trials, n)).argsort(axis=1)
    x = np.empty(order.shape, dtype=np.uint8)
    np.put_along_axis(x, order, np.arange(n) < counts[:, None], axis=1)
    return f.tests(x).astype(float)


def random_family(rng, n):
    """Groups cut from a random permutation of a random subset: interleaved
    members, singletons, and usually some specimens in no group."""
    covered = rng.permutation(n)[: rng.integers(1, n + 1)]
    cuts = rng.choice(np.arange(1, covered.size), size=rng.integers(0, covered.size), replace=False)
    return GroupFamily(tuple(map(tuple, np.split(covered, np.sort(cuts)))))


def random_mc_case(rng):
    n = int(rng.integers(1, 201))
    alpha = rng.dirichlet(np.full(n + 1, rng.choice([0.1, 1.0])))
    return SymmetricModel(n, alpha), random_family(rng, n), int(rng.integers(1, 3001))


def random_multiplicity(rng, n):
    """Part sizes cut from 1..n at random cut points."""
    cuts = rng.choice(np.arange(1, n), size=rng.integers(0, n), replace=False)
    sizes = np.diff(np.sort(np.concatenate([[0, n], cuts])))
    return MultiplicityFunction(n, Counter(sizes.tolist()))


def random_cohort(rng, n):
    """1-8 batches of n: all negative, all positive, or of a random
    prevalence, so constant and non-constant batches mix."""
    kinds = rng.choice(["neg", "pos", "mixed", "mixed", "mixed"], size=rng.integers(1, 9))
    cut = {"neg": 0.0, "pos": 1.0}
    return [(rng.random(n) < cut.get(kind, rng.random())).astype(np.uint8) for kind in kinds]


class FourValuedUniforms:
    """Stand-in generator whose uniforms take the values 0, 1/4, 1/2 and
    3/4, read from a real stream, so Floyd's steps often land on a position
    already picked."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size):
        return np.floor(self.rng.random(size) * 4) / 4


class LargestUniform:
    """Stand-in generator that always returns 1 - 2**-53, the largest value
    Generator.random can."""

    def random(self, size):
        return np.full(size, 1 - 2.0**-53)


class CountedUniforms:
    """A real stream that counts the uniforms read from it."""

    def __init__(self, rng):
        self.rng = rng
        self.read = 0

    def random(self, size):
        self.read += size
        return self.rng.random(size)


def serving_lane_1(gen):
    """A substream stand-in that returns gen for lane 1."""
    return lambda seed, lane, draw: gen if lane == 1 else substream(seed, lane, draw)


def four_valued_lane_1(seed, lane, draw):
    rng = substream(seed, lane, draw)
    return FourValuedUniforms(rng) if lane == 1 else rng


def recorded_rows(monkeypatch):
    """Every outcome row the simulations tally, in call order, rebuilt from
    the cells _tally reads and flipped where the picks are the negatives."""
    import poolpart.simulate as sim

    rows, tally = [], sim._tally

    def recording_tally(f, group, counts, blocks):
        n, blocks = len(group), list(blocks)
        for block, cells in blocks:
            k = counts[block]
            x = np.zeros(len(k) * n, dtype=np.uint8)
            x[cells] = 1
            rows.extend(x.reshape(len(k), n) ^ (k > n - k)[:, None].astype(np.uint8))
        return tally(f, group, counts, blocks)

    monkeypatch.setattr(sim, "_tally", recording_tally)
    return rows


class TestFloydKernel:
    """mc_trial_totals against the documented layout, bit for bit, and
    against the argsort layout it replaced, in distribution."""

    @pytest.mark.parametrize("one_row", [False, True])
    @pytest.mark.parametrize("chunk", range(20))
    def test_matches_floyd_reference(self, chunk, one_row, monkeypatch):
        import poolpart.simulate as sim

        if one_row:  # one row per block, on a tenth of the trials
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 0)
        rng = np.random.default_rng([70, chunk])
        for case in range(10):
            m, f, trials = random_mc_case(rng)
            trials = 1 + trials // 10 if one_row else trials
            seed = 1000 * chunk + case
            got = mc_trial_totals(m, f, trials, seed)
            assert got.tobytes() == floyd_reference(m, f, trials, seed).tobytes()

    def test_edge_sizes(self):
        for n in (1, 2):
            m = SymmetricModel(n, np.full(n + 1, 1.0 / (n + 1)))
            for f in (GroupFamily(((0,),)), GroupFamily((tuple(range(n)),))):
                for trials in (1, 2, 3000):
                    got = mc_trial_totals(m, f, trials, 72)
                    assert got.tobytes() == floyd_reference(m, f, trials, 72).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 200])
    def test_tied_keys_keep_exactly_k_positives(self, n, monkeypatch):
        import poolpart.simulate as sim

        rng = np.random.default_rng([73, n])
        m = SymmetricModel(n, rng.dirichlet(np.ones(n + 1)))
        f = random_family(rng, n)
        trials, seed = 500, 74
        want = floyd_reference(m, f, trials, seed, four_valued_lane_1)
        monkeypatch.setattr(sim, "substream", four_valued_lane_1)
        rows = recorded_rows(monkeypatch)
        got = mc_trial_totals(m, f, trials, seed)
        counts = substream(seed, 0, 0).choice(n + 1, size=trials, p=m.alpha)
        assert [int(r.sum()) for r in rows] == counts.tolist()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("one_row", [False, True])
    @pytest.mark.parametrize("family", ["singletons", "one-group", "random"])
    @pytest.mark.parametrize("n", [301, 302])
    def test_flip_boundary(self, n, family, one_row, monkeypatch):
        # k = n // 2 and n // 2 + 1 fall on both sides of k <= n - k, so the
        # picks are the positives on some rows and the negatives on others
        import poolpart.simulate as sim

        if one_row:  # one row per block, on a tenth of the trials
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 0)
        f = {
            "singletons": GroupFamily(tuple((i,) for i in range(n))),
            "one-group": GroupFamily((tuple(range(n)),)),
            "random": random_family(np.random.default_rng([88, n]), n),
        }[family]
        assert family != "random" or f.covered < n  # some specimens in no group
        alpha = np.bincount([n // 2, n // 2 + 1], weights=[0.5, 0.5], minlength=n + 1)
        m = SymmetricModel(n, alpha)
        trials = 30 if one_row else 300
        got = mc_trial_totals(m, f, trials, 89)
        assert got.tobytes() == floyd_reference(m, f, trials, 89).tobytes()

    @pytest.mark.parametrize("family", ["iid", "clustered"])
    def test_mean_matches_argsort_layout(self, family):
        if family == "iid":
            m = iid_model(40, 0.05)
        else:  # no positives, or exactly 6
            m = SymmetricModel(40, np.bincount([0, 6], weights=[0.8, 0.2], minlength=41))
        f = blocks(40, 5)
        a = summarize_totals(mc_trial_totals(m, f, 100_000, 78), 40)
        b = summarize_totals(argsort_kernel(m, f, 100_000, 78), 40)
        assert abs(a.mean_tests - b.mean_tests) < 4 * math.hypot(a.std_error, b.std_error)

    @pytest.mark.parametrize("n", [1, 7, 40, 201])
    def test_reads_one_uniform_per_pick(self, n, monkeypatch):
        import poolpart.simulate as sim

        rng = np.random.default_rng([79, n])
        m = SymmetricModel(n, rng.dirichlet(np.ones(n + 1)))
        lane_1 = CountedUniforms(substream(80, 1, 0))
        monkeypatch.setattr(sim, "substream", serving_lane_1(lane_1))
        mc_trial_totals(m, random_family(rng, n), 700, 80)
        counts = substream(80, 0, 0).choice(n + 1, size=700, p=m.alpha)
        assert lane_1.read == np.minimum(counts, n - counts).sum()

    def test_point_masses_at_zero_and_n_read_nothing(self, monkeypatch):
        import poolpart.simulate as sim

        lane_1 = CountedUniforms(substream(81, 1, 0))
        monkeypatch.setattr(sim, "substream", serving_lane_1(lane_1))
        m = SymmetricModel(30, np.bincount([0, 30], weights=[0.7, 0.3], minlength=31))
        totals = mc_trial_totals(m, blocks(30, 6), 500, 81)
        assert lane_1.read == 0
        assert set(totals.tolist()) == {5.0, 35.0}

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 301])
    def test_largest_uniform_stays_in_range(self, n, monkeypatch):
        # floor(u * (j + 1)) is j for u = 1 - 2**-53, so step i picks
        # n - m_t + i: the last m_t specimens, never a position out of range
        import poolpart.simulate as sim

        monkeypatch.setattr(sim, "substream", serving_lane_1(LargestUniform()))
        rows = recorded_rows(monkeypatch)
        m = SymmetricModel(n, np.full(n + 1, 1.0 / (n + 1)))
        mc_trial_totals(m, GroupFamily((tuple(range(n)),)), 400, 82)
        counts = substream(82, 0, 0).choice(n + 1, size=400, p=m.alpha)
        spec = np.arange(n)
        want = [np.where(k <= n - k, spec >= n - k, spec < k) for k in counts.tolist()]
        assert np.array_equal(np.array(rows), np.array(want, dtype=np.uint8))


class TestReplayKernel:
    """Randomized replay against the documented layout, bit for bit, with
    the same checks as TestFloydKernel."""

    @pytest.mark.parametrize("one_row", [False, True])
    @pytest.mark.parametrize("chunk", range(4))
    def test_matches_replay_reference(self, chunk, one_row, monkeypatch):
        import poolpart.simulate as sim

        if one_row:  # one row per block, on a tenth of the trials
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 0)
        rng = np.random.default_rng([84, chunk])
        for case in range(10):
            n = int(rng.integers(1, 121))
            mu, batches = random_multiplicity(rng, n), random_cohort(rng, n)
            trials = int(rng.integers(1, 301))
            trials = 1 + trials // 10 if one_row else trials
            seed = 1000 * chunk + case
            got = empirical_trial_totals(batches, mu, True, trials, seed)
            assert got.tobytes() == replay_reference(batches, mu, trials, seed).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 40, 201])
    def test_reads_one_uniform_per_pick(self, n, monkeypatch):
        import poolpart.simulate as sim

        lanes = []

        def counted(seed, lane, draw):
            lanes.append((lane, draw, CountedUniforms(substream(seed, lane, draw))))
            return lanes[-1][2]

        monkeypatch.setattr(sim, "substream", counted)
        rng = np.random.default_rng([85, n])
        batches = random_cohort(rng, n)
        empirical_trial_totals(batches, random_multiplicity(rng, n), True, 300, 86)
        ks = [int(row.sum()) for row in batches]
        want = [(b, 0, 300 * min(k, n - k)) for b, k in enumerate(ks) if 0 < k < n]
        assert [(lane, draw, c.read) for lane, draw, c in lanes] == want

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 301])
    def test_largest_uniform_stays_in_range(self, n, monkeypatch):
        # step i picks slot n - m + i: the last m slots, never one out of range
        import poolpart.simulate as sim

        monkeypatch.setattr(sim, "substream", lambda seed, lane, draw: LargestUniform())
        rows = recorded_rows(monkeypatch)
        ks = np.linspace(0, n, 7).astype(int).tolist()
        batches = [(np.arange(n) < k).astype(np.uint8) for k in ks]
        empirical_trial_totals(batches, MultiplicityFunction(n, {n: 1}), True, 40, 87)
        spec = np.arange(n)
        want = [spec < k for k in ks if k in (0, n)]  # constant batches, tallied once, first
        for k in ks:
            if k not in (0, n):
                want += [np.where(k <= n - k, spec >= n - k, spec < k)] * 40
        assert np.array_equal(np.array(rows), np.array(want, dtype=np.uint8))

    def test_stored_order_matches_row_scan(self):
        from poolpart.model import status_matrix

        rng = np.random.default_rng(90)
        kinds = Counter()
        for case in range(40):
            n = 1 + case * 119 // 39  # 1 to 120
            mu, batches = random_multiplicity(rng, n), random_cohort(rng, n)
            k = np.array([int(row.sum()) for row in batches])
            kinds.update({"neg": (k == 0).sum(), "pos": (k == n).sum(), "flip": (2 * k > n).sum()})
            f = pooling_from_multiplicity(mu, range(n))
            want = f.tests(status_matrix(batches, n)).sum()
            assert empirical_trial_totals(batches, mu, False, 1, case).tolist() == [want]
        assert min(kinds.values()) >= 10


def test_no_simulation_calls_the_row_scan(monkeypatch, tmp_path):
    # GroupFamily.tests is the tests' reference; every simulation tallies picks
    from poolpart.cli import main

    def row_scan(f, rows):
        raise AssertionError("GroupFamily.tests called")

    monkeypatch.setattr(GroupFamily, "tests", row_scan)
    m, mu = iid_model(12, 0.3), MultiplicityFunction(12, {3: 2, 2: 3})
    mc_trial_totals(m, blocks(12, 4), 300, 91)
    rows = ["NNNNNNNNNNNN", "PPPPPPPPPPPP", "NNPNNNNNPNNN", "PPNPPPPPPNPP"]
    batches = [np.array([c == "P" for c in r], dtype=np.uint8) for r in rows]
    for randomize in (False, True):
        empirical_trial_totals(batches, mu, randomize, 300, 91)
    path = tmp_path / "b.csv"
    path.write_text("batch_index,statuses\n" + "".join(f"{i},{r}\n" for i, r in enumerate(rows)))
    argv = ["report", "--batches", str(path), "--trials", "50"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0


def variance_from_q(q, f):
    """Var[T] of a family's total tests from the q curve.  Two disjoint
    groups are both negative with probability q[h_i + h_j], since their
    union is one group of h_i + h_j specimens; r_j is the retest charge."""
    h, r = f.sizes, f.retest.tolist()
    pairs = [(i, j) for i in range(len(h)) for j in range(len(h)) if i != j]
    return math.fsum(
        [r[j] ** 2 * q[h[j]] * (1 - q[h[j]]) for j in range(len(h))]
        + [r[i] * r[j] * (q[h[i] + h[j]] - q[h[i]] * q[h[j]]) for i, j in pairs]
    )


class TestSecondMoment:
    """The Monte Carlo sample variance against the exact variance from q,
    within 4 standard errors taken from the sample's fourth central moment."""

    @pytest.mark.parametrize("family, counts", [("iid", {8: 10}), ("clustered", {10: 8})])
    def test_mc_variance_matches_q(self, family, counts):
        if family == "iid":
            m = iid_model(80, 0.02)
        else:  # no positives, or exactly 8, as in acceptance criterion 08
            m = SymmetricModel(80, np.bincount([0, 8], weights=[0.84, 0.16], minlength=81))
        f = pooling_from_multiplicity(MultiplicityFunction(80, counts), range(80))
        want = variance_from_q(q_from_alpha(m).q, f)
        for seed in (75, 76, 77):
            t = mc_trial_totals(m, f, 20000, seed)
            s2 = t.var(ddof=1)
            m4 = np.mean((t - t.mean()) ** 4)
            se = math.sqrt((m4 - s2**2 * (t.size - 3) / (t.size - 1)) / t.size)
            assert abs(s2 - want) < 4 * se
