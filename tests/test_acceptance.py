"""End-to-end checks, one per release criterion.

Each test is self-contained and uses frozen seeds; the terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion.
"""

import math

import numpy as np

from conftest import random_alpha
from poolpart import (
    CostVector,
    MultiplicityFunction,
    SymmetricModel,
    alpha_from_w,
    brute_force_solve,
    cost_vector,
    dp_solve,
    efficiency,
    expected_tests_group,
    expected_tests_partition,
    filter_pools,
    iid_model,
    impute_batches,
    kl_counts,
    marginal_zero_bruteforce,
    monte_carlo,
    parse_pools,
    pooling_from_multiplicity,
    prevalence,
    q_from_alpha,
    sample_outcome,
    strategy_multiplicity,
    substream,
    w_from_alpha,
    w_from_q,
    write_batches,
)
from poolpart.cli import main
from poolpart.estimate import fit_iid, fit_symmetric
from poolpart.ingest import Batch


def clustered_model(n, share, k_hot):
    """Mass split between zero positives and exactly k_hot positives."""
    alpha = np.zeros(n + 1)
    alpha[0] = 1.0 - share
    alpha[k_hot] = share
    return SymmetricModel(n, alpha)


def sampled_batches(m, count, seed):
    return [sample_outcome(m, substream(seed, b, 0)).statuses for b in range(count)]


def test_criterion_01_size8_efficiency_at_prevalence_1624():
    """Ten pools of 8 over 80 IID specimens at 1.624% prevalence: 4.04."""
    m = iid_model(80, 0.01624)
    pools = pooling_from_multiplicity(MultiplicityFunction(80, {8: 10}), range(80))
    tests = expected_tests_partition(cost_vector(q_from_alpha(m)), pools)
    assert abs(efficiency(80, tests) - 4.04) <= 0.005
    # a single pool of 8 gives the same per-specimen figure
    one = expected_tests_group(q_from_alpha(iid_model(8, 0.01624)), 8)
    assert abs(efficiency(8, one) - 4.04) <= 0.005


def test_criterion_02_size8_efficiency_at_prevalence_1695():
    """Size-8 pooling at 1.695% prevalence: 3.96."""
    tests = expected_tests_group(q_from_alpha(iid_model(8, 0.01695)), 8)
    assert abs(efficiency(8, tests) - 3.96) <= 0.005


def test_criterion_03_fixed_dorfman_and_iid_strategies_coincide():
    """Fitting 2000 simulated IID batches at 1.624% prevalence, the fixed
    size-8, classical-Dorfman and IID-optimal strategies all choose ten
    pools of 8."""
    truth = iid_model(80, 0.01624)
    batches = sampled_batches(truth, 2000, seed=2)
    m_iid = fit_iid(batches)
    m_sym = fit_symmetric(batches)
    want = MultiplicityFunction(80, {8: 10})
    cv_iid = cost_vector(q_from_alpha(m_iid))
    for name in ("team8", "dorfman", "iid"):
        assert strategy_multiplicity(name, 80, prevalence(m_iid), cv_iid) == want


def test_criterion_04_ingest_conserves_specimens(tmp_path):
    """Cleaning and batching never invent or silently lose specimens: drops
    are itemized per rule and the trailing remainder is reported.  (The
    data-dependent efficiency figures have no fixture here; the clustered
    cohort in criterion 08 covers the qualitative gain instead.)"""
    rows = ["pool_id,run_timestamp,pool_size,statuses"]
    for i in range(41):
        rows.append(f"g{i},2020-04-05T09:{i:02d}:00,8,NNNNNNN{'P' if i % 7 == 0 else 'N'}")
    rows.append("no-ts,,8,NNNNNNNN")
    rows.append("small,2020-04-05T12:00:00,5,NNNNN")
    rows.append("inc,2020-04-05T12:01:00,8,NNNNNNNI")
    rows.append("both,,5,NNNNN")  # no timestamp and excluded size
    path = tmp_path / "pools.csv"
    path.write_text("\n".join(rows) + "\n")

    records = parse_pools(path)
    specimens_in = sum(r.pool_size for r in records)
    kept, dropped = filter_pools(records, excluded_sizes={5})
    batches, remainder = impute_batches(kept, 80)

    assert len(records) == 45
    assert dropped == {
        "no_timestamp": 2,  # "both" fails the timestamp rule first
        "excluded_size": 1,
        "inconclusive": 1,
        "dropped_specimens": 8 + 5 + 8 + 5,
    }
    kept_specimens = sum(r.pool_size for r in kept)
    assert kept_specimens == specimens_in - dropped["dropped_specimens"]
    assert len(batches) * 80 + remainder == kept_specimens
    assert remainder == (41 * 8) % 80
    assert sum(b.statuses.sum() for b in batches) <= sum(
        r.statuses.count("P") for r in kept
    )


def test_criterion_05_q_matches_bruteforce_and_roundtrips():
    """100 random models with n <= 8: q equals the all-outcomes marginal
    within 1e-10, and alpha -> q -> w -> alpha returns within 1e-9."""
    rng = np.random.default_rng(900)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = SymmetricModel(n, random_alpha(rng, n))
        qc = q_from_alpha(m)
        for h in range(n + 1):
            assert abs(qc.q[h] - marginal_zero_bruteforce(m, h)) <= 1e-10
        back = alpha_from_w(w_from_q(qc))
        assert np.max(np.abs(back.alpha - m.alpha)) <= 1e-9
        # and the direct alpha <-> w conversion commutes with the q route
        assert np.max(np.abs(w_from_q(qc).w - w_from_alpha(m).w)) <= 1e-9


def test_criterion_06_dp_matches_bruteforce_partition_search():
    """dp_solve equals exhaustive integer-partition search to 1e-12
    relative, 120 random cost vectors, targets <= 12, a third of them
    max-size-restricted."""
    checked = 0
    for seed in range(120):
        rng = np.random.default_rng(1000 + seed)
        target = 1 + seed % 12
        cap = target
        if seed % 3 == 0 and target > 1:
            cap = int(rng.integers(1, target + 1))
        c = np.empty(cap + 1)
        c[0] = np.nan
        c[1:] = rng.uniform(0.5, 2.0, cap) * np.arange(1, cap + 1) ** rng.uniform(0, 1)
        cv = CostVector(target, c)
        mu_dp, table = dp_solve(cv, target)
        mu_bf = brute_force_solve(cv, target)
        value_dp = table.values[target]
        value_bf = math.fsum(cv.c[i] * mult for i, mult in mu_bf.counts)
        assert abs(value_dp - value_bf) <= 1e-12 * max(1.0, abs(value_bf))
        assert mu_dp.target == mu_bf.target == target
        checked += 1
    assert checked >= 100


def test_criterion_07_monte_carlo_agrees_with_analytic():
    """Simulated mean tests within 3 standard errors of the analytic value
    for three fixed (model, pooling) pairs at 10,000 trials."""
    pairs = [
        (iid_model(80, 0.01624), MultiplicityFunction(80, {8: 10}), 11),
        (clustered_model(40, 0.15, 6), MultiplicityFunction(40, {10: 4}), 12),
        (iid_model(30, 0.1), MultiplicityFunction(30, {5: 6}), 13),
    ]
    for m, mu, seed in pairs:
        pools = pooling_from_multiplicity(mu, range(m.n))
        analytic = expected_tests_partition(cost_vector(q_from_alpha(m)), pools)
        s = monte_carlo(m, pools, trials=10000, seed=seed)
        assert s.std_error > 0.0
        assert abs(s.mean_tests - analytic) <= 3.0 * s.std_error


def test_criterion_08_symmetric_fit_beats_iid_fit_on_clustered_cohort():
    """On 2000 batches where positives arrive 8 at a time (prevalence
    1.6%), the partition optimized under the fitted exchangeable model
    needs strictly fewer expected tests under that model than the
    IID-optimal partition, and uses larger pools."""
    truth = clustered_model(80, 0.16, 8)
    batches = sampled_batches(truth, 2000, seed=21)
    m_iid = fit_iid(batches)
    m_sym = fit_symmetric(batches)
    p_iid = prevalence(m_iid)
    cv = cost_vector(q_from_alpha(m_sym))
    mu_iid = strategy_multiplicity("iid", 80, p_iid, cost_vector(q_from_alpha(m_iid)))
    mu_sym = strategy_multiplicity("symmetric", 80, p_iid, cv)
    t_iid = expected_tests_partition(cv, pooling_from_multiplicity(mu_iid, range(80)))
    t_sym = expected_tests_partition(cv, pooling_from_multiplicity(mu_sym, range(80)))
    assert t_sym < t_iid
    assert mu_sym.max_part > mu_iid.max_part
    assert mu_sym.num_parts < mu_iid.num_parts


def test_criterion_09_count_kl_equals_outcome_kl():
    """kl_counts on the count distributions equals the divergence between
    the full 2^8 outcome distributions, within 1e-10."""
    rng = np.random.default_rng(903)
    for _ in range(10):
        mr = SymmetricModel(8, random_alpha(rng, 8))
        mp = SymmetricModel(8, random_alpha(rng, 8))
        wr = w_from_alpha(mr).w
        wp = w_from_alpha(mp).w
        brute = math.fsum(
            wr[k] * math.log(wr[k] / wp[k])
            for z in range(1 << 8)
            for k in (bin(z).count("1"),)
        )
        assert abs(kl_counts(mr, mp) - brute) <= 1e-10


def test_criterion_10_report_is_byte_deterministic(tmp_path):
    """Two `report` runs with the same seed and inputs write identical
    bytes."""
    gen = iid_model(80, 0.016)
    batches = [
        Batch(b, sample_outcome(gen, substream(950, b, 0)).statuses) for b in range(30)
    ]
    data = tmp_path / "batches.csv"
    write_batches(data, batches)
    argv = ["report", "--batches", str(data), "--trials", "60", "--seed", "17"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    blob = out1.read_bytes()
    assert blob == out2.read_bytes()
    assert len(blob) > 0
