"""Tests for the benchmark's own oracles and tracer.

    python3 -m pytest bench/test_bench.py

Each oracle must accept poolpart's real output and reject a deliberately
wrong one; a traced call must return exactly what an untraced call does.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import poolpart.cli as cli  # noqa: E402
import poolpart.cost as cost  # noqa: E402
import poolpart.ingest as ingest  # noqa: E402
import poolpart.model as model  # noqa: E402
import poolpart.optimize as optimize  # noqa: E402
import poolpart.simulate as simulate  # noqa: E402

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import beta_binomial_alpha  # noqa: E402


def _plan(m):
    cv = cost.cost_vector(model.q_from_alpha(m))
    mu, _ = optimize.dp_solve(cv, m.n)
    pools = optimize.pooling_from_multiplicity(mu, range(m.n))
    return mu, pools, cost.expected_tests_partition(cv, pools)


def test_hypergeometric_q_matches_closed_forms():
    n, p = 60, 0.03
    binomial = model.iid_model(n, p).alpha
    assert np.allclose(oracles.hypergeom_q(binomial), oracles.iid_q(n, p), rtol=1e-12, atol=0)
    a, b = 0.3, 14.7  # beta-binomial: q[h] = B(a, b + h) / B(a, b)
    want = [math.exp(math.lgamma(b + h) - math.lgamma(a + b + h) - math.lgamma(b) + math.lgamma(a + b))
            for h in range(n + 1)]
    assert np.allclose(oracles.hypergeom_q(beta_binomial_alpha(n, a, b)), want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n, p", [(40, 0.02), (120, 0.08)])
def test_plan_oracle_rejects_non_optimal_multiplicity(n, p):
    mu, _, reported = _plan(model.iid_model(n, p))
    q = oracles.iid_q(n, p)
    assert oracles.check_plan(mu.counts, reported, n, q) == []

    worse = optimize.MultiplicityFunction(n, {1: n})
    cv = cost.cost_vector(model.q_from_alpha(model.iid_model(n, p)))
    worse_cost = cost.expected_tests_partition(cv, optimize.pooling_from_multiplicity(worse, range(n)))
    problems = oracles.check_plan(worse.counts, worse_cost, n, q)
    assert len(problems) == 1 and "optimum" in problems[0]

    assert oracles.check_plan(mu.counts, reported * (1 + 1e-6), n, q)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A real `report` on a small clustered cohort, with the cohort."""
    rng = np.random.default_rng(3)
    x = (rng.random((40, 16)) < rng.beta(0.3, 10.0, size=40)[:, None]).astype(np.uint8)
    work = tmp_path_factory.mktemp("report")
    batches = [ingest.Batch(i, row) for i, row in enumerate(x)]
    ingest.write_batches(work / "batches.csv", batches)
    rc = cli.main(["report", "--batches", str(work / "batches.csv"), "--batch-size", "16",
                   "--trials", "300", "--seed", "5", "--out", str(work / "report.json")])
    assert rc == 0
    with open(work / "report.json") as fh:
        return json.load(fh), x


def test_report_oracle_accepts_real_report(small_report):
    doc, x = small_report
    assert oracles.check_report(doc, x, 300) == []


def test_report_oracle_rejects_deterministic_count_off_by_one(small_report):
    doc, x = small_report
    bad = copy.deepcopy(doc)
    det = bad["strategies"][2]["empirical"]["deterministic"]
    det["mean_tests"] = (det["mean_tests"] * x.shape[0] + 1) / x.shape[0]
    problems = oracles.check_report(bad, x, 300)
    assert len(problems) == 1 and "deterministic" in problems[0]


def test_report_oracle_rejects_randomized_mean_five_se_off(small_report):
    doc, x = small_report
    bad = copy.deepcopy(doc)
    s = bad["strategies"][3]
    rnd = s["empirical"]["randomized"]
    rnd["mean_tests"] = s["theoretical"]["symmetric"]["expected_tests"] + 5 * rnd["std_error"]
    problems = oracles.check_report(bad, x, 300)
    assert len(problems) == 1 and "SE" in problems[0]


def test_mean_oracle_threshold_is_four_standard_errors():
    assert oracles.check_mean(10.0 + 3.9 * 0.1, 0.1, 10.0, "mc") == []
    assert oracles.check_mean(10.0 - 5.0 * 0.1, 0.1, 10.0, "mc")
    assert oracles.check_mean(10.0, 0.0, 10.0, "mc")


def _calls(batches, m, pools, mu):
    """One call into each traced layer that the workloads use."""
    plan = _plan(m)
    back = model.alpha_from_w(model.w_from_q(model.q_from_alpha(m)))
    mc = simulate.monte_carlo(m, pools, 300, 11)
    replay = simulate.empirical_evaluate(batches, mu, True, 20, 4)
    return (plan[0].counts, plan[2], back.alpha.tobytes(), mc, replay)


def test_traced_calls_are_bit_identical_to_untraced():
    rng = np.random.default_rng(0)
    m = model.SymmetricModel(24, beta_binomial_alpha(24, 0.3, 12.0))
    mu, pools, _ = _plan(m)
    batches = [ingest.Batch(i, (rng.random(24) < 0.1).astype(np.uint8)) for i in range(30)]
    plain = _calls(batches, m, pools, mu)
    originals = (simulate.monte_carlo, cli.empirical_evaluate, model.q_from_alpha)

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.empirical_evaluate is not originals[1]
        traced = tracer.run_op(lambda: _calls(batches, m, pools, mu))
    finally:
        tracer.uninstall()

    assert (simulate.monte_carlo, cli.empirical_evaluate, model.q_from_alpha) == originals
    assert traced == plain
    layers = tracer.layer_metrics()
    assert layers["model.q_from_alpha.exact.calls"] == 2
    assert layers["model.substream.calls"] == 300 + 20 * 30
    assert layers["simulate.replay.substreams_per_batch_trial"] == 1.0
    assert layers["simulate.mc.substreams_per_trial"] == 1.0
    assert 0.9 < layers["trace.coverage"] <= 1.0
