"""Simulated Dorfman testing agrees with the analytic expectation."""

from poolpart import (
    MultiplicityFunction,
    cost_vector,
    expected_tests_partition,
    iid_model,
    monte_carlo,
    pooling_from_multiplicity,
    q_from_alpha,
    run_dorfman,
    sample_outcome,
)

m = iid_model(80, 0.01624)
pools = pooling_from_multiplicity(MultiplicityFunction(80, {8: 10}), range(80))

analytic = expected_tests_partition(cost_vector(q_from_alpha(m)), pools)
print("analytic expected tests:", analytic)

for seed in (0, 1, 2):
    s = monte_carlo(m, pools, trials=10000, seed=seed)
    z = (s.mean_tests - analytic) / s.std_error
    print(f"seed {seed}: mean {s.mean_tests:.3f} +- {s.std_error:.3f}  (z = {z:+.2f})")

# same seed, same numbers: the counts and the positions come from two
# counter-based substreams of the seed, read in a fixed order
again = monte_carlo(m, pools, trials=10000, seed=0)
print("reproducible:", again.mean_tests == monte_carlo(m, pools, trials=10000, seed=0).mean_tests)

# one concrete draw, pool by pool
x = sample_outcome(m, 7)
tally = run_dorfman(pools, x)
print("\none draw:", int(x.nnz), "positives ->", tally.total_tests, "tests")
for h, status, t in tally.per_group:
    if status:
        print(f"  a pool of {h} came back positive and cost {t} tests")
