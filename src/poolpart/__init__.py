"""Optimal pool partitioning for two-stage group testing.

Model an exchangeable population of binary specimen statuses, derive the
expected-test cost of any pooling, and find the cost-minimizing partition
by dynamic programming; evaluate designs analytically, by Monte Carlo, or
against recorded batches.
"""

from .cost import (
    CostVector,
    GroupFamily,
    cost_vector,
    efficiency,
    expected_tests_group,
    expected_tests_partition,
)
from .errors import InfeasibleError, PoolPartError, ValidationError
from .estimate import (
    EmpiricalCounts,
    empirical_counts,
    fit_iid,
    fit_symmetric,
    kl_counts,
    log_likelihood,
)
from .ingest import (
    Batch,
    PoolRecord,
    filter_pools,
    impute_batches,
    parse_pools,
    read_batches,
    write_batches,
    write_pools,
)
from .model import (
    OutcomeVector,
    OutcomeWeights,
    QCurve,
    SymmetricModel,
    alpha_from_w,
    iid_model,
    marginal_zero_bruteforce,
    prevalence,
    q_from_alpha,
    sample_outcome,
    substream,
    w_from_alpha,
    w_from_q,
)
from .optimize import (
    MultiplicityFunction,
    ValueTable,
    brute_force_solve,
    dorfman_infinite_size,
    dp_solve,
    pooling_from_multiplicity,
)
from .simulate import (
    TestTally,
    TrialSummary,
    empirical_evaluate,
    empirical_trial_totals,
    mc_trial_totals,
    monte_carlo,
    run_dorfman,
    summarize_totals,
)
from .cli import (
    Experiment,
    emit_model_analysis,
    run_experiment,
    strategy_multiplicity,
)

__version__ = "0.1.0"
