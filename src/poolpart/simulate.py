"""Execute the two-stage procedure on concrete outcomes and batches.

`run_dorfman` counts tests exactly for one outcome; `monte_carlo` averages
over model draws; `empirical_evaluate` replays a pooling design against
recorded batch statuses, optionally randomizing the specimen-to-pool
assignment within each batch.

Every simulation tallies a trial from its picks alone, in `_tally`: one
bincount counts the picks in each (trial, group) pair, and a pool is
positive when it holds a positive.  Monte Carlo and randomized replay pick
by Floyd's algorithm; stored-order replay and the batches whose statuses
are all equal read their picks from the statuses.  Replay stacks and
checks its cohort with `model.status_matrix`.  `run_dorfman` and a scan
of whole outcome rows in the tests are the references the tests hold the
tally to.

Random draws come from counter-based Philox substreams
`substream(seed, lane, draw)`, one per lane rather than one per trial.
Both simulations draw an outcome with k_t positives among n the same way:
trial t reads m_t = min(k_t, n - k_t) uniforms from its lane's stream,
right after trial t - 1's.  Step i of trial t takes j = n - m_t + i and
picks position floor(u * (j + 1)), or j itself when that position is
already picked (Floyd's algorithm), so the m_t picks are a uniform
m_t-subset.  They are the positives when k_t <= n - k_t and the negatives
otherwise: every trial has exactly k_t positives.

  Monte Carlo  lane 0, draw 0: every trial's positive count k_t, by the
               inverse CDF of alpha: one uniform u_t per trial, and k_t
               the first k with u_t < cdf[k], where cdf is cumsum(alpha)
               divided by its last entry.  At numpy 2.4 that is what
               choice(n + 1, size=trials, p=alpha) draws.  Lane 1, draw
               0: the picks.
  replay       lane b (the batch's position in the cohort), draw 0: the
               picks, with k_t = k_b, the batch's positive count, in every
               trial.  The positions are pool slots: a tally reads only
               which slots hold positives, and a uniformly random
               assignment of the batch's specimens puts them in a uniform
               k_b-subset of slots.  A batch whose statuses are all equal
               costs the same under every assignment, so it draws nothing.

For the largest uniform, 1 - 2**-53, floor(u * (j + 1)) is j for every
j + 1 < 2**22 (checked exhaustively), so no pick leaves the population.
Uniforms are multiples of 2**-53 and the product is rounded once, so each
of the j + 1 positions is picked with a probability within 2**-52 of
1 / (j + 1), a relative error below (j + 1) * 2**-52.  The work per trial,
drawing and tallying alike, scales with m_t, not with n.

Floyd's picks are marked in a mask of at most _BLOCK_ELEMENTS cells per
block of trials (one trial when a row is longer), which its collision rule
reads.  The block size bounds memory only: every block reads the next
values of the same stream, so results do not depend on it.  Results are
reproducible for a given seed and do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence, Tuple

import numpy as np

from .cost import GroupFamily
from .errors import ValidationError
from .model import OutcomeVector, SymmetricModel, check_int, check_n, check_uint64
from .model import check_real, status_matrix, substream
from .optimize import MultiplicityFunction, pooling_from_multiplicity

__all__ = [
    "TestTally",
    "TrialSummary",
    "run_dorfman",
    "monte_carlo",
    "mc_trial_totals",
    "empirical_evaluate",
    "empirical_trial_totals",
    "summarize_totals",
]

# Most pick-mask cells held at once; a block's (trial, group) pick counts are
# at most as many, plus one spare bin per trial.  Each Floyd step is a few
# numpy calls over a block's rows, so wider blocks make fewer calls.
_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class TestTally:
    """Exact test count for one outcome: per group (size, status, tests)."""

    __test__ = False  # the Test- prefix is domain language, not a test case

    total_tests: int
    per_group: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if self.total_tests != sum(t for _, _, t in self.per_group):
            raise ValidationError("total_tests must equal the sum of per-group tests")
        for h, s, t in self.per_group:
            ok = t == 1 if (h == 1 or s == 0) else t == 1 + h
            if not ok:
                raise ValidationError(f"impossible tally ({h}, {s}, {t})")


@dataclass(frozen=True)
class TrialSummary:
    trials: int
    mean_tests: float
    std_error: float
    mean_efficiency: float
    efficiency_std_error: float

    def __post_init__(self):
        object.__setattr__(self, "trials", check_int("trials", self.trials))
        for name in ("mean_tests", "std_error", "mean_efficiency", "efficiency_std_error"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not (self.std_error >= 0 and self.efficiency_std_error >= 0):  # NaN fails too
            raise ValidationError("standard errors must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


def run_dorfman(f: GroupFamily, x: OutcomeVector) -> TestTally:
    """Tally tests for one outcome: each group is tested once, and a
    positive group of size >= 2 is retested member by member.  A singleton's
    first test already settles its status, so it is never retested.
    """
    statuses = x.statuses
    n = statuses.shape[0]
    per_group = []
    total = 0
    for g in f.groups:
        h = len(g)
        for i in g:
            if i >= n:
                raise IndexError(f"group member {i} outside population of size {n}")
        s = int(statuses[np.asarray(g, dtype=int)].max())
        t = 1 if (h == 1 or s == 0) else 1 + h
        per_group.append((h, s, t))
        total += t
    return TestTally(total, tuple(per_group))


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, se


def summarize_totals(totals: np.ndarray, specimens: int, batches: int = 1) -> TrialSummary:
    """Summary of per-trial total tests over `batches` populations of
    `specimens` each: mean tests per population, and efficiency as
    specimens per test over each whole trial."""
    mean_tests, se = _mean_se(totals / batches)
    mean_eff, eff_se = _mean_se(specimens * batches / totals)
    return TrialSummary(len(totals), mean_tests, se, mean_eff, eff_se)


def _floyd_picks(rng: np.random.Generator, n: int, picks: np.ndarray) -> np.ndarray:
    """The cells of a row-major (len(picks) x n) mask that Floyd's algorithm
    picks, picks[r] in row r, from the next picks.sum() uniforms of rng read
    row by row (see the module docstring).  Pick i of row r is entry
    sum(picks[:r]) + i, the index of the uniform it read."""
    u = rng.random(int(picks.sum()))
    # in this order the rows still picking at step i are a prefix; rows with
    # equal picks may come in any order, since each reads only its own
    # uniforms and mask cells, and numpy sorts 16-bit keys by radix
    key = -picks.astype(np.int16) if picks.max() < 2**15 else -picks
    order = np.argsort(key, kind="stable")
    live = len(picks) - np.cumsum(np.bincount(picks))[:-1]  # rows with > i picks
    row = order * n  # each row's first cell
    span = n - picks[order] + 1  # j + 1 at step 0
    # at step 0: each row's first uniform, j + 1, and the cell of j
    start = np.stack([(np.cumsum(picks) - picks)[order], span, row + span - 1])
    mask = np.zeros(len(picks) * n, dtype=bool)  # for the collision rule
    cells = u.view(np.int64)  # each pick overwrites the uniform it read
    for i, a in enumerate(live.tolist()):
        at, s, j = start[:, :a] + i
        pos = row[:a] + (u[at] * s).astype(np.intp)
        pos = np.where(mask[pos], j, pos)
        mask[pos] = True
        cells[at] = pos
    return cells


def _group_ids(f: GroupFamily, n: int) -> np.ndarray:
    """Each of n specimens' group in f, or the spare bin len(f.starts)."""
    group = np.full(n, len(f.starts), dtype=np.intp)
    group[f.members] = np.repeat(np.arange(len(f.starts)), np.maximum(f.retest, 1))
    return group


def _tally(f: GroupFamily, group: np.ndarray, counts: np.ndarray, blocks) -> np.ndarray:
    """Total tests per row of a (len(counts) x n) outcome, n = len(group),
    whose row r holds counts[r] positives.  blocks yields (rows, cells) for
    consecutive row slices; cells, the row-major cells of their picks row
    by row, are a row's positives, or its negatives when counts[r] >
    n - counts[r] (a flipped row), and are overwritten.  One bincount per
    block counts the picks in each (row, group) pair.  A group is positive
    when its count is above 0, or on a flipped row when its count, of
    negatives, is below its size.  Each block's counts outlive the drawing
    of the next: with a call per block, an n = 384 Monte Carlo op read 2x
    the page faults and 1.14x the time."""
    n, groups = len(group), len(f.starts)
    sizes = np.maximum(f.retest, 1)  # a singleton's retest charge is 0
    # in floats the product runs through BLAS; every sum is a whole number
    # below 2**53, so it is exact
    retest = f.retest.astype(float)
    picks = np.minimum(counts, n - counts)
    totals = np.empty(len(counts))
    for block, cells in blocks:
        p = picks[block]
        cells -= np.repeat(np.arange(0, len(p) * n, n), p)  # each pick's column
        bins = group[cells]  # each pick's group, then its (row, group) bin
        bins += np.repeat(np.arange(0, len(p) * (groups + 1), groups + 1), p)
        count = np.bincount(bins, minlength=len(p) * (groups + 1))
        count = count.reshape(len(p), groups + 1)[:, :groups]
        positive = count > 0
        flipped = np.flatnonzero(counts[block] > p)
        positive[flipped] = count[flipped] < sizes
        totals[block] = groups + positive @ retest
    return totals


def _subset_totals(
    rng: np.random.Generator, f: GroupFamily, group: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Total tests per trial when trial t's counts[t] positives among
    n = len(group) are picked by _floyd_picks from rng, in blocks of whole
    trials drawn as _tally reads them (see the module docstring)."""
    n = len(group)
    picks = np.minimum(counts, n - counts)
    rows = max(1, _BLOCK_ELEMENTS // n)
    blocks = (slice(t0, t0 + rows) for t0 in range(0, len(counts), rows))
    return _tally(f, group, counts, ((b, _floyd_picks(rng, n, picks[b])) for b in blocks))


def mc_trial_totals(
    m: SymmetricModel, f: GroupFamily, trials: int, seed: int
) -> np.ndarray:
    """Total tests per trial for outcomes sampled from the model: counts
    from substream (seed, 0, 0), picks from (seed, 1, 0), as the module
    docstring lays out."""
    trials = check_n(trials, "trials")
    top = int(f.members.max())
    if top >= m.n:
        raise IndexError(f"group member {top} outside population of size {m.n}")
    cdf = np.cumsum(m.alpha)
    cdf /= cdf[-1]
    counts = cdf.searchsorted(substream(seed, 0, 0).random(trials), side="right")
    return _subset_totals(substream(seed, 1, 0), f, _group_ids(f, m.n), counts)


def monte_carlo(
    m: SymmetricModel, f: GroupFamily, trials: int, seed: int
) -> TrialSummary:
    """Sample outcomes from the model and tally the family on each.

    mean_tests estimates the analytic expected total; mean_efficiency
    averages the per-trial ratio covered_specimens / tests, which is not
    the same as covered / mean_tests.
    """
    return summarize_totals(mc_trial_totals(m, f, trials, seed), f.covered)


def empirical_trial_totals(
    batches: Sequence,
    mu: MultiplicityFunction,
    randomize: bool,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Whole-cohort total tests per trial.

    The design assigns consecutive slices (largest pools first) within each
    batch.  With randomize on, trial t puts batch b's k_b positives in the
    min(k_b, n - k_b) slots Floyd's algorithm picks from substream
    (seed, b, 0), or outside them when k_b > n - k_b (see the module
    docstring); with randomize off there is a single deterministic pass in
    stored order (length-1 result).  Totals are sums of whole numbers, so
    they do not depend on the block size or the order of the batches.
    """
    if randomize:
        check_uint64("seed", seed)  # constant batches never reach substream
        trials = check_n(trials, "trials")
    n = mu.target
    data = status_matrix(batches, n)
    f = pooling_from_multiplicity(mu, range(n))
    group, k = _group_ids(f, n), data.sum(axis=1, dtype=np.intp)
    # tallied as they stand: every batch in stored order, else the constant
    # ones, which cost the same under every assignment; picks from statuses
    stored = (k == 0) | (k == n) | (not randomize)
    cells = np.flatnonzero(data[stored] ^ (k > n - k)[stored, None])
    totals = _tally(f, group, k[stored], [(slice(None), cells)]).sum()
    totals = np.full(trials if randomize else 1, float(totals))
    for b in np.flatnonzero(~stored).tolist():
        totals += _subset_totals(substream(seed, b, 0), f, group, np.full(trials, k[b]))
    return totals


def empirical_evaluate(
    batches: Sequence,
    mu: MultiplicityFunction,
    randomize: bool,
    trials: int,
    seed: int,
) -> TrialSummary:
    """Replay a pooling design against recorded batch statuses.

    See empirical_trial_totals for the assignment scheme.  mean_tests is
    the mean tests per batch; efficiency is batch_size / mean tests per
    batch, aggregated across the whole cohort per trial.
    """
    totals = empirical_trial_totals(batches, mu, randomize, trials, seed)
    return summarize_totals(totals, mu.target, len(batches))
