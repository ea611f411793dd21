"""Minimum-cost integer partitions by dynamic programming.

Because the two-stage testing cost of a partition depends only on how many
groups of each size it uses, minimizing over set partitions of n specimens
reduces to minimizing sum_i c(i) mu(i) over multiplicity functions mu with
sum_i i mu(i) = n.  The value function

    M*(0) = 0,   M*(k) = min_i { M*(k - i) + c(i) }

solves this in O(n^2), with one vectorized pass over the candidate parts
at each k; `brute_force_solve` enumerates every partition as an
independent check, and `pooling_from_multiplicity` turns the abstract part
sizes back into concrete groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .cost import CostVector, GroupFamily
from .errors import InfeasibleError, ValidationError
from .model import check_int, check_int_vector, check_n, check_real, check_real_vector

__all__ = [
    "MultiplicityFunction",
    "ValueTable",
    "dp_solve",
    "brute_force_solve",
    "pooling_from_multiplicity",
    "dorfman_infinite_size",
]

# two candidate part costs within this relative distance count as a tie
_TIE_RTOL = 1e-12

_BRUTE_FORCE_LIMIT = 30


@dataclass(frozen=True)
class MultiplicityFunction:
    """counts[i] = number of parts of size i; sum of i*counts[i] = target."""

    target: int
    counts: Tuple[Tuple[int, int], ...]

    def __init__(self, target: int, counts):
        # accept a mapping or pair iterable; store sorted with zeros dropped
        items = counts.items() if isinstance(counts, dict) else counts
        pairs = sorted(
            (check_int("part size", i), check_int(f"count for size {i}", m, 0)) for i, m in items
        )
        for (i, _), (j, _) in zip(pairs, pairs[1:]):
            if i == j:
                raise ValidationError(f"part size {i} is given twice")
        cleaned = tuple((i, m) for i, m in pairs if m)
        object.__setattr__(self, "target", check_int("target", target))
        object.__setattr__(self, "counts", cleaned)
        total = sum(i * m for i, m in cleaned)
        if total != self.target:
            raise ValidationError(
                f"multiplicities sum to {total}, expected target {self.target}"
            )

    def as_dict(self) -> Dict[int, int]:
        return dict(self.counts)

    @property
    def num_parts(self) -> int:
        return sum(m for _, m in self.counts)

    @property
    def max_part(self) -> int:
        return max(i for i, _ in self.counts)

    def part_sizes(self) -> Tuple[int, ...]:
        """All part sizes, largest first."""
        out = []
        for i, m in sorted(self.counts, reverse=True):
            out.extend([i] * m)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class ValueTable:
    """DP table: values[k] = M*(k), choices[k] = part size chosen at k."""

    values: np.ndarray
    choices: np.ndarray

    def __post_init__(self):
        v = check_real_vector("values", self.values)
        ch = check_int_vector("choices", self.choices)
        if v.ndim != 1 or ch.shape != v.shape or not v.size:
            raise ValidationError("values and choices must be 1-d, nonempty and equally long")
        if not np.all(np.isfinite(v)):
            raise ValidationError("values contains non-finite entries")
        if v[0] != 0.0:
            raise ValidationError(f"values[0] must be 0, got {v[0]!r}")
        v.setflags(write=False)
        ch.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "choices", ch)


def dp_solve(cv: CostVector, target: int) -> Tuple[MultiplicityFunction, ValueTable]:
    """Optimal multiplicity function for the target, with the value table.

    Ties in the argmin (at relative tolerance 1e-12) break toward the
    largest part, so the result is deterministic and biased toward fewer
    groups.  The minimum and the tie-break come from one array of
    candidate sums M*(k - i) + c(i), the same float additions a scalar
    loop would make, so the table does not depend on the vectorization.
    """
    target = check_n(target, "target")
    c = cv.c
    values = np.zeros(target + 1)
    choices = np.zeros(target + 1, dtype=int)
    for k in range(1, target + 1):
        limit = min(k, cv.max_size)
        # cand[i - 1] = M*(k - i) + c(i) for part sizes i = 1..limit
        cand = values[k - 1 :: -1][:limit] + c[1 : limit + 1]
        best_v = cand.min()
        tol = _TIE_RTOL * abs(best_v)
        best_i = limit - int(np.argmax(cand[::-1] <= best_v + tol))
        values[k] = cand[best_i - 1]
        choices[k] = best_i
    counts: Dict[int, int] = {}
    k = target
    while k > 0:
        i = int(choices[k])
        counts[i] = counts.get(i, 0) + 1
        k -= i
    return MultiplicityFunction(target, counts), ValueTable(values, choices)


def _partitions(remaining: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """Nonincreasing-parts enumeration."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, max_part), 0, -1):
        for rest in _partitions(remaining - first, first):
            yield (first,) + rest


def brute_force_solve(cv: CostVector, target: int) -> MultiplicityFunction:
    """Exhaustive oracle: try every integer partition of the target.

    Matches dp_solve's optimal value; the argmin may differ under ties.
    """
    target = check_int("target", target)
    if target > _BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"exhaustive enumeration is limited to target <= {_BRUTE_FORCE_LIMIT}, got {target}"
        )
    best_parts = None
    best_v = math.inf
    for parts in _partitions(target, min(target, cv.max_size)):
        v = math.fsum(float(cv.c[i]) for i in parts)
        if v < best_v:
            best_v = v
            best_parts = parts
    if best_parts is None:
        raise InfeasibleError(f"no partition of {target} fits within max size {cv.max_size}")
    counts: Dict[int, int] = {}
    for i in best_parts:
        counts[i] = counts.get(i, 0) + 1
    return MultiplicityFunction(target, counts)


def pooling_from_multiplicity(
    mu: MultiplicityFunction, population: Sequence[int]
) -> GroupFamily:
    """Materialize groups by slicing the population in its given order,
    largest parts first.  The caller's order is meaningful (e.g. specimens
    sorted by run timestamp), so it is never shuffled here.
    """
    pop = list(population)
    if mu.target != len(pop):
        raise ValidationError(
            f"multiplicity target {mu.target} does not match population size {len(pop)}"
        )
    groups = []
    at = 0
    for size in mu.part_sizes():
        groups.append(tuple(pop[at : at + size]))
        at += size
    return GroupFamily(tuple(groups))


def dorfman_infinite_size(prevalence: float, s_max: int = 100) -> int:
    """Classical optimal pool size for an unbounded IID population.

    Minimizes the per-specimen cost 1/s + 1 - (1-p)^s over s in 2..s_max;
    returns 1 when no pooled size beats individual testing.  Ties go to the
    smallest size.
    """
    p = check_real("prevalence", prevalence)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"prevalence must lie strictly in (0, 1), got {p!r}")
    s_max = check_int("s_max", s_max, 2)
    best_s, best_v = 1, 1.0
    for s in range(2, s_max + 1):
        v = 1.0 / s + 1.0 - (1.0 - p) ** s
        if v < best_v:
            best_s, best_v = s, v
    return best_s
