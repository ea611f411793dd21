"""Two-stage (pool then retest) testing costs.

A pool of size h is tested once; if positive, every member is retested
individually.  Expected tests:

    U(1) = 1                (a singleton needs no confirmation)
    U(h) = 1 + h (1 - q(h)) for h >= 2

A partition's expected total is the sum of U over its group sizes, which is
what turns optimal pooling into an additive integer-partition problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .model import _MAX_INDEX, QCurve, _is_int, check_int, check_n, check_real, check_real_vector

__all__ = [
    "CostVector",
    "GroupFamily",
    "expected_tests_group",
    "cost_vector",
    "expected_tests_partition",
    "efficiency",
]


def _specimen_index(i) -> int:
    """A non-boolean Python or numpy integer in [0, intp max], as int."""
    if not _is_int(i):
        raise ValidationError(f"specimen indices must be integers, got {i!r}")
    if not 0 <= i <= _MAX_INDEX:
        raise ValidationError(f"specimen indices must lie in [0, {_MAX_INDEX}], got {i}")
    return int(i)


@dataclass(frozen=True, eq=False)
class CostVector:
    """c[i] = expected tests for one group of size i, i = 1..max_size.

    Index 0 is padding (nan) so that c[i] reads naturally.
    """

    n: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", check_n(self.n))
        v = check_real_vector("c", self.c)
        if v.ndim != 1 or v.shape[0] < 2 or v.shape[0] > self.n + 1:
            raise ValidationError(
                f"c must cover sizes 1..m with 1 <= m <= {self.n}, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v[1:])):
            raise ValidationError("cost entries must be finite")
        v[0] = np.nan
        v.setflags(write=False)
        object.__setattr__(self, "c", v)

    @property
    def max_size(self) -> int:
        return int(self.c.shape[0] - 1)


@dataclass(frozen=True, eq=False)
class GroupFamily:
    """Pairwise-disjoint, nonempty groups of specimen indices.

    Member order inside a group and group order in the family are preserved;
    a family whose union is the whole population is a pooling.

    Construction also compiles the layout that the tallies read, as
    read-only arrays: `members` holds every member in group order,
    `starts[j]` is the offset of group j in `members`, and `retest[j]` is
    the retest charge of group j when positive, its size, or zero for a
    singleton, whose one test already settles its status.
    """

    groups: tuple
    members: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    retest: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gs = tuple(tuple(map(_specimen_index, g)) for g in self.groups)
        if not gs:
            raise ValidationError("a group family must contain at least one group")
        seen = set()
        for g in gs:
            if not g:
                raise ValidationError("groups must be nonempty")
            for i in g:
                if i in seen:
                    raise ValidationError(f"groups must be pairwise disjoint; index {i} repeats")
                seen.add(i)
        sizes = np.array([len(g) for g in gs])
        layout = {
            "members": np.fromiter((i for g in gs for i in g), dtype=np.intp, count=len(seen)),
            "starts": np.cumsum(sizes) - sizes,
            # _tally casts it to float for its BLAS product; int32 holds any
            # row's total, at most groups + covered, far below 2**31
            "retest": (sizes * (sizes >= 2)).astype(np.int32),
        }
        object.__setattr__(self, "groups", gs)
        for name, v in layout.items():
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def sizes(self) -> tuple:
        return tuple(len(g) for g in self.groups)

    @property
    def covered(self) -> int:
        return len(self.members)


def expected_tests_group(qc: QCurve, h: int) -> float:
    h = check_int("group size", h)
    if h > qc.n:
        raise ValidationError(f"group size must lie in [1, {qc.n}], got {h}")
    if h == 1:
        return 1.0
    return 1.0 + h * (1.0 - float(qc.q[h]))


def cost_vector(qc: QCurve, max_size: Optional[int] = None) -> CostVector:
    m = qc.n if max_size is None else check_int("max_size", max_size)
    if m > qc.n:
        raise ValidationError(f"max_size must lie in [1, {qc.n}], got {max_size!r}")
    # expected_tests_group for every size at once; CostVector pads c[0]
    c = 1.0 + np.arange(m + 1) * (1.0 - qc.q[: m + 1])
    c[1] = 1.0
    return CostVector(qc.n, c)


def _check_members(f: GroupFamily, n: int) -> None:
    """Every member of f must name one of the population's n specimens."""
    top = int(f.members.max())
    if top >= n:
        raise IndexError(f"group member {top} outside population of size {n}")


def expected_tests_partition(cv: CostVector, f: GroupFamily) -> float:
    _check_members(f, cv.n)
    sizes = np.diff(f.starts, append=f.covered)
    big = sizes[sizes > cv.max_size]
    if big.size:
        raise ValidationError(f"group of size {big[0]} exceeds cost vector range 1..{cv.max_size}")
    # fsum rounds the exact sum once, so the total is order-independent
    return math.fsum(cv.c[sizes].tolist())


def efficiency(n: int, expected_tests: float) -> float:
    n = check_int("population size", n)
    expected_tests = check_real("expected tests", expected_tests)
    if not expected_tests > 0.0:
        raise ValidationError(f"expected tests must be positive, got {expected_tests!r}")
    return n / expected_tests
