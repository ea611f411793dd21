"""Correctness oracles computed by the benchmark itself.

None of these call poolpart: the all-negative curves come from closed
forms or a float hypergeometric sum, the optimum from a separate DP, and
replay counts from the benchmark's own cohort matrix.  Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

REL_TOL = 1e-9
MAX_Z = 4.0


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def iid_q(n: int, p: float) -> np.ndarray:
    """q[h] = (1-p)**h."""
    return (1.0 - p) ** np.arange(n + 1, dtype=float)


def hypergeom_q(alpha: Sequence[float]) -> np.ndarray:
    """q[h] = sum_k alpha[k] C(n-h,k)/C(n,k), with each binomial ratio as
    the running product prod_{j<k} (n-h-j)/(n-j) of factors in [0, 1]."""
    a = np.asarray(alpha, dtype=float)
    n = a.size - 1
    j = np.arange(n, dtype=float)
    q = np.empty(n + 1)
    for h in range(n + 1):
        ratio = np.concatenate(([1.0], np.cumprod(np.maximum(n - h - j, 0.0) / (n - j))))
        q[h] = math.fsum((a * ratio).tolist())
    return q


def unit_costs(q: np.ndarray) -> np.ndarray:
    """u[h] = expected tests for one pool of size h (u[0] unused)."""
    h = np.arange(q.size, dtype=float)
    u = 1.0 + h * (1.0 - q)
    u[1] = 1.0
    u[0] = np.nan
    return u


def optimal_tests(u: np.ndarray, n: int) -> float:
    """Minimum of sum_i u[i] over integer partitions of n."""
    v = np.zeros(n + 1)
    for k in range(1, n + 1):
        i = np.arange(1, k + 1)
        v[k] = np.min(v[k - i] + u[i])
    return float(v[n])


def part_sizes(counts) -> List[int]:
    """Part sizes, largest first, from size->count pairs or a mapping."""
    items = counts.items() if isinstance(counts, dict) else counts
    return sorted((int(i) for i, m in items for _ in range(int(m))), reverse=True)


def plan_tests(u: np.ndarray, sizes: Sequence[int]) -> float:
    return math.fsum(float(u[s]) for s in sizes)


def check_plan(counts, reported_tests: float, n: int, q: np.ndarray) -> List[str]:
    """The multiplicity partitions n, is optimal under q, and its
    reported expected tests match q."""
    sizes = part_sizes(counts)
    if sum(sizes) != n:
        return [f"parts sum to {sum(sizes)}, not {n}"]
    u = unit_costs(q)
    cost, best = plan_tests(u, sizes), optimal_tests(u, n)
    problems = []
    if rel_err(cost, best) > REL_TOL:
        problems.append(f"multiplicity costs {cost!r}, optimum is {best!r}")
    if rel_err(reported_tests, cost) > REL_TOL:
        problems.append(f"reported cost {reported_tests!r}, oracle {cost!r}")
    return problems


def check_mean(mean: float, se: float, expected: float, what: str) -> List[str]:
    if not se > 0.0:
        return [f"{what}: standard error {se!r} is not positive"]
    z = (mean - expected) / se
    return [f"{what}: mean {mean!r} is {z:+.2f} SE from {expected!r}"] if abs(z) > MAX_Z else []


def replay_tests(x: np.ndarray, sizes: Sequence[int]) -> int:
    """Exact whole-cohort tests when each batch is cut into consecutive
    slices of the given sizes in stored order."""
    total, at = 0, 0
    for s in sizes:
        positive = x[:, at : at + s].any(axis=1)
        total += x.shape[0] + (s * int(positive.sum()) if s >= 2 else 0)
        at += s
    return total


def check_report(doc: Dict, x: np.ndarray, trials: int) -> List[str]:
    """Every strategy of a `report` on cohort x (batches x specimens)."""
    nb, n = x.shape
    hist = np.bincount(x.sum(axis=1), minlength=n + 1)
    u = {"symmetric": unit_costs(hypergeom_q(hist / nb)),
         "iid": unit_costs(iid_q(n, float(x.sum()) / x.size))}
    problems = []
    names = [s["strategy"] for s in doc["strategies"]]
    if names != ["team8", "dorfman", "iid", "symmetric"]:
        problems.append(f"strategies {names}")
    for s in doc["strategies"]:
        name, sizes = s["strategy"], part_sizes(s["multiplicity"])
        if sum(sizes) != n:
            problems.append(f"{name}: parts sum to {sum(sizes)}, not {n}")
            continue
        cost = {family: plan_tests(uf, sizes) for family, uf in u.items()}
        for family, want in cost.items():
            got = s["theoretical"][family]["expected_tests"]
            if rel_err(got, want) > REL_TOL:
                problems.append(f"{name}: {family} cost {got!r}, oracle {want!r}")
        if name in u:  # the iid and symmetric plans are optimal under their own fit
            best = optimal_tests(u[name], n)
            if rel_err(cost[name], best) > REL_TOL:
                problems.append(f"{name}: plan costs {cost[name]!r} under its fit, optimum {best!r}")
        det, rnd = s["empirical"]["deterministic"], s["empirical"]["randomized"]
        exact = replay_tests(x, sizes)
        if det["trials"] != 1 or det["mean_tests"] != exact / nb:
            problems.append(f"{name}: deterministic replay {det['mean_tests']!r}, oracle {exact}/{nb}")
        if rnd["trials"] != trials:
            problems.append(f"{name}: randomized replay ran {rnd['trials']} trials, not {trials}")
        problems += check_mean(rnd["mean_tests"], rnd["std_error"], cost["symmetric"], f"{name}: randomized replay")
    return problems
