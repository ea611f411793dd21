"""The three benchmark workloads.

Every input comes from the benchmark's own numpy Generator, seeded by the
workload seed; poolpart receives only the generated files and arrays, so
changing poolpart's random streams does not change a workload.  Ops look
poolpart functions up through their modules at call time, so the traced
run's wrappers see every call.

A workload exposes `ops` (one round; the runner repeats whole rounds),
`min_ops`, `collect(op, out)` (untimed: keep what the checks need),
`check(op, kept)` (a list of problems) and `properties(kept)`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from typing import Any, Callable, Dict, List

import numpy as np

import poolpart.cli as cli
import poolpart.cost as cost
import poolpart.model as model
import poolpart.optimize as optimize
import poolpart.simulate as simulate

import oracles

EXACT_MAX_N = 100  # poolpart keeps the exact rational channel up to this n


@dataclass(frozen=True, eq=False)
class Op:
    label: str
    run: Callable[[], Any]
    n: int
    oracle: Any = None  # what check() compares this op's output against


class Workload:
    name = ""
    min_ops = 100  # so that op_p90_ms has ten samples above it
    ops: List[Op] = []

    def collect(self, op: Op, out):
        return out


def _jitter(rng: np.random.Generator) -> float:
    return float(np.exp(rng.uniform(-0.03, 0.03)))


def beta_binomial_alpha(n: int, a: float, b: float) -> np.ndarray:
    """Beta-binomial count distribution, normalized with fsum."""
    lb = lambda x, y: math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
    alpha = np.array([
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + lb(k + a, n - k + b) - lb(a, b))
        for k in range(n + 1)
    ])
    return alpha / math.fsum(alpha.tolist())


def _clustered_family(rng: np.random.Generator):
    """(a, b) of a Beta prevalence with mean near 2% and strong clustering."""
    mean, a = 0.02 * _jitter(rng), 0.3 * _jitter(rng)
    return a, a * (1.0 - mean) / mean


def _model(family: str, n: int, par):
    """IID model at prevalence par, or an exchangeable model with alpha par."""
    return model.iid_model(n, par) if family == "iid" else model.SymmetricModel(n, par)


def _design_ratio(designs: List) -> float:
    return len(set(designs)) / len(designs) if designs else 0.0


# ---------------------------------------------------------------------------

class PipelineCohort(Workload):
    """ingest + report --plots-dir on a clustered 200 x 80 cohort, in-process
    through poolpart.cli.main."""

    name = "pipeline-cohort"
    min_ops = 1
    BATCHES, SIZE, POOL, TRIALS = 200, 80, 8, 100
    MEAN_PREVALENCE, BETA_A = 0.015, 0.2  # about 2/3 of batches all-negative

    def __init__(self, rng: np.random.Generator, workdir: str):
        b = self.BETA_A * (1 - self.MEAN_PREVALENCE) / self.MEAN_PREVALENCE
        p = rng.beta(self.BETA_A, b, size=self.BATCHES)
        self.x = (rng.random((self.BATCHES, self.SIZE)) < p[:, None]).astype(np.uint8)
        self.paths = {k: os.path.join(workdir, v) for k, v in (
            ("pools", "pools.csv"), ("batches", "batches.csv"),
            ("report", "report.json"), ("plots", "plots"))}
        self.dropped = self._write_pools(rng)
        self.batch_rows = [("batch_index", "statuses")] + [
            (str(i), "".join("P" if v else "N" for v in row)) for i, row in enumerate(self.x)]
        self.hist = np.bincount(self.x.sum(axis=1), minlength=self.SIZE + 1) / self.BATCHES
        self.q_sym = oracles.hypergeom_q(self.hist)
        self.seed = int(rng.integers(2**31))
        self.first_report = None
        self.report_problems: Dict[bytes, List[str]] = {}
        self.ops = [Op("ingest+report", self._run, self.SIZE)]

    def _write_pools(self, rng) -> Dict[str, int]:
        """Pool records in shuffled file order with distinct timestamps, plus
        a few rows for each cleaning rule to drop."""
        t0 = datetime(2020, 4, 1)
        tok = lambda v: "P" if v else "N"
        flat = self.x.reshape(-1, self.POOL)
        rows = [(f"pool-{i:05d}", (t0 + timedelta(minutes=i)).isoformat(), self.POOL,
                 "".join(map(tok, s))) for i, s in enumerate(flat)]
        drops = {rule: int(rng.integers(2, 6)) for rule in ("no_timestamp", "excluded_size", "inconclusive")}
        junk_time = lambda: (t0 + timedelta(minutes=float(rng.uniform(0, len(flat))))).isoformat()
        for j in range(drops["no_timestamp"]):
            rows.append((f"lost-{j}", "", self.POOL, "N" * self.POOL))
        for j in range(drops["excluded_size"]):
            rows.append((f"half-{j}", junk_time(), 5, "NNPNN"))
        for j in range(drops["inconclusive"]):
            rows.append((f"haze-{j}", junk_time(), self.POOL, "NNINNNNN"))
        with open(self.paths["pools"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("pool_id", "run_timestamp", "pool_size", "statuses"))
            w.writerows(rows[i] for i in rng.permutation(len(rows)))
        drops["dropped_specimens"] = self.POOL * (drops["no_timestamp"] + drops["inconclusive"]) + 5 * drops["excluded_size"]
        return drops

    def _run(self):
        p = self.paths
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_ingest = cli.main(["ingest", "--input", p["pools"], "--out", p["batches"],
                                  "--batch-size", str(self.SIZE)])
        rc_report = cli.main(["report", "--batches", p["batches"], "--trials", str(self.TRIALS),
                              "--seed", str(self.seed), "--out", p["report"], "--plots-dir", p["plots"]])
        return rc_ingest, out.getvalue(), rc_report

    def collect(self, op: Op, out) -> dict:
        rc_ingest, ingest_stdout, rc_report = out
        kept = {"rc": (rc_ingest, rc_report), "ingest": ingest_stdout}
        if rc_ingest == 0 and rc_report == 0:
            with open(self.paths["report"], "rb") as fh:
                kept["report"] = fh.read()
            with open(self.paths["batches"], newline="") as fh:
                kept["batches"] = [tuple(r) for r in csv.reader(fh)]
            for name in ("alpha", "q"):
                with open(os.path.join(self.paths["plots"], name + ".csv"), newline="") as fh:
                    kept[name] = [tuple(r) for r in csv.reader(fh)]
        return kept

    def check(self, op: Op, kept: dict) -> List[str]:
        if kept["rc"] != (0, 0):
            return [f"exit codes {kept['rc']}"]
        nb, n = self.x.shape
        problems = []
        summary = json.loads(kept["ingest"])
        want = {"pools_kept": nb * n // self.POOL, "batches": nb, "specimens_out": nb * n,
                "remainder_discarded": 0, "dropped": self.dropped}
        for key, value in want.items():
            if summary.get(key) != value:
                problems.append(f"ingest {key} = {summary.get(key)!r}, expected {value!r}")
        if kept["batches"] != self.batch_rows:
            problems.append("batches.csv does not hold the cohort in timestamp order")
        report = kept["report"]
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            problems.append("report.json differs from the first op's with the same seed")
        if report not in self.report_problems:
            self.report_problems[report] = oracles.check_report(json.loads(report), self.x, self.TRIALS)
        problems += self.report_problems[report]
        for name, want_col in (("alpha", self.hist), ("q", self.q_sym)):
            rows = kept[name][1:]
            got = np.array([float(r[2]) for r in rows]) if len(rows) == n + 1 else None
            if got is None or np.any(np.abs(got - want_col) > oracles.REL_TOL * np.maximum(want_col, 1e-300)):
                problems.append(f"plots/{name}.csv symmetric column disagrees with the cohort")
        return problems

    def properties(self, kept: List[dict]) -> dict:
        report = next((k["report"] for k in kept if "report" in k), None)
        designs = [tuple(sorted(s["multiplicity"].items()))
                   for s in (json.loads(report)["strategies"] if report else [])]
        return {
            "allneg_batch_share": float((self.x.sum(axis=1) == 0).mean()),
            "prevalence": float(self.x.mean()),
            "distinct_design_ratio": _design_ratio(designs),
            "exact_op_share": 1.0,
            "dropped_rows": {k: v for k, v in self.dropped.items() if k != "dropped_specimens"},
            "trials": self.TRIALS,
        }


# ---------------------------------------------------------------------------

class PlanSweep(Workload):
    """Plans (model -> q -> cost vector -> DP -> pooling -> expected tests)
    and alpha -> q -> w -> alpha round trips, on both sides of the exact /
    float switch, for IID and beta-binomial models.  No simulation."""

    name = "plan-sweep"
    SIZES = (32, 48, 80, 100, 101, 200, 384, 500)
    PREVALENCES = (0.005, 0.02, 0.08)

    def __init__(self, rng: np.random.Generator, workdir: str):
        prevalences = [p * _jitter(rng) for p in self.PREVALENCES]
        a, b = _clustered_family(rng)
        ops = []
        for i, n in enumerate(self.SIZES):
            p = prevalences[i % len(prevalences)]
            for family, par in (("iid", p), ("bb", beta_binomial_alpha(n, a, b))):
                label = f"{family} n={n}"
                q = oracles.iid_q(n, par) if family == "iid" else oracles.hypergeom_q(par)
                ops.append(Op("plan " + label, partial(self._plan, family, n, par), n, q))
                if n <= EXACT_MAX_N:
                    ops.append(Op("round-trip " + label, partial(self._round_trip, family, n, par), n))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self._checked: Dict[tuple, List[str]] = {}

    @staticmethod
    def _plan(family, n, par):
        cv = cost.cost_vector(model.q_from_alpha(_model(family, n, par)))
        mu, _ = optimize.dp_solve(cv, n)
        pools = optimize.pooling_from_multiplicity(mu, range(n))
        return mu.counts, cost.expected_tests_partition(cv, pools)

    @staticmethod
    def _round_trip(family, n, par):
        m = _model(family, n, par)
        back = model.alpha_from_w(model.w_from_q(model.q_from_alpha(m)))
        return m.alpha.tobytes(), back.alpha.tobytes()

    def check(self, op: Op, kept) -> List[str]:
        key = (op.label, kept)
        if key not in self._checked:
            if op.oracle is None:
                self._checked[key] = [] if kept[0] == kept[1] else ["round trip is not bit-identical"]
            else:
                self._checked[key] = oracles.check_plan(kept[0], kept[1], op.n, op.oracle)
        return self._checked[key]

    def properties(self, kept: List) -> dict:
        plans = [out[0] for out in kept[: len(self.ops)] if isinstance(out[0], tuple)]
        allneg = [op.oracle[op.n] for op in self.ops if op.oracle is not None]
        return {
            "allneg_batch_share": float(sum(allneg) / len(allneg)),
            "distinct_design_ratio": _design_ratio(plans),
            "exact_op_share": sum(op.n <= EXACT_MAX_N for op in self.ops) / len(self.ops),
            "ops_per_round": len(self.ops),
        }


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McCase:
    model: Any
    pools: Any
    seed: int
    analytic: float  # expected tests under the benchmark's own q
    plan_problems: List[str]
    allneg: float
    design: tuple


class McVerify(Workload):
    """monte_carlo on the DP-optimal plan: IID and clustered at n = 80, IID
    at a float-path n.  Each case keeps its seed, so every round repeats it."""

    name = "mc-verify"
    TRIALS = 2000

    def __init__(self, rng: np.random.Generator, workdir: str):
        a, b = _clustered_family(rng)
        specs = (("iid", 80, 0.02 * _jitter(rng)), ("bb", 80, (a, b)), ("iid", 384, 0.02 * _jitter(rng)))
        self.ops = []
        for family, n, par in specs:
            if family == "bb":
                par = beta_binomial_alpha(n, *par)
            m = _model(family, n, par)
            q = oracles.iid_q(n, par) if family == "iid" else oracles.hypergeom_q(par)
            cv = cost.cost_vector(model.q_from_alpha(m))
            mu, _ = optimize.dp_solve(cv, n)
            pools = optimize.pooling_from_multiplicity(mu, range(n))
            case = McCase(
                model=m, pools=pools, seed=int(rng.integers(2**63)),
                analytic=oracles.plan_tests(oracles.unit_costs(q), oracles.part_sizes(mu.counts)),
                plan_problems=oracles.check_plan(mu.counts, cost.expected_tests_partition(cv, pools), n, q),
                allneg=float(q[n]), design=mu.counts)
            self.ops.append(Op(f"{family} n={n}", partial(self._mc, case), n, case))
        self.first: Dict[str, tuple] = {}

    def _mc(self, case: McCase):
        s = simulate.monte_carlo(case.model, case.pools, self.TRIALS, case.seed)
        return s.trials, s.mean_tests, s.std_error, s.mean_efficiency, s.efficiency_std_error

    def check(self, op: Op, kept) -> List[str]:
        case = op.oracle
        problems = list(case.plan_problems)
        first = self.first.setdefault(op.label, kept)
        if kept != first:
            problems.append("repeat with the same seed differs")
        if kept[0] != self.TRIALS:
            problems.append(f"ran {kept[0]} trials, not {self.TRIALS}")
        return problems + oracles.check_mean(kept[1], kept[2], case.analytic, op.label)

    def properties(self, kept: List) -> dict:
        cases = [op.oracle for op in self.ops]
        return {
            "allneg_batch_share": sum(c.allneg for c in cases) / len(cases),
            "distinct_design_ratio": _design_ratio([c.design for c in cases]),
            "exact_op_share": sum(op.n <= EXACT_MAX_N for op in self.ops) / len(self.ops),
            "trials": self.TRIALS,
        }


WORKLOADS = {w.name: w for w in (PipelineCohort, PlanSweep, McVerify)}
