"""Command-line pipeline: ingest, fit, optimize, simulate, report.

`report` runs the full experiment: fit IID and exchangeable models to a
batch file, build four pooling strategies, and evaluate each analytically
(under both fitted models) and empirically (replayed against the batches,
with and without randomized specimen-to-pool assignment).

Strategies, each planned on what `_plan_and_score` hands it:

    team8      fixed size-8 pools
    dorfman    classical infinite-population pool size at the IID
               prevalence, one smaller remainder pool if it does not divide
               the batch size; it reads that number and builds no model
    iid        cost-optimal partition under the IID model at that prevalence
    symmetric  cost-optimal partition under the exchangeable model

Option values resolve as flags > POOLPART_* environment variables >
defaults, after parsing and for the running command's options only: a
variable is read only by a command that has its flag (report's
--batch-size, a check on the batch file's size, reads none), and a flag
wins even over a malformed variable.  Integers are read with
`model.parse_uint`, the rule for integers read from files (ASCII digits
only), and floats with `model.parse_real` (float() less non-ASCII text and
'_').  Exit codes: 0 success, 2 validation error or out of memory, 3 I/O
error, 4 infeasible optimization.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .cost import CostVector, cost_vector, efficiency, expected_tests_partition
from .errors import InfeasibleError, PoolPartError, ValidationError
from .estimate import fit_iid, fit_symmetric
from .ingest import filter_pools, impute_batches, parse_pools, read_batches, write_batches
from .model import QCurve, SymmetricModel, check_int, check_n, check_uint64, parse_real
from .model import iid_model, parse_uint, prevalence, q_from_alpha
from .optimize import (
    MultiplicityFunction,
    dorfman_infinite_size,
    dp_solve,
    pooling_from_multiplicity,
)
from .simulate import empirical_evaluate, empirical_trial_totals, mc_trial_totals, summarize_totals

__all__ = [
    "Experiment",
    "strategy_multiplicity",
    "run_experiment",
    "emit_model_analysis",
    "main",
]

STRATEGIES = ("team8", "dorfman", "iid", "symmetric")


@contextlib.contextmanager
def _stage(label: str):
    """Prefix domain and I/O errors with the pipeline stage that raised."""
    try:
        yield
    except ValidationError as e:
        raise ValidationError(f"{label}: {e}") from e
    except InfeasibleError as e:
        raise InfeasibleError(f"{label}: {e}") from e
    except OSError as e:
        raise OSError(f"{label}: {e}") from e


def _blocks(n: int, size: int) -> MultiplicityFunction:
    counts = {size: n // size}
    r = n % size
    if r:
        counts[r] = counts.get(r, 0) + 1
    return MultiplicityFunction(n, counts)


def strategy_multiplicity(
    strategy: str,
    p_iid: float,
    cv: CostVector,
    max_pool: Optional[int] = None,
) -> MultiplicityFunction:
    """Pooling multiplicity of cv.n specimens for one strategy: dorfman reads
    the IID prevalence p_iid and only cv's n, iid and symmetric solve on cv,
    the cost vector `_plan_and_score` hands them.  max_pool caps every pool
    size (fixed sizes are clamped, the optimizers read cv up to the cap).
    dorfman handles the degenerate fits the infinite-population formula
    excludes: one big pool at p = 0, individual testing at p = 1."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    n = cap = cv.n
    if max_pool is not None:
        cap = min(check_int("max pool size", max_pool), cap)
    if strategy == "team8":
        return _blocks(n, min(8, cap))
    if strategy == "dorfman":
        if p_iid <= 0.0:
            s = cap
        elif p_iid >= 1.0:
            s = 1
        else:
            s = min(dorfman_infinite_size(p_iid, s_max=max(cap, 2)), cap)
        return _blocks(n, s)
    return dp_solve(CostVector(n, cv.c[: cap + 1]), n)[0]


def _plan_and_score(strategy, p_iid, cv_iid, cv, max_pool, scored_under):
    """Plan cv.n specimens for one strategy and score the plan: the one rule
    for what each strategy plans on.  dorfman reads the IID prevalence p_iid,
    iid solves on cv_iid, the cost vector of the IID model at p_iid (built
    here, and only for iid, when None), and team8 and symmetric plan on cv,
    the given model's.  Returns the multiplicity, its pools, the {strategy,
    multiplicity} entry both commands write, and the pools' expected tests
    and efficiency under each cost vector of the dict scored_under, by its
    key."""
    if strategy == "iid" and cv_iid is None:
        cv_iid = cost_vector(q_from_alpha(iid_model(cv.n, p_iid)))
    plan_cv = cv_iid if strategy == "iid" else cv
    mu = strategy_multiplicity(strategy, p_iid, plan_cv, max_pool)
    pools = pooling_from_multiplicity(mu, range(cv.n))
    scores = {}
    for name, scoring in scored_under.items():
        t = expected_tests_partition(scoring, pools)
        scores[name] = {"expected_tests": t, "efficiency": efficiency(mu.target, t)}
    entry = {"strategy": strategy, "multiplicity": {str(i): c for i, c in mu.counts}}
    return mu, pools, entry, scores


@dataclass(frozen=True, eq=False)
class Experiment:
    """The fitted models, the q curves the plans used, and the four strategy
    reports.  Each report is the strategy's report.json entry, a dict: its
    multiplicity, pool count and largest pool, its expected tests and
    efficiency under each fitted model ("theoretical"), and its replay
    summaries, randomized and in stored order ("empirical")."""

    reports: List[dict]
    m_iid: SymmetricModel
    m_sym: SymmetricModel
    q_iid: QCurve
    q_sym: QCurve


def run_experiment(
    batches_path,
    *,
    trials: int = 10000,
    seed: int = 0,
    max_pool: Optional[int] = None,
    laplace: float = 0.0,
) -> Experiment:
    """Fit both models to a batch file and evaluate all four strategies for
    n, the fitted models' size: the one size its batches share."""
    # up front, before the batches are read: replay, which uses these, runs
    # last, and constant batches draw nothing
    check_uint64("seed", seed)
    check_n(trials, "trials")
    if max_pool is not None:
        check_int("max pool size", max_pool)
    with _stage("ingest"):
        batches = read_batches(batches_path)
    with _stage("fit"):
        m_iid = fit_iid(batches, laplace=laplace)
        m_sym = fit_symmetric(batches, laplace=laplace)
        q_sym, q_iid = q_from_alpha(m_sym), q_from_alpha(m_iid)
        cv_sym, cv_iid = cost_vector(q_sym), cost_vector(q_iid)
    p_iid = prevalence(m_iid)
    reports = []
    # every strategy replays on the same seed, so equal designs give equal
    # summaries: replay each distinct multiplicity once
    replays: Dict[tuple, tuple] = {}
    for name in STRATEGIES:
        with _stage(f"optimize[{name}]"):
            mu, _, entry, theoretical = _plan_and_score(
                name, p_iid, cv_iid, cv_sym, max_pool, {"symmetric": cv_sym, "iid": cv_iid}
            )
        if mu.counts not in replays:
            with _stage(f"simulate[{name}]"):
                replays[mu.counts] = (
                    empirical_evaluate(batches, mu, True, trials, seed),
                    empirical_evaluate(batches, mu, False, trials, seed),
                )
        randomized, deterministic = replays[mu.counts]
        entry.update(
            num_pools=mu.num_parts,
            max_pool=mu.max_part,
            theoretical=theoretical,
            empirical={
                "randomized": randomized.to_dict(),
                "deterministic": deterministic.to_dict(),
            },
        )
        reports.append(entry)
    return Experiment(reports, m_iid, m_sym, q_iid, q_sym)


def emit_model_analysis(exp: Experiment, out_dir) -> List[str]:
    """Write plot-ready CSV series comparing the two fitted models of exp,
    alpha[k] vs k, q[h] vs h and U(h) vs h, from the q curves its plans used."""
    n = exp.m_iid.n
    if {exp.m_sym.n, exp.q_iid.n, exp.q_sym.n} != {n}:
        raise ValidationError(f"models and curves must share n = {n}")
    os.makedirs(out_dir, exist_ok=True)
    u_iid, u_sym = (cost_vector(qc).c[1:].tolist() for qc in (exp.q_iid, exp.q_sym))
    series = {
        "alpha.csv": (
            ("k", "iid", "symmetric"),
            [(k, float(exp.m_iid.alpha[k]), float(exp.m_sym.alpha[k])) for k in range(n + 1)],
        ),
        "q.csv": (
            ("h", "iid", "symmetric"),
            [(h, float(exp.q_iid.q[h]), float(exp.q_sym.q[h])) for h in range(n + 1)],
        ),
        "u.csv": (
            ("h", "iid", "symmetric"),
            list(zip(range(1, n + 1), u_iid, u_sym)),
        ),
    }
    paths = []
    for name, (header, rows) in series.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# argument plumbing

# every option read from text, by dest: (reader, POOLPART_ variable or None,
# default).  argparse keeps the flag's text and _read_options reads it after
# parsing: a type= that raises would print a usage block as well as the error
_OPTIONS = {
    "seed": (parse_uint, "SEED", 0),
    "trials": (parse_uint, "TRIALS", 10000),
    "batch_size": (parse_uint, "BATCH_SIZE", 80),
    "n": (parse_uint, None, None),
    "max_pool_size": (parse_uint, "MAX_POOL_SIZE", None),
    "exclude_size": (lambda texts: [parse_uint(t) for t in texts], None, (5,)),
    "laplace": (parse_real, "LAPLACE", 0.0),
    "prevalence": (parse_real, None, None),
}


def _read_options(args) -> None:
    """Set each option the running command has: its reader's value of the
    flag's text, else of its variable's text, else its default."""
    for dest, (read, var, default) in _OPTIONS.items():
        if hasattr(args, dest):
            raw, source = getattr(args, dest), "--" + dest.replace("_", "-")
            if raw is None and var is not None:
                source = "POOLPART_" + var
                raw = os.environ.get(source)
            try:
                setattr(args, dest, default if raw is None else read(raw))
            except ValueError as e:
                raise ValidationError(f"bad {source} value: {e}") from e


def _write_json(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path):
    """Parse a UTF-8 JSON file (BOM skipped); bad JSON, or a key repeated
    within one object, raises ValidationError."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValidationError(f"{path}: invalid JSON: key {key!r} is repeated")
            doc[key] = value
        return doc

    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValidationError(f"{path}: invalid JSON: {e}") from e


def _load_model(path) -> SymmetricModel:
    return SymmetricModel.from_dict(_load_json(path))


def _load_multiplicity(path) -> MultiplicityFunction:
    doc = _load_json(path)
    if isinstance(doc, dict) and "multiplicity" in doc:
        doc = doc["multiplicity"]
    if not isinstance(doc, dict) or not doc:
        raise ValidationError(f"{path}: expected a nonempty size->count object")
    try:
        counts = [(parse_uint(i), m) for i, m in doc.items()]
    except ValueError as e:
        raise ValidationError(f"{path}: bad multiplicity entry: {e}") from e
    # MultiplicityFunction rejects a repeated size and a non-integer count, which adds 0 here
    target = sum(i * m for i, m in counts if isinstance(m, numbers.Integral))
    return MultiplicityFunction(target, counts)


def _cmd_ingest(args) -> int:
    records = parse_pools(args.input)
    specimens_in = sum(r.pool_size for r in records)
    kept, dropped = filter_pools(records, set(args.exclude_size))
    batches, remainder = impute_batches(kept, args.batch_size)
    write_batches(args.out, batches)
    _write_json(
        {
            "pools_read": len(records),
            "pools_kept": len(kept),
            "dropped": dropped,
            "batch_size": args.batch_size,
            "batches": len(batches),
            "specimens_in": specimens_in,
            "specimens_out": len(batches) * args.batch_size,
            "remainder_discarded": remainder,
            "out": str(args.out),
        },
        None,
    )
    return 0


def _cmd_fit(args) -> int:
    batches = read_batches(args.input)
    fit = fit_iid if args.family == "iid" else fit_symmetric
    m = fit(batches, laplace=args.laplace)
    _write_json(m.to_dict(), args.out)
    if args.out not in (None, "-"):
        _write_json(
            {
                "family": args.family,
                "n": m.n,
                "batches": len(batches),
                "prevalence": prevalence(m),
                "out": str(args.out),
            },
            None,
        )
    return 0


def _cmd_optimize(args) -> int:
    if args.model is not None:
        if args.prevalence is not None or args.n is not None:
            raise ValidationError("give either --model or --n with --prevalence, not both")
        m = _load_model(args.model)
    else:
        if args.prevalence is None or args.n is None:
            raise ValidationError("without --model, both --n and --prevalence are required")
        m = iid_model(args.n, args.prevalence)
    cv = cost_vector(q_from_alpha(m))
    # with --prevalence m is its own IID model, so cv is its IID curve
    cv_iid = cv if args.model is None else None
    mu, pools, entry, scores = _plan_and_score(
        args.strategy, prevalence(m), cv_iid, cv, args.max_pool_size, {"model": cv}
    )
    entry.update(n=m.n, pools=[list(g) for g in pools.groups], **scores["model"])
    _write_json(entry, args.out)
    return 0


def _cmd_simulate(args) -> int:
    if (args.model is None) == (args.batches is None):
        raise ValidationError("give exactly one of --model or --batches")
    mu = _load_multiplicity(args.multiplicity)
    if args.model is not None:
        m = _load_model(args.model)
        pools = pooling_from_multiplicity(mu, range(m.n))
        totals = mc_trial_totals(m, pools, args.trials, args.seed)
        summary = summarize_totals(totals, m.n)
    else:
        batches = read_batches(args.batches)
        randomize = args.randomize == "on"
        totals = empirical_trial_totals(batches, mu, randomize, args.trials, args.seed)
        summary = summarize_totals(totals, mu.target, len(batches))
    if args.per_trial_out:
        with open(args.per_trial_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("trial", "total_tests"))
            writer.writerows((t, int(v)) for t, v in enumerate(totals))
    _write_json(summary.to_dict(), args.out)
    return 0


def _cmd_report(args) -> int:
    exp = run_experiment(
        args.batches,
        trials=args.trials,
        seed=args.seed,
        max_pool=args.max_pool_size,
        laplace=args.laplace,
    )
    n = exp.m_sym.n
    if getattr(args, "batch_size", n) != n:
        raise ValidationError(f"batches have size {n}, not --batch-size {args.batch_size}")
    doc = {
        "batch_size": n,
        "trials": args.trials,
        "seed": args.seed,
        "strategies": exp.reports,
    }
    if args.plots_dir:
        doc["plots"] = emit_model_analysis(exp, args.plots_dir)
    _write_json(doc, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolpart",
        description="Pool partitioning for two-stage group testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed")
        p.add_argument("--trials")

    p = sub.add_parser("ingest", help="parse pool records and impute batches")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size")
    p.add_argument(
        "--exclude-size",
        action="append",
        default=None,
        help="pool size to drop; repeatable (default: 5)",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit a model to a batch file")
    p.add_argument("--input", required=True)
    p.add_argument("--family", choices=("iid", "symmetric"), default="symmetric")
    p.add_argument("--laplace")
    p.add_argument("--out", default=None, help="model JSON path (default: stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("optimize", help="compute a pooling for one strategy")
    p.add_argument("--model", default=None, help="model JSON file")
    p.add_argument("--n")
    p.add_argument("--prevalence", help="IID shortcut")
    p.add_argument("--max-pool-size")
    p.add_argument("--strategy", choices=STRATEGIES, default="symmetric")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo or batch replay of a pooling")
    p.add_argument("--model", default=None)
    p.add_argument("--batches", default=None)
    p.add_argument("--multiplicity", required=True, help="JSON size->count file")
    p.add_argument("--randomize", choices=("on", "off"), default="on")
    p.add_argument("--per-trial-out", default=None, help="CSV of per-trial totals")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="full four-strategy comparison")
    p.add_argument("--batches", required=True)
    p.add_argument("--batch-size", default=argparse.SUPPRESS)  # unset: no variable read
    p.add_argument("--max-pool-size")
    p.add_argument("--laplace")
    p.add_argument("--plots-dir", default=None, help="also write alpha/q/U plot CSVs")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _read_options(args)
        return args.func(args)
    except (ValidationError, MemoryError) as e:  # numpy's MemoryError names the size
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
