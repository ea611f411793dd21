#!/usr/bin/env python3
"""poolpart benchmark: one workload per run, correctness-checked.

    python3 bench/run.py --workload pipeline-cohort --seed 0 --seconds 30 --trace 0

Run from anywhere; the script imports poolpart from the ``src`` directory
of the checkout it lives in and refuses any other copy.  It measures the
end-to-end metrics listed in BENCHMARK.json with tracing off
(``--trace 0``) or the per-layer metrics from wrapped calls
(``--trace 1``), prints one line per metric and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every run's full
record is appended to bench/results/runs.jsonl; traced runs also write
their spans there.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPS = 7
# The benchmark measures single-threaded work.  A BLAS thread pool starting
# inside `import numpy` would also make setup_s depend on what the other
# CPUs are doing (about 70 ms on a busy 2-vCPU host).
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def import_poolpart():
    init = os.path.join(SRC, "poolpart", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no poolpart source at {init}")
    sys.path.insert(0, SRC)
    import poolpart

    if os.path.realpath(poolpart.__file__) != os.path.realpath(init):
        sys.exit(f"error: imported poolpart from {poolpart.__file__}, not {init}")
    return poolpart


def setup_seconds(reps: int) -> float:
    """Median wall time from starting a fresh interpreter until
    ``import poolpart`` has completed in it."""
    code = "import poolpart, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            sys.exit(f"error: fresh interpreter could not import poolpart (exit {proc.returncode})")
    return statistics.median(times)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


@dataclass
class Record:
    op: Any
    seconds: float
    kept: Any
    error: Optional[str]
    traced: bool


def timed_rounds(wl, seconds: float, tracer):
    """Repeat whole rounds of the workload's ops until `seconds` have passed
    and at least `min_ops` ops ran.  With a tracer, rounds alternate
    untraced / traced, starting untraced."""
    records: List[Record] = []
    rounds = []  # (traced, wall seconds)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        try:
            for op in wl.ops:
                t0 = time.perf_counter()
                try:
                    out = tracer.run_op(op.run) if traced else op.run()
                    dt = time.perf_counter() - t0
                    records.append(Record(op, dt, wl.collect(op, out), None, traced))
                except Exception:
                    records.append(Record(op, time.perf_counter() - t0, None, traceback.format_exc(), traced))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, time.perf_counter() - r0))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= wl.min_ops and (tracer is None or len(rounds) >= 2):
            return records, rounds, elapsed


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.environ.update(ONE_THREAD)
    import_poolpart()
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(RESULTS, exist_ok=True)
    machine = machine_record(args.seed)
    setup = setup_seconds(SETUP_REPS) if not args.trace else None

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        wl = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        tracer = Tracer() if args.trace else None
        records, rounds, elapsed = timed_rounds(wl, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = []
        for r in records:
            problems = [r.error] if r.error else wl.check(r.op, r.kept)
            if problems:
                failures.append({"op": r.op.label, "traced": r.traced, "problems": problems})
        props = wl.properties([r.kept for r in records if r.error is None])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(records), len(failures)
    latencies = [r.seconds * 1e3 for r in records if not r.traced]
    if args.trace:
        measured = tracer.layer_metrics()
        wall = {t: statistics.median(w for tr, w in rounds if tr == t) for t in (False, True)}
        measured["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
        wanted = spec["per_layer"]
    else:
        measured = {
            "ops_per_s": (attempted - failed) / elapsed,
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90(latencies),
            "setup_s": setup,
            "peak_rss_mb": rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    print("# properties " + json.dumps(props, sort_keys=True))
    print(f"# {attempted} ops in {len(rounds)} rounds of {len(wl.ops)}, {elapsed:.2f} s timed"
          + (f", {len(latencies)} untraced latency samples" if args.trace else ""))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ops_frac':48s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if args.trace:
        shares = {k[: -len(".self_s")]: v for k, v in measured.items() if k.endswith(".self_s")}
        total = sum(shares.values()) or 1.0
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print("# self-time shares " + "  ".join(f"{k} {v / total:.3f}" for k, v in top))
    for f in failures[:5]:
        print(f"FAILED {f['op']}: " + "; ".join(p.strip().splitlines()[-1] for p in f["problems"]), file=sys.stderr)

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}-{stamp}.csv.gz"))
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps({
            "time": stamp, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "machine": machine, "properties": props, "attempted": attempted, "failed": failed,
            "failures": failures[:20], "metrics": metrics,
        }, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
