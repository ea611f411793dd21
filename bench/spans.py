"""In-memory spans around poolpart's public functions, for the traced run.

`Tracer.install` replaces each target function with a timing wrapper in
every loaded poolpart module that binds it (``poolpart.cli`` imports
``empirical_evaluate`` by name, so wrapping only ``poolpart.simulate``
would miss the calls ``report`` makes).  `uninstall` puts the originals
back, so traced and untraced ops can alternate in one process.

Each span is (parent, name, start_ns, end_ns), kept in flat arrays; the
benchmark opens one "op" span per op, so every layer span has an op as
its root.  Self time is a span's duration minus the durations of its
direct children; one thread means children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

OP = "op"

# (module, function) pairs wrapped in the traced run; the span is named
# "<module>.<function>", with q_from_alpha split by the path it took.
TARGETS = (
    ("ingest", "parse_pools"),
    ("ingest", "filter_pools"),
    ("ingest", "impute_batches"),
    ("ingest", "write_batches"),
    ("ingest", "read_batches"),
    ("estimate", "fit_iid"),
    ("estimate", "fit_symmetric"),
    ("model", "iid_model"),
    ("model", "q_from_alpha"),
    ("model", "w_from_q"),
    ("model", "alpha_from_w"),
    ("model", "sample_outcome"),
    ("model", "substream"),
    ("cost", "cost_vector"),
    ("cost", "expected_tests_partition"),
    ("optimize", "dp_solve"),
    ("optimize", "pooling_from_multiplicity"),
    ("simulate", "empirical_evaluate"),
    ("simulate", "empirical_trial_totals"),
    ("simulate", "mc_trial_totals"),
    ("simulate", "monte_carlo"),
    ("cli", "main"),
    ("cli", "run_experiment"),
    ("cli", "strategy_multiplicity"),
    ("cli", "emit_model_analysis"),
)

REPLAY_SPANS = ("simulate.empirical_evaluate", "simulate.empirical_trial_totals")
MC_SPANS = ("simulate.mc_trial_totals",)


def _q_path(curve) -> str:
    # "exact" when the returned curve carries the rational channel
    return "model.q_from_alpha." + ("exact" if getattr(curve, "_exact", None) is not None else "float")


class Tracer:
    """Span recorder for one benchmark run.  Not thread-safe: one thread."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.op_designs: list[list] = []  # per traced op: replayed multiplicities
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.t0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.t1.append(0)
        self.stack.append(sid)
        self.t0.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter_ns()
        self.stack.pop()

    def run_op(self, fn):
        """Run one benchmark op under an "op" root span."""
        self.op_designs.append([])
        sid = self._open(self._id(OP))
        try:
            return fn()
        finally:
            self._close(sid)

    def wrap(self, span: str, fn):
        nid = self._id(span)
        hook = _HOOKS.get(span)
        sig = inspect.signature(fn) if hook else None
        rename = fn.__name__ == "q_from_alpha"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook:
                hook(self, sig.bind(*args, **kwargs).arguments)
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if rename:
                self.name[sid] = self._id(_q_path(out))
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items()) if k == "poolpart" or k.startswith("poolpart.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules["poolpart." + mod_name], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span (name ids, durations ns, self times ns) as arrays."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=np.int64) - np.frombuffer(self.t0, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return np.frombuffer(self.name, dtype=np.int32), dur, dur - child

    def _under(self, roots) -> np.ndarray:
        """Mask of spans that have an ancestor named in roots."""
        root_ids = {self._ids[r] for r in roots if r in self._ids}
        inside = np.zeros(len(self.t0), dtype=bool)
        for sid in range(len(self.t0)):  # parents precede children
            p = self.parent[sid]
            inside[sid] = p >= 0 and (inside[p] or self.name[p] in root_ids)
        return inside

    def layer_metrics(self) -> dict:
        """Per-op calls and self seconds for every traced span name, plus
        the replay and Monte Carlo counters and trace coverage."""
        names, dur, self_ns = self.self_times()
        op_id = self._ids.get(OP)
        ops = max(1, int((names == op_id).sum()))
        out = {}
        for nid, name in enumerate(self.names):
            if name == OP:
                continue
            sel = names == nid
            out[name + ".calls"] = int(sel.sum()) / ops
            out[name + ".self_s"] = float(self_ns[sel].sum()) / 1e9 / ops
        is_op = names == op_id
        out["trace.coverage"] = float(self_ns[~is_op].sum()) / max(1, int(dur[is_op].sum()))

        c = self.counters
        sub = names == self._ids.get("model.substream", -1)
        replay_sub = int((sub & self._under(REPLAY_SPANS)).sum())
        mc_sub = int((sub & self._under(MC_SPANS)).sum())
        bt = c["replay.batch_trials"]
        out["simulate.replay.batch_trials"] = bt / ops
        out["simulate.replay.allneg_share"] = c["replay.allneg_batch_trials"] / bt if bt else 0.0
        rbt = c["replay.randomized_batch_trials"]
        out["simulate.replay.substreams_per_batch_trial"] = replay_sub / rbt if rbt else 0.0
        ratios = [len(set(d)) / len(d) for d in self.op_designs if d]
        out["simulate.replay.distinct_design_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        out["simulate.mc.trials"] = c["mc.trials"] / ops
        out["simulate.mc.substreams_per_trial"] = mc_sub / c["mc.trials"] if c["mc.trials"] else 0.0
        out["optimize.dp_solve.cells"] = c["dp.cells"] / ops
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.t0)):
                fh.write(f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},{self.t0[sid]},{self.t1[sid]}\n")


# -- counters taken from call arguments at the layer boundary ------------------

def _count_replay(tr: Tracer, a: dict) -> None:
    batches, mu = a["batches"], a["mu"]
    trials = int(a["trials"]) if a["randomize"] else 1
    nb = len(batches)
    allneg = sum(1 for b in batches if not np.asarray(getattr(b, "statuses", b)).any())
    tr.counters["replay.batch_trials"] += nb * trials
    tr.counters["replay.allneg_batch_trials"] += allneg * trials
    if a["randomize"]:
        tr.counters["replay.randomized_batch_trials"] += nb * trials
    if tr.op_designs:
        tr.op_designs[-1].append(mu.counts)


def _count_mc(tr: Tracer, a: dict) -> None:
    tr.counters["mc.trials"] += int(a["trials"])


def _count_dp(tr: Tracer, a: dict) -> None:
    # cells the value recursion visits: sum over k of min(k, max_size)
    n, m = int(a["target"]), a["cv"].max_size
    m = min(m, n)
    tr.counters["dp.cells"] += m * (m + 1) // 2 + (n - m) * m


_HOOKS = {
    "simulate.empirical_evaluate": _count_replay,
    "simulate.mc_trial_totals": _count_mc,
    "optimize.dp_solve": _count_dp,
}
