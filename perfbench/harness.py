"""One benchmark run: set-up, warm-up, checked passes, metrics.

The untraced passes give the end-to-end metrics; the only wrapper they run
under is the ``mpc.solve`` timer.  A traced run (``--trace 1``) runs each
operation twice back to back, untraced and under the full call-site tracer,
so the per-layer metrics and the tracing overhead come from the same process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from hashlib import sha256

import numpy as np

from bootstrap import HERE, ROOT, SRC
from check import compare, load_refs
from tracer import Patches, SolveTimer, Tracer
from workloads import SEED_POOL, seed_pair

OUT = HERE / "out"

#: set-up is repeated until both hold, and ``setup_s`` is the median: a cheap
#: set-up (plant writes one small file) is repeated hundreds of times
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0

#: a traced run measures at least this many untraced/traced operation pairs;
#: closed_loop has two operations per pass, so it runs two paired passes
MIN_TRACED_PAIRS = 4

#: metric name -> unit, as declared in BENCHMARK.json
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: per-layer name suffix -> value from a Stat, over ``n`` traced passes
_STAT_READERS = {
    "calls": lambda s, n: s.calls / n,
    "busy_s": lambda s, n: s.busy / n,
    "self_s": lambda s, n: s.self_time / n,
    "us_p50": lambda s, n: 1e6 * median(s.samples),
    "us_p95": lambda s, n: 1e6 * p95(s.samples),
    "s": lambda s, n: median(s.samples),
    "ms": lambda s, n: 1e3 * median(s.samples),
}


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def p95(xs) -> float:
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=20)[18]


class Tally:
    """Checked operations: attempted, failed, worst deviation, flips."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.rel_err = 0.0
        self.flips = 0

    def check(self, out, ref) -> None:
        self.attempted += 1
        if out is None:  # the operation raised
            self.failed += 1
            return
        ok, err, flips = compare(out, ref)
        self.rel_err = max(self.rel_err, err)
        self.flips += flips
        self.failed += not ok

    def check_pass(self, outputs: dict) -> None:
        for name, out in outputs.items():
            self.check(out, self.refs["ops"][name])


def run_op(fn):
    """(seconds, output) of one operation; an operation that raises is
    reported on stderr and gets output ``None``."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return time.perf_counter() - t0, out


def execute(wl, inputs, solve_timer: SolveTimer):
    """One untraced pass of the workload's operations: (seconds, outputs)."""
    outputs = {}
    t0 = time.perf_counter()
    for name, fn in wl.ops(inputs, solve_timer):
        outputs[name] = run_op(fn)[1]
    return time.perf_counter() - t0, outputs


def execute_paired(wl, inputs, solve_timer: SolveTimer, tracer: Tracer,
                   pairs: list, decision_ms: list):
    """One pass in which each operation runs twice back to back: untraced,
    and under the full tracer.  The order alternates from one pair to the
    next, so a steady drift of the host's speed cancels in the mean ratio.
    Appends (untraced s, traced s) to ``pairs`` and the untraced ``solve``
    times to ``decision_ms``; returns (untraced outputs, traced outputs)."""
    untraced, traced = {}, {}
    for name, fn in wl.ops(inputs, solve_timer):
        def plain():
            first = len(solve_timer.ms)
            dt, untraced[name] = run_op(fn)
            decision_ms.extend(solve_timer.ms[first:])
            return dt

        def under_tracer():
            patches = Patches()
            try:
                tracer.install(patches)
                with tracer.span(wl.span_prefix + name):
                    dt, traced[name] = run_op(fn)
            finally:
                patches.restore()
            return dt

        if len(pairs) % 2:
            dt_traced = under_tracer()
            dt_plain = plain()
        else:
            dt_plain = plain()
            dt_traced = under_tracer()
        pairs.append((dt_plain, dt_traced))
    return untraced, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl, seed: int, seconds: float, trace: bool, workdir) -> dict:
    """Set up, warm up and measure one workload; return the run record."""
    pool_index = seed % SEED_POOL
    seeds = seed_pair(seed)
    tally = Tally(load_refs(wl.name, pool_index))

    setup_s = []
    start = time.perf_counter()
    while len(setup_s) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs, setup_out = wl.setup(seeds, workdir)
        setup_s.append(time.perf_counter() - t0)
    if setup_out is not None:
        tally.check(setup_out, tally.refs["setup"])

    solve_timer = SolveTimer()
    timer_patches = Patches()
    tracer = Tracer() if trace else None
    untraced, pairs, decision_ms = [], [], []
    traced_passes = 0
    outputs = {}
    try:
        solve_timer.install(timer_patches)
        _, warm = execute(wl, inputs, solve_timer)  # warm-up, untimed
        tally.check_pass(warm)
        start = time.perf_counter()
        def measured_enough():
            return len(pairs) >= MIN_TRACED_PAIRS if tracer is not None else bool(untraced)

        while time.perf_counter() - start < seconds or not measured_enough():
            if tracer is None:
                first = len(solve_timer.ms)
                dt, outputs = execute(wl, inputs, solve_timer)
                untraced.append(dt)
                decision_ms.extend(solve_timer.ms[first:])
                tally.check_pass(outputs)
            else:
                outputs, traced_out = execute_paired(wl, inputs, solve_timer, tracer,
                                                     pairs, decision_ms)
                traced_passes += 1
                tally.check_pass(outputs)
                tally.check_pass(traced_out)
    finally:
        timer_patches.restore()

    extras = {
        "decision_ms_p50": median(decision_ms),
        "decision_ms_p95": p95(decision_ms),
        "decisions_timed": len(decision_ms),
        **wl.quality(outputs),
        "result_rel_err": tally.rel_err,
        "decision_flips": tally.flips,
    }
    if tracer is None:
        wall = median(untraced)
        values = {"setup_s": median(setup_s), "wall_s": wall,
                  "samples_per_s": wl.samples / wall, "peak_rss_mb": peak_rss_mb()}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = layer_metrics(tracer, traced_passes, pairs, extras)

    return {
        "result": {"correct": tally.failed == 0, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics},
        "extras": extras,
        "setup_s": setup_s,
        "untraced_pass_s": untraced,
        "op_pairs_s": pairs,
        "spans": tracer.span_records() if tracer is not None else None,
        "seeds": {"seed": seed, "pool_index": pool_index, "sim_seed": seeds[0],
                  "eval_seed": seeds[1]},
    }


def layer_metrics(tracer: Tracer, n_traced: int, pairs: list, extras: dict) -> dict:
    stats = tracer.stats

    def stat_value(name):
        base, _, suffix = name.rpartition(".")
        stat = stats.get(base)
        return _STAT_READERS[suffix](stat, n_traced) if stat is not None else 0.0

    def ratio(num, den):
        n, d = stat_value(num), stat_value(den)
        return n / d if d else 0.0

    derived = {
        "regressors.layout_calls_per_build":
            ratio("regressors.layout.calls", "regressors.build_regressor.calls"),
        "mpc.expand_calls_per_solve":
            ratio("mpc.ControlPlan.expand.calls", "mpc.solve.calls"),
        "trace.overhead_pct":
            100.0 * (statistics.fmean(t / u for u, t in pairs) - 1.0),
    }
    out = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif name in extras:
            value = extras[name]
        else:
            value = stat_value(name)
        out[name] = {"value": float(value), "unit": unit}
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree.
    Git is kept from looking for a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    h = sha256()
    for path in sorted((SRC / "thermbench").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args: dict, record: dict) -> dict:
    return {
        "args": args,
        "seeds": record["seeds"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "result": record["result"],
        "extras": record["extras"],
        "setup_s": record["setup_s"],
        "untraced_pass_s": record["untraced_pass_s"],
        "op_pairs_s": record["op_pairs_s"],
    }


def write_outputs(args: dict, record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args['workload']}_seed{args['seed']}_trace{int(args['trace'])}"
    (OUT / f"manifest_{tag}.json").write_text(
        json.dumps(manifest(args, record), indent=1), encoding="utf-8")
    if record["spans"] is not None:
        (OUT / f"spans_{tag}.json").write_text(json.dumps(record["spans"]),
                                               encoding="utf-8")
