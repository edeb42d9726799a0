"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's default test
collection; name the file to run them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

if "thermbench" not in sys.modules:
    sys.path.insert(0, str(bootstrap.SRC))

import check  # noqa: E402
import harness  # noqa: E402
import thermbench  # noqa: E402
from thermbench import identify, mpc, regressors, simulator, thermal_core  # noqa: E402
from tracer import Patches, SolveTimer, Tracer  # noqa: E402
from workloads import Plant  # noqa: E402

def package_state() -> dict:
    """Every attribute of every thermbench module and class."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "thermbench" or name.startswith("thermbench."):
            for attr, value in vars(mod).items():
                state[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("thermbench"):
                    for cattr, cvalue in vars(value).items():
                        state[(name, attr, cattr)] = cvalue
    return state


def changed(before: dict) -> set:
    now = package_state()
    return {k for k in before if now.get(k) is not before[k]}


def test_wrappers_reach_every_call_site_and_restore_the_originals():
    before = package_state()
    patches = Patches()
    tracer = Tracer()
    try:
        SolveTimer().install(patches)
        tracer.install(patches)
        diff = changed(before)
        for site in [("thermbench.identify", "build_regressor"),
                     ("thermbench.regressors", "build_regressor"),
                     ("thermbench.mpc", "step"), ("thermbench.simulator", "step"),
                     ("thermbench.mpc", "solve"), ("thermbench.mpc", "layout"),
                     ("thermbench.mpc", "oe_predict"), ("thermbench.cli", "load_config"),
                     ("thermbench.cli", "run_experiment"),
                     ("thermbench.regressors", "LaggedHistory", "get"),
                     ("thermbench.thermal_core", "PlantState", "__post_init__"),
                     ("thermbench.simulator", "TimeSeriesDataset", "from_csv")]:
            assert site in diff, site
        with pytest.raises(thermbench.ParameterError):
            thermal_core.ControlInput(vdot_w=-1.0, vdot_a=0.0)
        assert tracer.stats["thermal_core.validations"].calls == 1
    finally:
        patches.restore()
    assert changed(before) == set()
    assert simulator.step is mpc.step and identify.build_regressor is regressors.build_regressor


def test_timed_calls_nest_and_unwind_on_error():
    tracer = Tracer()
    with tracer.span("outer"):
        with pytest.raises(ValueError):
            with tracer.span("inner"):
                raise ValueError
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert outer.calls == inner.calls == 1
    assert outer.child == pytest.approx(inner.busy)
    assert 0.0 <= outer.self_time <= outer.busy
    ids = {s["name"]: s for s in tracer.span_records()}
    assert ids["inner"]["parent"] == ids["outer"]["id"]
    assert ids["outer"]["parent"] is None


class _WatchedPlant(Plant):
    """The plant workload, recording which package attributes differ from
    the originals while each operation runs."""

    def __init__(self, before):
        super().__init__()
        self.before = before
        self.seen = []

    def ops(self, inp, solve_timer):
        def watched(fn):
            def op():
                self.seen.append(changed(self.before))
                return fn()
            return op
        return [(name, watched(fn)) for name, fn in super().ops(inp, solve_timer)]


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_passes_run_under_the_solve_timer_only(tmp_path, trace):
    before = package_state()
    wl = _WatchedPlant(before)
    record = harness.run(wl, seed=0, seconds=0.0, trace=trace, workdir=tmp_path)
    assert record["result"]["failed"] == 0
    assert changed(before) == set()
    solve_only = {("thermbench.mpc", "solve")}
    n_ops = 3
    warm, measured = wl.seen[:n_ops], wl.seen[n_ops:]
    assert all(diff == solve_only for diff in warm)
    if not trace:
        assert measured and all(diff == solve_only for diff in measured)
    else:  # each operation once untraced and once traced, in either order
        pairs = [measured[i:i + 2] for i in range(0, len(measured), 2)]
        assert len(pairs) == n_ops * (len(measured) // (2 * n_ops)) > 0
        for pair in pairs:
            assert sum(diff == solve_only for diff in pair) == 1
            assert sum(diff > solve_only for diff in pair) == 1
        assert pairs[0][0] == solve_only and pairs[1][0] > solve_only


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "plant", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in harness.BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_output_check_fails_on_a_perturbed_theta():
    ref = check.load_refs("identify", 0)["ops"]["NRM_MI"]
    out = json.loads(json.dumps(ref))
    assert check.compare(out, ref) == (True, 0.0, 0)
    out["theta"][3] += 1e-4 * max(abs(v) for v in ref["theta"])
    ok, err, flips = check.compare(out, ref)
    assert not ok and err == pytest.approx(1e-4) and flips == 0
    out["theta"] = list(ref["theta"])
    out["theta"][3] *= 1.0 + 1e-12
    assert check.compare(out, ref)[0]


def test_output_check_counts_flipped_decisions():
    ref = check.load_refs("closed_loop", 0)["ops"]["NRM_MI"]
    out = dict(ref)
    flipped = "1" if ref["decisions"][10] != "1" else "2"
    out["decisions"] = ref["decisions"][:10] + flipped + ref["decisions"][11:]
    ok, _, flips = check.compare(out, ref)
    assert not ok and flips == 1


def test_a_raising_operation_counts_as_failed():
    tally = harness.Tally({"ops": {"x": {"rc": 0}}})
    tally.check_pass({"x": None})
    tally.check_pass({"x": {"rc": 2}})
    tally.check_pass({"x": {"rc": 0}})
    assert (tally.attempted, tally.failed) == (3, 2)


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "plant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
