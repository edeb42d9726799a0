"""Layering of the package: modules share only public names, and every
function has a run-time caller or a stated reason to have none."""

import ast
import configparser
import contextlib
import io
import sys
from pathlib import Path

import thermbench
from thermbench.cli import main
from thermbench.config import config_to_ini, default_config

PACKAGE = Path(thermbench.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _functions():
    """Every function definition of the package, nested ones included: its
    (file, first line, name), as a code object names it, to its dotted name
    in the module."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(str(path), first, child.name)] = f"{prefix}{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


_ANALYSIS = "analysis API"
_ALGEBRA = "delay algebra: the paper's Properties 1-3, checked by criterion 1"
_PINNED = "pinned by perfbench/selftest.py; remove with ROADMAP item 2"


def _error_path(test):
    return f"error path, reached by {test}"


# the functions no subcommand calls, each with the reason it stays
UNCALLED = {
    "identify.predict_series": _ANALYSIS,
    "mpc.predict_horizon": _ANALYSIS,
    "mpc.plan_cost": _ANALYSIS,
    "mpc.ControlPlan.expand": _ANALYSIS,
    "mpc.EpisodeReport.final_energy": _ANALYSIS,
    **dict.fromkeys([
        "regressors.DelayPolynomialOp.__init__", "regressors.DelayPolynomialOp.order",
        "regressors.DelayPolynomialOp.is_constant", "regressors.DelayPolynomialOp.coef",
        "regressors.apply_op", "regressors.apply_series", "regressors.compose",
        "regressors.compose.c", "regressors.identity_op", "regressors.q_separator",
        "regressors.q_varying", "regressors.verify_property_1",
        "regressors.property2_correction", "regressors.verify_property_2",
        "regressors.verify_property_3", "regressors.verify_property_3.pipeline"],
        _ALGEBRA),
    "config._recipe": "called at import",
    "config._suggest": _error_path("test_config.py::test_unknown_names_exit_2"),
    "simulator._data_line":
        _error_path("test_cli.py::test_non_increasing_dataset_time_exits_2"),
    "simulator._table_error": _error_path("test_cli.py::test_ragged_dataset_row_exits_2"),
    "thermal_core._diverged": _error_path(
        "test_simulator.py::test_divergence_names_the_first_diverged_separator"),
    # training replays a pass that diverged through it
    "identify.Rls.step": _error_path(
        "test_identify.py::test_divergence_in_a_block_names_its_sample_and_rls_step"),
    **dict.fromkeys([
        "regressors.LaggedHistory.__init__", "regressors.LaggedHistory.__len__",
        "regressors.LaggedHistory.channels", "regressors.LaggedHistory.push",
        "regressors.LaggedHistory.record_prediction", "regressors.LaggedHistory.get",
        "regressors.build_regressor", "identify.oe_predict", "simulator.step",
        "thermal_core.ControlInput.__post_init__",
        "thermal_core.Disturbance.__post_init__"], _PINNED),
}


def test_every_function_is_called_by_a_subcommand_or_listed(tmp_path):
    # each subcommand once, in process, on a short horizon; the caches of
    # earlier tests are emptied first, so that a cached function runs again
    for name, module in list(sys.modules.items()):
        if name.startswith("thermbench."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    cp = configparser.ConfigParser()
    cp.read_string(config_to_ini(default_config()))
    cp["sim"]["duration_hours"] = "24"
    cp["model"]["passes"] = "1"
    cp["mpc"]["episode_hours"] = "6"
    config = tmp_path / "config.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    common = ["--config", str(config), "--out-dir", str(tmp_path)]
    zones = [arg for s in ("NRM_FI_ZONE", "NRM_MI", "NRM_LI", "LRM") for arg in ("--spec", s)]
    runs = [["print-defaults"], ["simulate", *common], ["simulate", "--probe", *common],
            ["excite-check", *common], ["identify", "--spec", "NRM_FI_RH", *zones, *common],
            ["mpc-run", *common],
            ["compare", "--dataset", str(tmp_path / "dataset_probe.csv"), *zones, *common]]
    codes = set()

    def record(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(record)
        try:
            exits = [main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
    assert exits == [0] * len(runs)
    called = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
              for c in codes}
    uncalled = {name for key, name in _functions().items() if key not in called}
    assert sorted(uncalled - set(UNCALLED)) == [], "no caller and no reason listed"
    assert sorted(set(UNCALLED) - uncalled) == [], "listed, but called or gone"
