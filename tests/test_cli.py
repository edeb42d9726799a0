import configparser
import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermbench
from thermbench import excitation, identify, mpc
from thermbench.cli import main
from thermbench.config import config_to_ini, default_config, load_config
from thermbench.simulator import TimeSeriesDataset, column_names


def test_print_defaults_round_trips(tmp_path, capsys):
    assert main(["print-defaults"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    cfg = load_config(path)
    ref = default_config()
    assert cfg.plant.c_r == ref.plant.c_r
    assert cfg.sim.epsilon == pytest.approx(ref.sim.epsilon, rel=1e-8)
    assert cfg.model.spec == ref.model.spec
    assert cfg.mpc.inlet_set == ref.mpc.inlet_set
    assert (cfg.sim.disturbance_spec.occupancy.absent_windows
            == ref.sim.disturbance_spec.occupancy.absent_windows)


def test_simulate_writes_canonical_header(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(small_config),
                 "--out-dir", str(out)]) == 0
    header = (out / "dataset.csv").read_text().splitlines()[0]
    assert header.split(",") == column_names(1)


def test_simulate_byte_identical_reruns(tmp_path, small_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out1)])
    main(["simulate", "--config", str(small_config), "--out-dir", str(out2)])
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_simulate_seed_override_changes_output(tmp_path, small_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out1)])
    main(["simulate", "--config", str(small_config), "--out-dir", str(out2),
          "--seed", "9"])
    assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()


def test_missing_key_names_it(tmp_path, small_config, capsys):
    cp = configparser.ConfigParser()
    cp.read(small_config)
    del cp["plant"]["c_r"]
    broken = tmp_path / "broken.ini"
    with open(broken, "w") as fh:
        cp.write(fh)
    code = main(["simulate", "--config", str(broken), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "[plant] c_r: missing key" in err and str(broken) in err


@pytest.mark.parametrize("section,key,value", [
    ("mpc", "flow_set", "-0.01, 0.0787"),
    ("disturbance.air_inlet", "offset", "nan"),
    ("hysteresis", "vdot_max", "nan"),
    ("heating_curve", "rho0", "nan"),
    ("occupancy", "occupant_gain_w", "inf"),
    ("occupancy", "jitter_h", "-1"),
    ("mpc", "alpha", "-1"),
    ("mpc", "beta", "-1"),
    ("mpc", "gamma", "-0.5"),
    ("mpc", "episode_hours", "0"),
    ("mpc", "plan_budget", "0"),
    ("model", "rmse_window", "0"),
    ("plant", "c_r", "0"),
    ("disturbance.solar", "amplitudes", "0.0, 0.0, 0.0"),
    ("sim", "epsilon_hours", "0.07"),  # [mpc] t_opt, 1 h, is no whole number of samples
])
def test_bad_config_value_names_section_and_key(tmp_path, small_config, capsys,
                                                section, key, value):
    cp = configparser.ConfigParser()
    cp.read(small_config)
    cp[section][key] = value
    broken = tmp_path / "broken.ini"
    with open(broken, "w") as fh:
        cp.write(fh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(broken), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}" in err and str(broken) in err
    assert not caught and "Warning" not in err


@pytest.mark.parametrize("command,section,key,value,extra", [
    ("simulate", "sim", "seed", "-1", []),
    ("simulate", None, "seed", None, ["--seed", "-5"]),
    ("mpc-run", "mpc", "eval_seed", "-3", []),
], ids=["sim-seed", "seed-option", "mpc-eval-seed"])
def test_negative_seed_names_its_key(tmp_path, small_config, capsys,
                                     command, section, key, value, extra):
    cp = configparser.ConfigParser()
    cp.read(small_config)
    if section is not None:
        cp[section][key] = value
    broken = tmp_path / "broken.ini"
    with open(broken, "w") as fh:
        cp.write(fh)
    code = main([command, "--config", str(broken), "--out-dir", str(tmp_path), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    if section is not None:
        assert f"[{section}] {key}" in err and str(broken) in err


@pytest.mark.parametrize("value,part", [
    ("nan-3.0; 5.0-inf", "nan-3.0"),
    ("8.0-16.0; 5.0-inf", "5.0-inf"),
    ("5.0-3.0", "5.0-3.0"),
    ("8.0-16.0; 4.0-4.0", "4.0-4.0"),
    ("25.0-26.0", "25.0-26.0"),
    ("8.0-16.0; 23.0-24.5", "23.0-24.5"),
    ("-1.0-3.0", "-1.0-3.0"),
])
def test_bad_absence_window_names_key_and_part(tmp_path, small_config, capsys,
                                               value, part):
    cp = configparser.ConfigParser()
    cp.read(small_config)
    cp["occupancy"]["absent_windows"] = value
    broken = tmp_path / "broken.ini"
    with open(broken, "w") as fh:
        cp.write(fh)
    code = main(["simulate", "--config", str(broken), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "[occupancy] absent_windows" in err and repr(part) in err and str(broken) in err
    assert not (tmp_path / "dataset.csv").exists()


def test_dataset_within_warmup_exits_2(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out)])
    short = out / "short.csv"
    short.write_text("\n".join((out / "dataset.csv").read_text().splitlines()[:4]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["identify", "--config", str(small_config), "--out-dir", str(out),
                     "--dataset", str(short), "--spec", "NRM_MI"])
    assert code == 2
    captured = capsys.readouterr()
    assert "NRM_MI" in captured.err and "3-sample warm-up" in captured.err
    assert "3 samples" in captured.err
    assert not caught and "nan" not in captured.out


def test_unknown_structure_rejected(tmp_path, small_config, capsys):
    code = main(["identify", "--config", str(small_config),
                 "--out-dir", str(tmp_path), "--spec", "ARMAX"])
    assert code == 2
    assert "ARMAX" in capsys.readouterr().err


def test_identify_outputs(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["identify", "--config", str(small_config), "--out-dir", str(out),
                 "--spec", "NRM_MI"]) == 0
    assert (out / "train_report_NRM_MI.csv").exists()
    theta = np.loadtxt(out / "theta_NRM_MI.txt")
    assert theta.shape == (26,)
    assert np.all(np.isfinite(theta))
    assert np.loadtxt(out / "theta_w.txt").shape == (4,)


def test_identify_accepts_dataset_file(tmp_path, small_config):
    out = tmp_path / "out"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out)])
    assert main(["identify", "--config", str(small_config), "--out-dir", str(out),
                 "--dataset", str(out / "dataset.csv"), "--spec", "LRM"]) == 0
    assert np.loadtxt(out / "theta_LRM.txt").shape == (21,)


def test_repeated_spec_is_trained_once(tmp_path, small_config, capsys, monkeypatch):
    # a structure named twice is trained once and writes what naming it once
    # writes, stdout included
    train, calls = identify.train, []

    def counted(ds, spec, *args, **kwargs):
        calls.append(spec.structure.value)
        return train(ds, spec, *args, **kwargs)

    monkeypatch.setattr(identify, "train", counted)
    runs = {}
    for name, specs in (("once", ["--spec", "LRM"]), ("twice", ["--spec", "LRM"] * 2)):
        calls.clear()
        assert main(["identify", "--config", str(small_config),
                     "--out-dir", str(tmp_path / name), *specs]) == 0
        runs[name] = (list(calls), capsys.readouterr().out, _files(tmp_path / name))
    assert runs["twice"][0] == ["NRM_FI_RH", "LRM"]
    assert runs["twice"] == runs["once"]


def test_missing_dataset_file_exits_2(tmp_path, small_config, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["excite-check", "--config", str(small_config),
                 "--out-dir", str(tmp_path / "out"),
                 "--dataset", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def _damaged_dataset(tmp_path, small_config, line, edit):
    out = tmp_path / "out"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out)])
    path = out / "dataset.csv"
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")
    return path


def test_ragged_dataset_row_exits_2(tmp_path, small_config, capsys):
    path = _damaged_dataset(tmp_path, small_config, 7,
                            lambda row: row.rsplit(",", 1)[0])
    assert main(["identify", "--config", str(small_config), "--out-dir",
                 str(tmp_path / "out"), "--dataset", str(path),
                 "--spec", "LRM"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 7" in err
    # every row one field short of the header
    short = tmp_path / "short.csv"
    short.write_text("k,t_hours,T_r,T_rj_1\n0,0,21\n1,0.25,21\n")
    assert main(["excite-check", "--config", str(small_config), "--out-dir",
                 str(tmp_path / "out"), "--dataset", str(short)]) == 2
    err = capsys.readouterr().err
    assert str(short) in err and "line 2" in err


def test_non_numeric_dataset_cell_exits_2(tmp_path, small_config, capsys):
    header = column_names(1)
    col = header.index("Tw_in")

    def edit(row):
        cells = row.split(",")
        cells[col] = "warm"
        return ",".join(cells)

    path = _damaged_dataset(tmp_path, small_config, 12, edit)
    assert main(["excite-check", "--config", str(small_config), "--out-dir",
                 str(tmp_path / "out"), "--dataset", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 12" in err and "'Tw_in'" in err


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_non_finite_dataset_cell_exits_2(tmp_path, small_config, capsys, cell):
    header = column_names(1)
    col = header.index("Qext")

    def edit(row):
        cells = row.split(",")
        cells[col] = cell
        return ",".join(cells)

    path = _damaged_dataset(tmp_path, small_config, 9, edit)
    common = ["--config", str(small_config), "--out-dir", str(tmp_path / "out"),
              "--dataset", str(path)]
    for argv in (["identify", *common, "--spec", "LRM"], ["excite-check", *common]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line 9" in err and "'Qext'" in err


def _without_column(tmp_path, small_config, name):
    out = tmp_path / "out"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out)])
    lines = (out / "dataset.csv").read_text().splitlines()
    col = lines[0].split(",").index(name)
    path = tmp_path / f"no_{name}.csv"
    path.write_text("".join(",".join(c for i, c in enumerate(line.split(",")) if i != col)
                            + "\n" for line in lines))
    return path


def test_dataset_missing_a_column_exits_2(tmp_path, small_config, capsys):
    common = ["--config", str(small_config), "--out-dir", str(tmp_path / "out")]
    path = _without_column(tmp_path, small_config, "t_hours")
    capsys.readouterr()
    for command in ("identify", "excite-check", "mpc-run", "compare"):
        assert main([command, *common, "--dataset", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert str(path) in err and "['t_hours']" in err, command
    path = _without_column(tmp_path, small_config, "Vw")
    capsys.readouterr()
    for argv in (["excite-check"], ["identify", "--spec", "LRM"]):
        assert main([*argv, *common, "--dataset", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "['Vw']" in err


def test_non_increasing_dataset_time_exits_2(tmp_path, small_config, capsys):
    col = column_names(1).index("t_hours")

    def edit(row):
        cells = row.split(",")
        cells[col] = "0"
        return ",".join(cells)

    path = _damaged_dataset(tmp_path, small_config, 10, edit)
    assert main(["excite-check", "--config", str(small_config), "--out-dir",
                 str(tmp_path / "out"), "--dataset", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 10" in err and "strictly increasing" in err


def test_non_uniform_dataset_time_exits_2(tmp_path, small_config, capsys):
    # steps alternating 0.05 h and 0.15 h: increasing, but no one sampling
    # period; data row r sits on file line r + 2, and the first 0.15 h step
    # ends on row 2
    col = column_names(1).index("t_hours")
    main(["simulate", "--config", str(small_config), "--out-dir", str(tmp_path / "out")])
    path = tmp_path / "out" / "dataset.csv"
    lines = path.read_text().splitlines()
    for r in range(len(lines) - 1):
        cells = lines[r + 1].split(",")
        cells[col] = "%.9g" % (r // 2 * 0.2 + r % 2 * 0.05)
        lines[r + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["identify", "--config", str(small_config), "--out-dir",
                 str(tmp_path / "out"), "--dataset", str(path), "--spec", "LRM"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 4" in err and "sampling period" in err


@pytest.mark.parametrize("probe", [False, True])
def test_simulated_dataset_round_trips_on_the_full_grid(tmp_path, probe):
    # 14 days of times written with 9 digits stay within the step tolerance
    from thermbench.simulator import TimeSeriesDataset
    config, out = tmp_path / "default.ini", tmp_path / "out"
    config.write_text(config_to_ini(default_config()))
    assert main(["simulate", "--config", str(config), "--out-dir", str(out),
                 *(["--probe"] if probe else [])]) == 0
    name = "dataset_probe.csv" if probe else "dataset.csv"
    ds = TimeSeriesDataset.from_csv(out / name)
    assert ds.t_hours[-1] > 300.0
    assert ds.epsilon == pytest.approx(default_config().sim.epsilon, rel=1e-6)


def test_header_only_dataset_is_empty(tmp_path, small_config, capsys):
    path = tmp_path / "header.csv"
    path.write_text(",".join(column_names(1)) + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["excite-check", "--config", str(small_config), "--out-dir",
                     str(tmp_path / "out"), "--dataset", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "is empty" in err


def test_excite_check_computes_each_spectrum_once(tmp_path, small_config,
                                                  monkeypatch):
    calls = []

    def counted(signal, *args):
        calls.append(len(signal))
        return spectrum(signal, *args)

    spectrum = excitation.spectrum
    monkeypatch.setattr(excitation, "spectrum", counted)
    out = tmp_path / "out"
    assert main(["excite-check", "--config", str(small_config),
                 "--out-dir", str(out)]) == 0
    assert len(calls) == len(excitation.excitation_columns(1))
    assert sorted(p.name for p in out.glob("spectrum_*.csv")) == sorted(
        f"spectrum_{c}.csv" for c in excitation.excitation_columns(1))


def _console(cwd, *argv, **env):
    """Run ``python -m thermbench`` in a fresh process, with ``env`` added to
    its environment; numpy's RuntimeWarnings are errors there, so one that
    escapes shows as a traceback."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": str(Path(thermbench.__file__).resolve().parents[1]), **env}
    return subprocess.run([sys.executable, "-m", "thermbench", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=60)


def test_python_m_thermbench_prints_defaults(tmp_path):
    done = _console(tmp_path, "print-defaults")
    assert done.returncode == 0, done.stderr
    # the committed file pins the template's bytes
    assert done.stdout == (Path(__file__).parent / "data" / "defaults.ini").read_bytes()
    assert done.stdout.decode() == config_to_ini(default_config())


def test_unknown_key_through_the_console_script_exits_2(tmp_path):
    text = config_to_ini(default_config())
    assert text.count("[rh]\n") == 1
    (tmp_path / "bad_key.ini").write_text(text.replace("[rh]\n", "[rh]\nbogus = 1\n"))
    done = _console(tmp_path, "simulate", "--config", "bad_key.ini",
                    "--out-dir", "bad_key_out")
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "bad_key.ini: [rh] bogus: unknown key" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "bad_key_out").exists()


def test_numerical_error_through_the_console_script_exits_3(tmp_path):
    text, n = re.subn(r"(?m)^forgetting = .*$", "forgetting = 0.01",
                      config_to_ini(default_config()))
    assert n == 1
    (tmp_path / "diverging.ini").write_text(text)
    done = _console(tmp_path, "identify", "--spec", "LRM", "--config", "diverging.ini",
                    "--out-dir", "diverging_out")
    err = done.stderr.decode()
    assert done.returncode == 3, err
    assert "numerical error:" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "diverging_out").exists()


def test_reruns_under_two_hash_seeds_are_byte_identical(tmp_path):
    # the default run, and the probe run with all five structures (it reaches
    # the NRM_LI and NRM_FI_ZONE controllers too), write the same bytes in
    # processes whose string hashing differs
    done = _console(tmp_path, "print-defaults")
    assert done.returncode == 0, done.stderr
    (tmp_path / "cfg.ini").write_bytes(done.stdout)

    def rerun(seed):
        probe = f"rerun_probe_{seed}"
        for argv in (
                ["compare", "--config", "cfg.ini", "--spec", "LRM", "--spec", "NRM_MI",
                 "--out-dir", f"rerun_{seed}"],
                ["simulate", "--probe", "--config", "cfg.ini", "--out-dir", probe],
                ["compare", "--config", "cfg.ini", "--dataset", f"{probe}/dataset_probe.csv",
                 "--spec", "LRM", "--spec", "NRM_MI", "--spec", "NRM_LI",
                 "--spec", "NRM_FI_ZONE", "--spec", "NRM_FI_RH", "--out-dir", probe]):
            done = _console(tmp_path, *argv, PYTHONHASHSEED=str(seed))
            assert done.returncode == 0, done.stderr

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(rerun, (0, 1)))
    for name in ("rerun_{}", "rerun_probe_{}"):
        files = _files(tmp_path / name.format(0))
        assert files and files == _files(tmp_path / name.format(1)), name


@pytest.mark.parametrize("out_dir,named,reason", [
    ("taken", "taken", "File exists"),
    ("taken/sub", "taken/sub", "Not a directory"),
    ("out", "out/dataset.csv", "Is a directory"),
])
def test_out_dir_that_cannot_be_written_exits_2(tmp_path, small_config, capsys,
                                                out_dir, named, reason):
    (tmp_path / "taken").write_text("a file\n")
    (tmp_path / "out" / "dataset.csv").mkdir(parents=True)
    assert main(["simulate", "--config", str(small_config),
                 "--out-dir", str(tmp_path / out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot write {tmp_path / named}: {reason}\n"
    assert captured.out == ""


def test_failed_write_leaves_out_dir_as_it_was(tmp_path, small_config, capsys,
                                               monkeypatch):
    # a full disk while the episode is written: no output of the run lands,
    # no temporary is left behind, and an earlier run's files keep their bytes
    out = tmp_path / "out"
    argv = ["compare", "--config", str(small_config), "--out-dir", str(out),
            "--spec", "LRM", "--spec", "NRM_MI"]
    assert main(argv[:-4]) == 0
    capsys.readouterr()
    before = _files(out)
    paths = sorted(out.rglob("*"))
    assert (out / "summary.csv") in paths

    def full(self, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(mpc.EpisodeReport, "to_csv", full)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: cannot write {out / 'episode_LRM.csv'}: "
                            f"{os.strerror(errno.ENOSPC)}\n")
    assert captured.out == ""
    assert sorted(out.rglob("*")) == paths
    assert _files(out) == before


def test_target_that_is_a_directory_renames_nothing(tmp_path, small_config, capsys):
    # summary.csv is renamed last: its target is checked before any rename,
    # so the files named before it do not land either
    out = tmp_path / "out"
    (out / "summary.csv").mkdir(parents=True)
    assert main(["compare", "--config", str(small_config), "--spec", "NRM_MI",
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: cannot write {out / 'summary.csv'}: "
                            f"{os.strerror(errno.EISDIR)}\n")
    assert captured.out == ""
    assert sorted(out.rglob("*")) == [out / "summary.csv"]


def test_excite_check_reports(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert main(["excite-check", "--config", str(small_config),
                 "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "required excitation order: 6" in text
    assert (out / "spectrum_Vw.csv").exists()
    data = np.genfromtxt(out / "spectrum_Tw_in.csv", delimiter=",", names=True)
    assert {"freq_cycles_per_sample", "freq_per_hour", "power"} <= set(data.dtype.names)


def test_csv_round_trip_nine_digits(tmp_path, small_config):
    from thermbench.simulator import TimeSeriesDataset
    out = tmp_path / "out"
    main(["simulate", "--config", str(small_config), "--out-dir", str(out)])
    ds = TimeSeriesDataset.from_csv(out / "dataset.csv")
    ds.to_csv(out / "again.csv")
    assert (out / "dataset.csv").read_bytes() == (out / "again.csv").read_bytes()


def test_mpc_run_smoke(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["mpc-run", "--config", str(small_config), "--out-dir", str(out),
                 "--spec", "NRM_MI"]) == 0
    data = np.genfromtxt(out / "episode_NRM_MI.csv", delimiter=",", names=True)
    assert len(data) == 6 * 12
    assert np.all(np.isfinite(data["run_avg_comfort"]))


def test_mpc_run_rejects_rh_structure(tmp_path, small_config, capsys):
    code = main(["mpc-run", "--config", str(small_config), "--out-dir", str(tmp_path),
                 "--spec", "NRM_FI_RH"])
    assert code == 2


def _files(directory):
    """Every file under ``directory`` and its bytes."""
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("section,key,value,argv", [
    ("model", "forgetting", "0.01", ["identify", "--spec", "LRM"]),
    ("mpc", "alpha", "1e+308", ["mpc-run", "--spec", "LRM"]),
    ("mpc", "alpha", "1e+308", ["compare", "--spec", "LRM"]),
    ("heating_curve", "zeta", "300", ["simulate"]),
    ("heating_curve", "zeta", "300", ["excite-check"]),
    ("heating_curve", "zeta", "300", ["compare", "--spec", "LRM"]),
], ids=["diverging-rls", "overflowing-plan-costs", "compare-after-training",
        "steep-heating-curve", "steep-heating-curve-excite-check",
        "steep-heating-curve-compare"])
def test_numerical_failure_exits_3_with_one_line(tmp_path, small_config, capsys,
                                                 section, key, value, argv):
    # the stage's own non-finite screen reports the failure; numpy's warnings,
    # which this suite turns into errors, stay silent.  The command writes
    # nothing, not even the parameters it trained before the failure.  A zeta
    # of 300 loads, as it is positive and finite, but the heating curve's
    # (t_set - t_out) ** zeta, about 16 ** 300, overflows a float: the plant
    # loop reports it instead of a raw OverflowError.
    cp = configparser.ConfigParser()
    cp.read(small_config)
    cp[section][key] = value
    config = tmp_path / "diverging.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.csv").write_text("sentinel\n")
    assert main([*argv, "--config", str(config), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1, err
    assert _files(out) == {Path("summary.csv"): b"sentinel\n"}


def test_compare_summary_matches_emitted_files(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["compare", "--config", str(small_config), "--out-dir", str(out),
                 "--spec", "LRM", "--spec", "NRM_MI"]) == 0
    with open(out / "summary.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = {line.split(",")[0]: dict(zip(header, line.strip().split(",")))
                for line in fh}
    assert set(rows) == {"LRM", "NRM_MI"}
    for tag, row in rows.items():
        report = np.genfromtxt(out / f"train_report_{tag}.csv", delimiter=",",
                               names=True)
        assert float(row["final_rmse"]) == pytest.approx(
            report["rolling_rmse"][-1], rel=1e-6)
        episode = np.genfromtxt(out / f"episode_{tag}.csv", delimiter=",", names=True)
        assert float(row["final_comfort"]) == pytest.approx(
            episode["run_avg_comfort"][-1], rel=1e-6)
        assert float(row["final_pump"]) == pytest.approx(
            episode["run_avg_pump"][-1], rel=1e-6)


def test_probe_flag(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(small_config), "--out-dir", str(out),
                 "--probe"]) == 0
    from thermbench.simulator import TimeSeriesDataset
    ds = TimeSeriesDataset.from_csv(out / "dataset_probe.csv")
    assert set(np.unique(ds.columns["Tw_in"])) <= {40.0, 45.0}


def test_compare_byte_identical_reruns(tmp_path, small_config):
    # the second run in the same process starts from the controller's module
    # caches (kernel, plan and chunk templates, water layout) the first one left
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["compare", "--config", str(small_config), "--out-dir", str(out),
                     "--spec", "NRM_MI", "--spec", "NRM_FI_ZONE"]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    assert {"episode_NRM_MI.csv", "episode_NRM_FI_ZONE.csv", "summary.csv"} <= set(names)
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_compare_with_zero_passes_runs_the_untrained_models(tmp_path, small_config):
    # zero passes leave every parameter at zero, the water predictor's too;
    # the controller used to get no water parameters at all and failed with a
    # raw ValueError.  No pass leaves no error to report an RMSE of.
    cp = configparser.ConfigParser()
    cp.read(small_config)
    cp["model"]["passes"] = "0"
    config = tmp_path / "untrained.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out-dir", str(out),
                 "--spec", "LRM", "--spec", "NRM_MI"]) == 0
    with open(out / "summary.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert [row["spec"] for row in rows] == ["LRM", "NRM_MI"]
    for row in rows:
        assert np.isnan(float(row["final_rmse"]))
        assert all(np.isfinite(float(row[c]))
                   for c in ("final_comfort", "final_heating", "final_pump"))
    assert not np.any(np.loadtxt(out / "theta_w.txt"))


def _each_dataset_command_exits_2(config, path, out, capsys, *parts):
    # every command that reads a --dataset file checks it against the config,
    # and before it writes: a pre-filled --out-dir keeps its bytes and a
    # missing one is not created
    before = _files(out)
    for argv in (["identify", "--spec", "LRM"], ["excite-check"],
                 ["mpc-run", "--spec", "NRM_MI"], ["compare"]):
        for out_dir in (out, out / "missing"):
            assert main([*argv, "--config", str(config), "--out-dir", str(out_dir),
                         "--dataset", str(path)]) == 2, argv
            err = capsys.readouterr().err
            assert str(path) in err and all(part in err for part in parts), (argv, err)
        assert not (out / "missing").exists(), argv
        assert _files(out) == before, argv


def test_dataset_at_another_sampling_period_exits_2(tmp_path, small_config, capsys):
    # a 0.1 h dataset under a 1/12 h config used to train and run the
    # controller at 1/12 h
    cp = configparser.ConfigParser()
    cp.read(small_config)
    cp["sim"]["epsilon_hours"] = "0.1"
    config = tmp_path / "tenth.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    _each_dataset_command_exits_2(small_config, out / "dataset.csv", out, capsys,
                                  "0.1 h", repr(1.0 / 12.0))


def test_dataset_with_another_neighbor_count_exits_2(tmp_path, small_config, capsys):
    # a 2-neighbor dataset under a 1-neighbor config used to train on the
    # first neighbor alone and ignore T_rj_2
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(small_config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    ds = TimeSeriesDataset.from_csv(out / "dataset.csv")
    path = tmp_path / "two.csv"
    TimeSeriesDataset(epsilon=ds.epsilon, n_neighbors=2,
                      columns={**ds.columns, "T_rj_2": ds.columns["T_rj_1"] - 1.0}
                      ).to_csv(path)
    _each_dataset_command_exits_2(small_config, path, out, capsys,
                                  "has 2 neighbor(s)", "[plant] n_neighbors is 1")


def _short_defaults():
    """The default config on a short horizon, as a parser."""
    cp = configparser.ConfigParser()
    cp.read_string(config_to_ini(default_config()))
    cp["sim"]["duration_hours"] = "12"
    cp["model"]["passes"] = "2"
    cp["mpc"]["episode_hours"] = "3"
    return cp


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# the scalar keys a draw edits: every one but the counts and lengths that set
# how much a run allocates and computes, which stay at the short horizon
_FIXED = {"n_neighbors", "epsilon_hours", "duration_hours", "seed", "passes",
          "rmse_window", "t_opt", "t_hor", "plan_budget", "eval_seed",
          "episode_hours"}
_SCALARS = [(section, key) for section, keys in _short_defaults().items()
            for key, value in keys.items() if key not in _FIXED and _is_float(value)]
# a key's default scaled by 10 ** x, or set to 0, its negation or a literal
_EDIT = st.tuples(st.sampled_from(_SCALARS),
                  st.one_of(st.floats(-4.0, 4.0),
                            st.sampled_from(["0", "-v", "1e-300", "1e300"])))


def _edited(value, edit):
    if isinstance(edit, float):
        return repr(float(value) * 10.0 ** edit)
    return {"0": "0.0", "-v": repr(-float(value))}.get(edit, edit)


# every command on configs near the defaults ends in exit 0, 2 or 3; a
# steep heating curve (zeta = 300) used to escape as a raw OverflowError, and
# the periodogram of an air inlet at 1e300 as numpy's overflow warning
@settings(max_examples=40, deadline=None, derandomize=True)
@example(edits=[(("heating_curve", "zeta"), "300")])
@example(edits=[(("disturbance.air_inlet", "offset"), "1e300")])
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_every_command_on_a_near_default_config_exits_0_2_or_3(tmp_path_factory,
                                                                 edits):
    cp = _short_defaults()
    for (section, key), edit in edits:
        cp[section][key] = _edited(cp[section][key], edit)
    base = tmp_path_factory.mktemp("near-default")
    config = base / "config.ini"
    with open(config, "w") as fh:
        cp.write(fh)
    for i, argv in enumerate((["simulate"], ["simulate", "--probe"], ["excite-check"],
                              ["identify"], ["compare"])):
        out, stdout, stderr = base / f"out{i}", io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(config), "--out-dir", str(out)])
        assert code in (0, 2, 3), argv
        if code:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and not stdout.getvalue(), (argv, err)
            assert not out.exists(), argv
