import configparser

import numpy as np
import pytest

from thermbench.cli import main
from thermbench.config import config_to_ini, default_config, load_config
from thermbench.simulator import column_names


@pytest.fixture()
def small_config(tmp_path):
    """Default config shrunk to test-friendly durations."""
    text = config_to_ini(default_config())
    cp = configparser.ConfigParser()
    cp.read_string(text)
    cp["sim"]["duration_hours"] = "24"
    cp["model"]["passes"] = "2"
    cp["mpc"]["episode_hours"] = "6"
    path = tmp_path / "config.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


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
    assert "c_r" in capsys.readouterr().err


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
