import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plant_oracle
from thermbench import simulator
from thermbench.errors import ConfigError, DivergenceError, ShapeError
from thermbench.identify import train
from thermbench.mpc import MpcConfig, closed_loop_run
from thermbench.regressors import RegressorSpec, Structure
from thermbench.simulator import (DisturbanceSpec, HeatingCurveParams,
                                  HysteresisSettings, OccupancySchedule,
                                  SimConfig, SinusoidRecipe, TimeSeriesDataset,
                                  column_names,
                                  heating_curve, hysteresis_control,
                                  run_experiment, run_probe_experiment, step,
                                  synthesize_scenario)
from thermbench.thermal_core import (ControlInput, Disturbance, PlantState,
                                     SeparatorParams, ZoneParams, rk4_step)

from conftest import random_point, random_zone_params


def constant_spec(t_out=21.0, ta_in=21.0, va=0.0, solar=0.0):
    return DisturbanceSpec(
        neighbor_recipes=(SinusoidRecipe(t_out),),
        solar=SinusoidRecipe(solar),
        air_inlet=SinusoidRecipe(ta_in),
        air_flow=SinusoidRecipe(va),
        occupancy=OccupancySchedule(absent_windows=((0.0, 24.0),)),  # never home
        occupant_gain_w=0.0,
    )


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def test_step_equilibrium_fixed_point():
    rng = np.random.default_rng(1)
    params = random_zone_params(rng)
    t = 19.0
    x = PlantState(t_r=t, t_s=[t], t_w=t)
    d = Disturbance(t_w_in=t, t_a_in=t, t_neighbors=(t,), q_ext=0.0)
    u = ControlInput(0.05, 0.03)
    out = step(params, x, u, d, 1.0 / 12.0)
    for a, b in zip(out.as_list(), x.as_list()):
        assert a == pytest.approx(b, abs=1e-12)


def test_single_step_vs_substeps_fourth_order():
    # defect against a 10x-finer integration shrinks at (at least) 4th order
    rng = np.random.default_rng(2)
    params = random_zone_params(rng)
    x0, u, d = random_point(rng)

    def defect(eps):
        coarse = step(params, x0, u, d, eps)
        fine = x0
        for _ in range(10):
            fine = step(params, fine, u, d, eps / 10)
        return max(abs(a - b) for a, b in zip(coarse.as_list(), fine.as_list()))

    eps = 1.0 / 12.0
    d1, d2 = defect(eps), defect(eps / 2)
    assert d1 < 1e-6
    assert 8.0 < d1 / d2 < 64.0  # local truncation is one order above global


def test_trajectory_convergence_order_four():
    # inputs held on the coarse grid; halving the step cuts the error ~16x
    rng = np.random.default_rng(3)
    params = random_zone_params(rng)
    x0, _, _ = random_point(rng)
    eps = 1.0 / 12.0
    n_coarse = 24
    us = [ControlInput(rng.uniform(0, 0.08), rng.uniform(0, 0.05))
          for _ in range(n_coarse)]
    ds = [random_point(rng)[2] for _ in range(n_coarse)]

    def integrate(refine):
        x = x0
        h = eps / refine
        for k in range(n_coarse):
            for _ in range(refine):
                x = step(params, x, us[k], ds[k], h)
        return np.array(x.as_list())

    ref = integrate(8)
    e1 = np.max(np.abs(integrate(1) - ref))
    e2 = np.max(np.abs(integrate(2) - ref))
    assert 8.0 < e1 / e2 < 32.0


def test_passive_cooling_monotone():
    rng = np.random.default_rng(4)
    params = random_zone_params(rng)
    t = 20.0
    x = PlantState(t_r=t, t_s=[t], t_w=45.0)
    d = Disturbance(t_w_in=50.0, t_a_in=t, t_neighbors=(t,), q_ext=0.0)
    u = ControlInput(0.0, 0.0)  # no flows: inlet cannot act
    prev = x.t_w
    for _ in range(100):
        x = step(params, x, u, d, 1.0 / 12.0)
        assert x.t_w < prev
        assert x.t_w > x.t_r - 1e-9
        prev = x.t_w


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_neighbors=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       h=st.sampled_from([1.0, 2.9, 7.0, 60.0, 300.0, 3600.0]),
       water_on=st.booleans(), air_on=st.booleans())
@example(n_neighbors=1, seed=0, h=300.0, water_on=True, air_on=True)
@example(n_neighbors=1, seed=1, h=3600.0, water_on=False, air_on=False)
@example(n_neighbors=2, seed=2, h=60.0, water_on=True, air_on=False)
@example(n_neighbors=2, seed=3, h=2.9, water_on=False, air_on=True)
@example(n_neighbors=3, seed=4, h=7.0, water_on=True, air_on=True)
@example(n_neighbors=3, seed=5, h=1.0, water_on=False, air_on=False)
@example(n_neighbors=4, seed=6, h=300.0, water_on=True, air_on=True)
def test_stepper_matches_reference_rk4_bit_for_bit(n_neighbors, seed, h, water_on,
                                                    air_on):
    # the generated stepper against the reference RK4 over the field-by-field
    # balance, over a few consecutive steps with zero and positive flows
    rng = np.random.default_rng(seed)
    params = random_zone_params(rng, n_neighbors=n_neighbors)
    x, u, d = random_point(rng, n_neighbors=n_neighbors)
    inputs = (u.vdot_w if water_on else 0.0, u.vdot_a if air_on else 0.0,
              d.t_w_in, d.t_a_in, [float(v) for v in d.t_neighbors], d.q_ext)
    advance = rk4_step(params, h)
    t_r, t_s, t_w = x.t_r, [float(v) for v in x.t_s], x.t_w
    ref = [t_r, *t_s, t_w]
    for _ in range(4):
        t_r, t_s, t_w = advance(t_r, t_s, t_w, *inputs)
        ref = plant_oracle.rk4(params, ref, inputs, h)
        assert bits([t_r, *t_s, t_w]) == bits(ref)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergent_step_raises_named_error():
    rng = np.random.default_rng(5)
    params = random_zone_params(rng)
    x, u, d = random_point(rng)
    with pytest.raises(DivergenceError):
        step(params, x, u, d, 1e80)  # overflow in the stage polynomial


def _two_neighbor_plant(cfg, c_s=8e6):
    return ZoneParams(
        c_r=cfg.plant.c_r,
        separators={1: cfg.plant.separators[1],
                    2: SeparatorParams(r_plus=0.006, r_minus=0.009, c_s=c_s)},
        rh=cfg.plant.rh, hvac=cfg.plant.hvac)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_names_the_first_diverged_separator(cfg):
    # a nearly massless second separator overflows in the last stage, while
    # the zone, the first separator and the water stay finite
    plant = _two_neighbor_plant(cfg, c_s=1e-100)
    x = PlantState(t_r=20.0, t_s=[14.0, 18.0], t_w=20.0)
    u, d = ControlInput(0.0, 0.0), Disturbance(40.0, 20.0, (5.0, 19.0), 0.0)
    message = r"integration diverged: state T_s\[1\] is -inf"
    with pytest.raises(DivergenceError, match=message):
        step(plant, x, u, d, 1e-6)
    with pytest.raises(DivergenceError, match=message):
        plant_oracle.rk4(plant, x.as_list(), (0.0, 0.0, 40.0, 20.0, [5.0, 19.0], 0.0),
                         1e-6 * simulator.SECONDS_PER_HOUR)


def test_generated_code_is_compiled_once_per_neighbor_count():
    rng = np.random.default_rng(8)
    one, other, two = (random_zone_params(rng, n_neighbors=n) for n in (1, 1, 2))
    assert rk4_step(one, 60.0).__code__ is rk4_step(other, 300.0).__code__
    assert rk4_step(one, 60.0).__code__ is not rk4_step(two, 60.0).__code__
    assert one.balance.__code__ is other.balance.__code__
    assert one.balance.__code__ is not two.balance.__code__


# ---------------------------------------------------------------------------
# control laws
# ---------------------------------------------------------------------------

def test_hysteresis_unoccupied_always_off():
    s = HysteresisSettings()
    for t_now, t_prev in ((10.0, 10.0), (25.0, 24.0), (20.95, 21.0)):
        assert hysteresis_control(t_now, t_prev, False, s) == 0.0


def test_hysteresis_below_band_on():
    s = HysteresisSettings()
    assert hysteresis_control(20.0, 20.5, True, s) == pytest.approx(0.0787)


def test_hysteresis_falling_above_band_off():
    s = HysteresisSettings()
    assert hysteresis_control(21.0, 21.05, True, s) == 0.0


def test_hysteresis_rising_in_band_on():
    # the printed law keeps heating while the temperature is not falling,
    # with no upper cutoff
    s = HysteresisSettings()
    assert hysteresis_control(21.0, 20.95, True, s) == pytest.approx(0.0787)
    assert hysteresis_control(23.0, 23.0, True, s) == pytest.approx(0.0787)


def test_heating_curve_warm_side_flat():
    p = HeatingCurveParams()
    for t_out in (21.0, 25.0, 30.0):
        assert heating_curve(21.0, t_out, p) == pytest.approx(29.30)


def test_heating_curve_hand_value():
    # independent arithmetic: rho0 + rho1 * exp(zeta * ln(21))
    p = HeatingCurveParams()
    expected = 29.30 + 0.80 * math.exp(0.97 * math.log(21.0))
    assert expected == pytest.approx(44.64, abs=0.01)
    assert heating_curve(21.0, 0.0, p) == pytest.approx(expected, rel=1e-12)


def test_heating_curve_unit_base():
    p = HeatingCurveParams()
    assert heating_curve(21.0, 20.0, p) == pytest.approx(29.30 + 0.80, rel=1e-12)


# ---------------------------------------------------------------------------
# closed-loop experiment
# ---------------------------------------------------------------------------

def equilibrium_sim(duration=6.0):
    t = 21.0
    return SimConfig(epsilon=1.0 / 12.0, duration=duration, noise_std=0.0,
                     disturbance_spec=constant_spec(t_out=t, ta_in=t),
                     hysteresis=HysteresisSettings(), seed=1,
                     initial=PlantState(t_r=t, t_s=[t], t_w=t))


def test_equilibrium_run_all_columns_constant(cfg):
    ds = run_experiment(cfg.plant, equilibrium_sim())
    for name, col in ds.columns.items():
        if name == "t_hours":
            continue
        assert np.all(col == col[0]), name


def test_same_seed_bit_identical(cfg):
    sim = dataclasses.replace(cfg.sim, duration=24.0)
    a = run_experiment(cfg.plant, sim)
    b = run_experiment(cfg.plant, sim)
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name]), name


def test_different_seed_differs(cfg):
    sim1 = dataclasses.replace(cfg.sim, duration=24.0, seed=1)
    sim2 = dataclasses.replace(cfg.sim, duration=24.0, seed=2)
    a = run_experiment(cfg.plant, sim1)
    b = run_experiment(cfg.plant, sim2)
    assert not np.array_equal(a.columns["T_r"], b.columns["T_r"])


def test_logged_noise_is_zero_mean(cfg):
    # >= 1e4 samples; the sample mean of the measurement noise obeys CLT
    sim = dataclasses.replace(cfg.sim, duration=900.0, noise_std=0.05)
    ds = run_experiment(cfg.plant, sim)
    n = len(ds)
    assert n >= 10_000
    resid = ds.columns["T_r"] - ds.metadata["t_r_true"]
    assert abs(resid.mean()) < 3 * 0.05 / math.sqrt(n)


def test_noise_only_on_outputs(cfg):
    sim = dataclasses.replace(cfg.sim, duration=24.0, noise_std=0.05)
    noisy = run_experiment(cfg.plant, sim)
    assert not np.array_equal(noisy.columns["T_r"], noisy.metadata["t_r_true"])
    # the disturbance columns and the state evolution itself are noise-free
    clean = run_experiment(cfg.plant, dataclasses.replace(sim, noise_std=0.0))
    assert np.array_equal(noisy.columns["T_rj_1"], clean.columns["T_rj_1"])
    assert np.array_equal(noisy.metadata["t_r_true"], clean.metadata["t_r_true"])
    assert np.array_equal(noisy.columns["Vw"], clean.columns["Vw"])


def test_dataset_covers_full_sensor_set(default_dataset):
    expected = set(column_names(1)) - {"k"}
    assert set(default_dataset.columns) == expected


def test_views_are_column_projections(default_dataset):
    fi = default_dataset.view(Structure.NRM_FI_RH)
    mi = default_dataset.view(Structure.NRM_MI)
    li = default_dataset.view(Structure.NRM_LI)
    assert "T_w" in fi and "T_w" not in mi
    assert "Tw_in" in mi and "Tw_in" not in li and "Ta_in" not in li
    for view in (fi, mi, li):
        for name, col in view.items():
            assert col is default_dataset.columns[name]


def test_regulation_band_default_scenario(cfg, default_dataset):
    t = default_dataset.t_hours
    occ = default_dataset.columns["occ"]
    t_r = default_dataset.metadata["t_r_true"]
    mask = (t >= 12.0) & (occ > 0)
    assert t_r[mask].min() >= cfg.sim.hysteresis.t_set - 1.0
    assert t_r[mask].max() <= cfg.sim.hysteresis.t_set + 1.0


def test_probe_experiment_duty_and_determinism(cfg):
    sim = dataclasses.replace(cfg.sim, duration=48.0)
    a = run_probe_experiment(cfg.plant, sim)
    b = run_probe_experiment(cfg.plant, sim)
    duty = np.mean(a.columns["Vw"] > 0)
    assert 0.2 < duty < 0.8
    assert set(np.unique(a.columns["Tw_in"])) <= {40.0, 45.0}
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name])


def test_csv_round_trip(tmp_path, cfg):
    from thermbench.simulator import TimeSeriesDataset
    sim = dataclasses.replace(cfg.sim, duration=6.0)
    ds = run_experiment(cfg.plant, sim)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    back = TimeSeriesDataset.from_csv(path)
    assert back.n_neighbors == ds.n_neighbors
    assert back.epsilon == pytest.approx(ds.epsilon, rel=1e-9)
    for name, col in ds.columns.items():
        out = back.columns[name]
        scale = np.maximum(np.abs(col), 1e-12)
        assert np.all(np.abs(out - col) / scale < 1e-8), name


def test_csv_writer_matches_per_value_format(tmp_path):
    # more than two 256-row blocks and a partial one, with the awkward floats
    special = [-0.0, 5e-324, 1e300, 0.1 + 0.2, math.nan, 3.0, -7.0, 1e9,
               123456789.0, 2.5e-308, math.inf, -math.inf, 1.0 / 3.0]
    rng = np.random.default_rng(11)
    n = 2 * simulator.CSV_BLOCK_ROWS + 37
    names = column_names(2)
    columns = {c: rng.choice(special, size=n) for c in names if c != "k"}
    columns["t_hours"] = np.arange(n) / 12.0
    ds = TimeSeriesDataset(epsilon=1.0 / 12.0, n_neighbors=2, columns=columns)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    expected = ",".join(names) + "\n" + "".join(
        ",".join(format(k if c == "k" else columns[c][k], ".9g") for c in names) + "\n"
        for k in range(n))
    assert path.read_bytes() == expected.encode()


def test_report_csvs_match_per_value_format(tmp_path):
    # the training and episode reports go through the same block writer:
    # their rows must read as the per-value format they were written with
    from thermbench.identify import TrainReport
    from thermbench.mpc import EpisodeReport
    special = [-0.0, 5e-324, 1e300, 0.1 + 0.2, math.nan, 3.0, -7.0, 1e9,
               123456789.0, 2.5e-308, math.inf, -math.inf, 1.0 / 3.0]
    rng = np.random.default_rng(13)
    n = 2 * simulator.CSV_BLOCK_ROWS + 37
    errors, rmse = rng.choice(special, size=n), rng.choice(special, size=n)
    rep = TrainReport(spec=RegressorSpec(Structure.LRM, 1), theta=np.zeros(3),
                      errors=errors, rolling_rmse=rmse, window=2, pass_rmse=[])
    rep.to_csv(tmp_path / "train.csv")
    expected = "k,e,rolling_rmse\n" + "".join(
        f"{k},{format(e, '.9g')},{format(r, '.9g')}\n"
        for k, (e, r) in enumerate(zip(errors, rmse)))
    assert (tmp_path / "train.csv").read_bytes() == expected.encode()

    cols = [rng.choice(special, size=n) for _ in range(9)]
    ep = EpisodeReport(*cols)
    ep.to_csv(tmp_path / "episode.csv")
    logged = [cols[i] for i in (0, 1, 3, 4, 6, 7, 8)]
    expected = ("t_hours,T_r_plant,plan_inlet,plan_flow,run_avg_comfort,"
                "run_avg_heating,run_avg_pump\n" + "".join(
                    ",".join(format(c[k], ".9g") for c in logged) + "\n"
                    for k in range(n)))
    assert (tmp_path / "episode.csv").read_bytes() == expected.encode()


def test_csv_reader_matches_python_float_parse(tmp_path, cfg):
    # written rows, and cells in other spellings, blank and blank-looking
    # lines included: the parse equals float() of every cell, bit for bit
    ds = run_experiment(cfg.plant, dataclasses.replace(cfg.sim, duration=24.0))
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    rng = np.random.default_rng(12)
    lines = path.read_text().splitlines()
    width = len(lines[0].split(","))
    for i in range(40):
        values = rng.normal(size=width) * 10.0 ** rng.integers(-30, 30, size=width)
        # the times continue the sampling grid, in spellings that keep it:
        # the reader refuses a grid whose steps differ
        values[1] = ds.t_hours[-1] + (1 + i) * ds.epsilon
        formats = rng.choice(["%r", "%.17g", "%.3e", " %.9g ", "%+.0f"], size=width)
        formats[1] = rng.choice(["%r", "%.17g", " %.9g "])
        lines.append(",".join(fmt % v for fmt, v in zip(formats, values.tolist())))
        if i % 10 == 0:
            lines.append(" " if i % 20 else "")
    path.write_text("\n".join(lines) + "\n")
    rows = [line.strip().split(",") for line in lines[1:] if line.strip()]
    reference = np.asarray(rows, dtype=float)
    back = TimeSeriesDataset.from_csv(path)
    for i, name in enumerate(lines[0].split(",")):
        if name != "k":
            assert bits(back.columns[name]) == bits(reference[:, i]), name


def test_plant_loop_checks_its_inputs_before_the_first_step(cfg):
    sim = dataclasses.replace(cfg.sim, duration=6.0)
    sd = cfg.sim.disturbance_spec
    # a non-finite signal and a negative air flow, named by column and sample
    bad_solar = dataclasses.replace(sd, solar=SinusoidRecipe(math.inf))
    bad_air = dataclasses.replace(sd, air_flow=SinusoidRecipe(0.0, (0.01,), (24.0,),
                                                              (math.pi,)))
    for spec, where in ((bad_solar, "Qext is inf at sample 0"),
                        (bad_air, "Va is -")):
        for run in (run_experiment, run_probe_experiment):
            with pytest.raises(ConfigError, match=where):
                run(cfg.plant, dataclasses.replace(sim, disturbance_spec=spec))
    with pytest.raises(ConfigError, match="at sample 1"):
        run_experiment(cfg.plant, dataclasses.replace(sim, disturbance_spec=bad_air))
    # neighbor counts: recipes and initial state against the plant
    two = dataclasses.replace(cfg.plant, separators={1: cfg.plant.separators[1],
                                                     2: cfg.plant.separators[1]})
    two_sd = dataclasses.replace(sd, neighbor_recipes=sd.neighbor_recipes * 2)
    for run in (run_experiment, run_probe_experiment):
        with pytest.raises(ConfigError, match="neighbor recipes"):
            run(two, sim)
        with pytest.raises(ShapeError):
            run(two, dataclasses.replace(sim, disturbance_spec=two_sd))
    # a scenario shorter than the run
    scen = synthesize_scenario(sd, sim.epsilon, sim.n_samples - 1, np.random.default_rng(0))
    with pytest.raises(ShapeError, match=f"scenario has {sim.n_samples - 1} samples"):
        simulator.simulate(cfg.plant, sim, scen, sim.n_samples, lambda k, t_r: (40.0, 0.0))


def test_control_sets_rejected_at_construction(cfg):
    sim = dataclasses.replace(cfg.sim, duration=6.0)
    for inlets, flows in (((40.0,), (0.0, -0.01)), ((math.nan,), (0.0,)),
                          ((40.0,), (math.inf,)), ((), (0.0,))):
        with pytest.raises(ConfigError):
            run_probe_experiment(cfg.plant, sim, inlet_set=inlets, flow_set=flows)
        with pytest.raises(ConfigError):
            MpcConfig(inlet_set=inlets, flow_set=flows)
    for bad in (dict(vdot_max=math.nan), dict(t_set=math.inf)):
        with pytest.raises(ConfigError):
            HysteresisSettings(**bad)
    with pytest.raises(ConfigError):
        HeatingCurveParams(rho0=math.nan)


def _restep(plant, sim, inlet, flow, va, ta_in, neighbors, q_ext):
    """True T_r/T_w from the reference RK4 over logged inputs."""
    x = sim.initial.as_list()
    h = sim.epsilon * simulator.SECONDS_PER_HOUR
    t_r, t_w = np.empty(len(inlet)), np.empty(len(inlet))
    for k in range(len(inlet)):
        t_r[k], t_w[k] = x[0], x[-1]
        inputs = (float(flow[k]), float(va[k]), float(inlet[k]), float(ta_in[k]),
                  [float(nb[k]) for nb in neighbors], float(q_ext[k]))
        x = plant_oracle.rk4(plant, x, inputs, h)
    return t_r, t_w


def test_plant_loop_two_neighbors_matches_reference_rk4(cfg):
    # the hysteresis, probe and MPC runs all go through the one plant loop;
    # each must agree bit for bit with the reference RK4 over the field-by-
    # field balance, which shares no code with the generated stepper
    plant = _two_neighbor_plant(cfg)
    sd = dataclasses.replace(cfg.sim.disturbance_spec, neighbor_recipes=(
        cfg.sim.disturbance_spec.neighbor_recipes[0],
        SinusoidRecipe(19.0, (1.0, 0.5, 0.3), (24.0, 11.0, 4.2), (0.3, 1.4, 2.6))))
    sim = dataclasses.replace(cfg.sim, disturbance_spec=sd, duration=24.0,
                              initial=PlantState(t_r=20.0, t_s=[14.0, 18.0], t_w=20.0))

    probe = run_probe_experiment(plant, sim)
    for ds in (run_experiment(plant, sim), probe):
        c = ds.columns
        t_r, t_w = _restep(plant, sim, c["Tw_in"], c["Vw"], c["Va"], c["Ta_in"],
                           [c["T_rj_1"], c["T_rj_2"]], c["Qext"])
        assert np.array_equal(t_r, ds.metadata["t_r_true"])
        assert np.array_equal(t_w, ds.metadata["t_w_true"])

    mcfg = MpcConfig()
    theta_w = train(probe, RegressorSpec(Structure.NRM_FI_RH, 2), passes=1).theta
    spec = RegressorSpec(Structure.NRM_MI, 2)
    theta = train(probe, spec, passes=1, theta_w=theta_w).theta
    ev = dataclasses.replace(sim, seed=777, duration=6.0)
    ep = closed_loop_run(plant, ev, mcfg, spec, theta, theta_w)
    assert set(np.unique(ep.inlet[12:])) <= set(mcfg.inlet_set)
    scen = synthesize_scenario(ev.disturbance_spec, ev.epsilon,
                               ev.n_samples + mcfg.n_hor + 1,
                               np.random.default_rng(ev.seed))
    t_r, t_w = _restep(plant, ev, ep.inlet, ep.flow, scen.va, scen.ta_in,
                       scen.neighbors, scen.q_ext)
    assert np.array_equal(t_r, ep.t_r_plant)
    assert np.array_equal(t_w, ep.t_w_plant)
