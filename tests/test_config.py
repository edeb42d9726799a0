import configparser
import dataclasses
import math

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from thermbench.cli import main
from thermbench.errors import ConfigError
from thermbench.config import (SCHEMA, ExperimentConfig, ModelConfig, config_to_ini,
                               default_config, load_config)
from thermbench.identify import RlsConfig
from thermbench.mpc import MpcConfig
from thermbench.regressors import RegressorSpec, Structure
from thermbench.simulator import (DisturbanceSpec, HeatingCurveParams, HysteresisSettings,
                                  OccupancySchedule, SimConfig, SinusoidRecipe)
from thermbench.thermal_core import (HvacParams, PlantState, RhParams, SeparatorParams,
                                     ZoneParams)

finite = st.floats(-1e3, 1e3)
positive = st.floats(1e-3, 1e7)
non_negative = st.floats(0.0, 1e3)


@st.composite
def configs(draw):
    """Valid experiment configs: any neighbor count, sampling grid, recipes,
    absence windows and control sets."""
    n = draw(st.integers(1, 3))
    epsilon = draw(st.sampled_from([1.0 / 12.0, 0.1, 0.25]))
    t_opt = epsilon * draw(st.integers(1, 4))

    def recipe(never_negative=False):
        # three nonzero lines at distinct frequencies pass validate_excitation
        amplitudes = draw(st.tuples(*[st.floats(0.1, 50.0)] * 3))
        periods = draw(st.lists(st.floats(0.5, 200.0), min_size=3, max_size=3,
                                unique_by=lambda p: round(1.0 / p, 12)))
        offset = draw(st.floats(sum(amplitudes), 1e3) if never_negative else finite)
        return SinusoidRecipe(offset, amplitudes, tuple(periods),
                              draw(st.tuples(finite, finite, finite)))

    windows = st.tuples(st.floats(0.0, 24.0), st.floats(0.0, 24.0)).filter(
        lambda w: w[0] < w[1])
    plant = ZoneParams(
        c_r=draw(positive),
        separators={j: SeparatorParams(draw(positive), draw(positive), draw(positive))
                    for j in range(1, n + 1)},
        rh=RhParams(draw(positive), draw(positive), draw(positive), draw(positive)),
        hvac=HvacParams(draw(positive), draw(positive)))
    disturbances = DisturbanceSpec(
        neighbor_recipes=tuple(recipe() for _ in range(n)), solar=recipe(),
        air_inlet=recipe(), air_flow=recipe(never_negative=True),
        occupancy=OccupancySchedule(tuple(draw(st.lists(windows, max_size=3))),
                                    draw(non_negative)),
        occupant_gain_w=draw(finite))
    sim = SimConfig(
        epsilon=epsilon, duration=draw(st.floats(epsilon, 1e3)),
        noise_std=draw(non_negative), disturbance_spec=disturbances,
        hysteresis=HysteresisSettings(draw(finite), draw(positive), draw(positive)),
        seed=draw(st.integers(0, 2**32)),
        heating_curve=HeatingCurveParams(draw(positive), draw(positive), draw(positive)),
        initial=PlantState(draw(finite), draw(st.lists(finite, min_size=n, max_size=n)),
                           draw(finite)))
    model = ModelConfig(spec=RegressorSpec(Structure.NRM_MI, n),
                        passes=draw(st.integers(0, 10)),
                        rls=RlsConfig(draw(st.floats(1e-3, 1.0)), draw(positive)),
                        rmse_window=draw(st.integers(2, 5000)))
    mpc = MpcConfig(
        alpha=draw(non_negative), beta=draw(non_negative), gamma=draw(non_negative),
        t_sam=epsilon, t_opt=t_opt, t_hor=t_opt * draw(st.integers(1, 5)),
        inlet_set=tuple(draw(st.lists(finite, min_size=1, max_size=3))),
        flow_set=tuple(draw(st.lists(non_negative, min_size=1, max_size=3))),
        t_set=draw(finite), heating_cost_gated_by_flow=draw(st.booleans()),
        plan_budget=draw(st.integers(1, 10**6)))
    cfg = ExperimentConfig(plant=plant, sim=sim, model=model, mpc=mpc,
                           eval_seed=draw(st.integers(0, 2**32)),
                           episode_hours=draw(st.floats(epsilon, 1e3)))
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "config.ini"


# no shrink phase: shrinking a failing draw of these nested configs ran for
# more than 5 minutes at about 670 MB; a failure is still found and reported
# with the draw that failed
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(drawn=configs(), structure=st.sampled_from(Structure))
@example(drawn=default_config(), structure=Structure.NRM_MI)
@example(drawn=default_config(), structure=Structure.LRM)
@example(drawn=default_config(), structure=Structure.NRM_FI_ZONE)
@example(drawn=default_config(), structure=Structure.NRM_FI_RH)
@example(drawn=default_config(), structure=Structure.NRM_LI)
def test_config_round_trips_through_ini(ini_path, drawn, structure):
    cfg = dataclasses.replace(drawn, model=dataclasses.replace(
        drawn.model, spec=RegressorSpec(structure, drawn.plant.n_neighbors)))
    ini_path.write_text(config_to_ini(cfg))
    assert load_config(ini_path) == cfg


@pytest.mark.parametrize("change,message", [
    (lambda cfg: {"model": dataclasses.replace(
        cfg.model, spec=RegressorSpec(Structure.NRM_MI, 2))},
     "the model has 2 neighbor(s), [plant] n_neighbors is 1"),
    # exactly: the loader takes [sim] epsilon_hours itself, not a value close to it
    (lambda cfg: {"mpc": dataclasses.replace(
        cfg.mpc, t_sam=math.nextafter(cfg.sim.epsilon, 1.0))},
     "the controller samples every 0.08333333333333334 h, "
     "[sim] epsilon_hours is 0.08333333333333333 h"),
], ids=["model-neighbors", "mpc-t_sam"])
def test_config_to_ini_refuses_what_load_config_would_derive_otherwise(change, message):
    cfg = default_config()
    cfg = dataclasses.replace(cfg, **change(cfg))
    with pytest.raises(ConfigError) as caught:
        config_to_ini(cfg)
    assert str(caught.value) == message


def test_every_key_set_to_a_bad_value_exits_cleanly(tmp_path, small_config, capsys):
    # simulate loads every key, so a value it cannot use exits 2 naming the
    # key before anything runs; a value it can use runs
    cp = configparser.ConfigParser()
    cp.read(small_config)
    mutated, out = tmp_path / "mutated.ini", tmp_path / "out"
    for section, key, _, _ in SCHEMA:
        section = section.format(j=1)
        kept = cp[section][key]
        for value in ("0", "-1", "nan", "x", ""):
            cp[section][key] = value
            with open(mutated, "w") as fh:
                cp.write(fh)
            code = main(["simulate", "--config", str(mutated), "--out-dir", str(out)])
            err = capsys.readouterr().err
            case = (section, key, value, code, err)
            assert code in (0, 2, 3) and "Traceback" not in err, case
            if code == 2:
                assert str(mutated) in err and f"[{section}] {key}" in err, case
        cp[section][key] = kept


@pytest.mark.parametrize("section,key,value,drop,message", [
    ("rh", "bogus", "1", None, "[rh] bogus: unknown key"),
    ("model", "forgeting", "0.9", "forgetting",
     "[model] forgeting: unknown key; did you mean 'forgetting'?"),
    ("hvc", "c_a", "1005.0", None, "[hvc]: unknown section; did you mean 'hvac'?"),
    ("separator_2", "c_s", "1.5e7", None,
     "[separator_2]: unknown section; did you mean 'separator_1'?"),
    # the loader takes these from [plant] n_neighbors and [sim] epsilon_hours;
    # difflib's default cutoff would offer 't_set' for 't_sam'
    ("model", "n_neighbors", "1", None, "[model] n_neighbors: unknown key"),
    ("mpc", "t_sam", "0.08333333333333333", None, "[mpc] t_sam: unknown key"),
])
def test_unknown_names_exit_2(tmp_path, small_config, capsys, section, key, value,
                              drop, message):
    cp = configparser.ConfigParser()
    cp.read(small_config)
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    if drop:
        del cp[section][drop]
    broken = tmp_path / "broken.ini"
    with open(broken, "w") as fh:
        cp.write(fh)
    assert main(["simulate", "--config", str(broken), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {broken}: {message}\n"
    assert not (tmp_path / "dataset.csv").exists()


@pytest.mark.parametrize("old,new,message", [
    ("[rh]\n", "[rh]\nc_w = 4186.0\n", "option 'c_w' in section 'rh' already exists"),
    ("t_set = 21.0\ndelta_t", "t_set = 21%\ndelta_t", "[hysteresis] t_set: '21%' is not"),
], ids=["duplicate-key", "percent-sign"])
def test_malformed_config_file_exits_2(tmp_path, small_config, capsys, old, new, message):
    broken = tmp_path / "broken.ini"
    text = small_config.read_text()
    assert text.count(old) == 1
    broken.write_text(text.replace(old, new))
    assert main(["simulate", "--config", str(broken), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and message in err and "Traceback" not in err
