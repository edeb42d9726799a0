import configparser
import dataclasses

import numpy as np
import pytest

from thermbench.config import config_to_ini, default_config
from thermbench.simulator import run_experiment
from thermbench.thermal_core import (ControlInput, Disturbance, HvacParams,
                                     PlantState, RhParams, SeparatorParams,
                                     ZoneParams)


@pytest.fixture(scope="session")
def cfg():
    return default_config()


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


@pytest.fixture(scope="session")
def default_dataset(cfg):
    """The reference 14-day hysteresis dataset (seed 42, noise 0.05)."""
    return run_experiment(cfg.plant, cfg.sim)


@pytest.fixture(scope="session")
def noisefree_dataset(cfg):
    sim = dataclasses.replace(cfg.sim, noise_std=0.0)
    return run_experiment(cfg.plant, sim)


def random_zone_params(rng, n_neighbors=1):
    """Physically plausible random parameters for oracle tests."""
    seps = {}
    for j in range(1, n_neighbors + 1):
        seps[j] = SeparatorParams(r_plus=rng.uniform(0.002, 0.01),
                                  r_minus=rng.uniform(0.002, 0.01),
                                  c_s=rng.uniform(1e6, 3e7))
    return ZoneParams(
        c_r=rng.uniform(1e6, 2e7),
        separators=seps,
        rh=RhParams(c_w_medium=4186.0, rho_w=1000.0,
                    v_w_volume=rng.uniform(0.05, 0.3),
                    r_c=rng.uniform(0.003, 0.02)),
        hvac=HvacParams(c_a=1005.0, rho_a=1.2),
    )


def random_point(rng, n_neighbors=1):
    """Random (state, input, disturbance) near the operating range."""
    x = PlantState(t_r=rng.uniform(15, 25),
                   t_s=list(rng.uniform(5, 25, size=n_neighbors)),
                   t_w=rng.uniform(15, 50))
    u = ControlInput(vdot_w=rng.uniform(0, 0.1), vdot_a=rng.uniform(0, 0.08))
    d = Disturbance(t_w_in=rng.uniform(25, 50), t_a_in=rng.uniform(10, 25),
                    t_neighbors=tuple(rng.uniform(-5, 25, size=n_neighbors)),
                    q_ext=rng.uniform(0, 800))
    return x, u, d
