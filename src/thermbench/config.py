"""Experiment configuration: defaults, INI-file loading and emission.

One key-value file with sections describes the plant, the data-generation
scenario, the identification model and the controller.  ``default_config``
is the self-contained reference scenario used across the test suite;
``print-defaults`` on the CLI emits it as a template.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .errors import ConfigError
from .identify import DEFAULT_RMSE_WINDOW, RlsConfig
from .mpc import MpcConfig
from .regressors import RegressorSpec, Structure
from .simulator import (DisturbanceSpec, HeatingCurveParams, HysteresisSettings,
                        OccupancySchedule, SimConfig, SinusoidRecipe)
from .thermal_core import (HvacParams, PlantState, RhParams, SeparatorParams,
                           ZoneParams)


@dataclass(frozen=True)
class ModelConfig:
    spec: RegressorSpec = RegressorSpec(Structure.NRM_MI, 1)
    passes: int = 5
    rls: RlsConfig = RlsConfig()
    rmse_window: int = DEFAULT_RMSE_WINDOW


@dataclass
class ExperimentConfig:
    plant: ZoneParams
    sim: SimConfig
    model: ModelConfig
    mpc: MpcConfig
    eval_seed: int = 777     # scenario seed for closed-loop evaluation
    episode_hours: float = 168.0

    def validate(self) -> None:
        n = self.plant.n_neighbors
        if len(self.sim.disturbance_spec.neighbor_recipes) != n:
            raise ConfigError("number of neighbor recipes disagrees with the plant")
        if len(self.sim.initial.t_s) != n:
            raise ConfigError("initial separator temperatures disagree with the plant")
        if self.model.spec.n_neighbors != n:
            raise ConfigError("model n_neighbors disagrees with the plant")
        if abs(self.mpc.t_sam - self.sim.epsilon) > 1e-9:
            raise ConfigError("mpc t_sam must equal the simulator sampling period")
        self.sim.disturbance_spec.validate_excitation()


def default_config() -> ExperimentConfig:
    """Reference single-zone scenario: one neighbor (the outdoor environment),
    a light zone behind a massive wall, radiant heating sized so the
    heating-curve equilibrium sits close to the set temperature, mild winter
    weather, and brief periodic absences that exercise the flow switching."""
    plant = ZoneParams(
        c_r=2.5e6,
        separators={1: SeparatorParams(r_plus=0.003, r_minus=0.0047, c_s=1.5e7)},
        rh=RhParams(c_w_medium=4186.0, rho_w=1000.0, v_w_volume=0.1, r_c=0.0071),
        hvac=HvacParams(c_a=1005.0, rho_a=1.2),
    )
    disturbances = DisturbanceSpec(
        neighbor_recipes=(SinusoidRecipe(5.0, (2.5, 0.9, 0.7),
                                         (24.0, 14.2, 5.3), (3.8, 1.1, 2.2)),),
        solar=SinusoidRecipe(120.0, (60.0, 20.0, 12.0),
                             (24.0, 12.0, 8.0), (4.45, 0.8, 1.9)),
        air_inlet=SinusoidRecipe(19.0, (0.8, 0.4, 0.25),
                                 (24.0, 9.7, 3.1), (0.5, 2.0, 4.1)),
        air_flow=SinusoidRecipe(0.03, (0.012, 0.006, 0.004),
                                (24.0, 5.5, 2.1), (1.2, 3.3, 0.4)),
        occupancy=OccupancySchedule(
            absent_windows=tuple((h, h + 0.3) for h in
                                 (2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 23.0)),
            jitter_h=0.3),
        occupant_gain_w=80.0,
    )
    sim = SimConfig(
        epsilon=1.0 / 12.0,
        duration=336.0,
        noise_std=0.05,
        disturbance_spec=disturbances,
        hysteresis=HysteresisSettings(),
        seed=42,
        heating_curve=HeatingCurveParams(),
        initial=PlantState(t_r=20.0, t_s=[14.0], t_w=20.0),
    )
    return ExperimentConfig(plant=plant, sim=sim, model=ModelConfig(),
                            mpc=MpcConfig())


# ---------------------------------------------------------------------------
# INI serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)  # shortest exact round-trip
    return str(v)


def _fmt_list(vals) -> str:
    return ", ".join(_fmt(float(v)) for v in vals)


def config_to_ini(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    n = cfg.plant.n_neighbors

    cp["plant"] = {"c_r": _fmt(cfg.plant.c_r), "n_neighbors": str(n)}
    for j in cfg.plant.neighbor_ids:
        s = cfg.plant.separators[j]
        cp[f"separator_{j}"] = {"r_plus": _fmt(s.r_plus), "r_minus": _fmt(s.r_minus),
                                "c_s": _fmt(s.c_s)}
    rh = cfg.plant.rh
    cp["rh"] = {"c_w": _fmt(rh.c_w_medium), "rho_w": _fmt(rh.rho_w),
                "v_w": _fmt(rh.v_w_volume), "r_c": _fmt(rh.r_c)}
    cp["hvac"] = {"c_a": _fmt(cfg.plant.hvac.c_a), "rho_a": _fmt(cfg.plant.hvac.rho_a)}

    sim = cfg.sim
    cp["sim"] = {"epsilon_hours": _fmt(sim.epsilon), "duration_hours": _fmt(sim.duration),
                 "noise_std": _fmt(sim.noise_std), "seed": str(sim.seed)}
    cp["initial"] = {"t_r": _fmt(sim.initial.t_r),
                     "t_s": _fmt_list(sim.initial.t_s),
                     "t_w": _fmt(sim.initial.t_w)}
    cp["hysteresis"] = {"t_set": _fmt(sim.hysteresis.t_set),
                        "delta_t": _fmt(sim.hysteresis.delta_t),
                        "vdot_max": _fmt(sim.hysteresis.vdot_max)}
    cp["heating_curve"] = {"rho0": _fmt(sim.heating_curve.rho0),
                           "rho1": _fmt(sim.heating_curve.rho1),
                           "zeta": _fmt(sim.heating_curve.zeta)}

    ds = sim.disturbance_spec
    recipes = {"disturbance.solar": ds.solar, "disturbance.air_inlet": ds.air_inlet,
               "disturbance.air_flow": ds.air_flow}
    for j, r in enumerate(ds.neighbor_recipes, start=1):
        recipes[f"disturbance.neighbor_{j}"] = r
    for name, r in recipes.items():
        cp[name] = {"offset": _fmt(r.offset), "amplitudes": _fmt_list(r.amplitudes),
                    "periods_h": _fmt_list(r.periods_h), "phases": _fmt_list(r.phases)}
    occ = ds.occupancy
    cp["occupancy"] = {
        "absent_windows": "; ".join(f"{_fmt(a)}-{_fmt(b)}" for a, b in occ.absent_windows),
        "jitter_h": _fmt(occ.jitter_h),
        "occupant_gain_w": _fmt(ds.occupant_gain_w),
    }

    m = cfg.model
    cp["model"] = {"structure": m.spec.structure.value,
                   "n_neighbors": str(m.spec.n_neighbors),
                   "passes": str(m.passes),
                   "forgetting": _fmt(m.rls.forgetting),
                   "reg_init": _fmt(m.rls.reg_init),
                   "rmse_window": str(m.rmse_window)}

    mp = cfg.mpc
    cp["mpc"] = {"alpha": _fmt(mp.alpha), "beta": _fmt(mp.beta), "gamma": _fmt(mp.gamma),
                 "t_sam": _fmt(mp.t_sam), "t_opt": _fmt(mp.t_opt), "t_hor": _fmt(mp.t_hor),
                 "inlet_set": _fmt_list(mp.inlet_set), "flow_set": _fmt_list(mp.flow_set),
                 "t_set": _fmt(mp.t_set),
                 "heating_cost_gated_by_flow": _fmt(mp.heating_cost_gated_by_flow),
                 "plan_budget": str(mp.plan_budget),
                 "eval_seed": str(cfg.eval_seed),
                 "episode_hours": _fmt(cfg.episode_hours)}

    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


class _Section:
    """Missing-key reporting wrapper around one config section."""

    def __init__(self, cp: configparser.ConfigParser, name: str):
        if not cp.has_section(name):
            raise ConfigError(f"missing section '{name}'")
        self._sec = cp[name]
        self._name = name

    def _raw(self, key: str) -> str:
        if key not in self._sec:
            raise ConfigError(f"missing key '{key}' in section '{self._name}'")
        return self._sec[key]

    def _number(self, key: str, raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}' in '{self._name}': "
                              f"not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"key '{key}' in '{self._name}': "
                              f"must be finite, got {raw.strip()!r}")
        return value

    def float(self, key: str) -> float:
        return self._number(key, self._raw(key))

    def int(self, key: str) -> int:
        raw = self._raw(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}' in '{self._name}': "
                              f"not an integer: {raw!r}") from None

    def bool(self, key: str) -> bool:
        v = self._raw(key).strip().lower()
        if v in ("true", "1", "yes", "on"):
            return True
        if v in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key '{key}' in '{self._name}': not a boolean: {v!r}")

    def floats(self, key: str) -> tuple[float, ...]:
        raw = self._raw(key).strip()
        return tuple(self._number(key, x) for x in raw.split(",")) if raw else ()

    def str(self, key: str) -> str:
        return self._raw(key).strip()


def _recipe(sec: _Section) -> SinusoidRecipe:
    return SinusoidRecipe(offset=sec.float("offset"),
                          amplitudes=sec.floats("amplitudes"),
                          periods_h=sec.floats("periods_h"),
                          phases=sec.floats("phases"))


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    plant_sec = _Section(cp, "plant")
    n = plant_sec.int("n_neighbors")
    separators = {}
    for j in range(1, n + 1):
        s = _Section(cp, f"separator_{j}")
        separators[j] = SeparatorParams(r_plus=s.float("r_plus"),
                                        r_minus=s.float("r_minus"),
                                        c_s=s.float("c_s"))
    rh_sec = _Section(cp, "rh")
    hvac_sec = _Section(cp, "hvac")
    plant = ZoneParams(
        c_r=plant_sec.float("c_r"), separators=separators,
        rh=RhParams(c_w_medium=rh_sec.float("c_w"), rho_w=rh_sec.float("rho_w"),
                    v_w_volume=rh_sec.float("v_w"), r_c=rh_sec.float("r_c")),
        hvac=HvacParams(c_a=hvac_sec.float("c_a"), rho_a=hvac_sec.float("rho_a")))

    occ_sec = _Section(cp, "occupancy")
    windows = []
    raw_windows = occ_sec.str("absent_windows")
    if raw_windows:
        for part in raw_windows.split(";"):
            a, _, b = part.strip().partition("-")
            try:
                windows.append((float(a), float(b)))
            except ValueError:
                raise ConfigError(f"bad absence window {part.strip()!r} in 'occupancy'") \
                    from None
    neighbor_recipes = tuple(_recipe(_Section(cp, f"disturbance.neighbor_{j}"))
                             for j in range(1, n + 1))
    disturbances = DisturbanceSpec(
        neighbor_recipes=neighbor_recipes,
        solar=_recipe(_Section(cp, "disturbance.solar")),
        air_inlet=_recipe(_Section(cp, "disturbance.air_inlet")),
        air_flow=_recipe(_Section(cp, "disturbance.air_flow")),
        occupancy=OccupancySchedule(absent_windows=tuple(windows),
                                    jitter_h=occ_sec.float("jitter_h")),
        occupant_gain_w=occ_sec.float("occupant_gain_w"))

    sim_sec = _Section(cp, "sim")
    init_sec = _Section(cp, "initial")
    hys_sec = _Section(cp, "hysteresis")
    curve_sec = _Section(cp, "heating_curve")
    sim = SimConfig(
        epsilon=sim_sec.float("epsilon_hours"),
        duration=sim_sec.float("duration_hours"),
        noise_std=sim_sec.float("noise_std"),
        disturbance_spec=disturbances,
        hysteresis=HysteresisSettings(t_set=hys_sec.float("t_set"),
                                      delta_t=hys_sec.float("delta_t"),
                                      vdot_max=hys_sec.float("vdot_max")),
        seed=sim_sec.int("seed"),
        heating_curve=HeatingCurveParams(rho0=curve_sec.float("rho0"),
                                         rho1=curve_sec.float("rho1"),
                                         zeta=curve_sec.float("zeta")),
        initial=PlantState(t_r=init_sec.float("t_r"),
                           t_s=list(init_sec.floats("t_s")),
                           t_w=init_sec.float("t_w")))

    model_sec = _Section(cp, "model")
    structure_name = model_sec.str("structure")
    try:
        structure = Structure(structure_name)
    except ValueError:
        raise ConfigError(f"unknown model structure {structure_name!r}") from None
    model = ModelConfig(
        spec=RegressorSpec(structure, model_sec.int("n_neighbors")),
        passes=model_sec.int("passes"),
        rls=RlsConfig(forgetting=model_sec.float("forgetting"),
                      reg_init=model_sec.float("reg_init")),
        rmse_window=model_sec.int("rmse_window"))

    mpc_sec = _Section(cp, "mpc")
    mpc_values = dict(
        alpha=mpc_sec.float("alpha"), beta=mpc_sec.float("beta"),
        gamma=mpc_sec.float("gamma"), t_sam=mpc_sec.float("t_sam"),
        t_opt=mpc_sec.float("t_opt"), t_hor=mpc_sec.float("t_hor"),
        inlet_set=mpc_sec.floats("inlet_set"), flow_set=mpc_sec.floats("flow_set"),
        t_set=mpc_sec.float("t_set"),
        heating_cost_gated_by_flow=mpc_sec.bool("heating_cost_gated_by_flow"),
        plan_budget=mpc_sec.int("plan_budget"))
    try:
        mpc = MpcConfig(**mpc_values)
    except ConfigError as e:
        raise ConfigError(f"section 'mpc': {e}") from None

    cfg = ExperimentConfig(plant=plant, sim=sim, model=model, mpc=mpc,
                           eval_seed=mpc_sec.int("eval_seed"),
                           episode_hours=mpc_sec.float("episode_hours"))
    cfg.validate()
    return cfg
