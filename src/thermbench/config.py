"""Experiment configuration: defaults, INI-file loading and emission.

One key-value file with sections describes the plant, the data-generation
scenario, the identification model and the controller.  ``default_config``
is the self-contained reference scenario used across the test suite;
``print-defaults`` on the CLI emits it as a template.

The file's schema is one table, :data:`SCHEMA`, which both
``config_to_ini`` and ``load_config`` walk.  The loader rejects every
section and key the table lacks, and each of its errors names the file and,
where one is to blame, the ``[section] key``.  The model's neighbor count
and the controller's sampling period are no keys of their own: the loader
takes them from ``[plant] n_neighbors`` and ``[sim] epsilon_hours``.
"""

from __future__ import annotations

import configparser
import itertools
import math
import re
from dataclasses import dataclass, replace

from .errors import ConfigError, ThermbenchError
from .identify import DEFAULT_RMSE_WINDOW, RlsConfig, check_training
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

    def __post_init__(self):
        check_training(self.passes, self.rmse_window)


@dataclass
class ExperimentConfig:
    plant: ZoneParams
    sim: SimConfig
    model: ModelConfig
    mpc: MpcConfig
    eval_seed: int = 777     # scenario seed for closed-loop evaluation
    episode_hours: float = 168.0

    @property
    def evaluation_sim(self) -> SimConfig:
        """The closed-loop evaluation: the scenario at eval_seed for episode_hours."""
        return replace(self.sim, seed=self.eval_seed, duration=self.episode_hours)

    def validate(self) -> None:
        """The checks across sections; each message names both keys."""
        n = self.plant.n_neighbors
        if len(self.sim.initial.t_s) != n:
            raise ConfigError(f"[initial] t_s has {len(self.sim.initial.t_s)} values, "
                              f"[plant] n_neighbors is {n}")
        # load_config derives these two from [plant] and [sim]
        if self.model.spec.n_neighbors != n:
            raise ConfigError(f"the model has {self.model.spec.n_neighbors} neighbor(s), "
                              f"[plant] n_neighbors is {n}")
        if self.mpc.t_sam != self.sim.epsilon:
            raise ConfigError(f"the controller samples every {self.mpc.t_sam!r} h, "
                              f"[sim] epsilon_hours is {self.sim.epsilon!r} h")
        if self.eval_seed < 0:
            raise ConfigError(f"[mpc] eval_seed must be non-negative, got {self.eval_seed}")
        if self.episode_hours < self.sim.epsilon:
            raise ConfigError(f"[mpc] episode_hours is {self.episode_hours!r}, shorter than "
                              f"one sample: [sim] epsilon_hours is {self.sim.epsilon!r}")
        # the recipe's least value over unbounded time, whatever its phases
        air_flow = self.sim.disturbance_spec.air_flow
        if air_flow.offset < sum(map(abs, air_flow.amplitudes)):
            raise ConfigError(f"[disturbance.air_flow] offset {air_flow.offset!r} is below "
                              "the sum of the |amplitudes|: the air flow would turn "
                              "negative")
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
# The schema and the INI file
# ---------------------------------------------------------------------------

def _recipe(section: str, field: str) -> list[tuple[str, str, str, str]]:
    return [(section, key, kind, f"sim.disturbance_spec.{field}.{key}")
            for key, kind in (("offset", "float"), ("amplitudes", "floats"),
                              ("periods_h", "floats"), ("phases", "floats"))]


#: The config file, one row per key in the order ``print-defaults`` writes:
#: ``(section, key, kind, field)``, where ``field`` is the attribute path of
#: the value in an ``ExperimentConfig``.  A ``{j}`` section is repeated for
#: each neighbor j = 1..``[plant] n_neighbors``; in a path, the number j picks
#: the j-th separator or recipe.
SCHEMA = (
    ("plant", "c_r", "float", "plant.c_r"),
    ("plant", "n_neighbors", "int", "plant.n_neighbors"),
    ("separator_{j}", "r_plus", "float", "plant.ordered_separators.{j}.r_plus"),
    ("separator_{j}", "r_minus", "float", "plant.ordered_separators.{j}.r_minus"),
    ("separator_{j}", "c_s", "float", "plant.ordered_separators.{j}.c_s"),
    ("rh", "c_w", "float", "plant.rh.c_w_medium"),
    ("rh", "rho_w", "float", "plant.rh.rho_w"),
    ("rh", "v_w", "float", "plant.rh.v_w_volume"),
    ("rh", "r_c", "float", "plant.rh.r_c"),
    ("hvac", "c_a", "float", "plant.hvac.c_a"),
    ("hvac", "rho_a", "float", "plant.hvac.rho_a"),
    ("sim", "epsilon_hours", "float", "sim.epsilon"),
    ("sim", "duration_hours", "float", "sim.duration"),
    ("sim", "noise_std", "float", "sim.noise_std"),
    ("sim", "seed", "int", "sim.seed"),
    ("initial", "t_r", "float", "sim.initial.t_r"),
    ("initial", "t_s", "floats", "sim.initial.t_s"),
    ("initial", "t_w", "float", "sim.initial.t_w"),
    ("hysteresis", "t_set", "float", "sim.hysteresis.t_set"),
    ("hysteresis", "delta_t", "float", "sim.hysteresis.delta_t"),
    ("hysteresis", "vdot_max", "float", "sim.hysteresis.vdot_max"),
    ("heating_curve", "rho0", "float", "sim.heating_curve.rho0"),
    ("heating_curve", "rho1", "float", "sim.heating_curve.rho1"),
    ("heating_curve", "zeta", "float", "sim.heating_curve.zeta"),
    *_recipe("disturbance.solar", "solar"),
    *_recipe("disturbance.air_inlet", "air_inlet"),
    *_recipe("disturbance.air_flow", "air_flow"),
    *_recipe("disturbance.neighbor_{j}", "neighbor_recipes.{j}"),
    ("occupancy", "absent_windows", "windows", "sim.disturbance_spec.occupancy.absent_windows"),
    ("occupancy", "jitter_h", "float", "sim.disturbance_spec.occupancy.jitter_h"),
    ("occupancy", "occupant_gain_w", "float", "sim.disturbance_spec.occupant_gain_w"),
    ("model", "structure", "structure", "model.spec.structure"),
    ("model", "passes", "int", "model.passes"),
    ("model", "forgetting", "float", "model.rls.forgetting"),
    ("model", "reg_init", "float", "model.rls.reg_init"),
    ("model", "rmse_window", "int", "model.rmse_window"),
    ("mpc", "alpha", "float", "mpc.alpha"),
    ("mpc", "beta", "float", "mpc.beta"),
    ("mpc", "gamma", "float", "mpc.gamma"),
    ("mpc", "t_opt", "float", "mpc.t_opt"),
    ("mpc", "t_hor", "float", "mpc.t_hor"),
    ("mpc", "inlet_set", "floats", "mpc.inlet_set"),
    ("mpc", "flow_set", "floats", "mpc.flow_set"),
    ("mpc", "t_set", "float", "mpc.t_set"),
    ("mpc", "heating_cost_gated_by_flow", "bool", "mpc.heating_cost_gated_by_flow"),
    ("mpc", "plan_budget", "int", "mpc.plan_budget"),
    ("mpc", "eval_seed", "int", "eval_seed"),
    ("mpc", "episode_hours", "float", "episode_hours"),
)


def _sections(n_neighbors: int):
    """The file's sections in order with their ``(key, kind, field)`` rows."""
    for section, rows in itertools.groupby(SCHEMA, key=lambda row: row[0]):
        rows = list(rows)
        for j in range(1, n_neighbors + 1) if "{j}" in section else (0,):
            yield section.format(j=j), [(key, kind, field.format(j=j))
                                        for _, key, kind, field in rows]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _windows(text: str) -> tuple[tuple[float, float], ...]:
    # each split at the first '-' that neither signs a number nor its exponent
    windows = tuple(tuple(map(float, re.split(r"(?<=[^eE\s-])\s*-", part.strip(),
                                              maxsplit=1)))
                    for part in text.split(";")) if text else ()
    if any(len(w) != 2 for w in windows):
        raise ValueError(text)
    return windows


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}

#: kind -> (parse, which raises ValueError or KeyError; format; the text it wants)
_KINDS = {
    "float": (_finite, lambda v: repr(float(v)), "a finite number"),
    "int": (int, str, "an integer"),
    "bool": (lambda t: _BOOLS[t.lower()], lambda v: "true" if v else "false",
             f"one of {', '.join(_BOOLS)}"),
    "floats": (lambda t: tuple(map(_finite, t.split(","))) if t else (),
               lambda vs: ", ".join(repr(float(v)) for v in vs),
               "a comma-separated list of finite numbers"),
    "structure": (Structure, lambda s: s.value,
                  f"a model structure ({', '.join(s.value for s in Structure)})"),
    "windows": (_windows,
                lambda ws: "; ".join(f"{float(a)!r}-{float(b)!r}" for a, b in ws),
                "a list of 'start-end' hours separated by ';'"),
}


def _get(cfg: ExperimentConfig, field: str):
    value = cfg
    for part in field.split("."):
        value = value[int(part) - 1] if part.isdigit() else getattr(value, part)
    return value


def config_to_ini(cfg: ExperimentConfig) -> str:
    """The config, once it validates, as the text ``configparser`` writes."""
    cfg.validate()
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {_KINDS[kind][1](_get(cfg, field))}\n"
                                   for key, kind, field in rows) + "\n"
        for section, rows in _sections(cfg.plant.n_neighbors))


def _parse(sections: dict[str, dict[str, str]], path, section: str, key: str, kind: str):
    if section not in sections:
        raise ConfigError(f"{path}: [{section}]: missing section")
    if key not in sections[section]:
        raise ConfigError(f"{path}: [{section}] {key}: missing key")
    parse, _, wants = _KINDS[kind]
    text = sections[section][key]
    try:
        return parse(text)
    except (ValueError, KeyError):
        raise ConfigError(f"{path}: [{section}] {key}: {text!r} is not {wants}") from None


def _suggest(name: str, names) -> str:
    import difflib  # on the error path only
    # above difflib's default cutoff of 0.6, which offers 't_set' for 't_sam'
    close = difflib.get_close_matches(name, names, n=1, cutoff=0.7)
    return f"; did you mean {close[0]!r}?" if close else ""


def load_config(path) -> ExperimentConfig:
    """Read and check a config file; a ConfigError names the file and, where
    one is to blame, the ``[section] key``."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    sections = {section: dict(cp.items(section)) for section in cp.sections()}
    n = _parse(sections, path, "plant", "n_neighbors", "int")
    if n < 1:
        raise ConfigError(f"{path}: [plant] n_neighbors: must be at least 1, got {n}")
    # a file with fewer sections than neighbors lacks one, which the walk names
    known = {section: [key for key, _, _ in rows]
             for section, rows in _sections(min(n, len(sections)))}
    for section, found in sections.items():
        if section not in known:
            raise ConfigError(f"{path}: [{section}]: unknown section"
                              + _suggest(section, known))
        for key in found:
            if key not in known[section]:
                raise ConfigError(f"{path}: [{section}] {key}: unknown key"
                                  + _suggest(key, known[section]))

    # each object's constructor arguments, and the section and keys they come from
    values: dict[str, dict] = {}
    keys: dict[str, tuple[str, dict[str, str]]] = {}
    for section, rows in _sections(n):
        for key, kind, field in rows:
            obj, _, attr = field.rpartition(".")
            values.setdefault(obj, {})[attr] = _parse(sections, path, section, key, kind)
            keys.setdefault(obj, (section, {}))[1][attr] = key
    del values["plant"]["n_neighbors"]  # ZoneParams counts its separators
    values["sim.initial"]["t_s"] = list(values["sim.initial"]["t_s"])  # as PlantState holds it

    def build(cls, obj: str, **parts):
        try:
            return cls(**values[obj], **parts)
        except ThermbenchError as e:
            # a message that names one of the section's fields blames its key;
            # t_sam is no key, the controller samples every [sim] epsilon_hours
            message = re.sub(r"\bt_sam\b", "[sim] epsilon_hours", str(e))
            section, fields = keys[obj]
            named = [key for attr, key in fields.items()
                     if re.search(rf"\b{attr}\b", message)]
            where = f"[{section}] {named[0]}" if len(named) == 1 else f"[{section}]"
            raise ConfigError(f"{path}: {where}: {message}") from None

    neighbors = range(1, n + 1)
    ds = "sim.disturbance_spec"
    plant = build(ZoneParams, "plant", rh=build(RhParams, "plant.rh"),
                  hvac=build(HvacParams, "plant.hvac"),
                  separators={j: build(SeparatorParams, f"plant.ordered_separators.{j}")
                              for j in neighbors})
    disturbances = build(
        DisturbanceSpec, ds, occupancy=build(OccupancySchedule, f"{ds}.occupancy"),
        neighbor_recipes=tuple(build(SinusoidRecipe, f"{ds}.neighbor_recipes.{j}")
                               for j in neighbors),
        **{name: build(SinusoidRecipe, f"{ds}.{name}")
           for name in ("solar", "air_inlet", "air_flow")})
    sim = build(SimConfig, "sim", disturbance_spec=disturbances,
                initial=build(PlantState, "sim.initial"),
                hysteresis=build(HysteresisSettings, "sim.hysteresis"),
                heating_curve=build(HeatingCurveParams, "sim.heating_curve"))
    model = build(ModelConfig, "model", rls=build(RlsConfig, "model.rls"),
                  spec=build(RegressorSpec, "model.spec", n_neighbors=n))
    cfg = build(ExperimentConfig, "", plant=plant, sim=sim, model=model,
                mpc=build(MpcConfig, "mpc", t_sam=sim.epsilon))
    try:
        cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    return cfg
