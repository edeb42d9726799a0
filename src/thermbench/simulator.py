"""Ground-truth plant: RK4 integration of the zone model under a hysteresis
water-flow controller, an outdoor-compensated inlet-temperature curve and
synthesized disturbances, logged as a sampled dataset.

Time bookkeeping: sampling period and durations are in hours at this layer;
the integrator converts to seconds internally.  Disturbance signals are sums
of sinusoids plus an offset so that their spectral line count is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError
from .thermal_core import (ControlInput, Disturbance, PlantState, ZoneParams,
                           air_conductance, water_conductance)

SECONDS_PER_HOUR = 3600.0

#: canonical dataset column order; neighbor columns expand to T_rj_1..T_rj_n
CANONICAL_COLUMNS = ("k", "t_hours", "T_r", "T_rj", "T_w", "Tw_in", "Ta_in",
                     "Vw", "Va", "Qext", "occ")


def column_names(n_neighbors: int) -> list[str]:
    """Expanded CSV header for a zone with ``n_neighbors`` neighbors."""
    names = []
    for c in CANONICAL_COLUMNS:
        if c == "T_rj":
            names.extend(f"T_rj_{j}" for j in range(1, n_neighbors + 1))
        else:
            names.append(c)
    return names


@dataclass(frozen=True)
class SinusoidRecipe:
    """offset + sum of amplitude * sin(2*pi*t/period + phase), t in hours."""

    offset: float
    amplitudes: tuple[float, ...] = ()
    periods_h: tuple[float, ...] = ()
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        if not (len(self.amplitudes) == len(self.periods_h) == len(self.phases)):
            raise ConfigError("amplitudes, periods_h and phases must have equal length")
        if any(p <= 0 for p in self.periods_h):
            raise ConfigError("sinusoid periods must be positive")

    def sample(self, t_hours: np.ndarray) -> np.ndarray:
        out = np.full_like(t_hours, self.offset, dtype=float)
        for a, p, ph in zip(self.amplitudes, self.periods_h, self.phases):
            out += a * np.sin(2.0 * math.pi * t_hours / p + ph)
        return out

    def n_frequencies(self) -> int:
        """Distinct non-negative frequencies carried by the recipe (DC counts
        when the offset is nonzero)."""
        freqs = {round(1.0 / p, 12) for p, a in zip(self.periods_h, self.amplitudes) if a != 0.0}
        if self.offset != 0.0:
            freqs.add(0.0)
        return len(freqs)


@dataclass(frozen=True)
class OccupancySchedule:
    """Daily presence pattern: occupied except during the listed absence
    windows (hours within the day); each window is shifted per day by a
    uniform jitter drawn from the experiment RNG."""

    absent_windows: tuple[tuple[float, float], ...] = ()
    jitter_h: float = 0.0

    def sample(self, t_hours: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        occ = np.ones_like(t_hours, dtype=float)
        if not self.absent_windows:
            return occ
        n_days = int(math.floor(t_hours[-1] / 24.0)) + 1 if len(t_hours) else 0
        # one jitter draw per (day, window), consumed in a fixed order
        jit = rng.uniform(-self.jitter_h, self.jitter_h,
                          size=(n_days, len(self.absent_windows))) if self.jitter_h > 0 \
            else np.zeros((n_days, len(self.absent_windows)))
        day = np.floor(t_hours / 24.0).astype(int)
        tod = t_hours - 24.0 * day
        for w, (a, b) in enumerate(self.absent_windows):
            lo = a + jit[day, w]
            hi = b + jit[day, w]
            occ[(tod >= lo) & (tod < hi)] = 0.0
        return occ


@dataclass(frozen=True)
class DisturbanceSpec:
    """Synthesis recipes for every exogenous signal.

    ``neighbor_recipes[0]`` is the outdoor environment; it also drives the
    inlet-temperature heating curve.  ``q_ext`` is the solar recipe plus
    ``occupant_gain_w`` whenever someone is present.
    """

    neighbor_recipes: tuple[SinusoidRecipe, ...]
    solar: SinusoidRecipe
    air_inlet: SinusoidRecipe
    air_flow: SinusoidRecipe
    occupancy: OccupancySchedule = OccupancySchedule()
    occupant_gain_w: float = 0.0

    def validate_excitation(self) -> None:
        """Each continuous signal must carry at least 3 distinct non-negative
        frequencies; raise ConfigError otherwise."""
        signals = {"air_inlet": self.air_inlet, "air_flow": self.air_flow,
                   "solar": self.solar}
        for j, r in enumerate(self.neighbor_recipes, start=1):
            signals[f"neighbor_{j}"] = r
        for name, r in signals.items():
            if r.n_frequencies() < 3:
                raise ConfigError(
                    f"disturbance signal {name!r} has {r.n_frequencies()} distinct "
                    "frequencies, need at least 3")


@dataclass(frozen=True)
class HysteresisSettings:
    t_set: float = 21.0       # degC
    delta_t: float = 0.1      # degC
    vdot_max: float = 0.0787  # kg/s

    def __post_init__(self):
        if self.delta_t <= 0 or self.vdot_max <= 0:
            raise ConfigError("delta_t and vdot_max must be positive")


@dataclass(frozen=True)
class HeatingCurveParams:
    rho0: float = 29.30
    rho1: float = 0.80
    zeta: float = 0.97

    def __post_init__(self):
        if self.rho0 <= 0 or self.rho1 <= 0 or self.zeta <= 0:
            raise ConfigError("heating curve constants must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop data-generation settings (times in hours)."""

    epsilon: float = 1.0 / 12.0
    duration: float = 336.0
    noise_std: float = 0.05
    disturbance_spec: DisturbanceSpec = None  # required
    hysteresis: HysteresisSettings = HysteresisSettings()
    seed: int = 0
    heating_curve: HeatingCurveParams = HeatingCurveParams()
    initial: PlantState = None  # required

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.duration < self.epsilon:
            raise ConfigError("duration must cover at least one sample")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        if self.disturbance_spec is None or self.initial is None:
            raise ConfigError("disturbance_spec and initial state are required")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.epsilon))


@dataclass
class TimeSeriesDataset:
    """Sampled experiment log: equal-length columns indexed by sample."""

    epsilon: float
    n_neighbors: int
    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ShapeError(f"ragged dataset columns: lengths {sorted(lengths)}")
        t = self.columns.get("t_hours")
        if t is not None and len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ShapeError("dataset time index must be strictly increasing")

    def __len__(self) -> int:
        return len(self.columns["T_r"])

    @property
    def t_hours(self) -> np.ndarray:
        return self.columns["t_hours"]

    def neighbor_columns(self) -> list[str]:
        return [f"T_rj_{j}" for j in range(1, self.n_neighbors + 1)]

    def view(self, structure) -> dict[str, np.ndarray]:
        """Measured columns available under an information structure; the
        arrays are the stored ones, not copies."""
        from .regressors import measured_columns
        return {c: self.columns[c] for c in measured_columns(structure, self.n_neighbors)}

    def to_csv(self, path) -> None:
        names = column_names(self.n_neighbors)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            cols = [self.columns[c] if c != "k" else np.arange(len(self))
                    for c in names]
            for row in zip(*cols):
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path, epsilon: float | None = None) -> "TimeSeriesDataset":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                rows = [line.strip().split(",") for line in fh if line.strip()]
        except OSError as e:
            raise ConfigError(f"cannot read dataset {path}: {e.strerror}") from None
        if not rows:
            raise ConfigError(f"dataset {path} is empty")
        try:
            data = np.asarray(rows, dtype=float)
        except ValueError:
            raise ConfigError(_table_error(path, header)) from None
        if data.shape[1] != len(header):
            raise ConfigError(_table_error(path, header))
        columns = {name: data[:, i].copy() for i, name in enumerate(header) if name != "k"}
        n_neighbors = sum(1 for name in header if name.startswith("T_rj_"))
        if n_neighbors == 0:
            raise ConfigError(f"dataset {path} has no neighbor temperature columns")
        if epsilon is None:
            t = columns["t_hours"]
            epsilon = float(t[1] - t[0]) if len(t) > 1 else 1.0 / 12.0
        return cls(epsilon=epsilon, n_neighbors=n_neighbors, columns=columns)


def _table_error(path, header: list[str]) -> str:
    """Where a dataset file stops being a numeric table of the header's
    width: the first ragged row or non-numeric cell, by file line."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(header):
                return (f"dataset {path}, line {lineno}: {len(cells)} fields, "
                        f"the header has {len(header)}")
            for name, cell in zip(header, cells):
                try:
                    float(cell)
                except ValueError:
                    return (f"dataset {path}, line {lineno}, column {name!r}: "
                            f"{cell!r} is not a number")
    return f"dataset {path} is not a numeric table"


def _fmt(v: float) -> str:
    return f"{v:.9g}"


# ---------------------------------------------------------------------------
# plant integration
# ---------------------------------------------------------------------------

def _rate(params: ZoneParams, xv: list[float], u: ControlInput,
          d: Disturbance) -> list[float]:
    # same balances as thermal_core.derivative, on a flat state list
    n = params.n_neighbors
    t_r, t_s, t_w = xv[0], xv[1:1 + n], xv[1 + n]
    seps = [params.separators[j] for j in params.neighbor_ids]

    q_s_plus = [(ts - t_r) / s.r_plus for ts, s in zip(t_s, seps)]
    dt_s = [((tj - ts) / s.r_minus - qp) / s.c_s
            for tj, ts, qp, s in zip(d.t_neighbors, t_s, q_s_plus, seps)]

    g_w = water_conductance(params.rh, u.vdot_w)
    q_w = (t_w - t_r) / params.rh.r_c
    dt_w = (g_w * (d.t_w_in - t_w) - q_w) / params.rh.c_w

    g_a = air_conductance(params.hvac, u.vdot_a)
    dt_r = (sum(q_s_plus) + q_w + g_a * (d.t_a_in - t_r) + d.q_ext) / params.c_r
    return [dt_r, *dt_s, dt_w]


_STATE_LABELS = ("T_r", "T_s", "T_w")


def step(params: ZoneParams, x: PlantState, u: ControlInput, d: Disturbance,
         epsilon: float) -> PlantState:
    """One classical RK4 step of length ``epsilon`` hours with u, d held
    constant over the interval."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    n = params.n_neighbors
    if len(x.t_s) != n or len(d.t_neighbors) != n:
        raise ShapeError("state/disturbance dimensions disagree with neighbor count")

    h = epsilon * SECONDS_PER_HOUR
    xv = x.as_list()
    k1 = _rate(params, xv, u, d)
    k2 = _rate(params, [a + 0.5 * h * b for a, b in zip(xv, k1)], u, d)
    k3 = _rate(params, [a + 0.5 * h * b for a, b in zip(xv, k2)], u, d)
    k4 = _rate(params, [a + h * b for a, b in zip(xv, k3)], u, d)
    out = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(xv, k1, k2, k3, k4)]

    for i, v in enumerate(out):
        if not math.isfinite(v):
            name = "T_r" if i == 0 else ("T_w" if i == n + 1 else f"T_s[{i - 1}]")
            raise DivergenceError(f"integration diverged: state {name} is {v!r}")
    return PlantState(t_r=out[0], t_s=out[1:1 + n], t_w=out[1 + n])


# ---------------------------------------------------------------------------
# closed-loop data generation
# ---------------------------------------------------------------------------

def hysteresis_control(t_r_now: float, t_r_prev: float, occupied: bool,
                       s: HysteresisSettings) -> float:
    """Water-flow law, implemented exactly as specified: full flow while the
    zone is occupied and the temperature is either below the lower band edge,
    or at/above it and not yet falling.  Note the asymmetry: there is no
    upper cutoff other than a falling temperature."""
    if occupied and (t_r_now < s.t_set - s.delta_t
                     or (t_r_now >= s.t_set - s.delta_t and t_r_prev <= t_r_now)):
        return s.vdot_max
    return 0.0


def heating_curve(t_set: float, t_out: float, p: HeatingCurveParams) -> float:
    """Inlet water temperature as a function of the outdoor temperature."""
    if t_set > t_out:
        return p.rho0 + p.rho1 * (t_set - t_out) ** p.zeta
    return p.rho0


@dataclass
class Scenario:
    """Pre-sampled exogenous signals for one experiment (arrays over samples)."""

    t_hours: np.ndarray
    neighbors: list[np.ndarray]   # neighbors[0] is the outdoor temperature
    ta_in: np.ndarray
    va: np.ndarray
    q_solar: np.ndarray
    occ: np.ndarray
    occupant_gain_w: float

    @property
    def q_ext(self) -> np.ndarray:
        return self.q_solar + self.occupant_gain_w * self.occ


def synthesize_scenario(spec: DisturbanceSpec, epsilon: float, n_samples: int,
                        rng: np.random.Generator) -> Scenario:
    t = np.arange(n_samples) * epsilon
    return Scenario(
        t_hours=t,
        neighbors=[r.sample(t) for r in spec.neighbor_recipes],
        ta_in=spec.air_inlet.sample(t),
        va=spec.air_flow.sample(t),
        q_solar=spec.solar.sample(t),
        occ=spec.occupancy.sample(t, rng),
        occupant_gain_w=spec.occupant_gain_w,
    )


def run_experiment(params: ZoneParams, cfg: SimConfig) -> TimeSeriesDataset:
    """Closed-loop simulation under the hysteresis controller and heating
    curve.  The plant state evolves noise-free; the logged zone and water
    temperatures carry additive Gaussian measurement noise.  Bit-reproducible
    from the seed."""
    n = cfg.n_samples
    nn = params.n_neighbors
    if len(cfg.disturbance_spec.neighbor_recipes) != nn:
        raise ConfigError(
            f"disturbance spec has {len(cfg.disturbance_spec.neighbor_recipes)} "
            f"neighbor recipes, plant has {nn} neighbors")

    rng = np.random.default_rng(cfg.seed)
    scen = synthesize_scenario(cfg.disturbance_spec, cfg.epsilon, n, rng)
    noise = (rng.normal(0.0, cfg.noise_std, size=(n, 2)) if cfg.noise_std > 0
             else np.zeros((n, 2)))
    q_ext = scen.q_ext

    t_r = np.empty(n)
    t_w = np.empty(n)
    vw = np.empty(n)
    x = PlantState(t_r=cfg.initial.t_r, t_s=list(cfg.initial.t_s), t_w=cfg.initial.t_w)
    if len(x.t_s) != nn:
        raise ShapeError("initial state dimension disagrees with neighbor count")
    t_r_prev = x.t_r

    tw_in = np.array([heating_curve(cfg.hysteresis.t_set, scen.neighbors[0][k],
                                    cfg.heating_curve) for k in range(n)])

    for k in range(n):
        occupied = scen.occ[k] > 0
        vw[k] = hysteresis_control(x.t_r, t_r_prev, occupied, cfg.hysteresis)
        t_r[k] = x.t_r
        t_w[k] = x.t_w
        u = ControlInput(vdot_w=vw[k], vdot_a=float(scen.va[k]))
        d = Disturbance(t_w_in=float(tw_in[k]), t_a_in=float(scen.ta_in[k]),
                        t_neighbors=tuple(float(nb[k]) for nb in scen.neighbors),
                        q_ext=float(q_ext[k]))
        t_r_prev = x.t_r
        x = step(params, x, u, d, cfg.epsilon)

    columns = {
        "t_hours": scen.t_hours,
        "T_r": t_r + noise[:, 0],
        "T_w": t_w + noise[:, 1],
        "Tw_in": tw_in,
        "Ta_in": scen.ta_in,
        "Vw": vw,
        "Va": scen.va,
        "Qext": q_ext,
        "occ": scen.occ,
    }
    for j, nb in enumerate(scen.neighbors, start=1):
        columns[f"T_rj_{j}"] = nb
    meta = {"seed": cfg.seed, "noise_std": cfg.noise_std,
            "t_r_true": t_r, "t_w_true": t_w}
    return TimeSeriesDataset(epsilon=cfg.epsilon, n_neighbors=nn,
                             columns=columns, metadata=meta)


def run_probe_experiment(params: ZoneParams, cfg: SimConfig,
                         inlet_set=(40.0, 45.0), flow_set=(0.0, 0.0787),
                         period_h: float = 1.0) -> TimeSeriesDataset:
    """Open-loop commissioning run: the water loop is driven by uniformly
    random draws from a discrete (inlet temperature, flow) set, held constant
    over each probe period.

    The closed-loop heating-curve data keeps the flow on almost continuously
    (the curve is sized to balance the load at full flow), which leaves the
    flow channel poorly identified.  A randomized probe over the control set
    that a predictive controller will actually use removes that degeneracy.
    Same logging and noise conventions as :func:`run_experiment`.
    """
    n = cfg.n_samples
    nn = params.n_neighbors
    per = max(1, int(round(period_h / cfg.epsilon)))
    rng = np.random.default_rng(cfg.seed)
    scen = synthesize_scenario(cfg.disturbance_spec, cfg.epsilon, n, rng)
    noise = (rng.normal(0.0, cfg.noise_std, size=(n, 2)) if cfg.noise_std > 0
             else np.zeros((n, 2)))
    n_periods = (n + per - 1) // per
    inlets = rng.choice(np.asarray(inlet_set, dtype=float), size=n_periods)
    flows = rng.choice(np.asarray(flow_set, dtype=float), size=n_periods)
    q_ext = scen.q_ext

    t_r = np.empty(n)
    t_w = np.empty(n)
    x = PlantState(t_r=cfg.initial.t_r, t_s=list(cfg.initial.t_s), t_w=cfg.initial.t_w)
    tw_in = inlets[np.arange(n) // per]
    vw = flows[np.arange(n) // per]
    for k in range(n):
        t_r[k] = x.t_r
        t_w[k] = x.t_w
        u = ControlInput(vdot_w=float(vw[k]), vdot_a=float(scen.va[k]))
        d = Disturbance(t_w_in=float(tw_in[k]), t_a_in=float(scen.ta_in[k]),
                        t_neighbors=tuple(float(nb[k]) for nb in scen.neighbors),
                        q_ext=float(q_ext[k]))
        x = step(params, x, u, d, cfg.epsilon)

    columns = {
        "t_hours": scen.t_hours,
        "T_r": t_r + noise[:, 0],
        "T_w": t_w + noise[:, 1],
        "Tw_in": tw_in,
        "Ta_in": scen.ta_in,
        "Vw": vw,
        "Va": scen.va,
        "Qext": q_ext,
        "occ": scen.occ,
    }
    for j, nb in enumerate(scen.neighbors, start=1):
        columns[f"T_rj_{j}"] = nb
    meta = {"seed": cfg.seed, "noise_std": cfg.noise_std, "probe_period_h": period_h,
            "t_r_true": t_r, "t_w_true": t_w}
    return TimeSeriesDataset(epsilon=cfg.epsilon, n_neighbors=nn,
                             columns=columns, metadata=meta)
