"""Ground-truth plant: RK4 integration of the zone model under a hysteresis
water-flow controller, an outdoor-compensated inlet-temperature curve and
synthesized disturbances, logged as a sampled dataset.

One plant loop, :func:`simulate`, integrates a pre-sampled :class:`Scenario`
on flat floats and asks a ``control(k, t_r_true)`` callable for each sample's
water-loop input: the hysteresis run, the probe run and
``mpc.closed_loop_run`` are its three controllers.  Its inputs are checked
once, before the loop, and its signals are read as Python floats one block
of rows at a time (:func:`float_rows`), as are the controllers' own.  There
is one RK4, ``thermal_core.rk4_step``: the straight-line step generated per
neighbor count, on the state ``(t_r, t_s, t_w)`` with the flow conductances
taken once per step; both :func:`simulate` and the typed, checked
single-step entry point :func:`step` run it.

CSV I/O: :func:`write_csv` is the one writer of datasets, spectra, training
reports and episodes: a header line, then blocks of rows formatted with one
``%`` on a repeated ``%.9g`` row template (the text of ``f"{v:.9g}"``).
:meth:`TimeSeriesDataset.from_csv` parses the body with numpy's C parser,
falling back to a line-by-line scan only to name the first bad cell.

Time bookkeeping: sampling period and durations are in hours at this layer;
the integrator converts to seconds internally.  Disturbance signals are sums
of sinusoids plus an offset so that their spectral line count is explicit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .thermal_core import (ControlInput, Disturbance, PlantState, ZoneParams,
                           rk4_step)

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


def check_positive(**values: float) -> None:
    """Raise ConfigError naming the first of ``values`` that is not positive
    and finite."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class SinusoidRecipe:
    """offset + sum of amplitude * sin(2*pi*t/period + phase), t in hours."""

    offset: float
    amplitudes: tuple[float, ...] = ()
    periods_h: tuple[float, ...] = ()
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        counts = [len(self.amplitudes), len(self.periods_h), len(self.phases)]
        odd = [(name, n) for name, n in zip(("amplitudes", "periods_h", "phases"), counts)
               if counts.count(n) == 1]
        if len(odd) == 1:  # the one list out of step with the other two
            raise ConfigError(f"{odd[0][0]} has {odd[0][1]} values where the other two "
                              f"lists have {max(counts, key=counts.count)}")
        if odd:
            raise ConfigError("amplitudes, periods_h and phases must have equal "
                              f"length, got {counts}")
        if any(p <= 0 for p in self.periods_h):
            raise ConfigError(f"periods_h must be positive, got {self.periods_h}")

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

    def __post_init__(self):
        if not self.jitter_h >= 0.0:
            raise ConfigError(f"jitter_h must be non-negative, got {self.jitter_h!r}")
        for a, b in self.absent_windows:
            if not 0.0 <= a < b <= 24.0:
                raise ConfigError(f"absent_windows has the bad window '{a!r}-{b!r}' (want "
                                  "'start-end' hours of the day, 0 <= start < end <= 24)")

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
        frequencies; raise ConfigError otherwise, naming the config section
        and keys of its recipe."""
        signals = {"air_inlet": self.air_inlet, "air_flow": self.air_flow,
                   "solar": self.solar}
        for j, r in enumerate(self.neighbor_recipes, start=1):
            signals[f"neighbor_{j}"] = r
        for name, r in signals.items():
            if r.n_frequencies() < 3:
                raise ConfigError(
                    f"[disturbance.{name}] amplitudes, periods_h: the signal has "
                    f"{r.n_frequencies()} distinct frequencies, need at least 3")


@dataclass(frozen=True)
class HysteresisSettings:
    t_set: float = 21.0       # degC
    delta_t: float = 0.1      # degC
    vdot_max: float = 0.0787  # kg/s

    def __post_init__(self):
        if not math.isfinite(self.t_set):
            raise ConfigError(f"t_set must be finite, got {self.t_set!r}")
        check_positive(delta_t=self.delta_t, vdot_max=self.vdot_max)


@dataclass(frozen=True)
class HeatingCurveParams:
    rho0: float = 29.30
    rho1: float = 0.80
    zeta: float = 0.97

    def __post_init__(self):
        check_positive(rho0=self.rho0, rho1=self.rho1, zeta=self.zeta)


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

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

    def to_csv(self, path) -> None:
        names = column_names(self.n_neighbors)
        write_csv(path, names, [self.columns[c] if c != "k" else np.arange(len(self))
                                for c in names])

    @classmethod
    def from_csv(cls, path) -> "TimeSeriesDataset":
        """Read a dataset that ``to_csv`` wrote; the sampling period is its
        first time step, and every time step must match it."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                rows = (line for line in fh if line.strip())
                first = next(rows, None)
                if first is None:
                    raise ConfigError(f"dataset {path} is empty")
                try:
                    data = np.loadtxt(itertools.chain((first,), rows), delimiter=",",
                                      comments=None, ndmin=2)
                except ValueError:
                    raise ConfigError(_table_error(path, header)) from None
        except OSError as e:
            raise ConfigError(f"cannot read dataset {path}: {e.strerror}") from None
        if data.shape[1] != len(header) or not np.isfinite(data).all():
            raise ConfigError(_table_error(path, header))
        missing = [c for c in ("t_hours", "T_r") if c not in header]
        if missing:
            raise ConfigError(f"dataset {path} lacks columns {missing} required by "
                              "every dataset")
        columns = {name: data[:, i].copy() for i, name in enumerate(header) if name != "k"}
        n_neighbors = sum(1 for name in header if name.startswith("T_rj_"))
        if n_neighbors == 0:
            raise ConfigError(f"dataset {path} has no neighbor temperature columns")
        t = columns["t_hours"]
        back = np.flatnonzero(np.diff(t) <= 0.0)
        if back.size:
            i = int(back[0]) + 1
            raise ConfigError(f"dataset {path}, line {_data_line(path, i)}: time index "
                              f"must be strictly increasing, t_hours {float(t[i])!r} "
                              f"follows {float(t[i - 1])!r}")
        epsilon = float(t[1] - t[0]) if len(t) > 1 else 1.0 / 12.0
        # training and the controller assume one sampling period; the
        # tolerance covers the rounding of times written with 9 digits
        off = np.flatnonzero(np.abs(np.diff(t) - epsilon) > 1e-3 * epsilon)
        if off.size:
            i = int(off[0]) + 1
            raise ConfigError(f"dataset {path}, line {_data_line(path, i)}: time "
                              f"step {float(t[i] - t[i - 1])!r} h differs from the "
                              f"sampling period {epsilon!r} h")
        return cls(epsilon=epsilon, n_neighbors=n_neighbors, columns=columns,
                   metadata={"source": str(path)})

    def require(self, names, user: str) -> None:
        """Raise ConfigError naming every column of ``names`` the dataset
        lacks, the ``user`` that needs them and the dataset's file, when it
        was read from one."""
        missing = [c for c in names if c not in self.columns]
        if missing:
            source = self.metadata.get("source")
            raise ConfigError(f"dataset {source + ' ' if source else ''}lacks columns "
                              f"{missing} required by {user}")


def _data_line(path, row: int) -> int:
    """File line of the dataset's data row ``row`` (0-based; blank lines
    are not rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        rows = (lineno for lineno, line in enumerate(fh, start=2) if line.strip())
        return next(itertools.islice(rows, row, None))


def _table_error(path, header: list[str]) -> str:
    """Where a dataset file stops being a finite numeric table of the
    header's width: the first ragged row, non-numeric or non-finite cell, by
    file line."""
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
                    value = float(cell)
                except ValueError:
                    return (f"dataset {path}, line {lineno}, column {name!r}: "
                            f"{cell!r} is not a number")
                if not math.isfinite(value):
                    return (f"dataset {path}, line {lineno}, column {name!r}: "
                            f"{cell!r} is not finite")
    return f"dataset {path} is not a numeric table"


#: rows formatted per ``%`` by :func:`write_csv`
CSV_BLOCK_ROWS = 256


def write_csv(path, header, columns) -> None:
    """Write ``path``: the ``header`` names, then the equal-length numeric
    ``columns`` as rows of ``%.9g`` values (the text of ``f"{v:.9g}"`` for
    every float, ``-0``, ``nan`` and ``inf`` included; integers as floats),
    one ``%`` on a repeated row template per :data:`CSV_BLOCK_ROWS` rows, so
    that no whole-table string is ever built."""
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    n = len(columns[0])
    template = row * CSV_BLOCK_ROWS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = np.stack([c[lo:lo + CSV_BLOCK_ROWS] for c in columns], axis=1,
                             dtype=float)
            if len(block) < CSV_BLOCK_ROWS:
                template = row * len(block)
            fh.write(template % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# plant integration
# ---------------------------------------------------------------------------

def step(params: ZoneParams, x: PlantState, u: ControlInput, d: Disturbance,
         epsilon: float) -> PlantState:
    """One classical RK4 step of length ``epsilon`` hours with u, d held
    constant over the interval: the typed, checked form of the stepper that
    :func:`simulate` runs on flat floats."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    n = params.n_neighbors
    if len(x.t_s) != n or len(d.t_neighbors) != n:
        raise ShapeError("state/disturbance dimensions disagree with neighbor count")
    t_r, t_s, t_w = rk4_step(params, epsilon * SECONDS_PER_HOUR)(
        x.t_r, x.t_s, x.t_w, u.vdot_w, u.vdot_a, d.t_w_in, d.t_a_in,
        d.t_neighbors, d.q_ext)
    return PlantState(t_r=t_r, t_s=t_s, t_w=t_w)


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
    """Inlet water temperature as a function of the outdoor temperature; inf
    where the curve overflows a float, which the plant loop reports."""
    if t_set > t_out:
        try:
            return p.rho0 + p.rho1 * (t_set - t_out) ** p.zeta
        except OverflowError:
            return math.inf
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

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The exogenous signals by dataset column name."""
        return {**{f"T_rj_{j}": nb for j, nb in enumerate(self.neighbors, start=1)},
                "Ta_in": self.ta_in, "Va": self.va, "Qext": self.q_ext, "occ": self.occ}


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


def check_control_set(inlet_set, flow_set) -> None:
    """A discrete control set the plant can apply: non-empty, finite, and
    with non-negative water flows."""
    for name, values in (("inlet_set", inlet_set), ("flow_set", flow_set)):
        if not values:
            raise ConfigError(f"{name} must be non-empty")
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{name} {values} must be finite")
    if min(flow_set) < 0.0:
        raise ConfigError(f"flow_set entry {min(flow_set)!r} is negative; water "
                          "flows must be non-negative")


def _check_scenario(params: ZoneParams, initial: PlantState, scen: Scenario,
                    n: int) -> None:
    """The plant loop's checks, made once before it starts.  A bad signal is
    named by its dataset column and its first bad sample."""
    if len(scen.t_hours) < n:
        raise ShapeError(f"scenario has {len(scen.t_hours)} samples, the run needs {n}")
    nn = params.n_neighbors
    if len(scen.neighbors) != nn:
        raise ConfigError(f"disturbance spec has {len(scen.neighbors)} neighbor "
                          f"recipes, plant has {nn} neighbors")
    if len(initial.t_s) != nn:
        raise ShapeError("initial state dimension disagrees with neighbor count")
    for name, values in scen.columns.items():
        bad = ~np.isfinite(values) | (values < 0.0 if name == "Va" else False)
        if bad.any():
            k = int(np.argmax(bad))
            raise ConfigError(f"scenario signal {name} is {float(values[k])!r} at "
                              f"sample {k}: signals must be finite, flows non-negative")


def float_rows(n: int, *columns: np.ndarray):
    """The first ``n`` rows of ``columns`` as tuples of Python floats,
    converted one :data:`CSV_BLOCK_ROWS` block at a time."""
    for lo in range(0, n, CSV_BLOCK_ROWS):
        hi = min(n, lo + CSV_BLOCK_ROWS)
        yield from zip(*(c[lo:hi].tolist() for c in columns))


def simulate(params: ZoneParams, sim_cfg: SimConfig, scenario: Scenario, n: int,
             control) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate ``n`` samples of ``scenario`` from ``sim_cfg.initial``.

    ``control(k, t_r_true)``, called once per sample in sample order, gets
    the true zone temperature at the start of sample k and returns the
    ``(inlet, flow)`` held over it (a finite inlet, a finite non-negative
    flow).  Returns the true ``T_r`` and ``T_w`` at the start of every sample
    and the applied inlet and flow.
    """
    _check_scenario(params, sim_cfg.initial, scenario, n)
    advance = rk4_step(params, sim_cfg.epsilon * SECONDS_PER_HOUR)
    signals = float_rows(n, scenario.va, scenario.ta_in, scenario.q_ext,
                         *scenario.neighbors)
    t_r_log, t_w_log, inlet, flow = (np.empty(n) for _ in range(4))
    initial = sim_cfg.initial
    t_r, t_s, t_w = float(initial.t_r), [float(v) for v in initial.t_s], float(initial.t_w)
    for k, (va, ta_in, q_ext, *t_neighbors) in enumerate(signals):
        t_r_log[k], t_w_log[k] = t_r, t_w
        inlet_k, flow_k = control(k, t_r)
        inlet[k], flow[k] = inlet_k, flow_k
        t_r, t_s, t_w = advance(t_r, t_s, t_w, float(flow_k), va, float(inlet_k),
                                ta_in, t_neighbors, q_ext)
    return t_r_log, t_w_log, inlet, flow


def _noise(rng: np.random.Generator, std: float, n: int) -> np.ndarray:
    """Measurement noise on the logged T_r and T_w, drawn after the scenario."""
    return rng.normal(0.0, std, size=(n, 2)) if std > 0 else np.zeros((n, 2))


def _dataset(cfg: SimConfig, scen: Scenario, noise: np.ndarray, run: tuple,
             **meta) -> TimeSeriesDataset:
    """Log a plant run: noisy measured columns, true states in the metadata."""
    t_r, t_w, inlet, flow = run
    columns = {"t_hours": scen.t_hours, "T_r": t_r + noise[:, 0],
               "T_w": t_w + noise[:, 1], "Tw_in": inlet, "Vw": flow, **scen.columns}
    meta = {"seed": cfg.seed, "noise_std": cfg.noise_std, **meta,
            "t_r_true": t_r, "t_w_true": t_w}
    return TimeSeriesDataset(epsilon=cfg.epsilon, n_neighbors=len(scen.neighbors),
                             columns=columns, metadata=meta)


def run_experiment(params: ZoneParams, cfg: SimConfig) -> TimeSeriesDataset:
    """Closed-loop simulation under the hysteresis controller and heating
    curve.  The plant state evolves noise-free; the logged zone and water
    temperatures carry additive Gaussian measurement noise.  Bit-reproducible
    from the seed."""
    n = cfg.n_samples
    rng = np.random.default_rng(cfg.seed)
    scen = synthesize_scenario(cfg.disturbance_spec, cfg.epsilon, n, rng)
    noise = _noise(rng, cfg.noise_std, n)
    t_r_prev = cfg.initial.t_r
    occ_t_out = float_rows(n, scen.occ, scen.neighbors[0])

    def control(k, t_r):
        nonlocal t_r_prev
        occ, t_out = next(occ_t_out)
        flow = hysteresis_control(t_r, t_r_prev, occ > 0, cfg.hysteresis)
        t_r_prev = t_r
        return heating_curve(cfg.hysteresis.t_set, t_out, cfg.heating_curve), flow

    return _dataset(cfg, scen, noise, simulate(params, cfg, scen, n, control))


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
    check_control_set(inlet_set, flow_set)
    n = cfg.n_samples
    per = max(1, int(round(period_h / cfg.epsilon)))
    rng = np.random.default_rng(cfg.seed)
    scen = synthesize_scenario(cfg.disturbance_spec, cfg.epsilon, n, rng)
    noise = _noise(rng, cfg.noise_std, n)
    n_periods = (n + per - 1) // per
    inlets = rng.choice(np.asarray(inlet_set, dtype=float), size=n_periods)
    flows = rng.choice(np.asarray(flow_set, dtype=float), size=n_periods)
    held = np.arange(n) // per
    tw_in, vw = inlets[held].tolist(), flows[held].tolist()
    run = simulate(params, cfg, scen, n, lambda k, _t_r: (tw_in[k], vw[k]))
    return _dataset(cfg, scen, noise, run, probe_period_h=period_h)
