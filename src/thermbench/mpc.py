"""Receding-horizon climate controller over a discrete control set.

Every admissible plan (one inlet-temperature/water-flow pair per optimization
period, zero-order held) is rolled out through the zone predictor and the
water-loop predictor, costed, and the cheapest plan is applied for one
optimization period.  Plan enumeration is exhaustive and ordered (inlet
ascending, then flow ascending, earliest period most significant); the argmin
takes the first minimum, so ties resolve to the lexicographically smallest
plan.

The rollout is anchored to measurements: lags that reach into the past read
the recorded history, lags inside the horizon read the rollout's own
predictions.  The forecast arrays hold the scheduled future exogenous signals
(offsets 1..N relative to the decision sample; the decision sample itself
travels in ``HorizonForecast.now``).

One rollout kernel serves every plan.  It evaluates the compiled water and
zone layouts over a row axis of plans and walks the plan-prefix tree: every
regressor lag is at least one sample, so the horizon steps of period p depend
on the choices of periods 0..p only.  At each period boundary the rows are
repeated once per option, and the period is rolled out once per prefix (4,
16, 64, 256 and 1024 rows under the default config, instead of 1024 rows for
every step).  The tree still reaches every admissible plan, so the search
stays exhaustive; each leaf is costed with the same arithmetic, in the same
order, as a rollout of that plan alone, and ``predict_horizon`` is the
one-row case.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, HistoryUnderflowError
from .identify import oe_predict
from .regressors import (CompiledLayout, LaggedHistory, RegressorSpec,
                         Structure, compile_layout, layout, measured_columns,
                         sum_entries, warmup)
from .simulator import (SimConfig, ZoneParams, check_control_set, heating_curve,
                        hysteresis_control, simulate, synthesize_scenario)
from .simulator import step  # noqa: F401  (perfbench's self-test patches mpc.step)


@dataclass(frozen=True)
class MpcConfig:
    """Cost weights, timing grid and discrete control sets (times in hours)."""

    alpha: float = 1.0e6          # comfort weight
    beta: float = 0.3333          # heating-cost weight, kW/(degC h)
    gamma: float = 0.5278e3       # pump weight, kW s/(h m^3)
    t_sam: float = 1.0 / 12.0
    t_opt: float = 1.0
    t_hor: float = 5.0
    inlet_set: tuple[float, ...] = (40.0, 45.0)
    flow_set: tuple[float, ...] = (0.0, 0.0787)
    t_set: float = 21.0
    heating_cost_gated_by_flow: bool = False
    plan_budget: int = 100_000

    def __post_init__(self):
        check_control_set(self.inlet_set, self.flow_set)
        if self.t_sam <= 0 or self.t_opt <= 0 or self.t_hor <= 0:
            raise ConfigError("t_sam, t_opt and t_hor must be positive")
        for whole, part, names in ((self.t_hor, self.t_opt, "t_hor/t_opt"),
                                   (self.t_opt, self.t_sam, "t_opt/t_sam")):
            ratio = whole / part
            if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
                raise ConfigError(f"{names} must be a positive integer, got {ratio}")

    @property
    def n_periods(self) -> int:
        return int(round(self.t_hor / self.t_opt))

    @property
    def samples_per_period(self) -> int:
        return int(round(self.t_opt / self.t_sam))

    @property
    def n_hor(self) -> int:
        return self.n_periods * self.samples_per_period

    def options(self) -> list[tuple[float, float]]:
        """Per-period (inlet, flow) choices in tie-break order."""
        return [(i, f) for i in sorted(self.inlet_set) for f in sorted(self.flow_set)]


@dataclass(frozen=True)
class ControlPlan:
    """One (inlet temperature, water flow) pair per optimization period."""

    periods: tuple[tuple[float, float], ...]

    def expand(self, cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
        """Zero-order-held per-sample sequences of length n_hor."""
        if len(self.periods) != cfg.n_periods:
            raise ConfigError(f"plan has {len(self.periods)} periods, "
                              f"config expects {cfg.n_periods}")
        inlet = np.repeat([p[0] for p in self.periods], cfg.samples_per_period)
        flow = np.repeat([p[1] for p in self.periods], cfg.samples_per_period)
        return inlet.astype(float), flow.astype(float)


@dataclass(frozen=True)
class CurrentSample:
    """Measured values at the decision sample."""

    t_r: float
    occ: float
    t_neighbors: tuple[float, ...]
    ta_in: float
    va: float
    qext: float


@dataclass
class HorizonForecast:
    """Scheduled exogenous signals over the horizon, assumed exact.

    Arrays cover offsets 1..n_hor from the decision sample.
    """

    occ: np.ndarray
    ta_in: np.ndarray
    va: np.ndarray
    qext: np.ndarray
    t_neighbors: list[np.ndarray]
    now: CurrentSample

    def check_length(self, n_hor: int) -> None:
        arrays = [self.occ, self.ta_in, self.va, self.qext, *self.t_neighbors]
        if any(len(a) != n_hor for a in arrays):
            raise ConfigError(f"forecast arrays must have length {n_hor}")


def runtime_channels(spec: RegressorSpec) -> list[str]:
    """History channels a controller keeps for a zone structure plus the
    water-loop predictor."""
    cols = set(measured_columns(spec.structure, spec.n_neighbors))
    cols.update(["Vw", "Tw_in", "Ta_in", "Va", "Qext", "T_r"])
    cols.update(f"T_rj_{j}" for j in range(1, spec.n_neighbors + 1))
    cols.discard("T_w")  # the water state is tracked through yhat_w
    return sorted(cols)


def _rh_spec(spec: RegressorSpec) -> RegressorSpec:
    return RegressorSpec(Structure.NRM_FI_RH, spec.n_neighbors)


# ---------------------------------------------------------------------------
# rollout kernel
# ---------------------------------------------------------------------------

# plan-dependent rollout buffers: inside the horizon the layouts' output
# channels read the rollout's own predictions, and the controls follow the plan
_PLAN_BUFFERS = {"yhat_r": 0, "T_r": 0, "yhat_w": 1, "T_w": 1, "Tw_in": 2, "Vw": 3}


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The water and zone predictors of one zone spec as a single compiled
    table (water entries first), with the source of each value-table row:
    a plan buffer, or a plan-independent signal shared by every plan (the
    table's constant 1.0 row is the shared signal past the last channel)."""

    lay: CompiledLayout
    n_water: int
    shared: tuple[str, ...]
    plan_rows: np.ndarray
    plan_buffer: np.ndarray
    plan_lag: np.ndarray
    shared_rows: np.ndarray
    shared_channel: np.ndarray
    shared_lag: np.ndarray


@functools.lru_cache(maxsize=None)
def _kernel(spec: RegressorSpec) -> _Kernel:
    rh = _rh_spec(spec)
    lay = compile_layout(rh, spec)
    shared = tuple(f"T_rj_{j}" for j in range(1, spec.n_neighbors + 1)) + \
        ("Ta_in", "Va", "Qext")
    plan, other = [], []
    for row, (channel, lag) in enumerate(lay.columns):
        if channel in _PLAN_BUFFERS:
            plan.append((row, _PLAN_BUFFERS[channel], lag))
        else:
            other.append((row, shared.index(channel), lag))
    other.append((len(lay.columns), len(shared), 0))
    p = np.array(plan, dtype=np.intp).reshape(-1, 3).T
    o = np.array(other, dtype=np.intp).T
    p.flags.writeable = o.flags.writeable = False
    return _Kernel(lay, len(layout(rh)), shared, p[0], p[1], p[2], o[0], o[1], o[2])


def _rollout(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
             hist: LaggedHistory, forecast: HorizonForecast, cfg: MpcConfig,
             choices) -> tuple[np.ndarray, int]:
    """Roll the water and zone predictors out over a tree of plan prefixes.

    ``choices[p]`` holds period p's candidate (inlet, flow) values as two
    arrays.  Every lag is at least one sample, so the horizon steps of
    period p read controls of periods 0..p only: at each period boundary
    every row is repeated once per option, and the period is rolled out
    once per plan prefix.  Each row's arithmetic does not depend on how many
    rows there are.  Returns ``(buffers, w)``: ``buffers`` has shape
    ``(4, w + 1 + n_hor, plans)`` and holds the zone prediction, water
    prediction, inlet and flow by position (0..w-1 the recorded past, w the
    decision sample, w+1.. the horizon); the plans are in enumeration order,
    earliest period most significant.
    """
    n = cfg.n_hor
    s = cfg.samples_per_period
    w = max(warmup(spec), 1)
    t = len(hist)
    if t < w:
        raise HistoryUnderflowError(f"controller history has {t} samples, "
                                    f"needs {w} for the rollout")
    total = w + 1 + n
    kern = _kernel(spec)

    # plan-independent signals by position: recorded, measured at the
    # decision sample, then forecast; the last row is the constant 1.0
    now = {"Ta_in": forecast.now.ta_in, "Va": forecast.now.va,
           "Qext": forecast.now.qext}
    future = {"Ta_in": forecast.ta_in, "Va": forecast.va, "Qext": forecast.qext}
    for j, (v, a) in enumerate(zip(forecast.now.t_neighbors, forecast.t_neighbors),
                               start=1):
        now[f"T_rj_{j}"] = v
        future[f"T_rj_{j}"] = a
    shared = np.empty((len(kern.shared) + 1, total))
    for i, c in enumerate(kern.shared):
        shared[i, :w] = [hist.get(c, k) for k in range(t - w, t)]
        shared[i, w] = now[c]
        shared[i, w + 1:] = future[c]
    shared[-1] = 1.0
    # the shared rows of the value table at each horizon step
    shared_at = shared[kern.shared_channel,
                       np.arange(w + 1, total)[:, None] - kern.shared_lag]

    buffers = np.zeros((4, total, 1))
    for c in ("yhat_r", "yhat_w", "Tw_in", "Vw"):
        buffers[_PLAN_BUFFERS[c], :w, 0] = [hist.get(c, k) for k in range(t - w, t)]
    buffers[0, w] = forecast.now.t_r
    buffers[1, w] = oe_predict(theta_w, _rh_spec(spec), hist, t)

    coef = np.concatenate((theta_w, theta_r))[:, None]
    nw = kern.n_water
    for p, (inlet, flow) in enumerate(choices):
        if len(inlet) > 1:
            buffers = np.repeat(buffers, len(inlet), axis=2)
        rows = buffers.shape[2]
        period = slice(w + p * s, w + (p + 1) * s)
        buffers[2, period] = np.tile(inlet, rows // len(inlet))
        buffers[3, period] = np.tile(flow, rows // len(inlet))
        values = np.empty((len(kern.lay.columns) + 1, rows))
        for idx in range(w + p * s + 1, w + (p + 1) * s + 1):
            values[kern.plan_rows] = buffers[kern.plan_buffer, idx - kern.plan_lag]
            values[kern.shared_rows] = shared_at[idx - w - 1, :, None]
            terms = kern.lay.terms(values, coef)
            buffers[1, idx] = sum_entries(terms[:nw])
            buffers[0, idx] = sum_entries(terms[nw:])
    if not np.all(np.isfinite(buffers[:2, w:])):
        raise DivergenceError("plan rollout produced non-finite predictions")
    return buffers, w


def _costs(t_r: np.ndarray, t_w: np.ndarray, inlet: np.ndarray,
           flow: np.ndarray, forecast: HorizonForecast, cfg: MpcConfig):
    """Comfort, heating and pump cost of each row (one plan per row).

    ``t_r`` covers horizon positions 0..n_hor, the others 0..n_hor-1.  The
    comfort sum is averaged by n_hor; the heating term is
    beta * t_sam * (inlet - predicted outlet), optionally multiplied by an
    indicator that the flow is nonzero.  Every row sum runs over a C-ordered
    row, whatever the layout of the inputs, so a plan costs the same bits
    alone or among others.
    """
    n = cfg.n_hor
    occ_path = np.concatenate(([forecast.now.occ], forecast.occ))
    comfort = cfg.alpha * np.sum(
        occ_path * np.subtract(t_r, cfg.t_set, order="C") ** 2, axis=1) / n
    gate = (flow > 0.0).astype(float) if cfg.heating_cost_gated_by_flow else 1.0
    heating = cfg.beta * cfg.t_sam * np.sum(
        np.multiply(inlet - t_w, gate, order="C"), axis=1)
    pump = cfg.gamma * cfg.t_sam * np.sum(np.ascontiguousarray(flow), axis=1)
    return comfort, heating, pump


def predict_horizon(theta_r: np.ndarray, theta_w: np.ndarray,
                    spec: RegressorSpec, hist: LaggedHistory,
                    plan: ControlPlan, forecast: HorizonForecast,
                    cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multi-step rollout of the zone and water predictors under one plan.

    Returns the zone trace (length n_hor+1, position 0 is the current
    measurement) and the water-outlet trace (length n_hor).  This is the
    one-row case of the rollout ``solve`` ranks plans with, bit for bit.
    """
    n = cfg.n_hor
    if n == 0:
        return np.empty(0), np.empty(0)
    forecast.check_length(n)
    if len(plan.periods) != cfg.n_periods:
        raise ConfigError(f"plan has {len(plan.periods)} periods, "
                          f"config expects {cfg.n_periods}")
    choices = [(np.array([i], dtype=float), np.array([f], dtype=float))
               for i, f in plan.periods]
    buffers, w = _rollout(theta_r, theta_w, spec, hist, forecast, cfg, choices)
    return buffers[0, w:w + n + 1, 0].copy(), buffers[1, w:w + n, 0].copy()


def _push_rollout_row(work: LaggedHistory, *, t_r, t_w,
                      t_neighbors, ta_in, va, qext, occ, tw_in, vw) -> None:
    row = {"T_r": t_r, "Ta_in": ta_in, "Va": va, "Qext": qext, "occ": occ,
           "Tw_in": tw_in, "Vw": vw, "T_w": t_w}
    for j, v in enumerate(t_neighbors, start=1):
        row[f"T_rj_{j}"] = v
    work.push({c: row[c] for c in work.channels if c in row})


@dataclass(frozen=True)
class CostBreakdown:
    total: float
    comfort: float
    heating: float
    pump: float


def plan_cost(traces: tuple[np.ndarray, np.ndarray], plan: ControlPlan,
              forecast: HorizonForecast, cfg: MpcConfig) -> CostBreakdown:
    """Comfort, heating and pump cost of one rolled-out plan, by the cost
    function ``solve`` ranks plans with."""
    t_r_trace, t_w_trace = traces
    if cfg.n_hor == 0 or len(t_r_trace) == 0:
        return CostBreakdown(0.0, 0.0, 0.0, 0.0)
    inlet_seq, flow_seq = plan.expand(cfg)
    comfort, heating, pump = (float(c[0]) for c in _costs(
        t_r_trace[None, :], t_w_trace[None, :], inlet_seq[None, :],
        flow_seq[None, :], forecast, cfg))
    return CostBreakdown(total=comfort + heating + pump, comfort=comfort,
                         heating=heating, pump=pump)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _plan_table(cfg: MpcConfig) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Every admissible plan in tie-break order, and one period's options as
    inlet and flow arrays in the same order; built once per config."""
    options = cfg.options()
    n_plans = len(options) ** cfg.n_periods
    if n_plans > cfg.plan_budget:
        raise ConfigError(f"enumeration of {n_plans} plans exceeds the budget "
                          f"of {cfg.plan_budget}")
    plans = tuple(itertools.product(options, repeat=cfg.n_periods))
    inlet = np.array([i for i, _ in options], dtype=float)
    flow = np.array([f for _, f in options], dtype=float)
    inlet.flags.writeable = flow.flags.writeable = False
    return plans, inlet, flow


def _plan_costs(theta_r, theta_w, spec, hist, forecast, cfg) -> np.ndarray:
    """Total cost of every plan, in enumeration order."""
    n = cfg.n_hor
    _, inlet, flow = _plan_table(cfg)
    buffers, w = _rollout(theta_r, theta_w, spec, hist, forecast, cfg,
                          [(inlet, flow)] * cfg.n_periods)
    # (plans, positions) views of the leaves
    t_r, t_w, inlet_seq, flow_seq = (buffers[b, w:w + n + (b == 0)].T
                                     for b in range(4))
    comfort, heating, pump = _costs(t_r, t_w, inlet_seq, flow_seq, forecast, cfg)
    return comfort + heating + pump


def solve(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
          hist: LaggedHistory, forecast: HorizonForecast,
          cfg: MpcConfig) -> ControlPlan:
    """Exhaustively enumerate all admissible plans and return the cheapest
    (first minimum in tie-break order)."""
    plans, _, _ = _plan_table(cfg)
    forecast.check_length(cfg.n_hor)
    costs = _plan_costs(theta_r, theta_w, spec, hist, forecast, cfg)
    return ControlPlan(periods=plans[int(np.argmin(costs))])


# ---------------------------------------------------------------------------
# closed-loop evaluation
# ---------------------------------------------------------------------------

@dataclass
class EpisodeReport:
    """Per-sample log of a closed-loop run with running-average realized
    costs, all computed against the true plant state."""

    t_hours: np.ndarray
    t_r_plant: np.ndarray
    t_w_plant: np.ndarray
    inlet: np.ndarray
    flow: np.ndarray
    occ: np.ndarray
    run_avg_comfort: np.ndarray
    run_avg_heating: np.ndarray
    run_avg_pump: np.ndarray

    @property
    def final_comfort(self) -> float:
        return float(self.run_avg_comfort[-1])

    @property
    def final_heating(self) -> float:
        return float(self.run_avg_heating[-1])

    @property
    def final_pump(self) -> float:
        return float(self.run_avg_pump[-1])

    @property
    def final_energy(self) -> float:
        return self.final_heating + self.final_pump

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_hours,T_r_plant,plan_inlet,plan_flow,"
                     "run_avg_comfort,run_avg_heating,run_avg_pump\n")
            for row in zip(self.t_hours, self.t_r_plant, self.inlet, self.flow,
                           self.run_avg_comfort, self.run_avg_heating,
                           self.run_avg_pump):
                fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def realized_costs(t_r_true, t_w_true, occ, inlet, flow,
                   cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running averages of the per-sample realized comfort/heating/pump costs
    (plant truth, not predictions)."""
    t_r = np.asarray(t_r_true)
    steps = np.arange(1, len(t_r) + 1)
    comfort = cfg.alpha * np.asarray(occ) * (t_r - cfg.t_set) ** 2
    gate = (np.asarray(flow) > 0).astype(float) if cfg.heating_cost_gated_by_flow else 1.0
    heating = cfg.beta * cfg.t_sam * (np.asarray(inlet) - np.asarray(t_w_true)) * gate
    pump = cfg.gamma * cfg.t_sam * np.asarray(flow)
    return (np.cumsum(comfort) / steps, np.cumsum(heating) / steps,
            np.cumsum(pump) / steps)


def closed_loop_run(params: ZoneParams, sim_cfg: SimConfig, cfg: MpcConfig,
                    spec: RegressorSpec, theta_r: np.ndarray,
                    theta_w: np.ndarray) -> EpisodeReport:
    """Receding-horizon episode against the RK4 plant.

    The controller re-solves every optimization period on its recorded
    (measured) history and applies the first period of the chosen plan; the
    exogenous forecast is read from the scenario schedule (exact).  Until the
    history covers the deepest regressor lag, the hysteresis law bootstraps
    the flow with the scheduled heating-curve inlet.  The controller runs as
    the ``control`` of the plant loop ``simulator.simulate``.
    """
    if abs(sim_cfg.epsilon - cfg.t_sam) > 1e-9:
        raise ConfigError("simulator sampling period and t_sam must agree")
    n = sim_cfg.n_samples
    n_hor = cfg.n_hor
    rng = np.random.default_rng(sim_cfg.seed)
    scen = synthesize_scenario(sim_cfg.disturbance_spec, sim_cfg.epsilon,
                               n + n_hor + 1, rng)
    noise = (rng.normal(0.0, sim_cfg.noise_std, size=n) if sim_cfg.noise_std > 0
             else np.zeros(n))
    q_ext = scen.q_ext
    rh = _rh_spec(spec)

    hist = LaggedHistory(runtime_channels(spec), extra_predictions=("yhat_w",))
    warm = max(warmup(spec), 1)
    t_r_prev_meas = None
    current = None  # (inlet, flow) applied during the current period

    def control(k, t_r_true):
        nonlocal t_r_prev_meas, current
        t_r_meas = t_r_true + noise[k]
        now = CurrentSample(t_r=float(t_r_meas), occ=float(scen.occ[k]),
                            t_neighbors=tuple(float(nb[k]) for nb in scen.neighbors),
                            ta_in=float(scen.ta_in[k]), va=float(scen.va[k]),
                            qext=float(q_ext[k]))

        if k < warm or (current is None and k % cfg.samples_per_period != 0):
            # bootstrap: hysteresis with the heating-curve inlet
            prev = t_r_meas if t_r_prev_meas is None else t_r_prev_meas
            flow_k = hysteresis_control(t_r_meas, prev, scen.occ[k] > 0,
                                        sim_cfg.hysteresis)
            inlet_k = heating_curve(sim_cfg.hysteresis.t_set, scen.neighbors[0][k],
                                    sim_cfg.heating_curve)
        else:
            if k % cfg.samples_per_period == 0 or current is None:
                forecast = HorizonForecast(
                    occ=scen.occ[k + 1:k + 1 + n_hor],
                    ta_in=scen.ta_in[k + 1:k + 1 + n_hor],
                    va=scen.va[k + 1:k + 1 + n_hor],
                    qext=q_ext[k + 1:k + 1 + n_hor],
                    t_neighbors=[nb[k + 1:k + 1 + n_hor] for nb in scen.neighbors],
                    now=now)
                plan = solve(theta_r, theta_w, spec, hist, forecast, cfg)
                current = plan.periods[0]
            inlet_k, flow_k = current

        # controller-side water estimate, then record the sample
        yhat_w_k = oe_predict(theta_w, rh, hist, k) if k >= 1 else now.t_r
        _push_rollout_row(hist, t_r=now.t_r, t_w=yhat_w_k, t_neighbors=now.t_neighbors,
                          ta_in=now.ta_in, va=now.va, qext=now.qext, occ=now.occ,
                          tw_in=inlet_k, vw=flow_k)
        hist.record_prediction("yhat_w", k, yhat_w_k)
        t_r_prev_meas = t_r_meas
        return inlet_k, flow_k

    t_r_plant, t_w_plant, inlet_log, flow_log = simulate(params, sim_cfg, scen, n,
                                                         control)
    comfort, heating, pump = realized_costs(t_r_plant, t_w_plant, scen.occ[:n],
                                            inlet_log, flow_log, cfg)
    return EpisodeReport(t_hours=scen.t_hours[:n], t_r_plant=t_r_plant,
                         t_w_plant=t_w_plant, inlet=inlet_log, flow=flow_log,
                         occ=scen.occ[:n].copy(), run_avg_comfort=comfort,
                         run_avg_heating=heating, run_avg_pump=pump)
