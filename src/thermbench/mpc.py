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
on the choices of periods 0..p only, and period p is rolled out once per
prefix (4, 16, 64, 256 and 1024 rows under the default config).  The tree
still reaches every admissible plan, so the search stays exhaustive.  Every
kernel entry is ``coef * f0 * f1 * ... * pred``: the trailing prediction
factor reads a zone or water prediction, the factors before it read only the
controls and the plan-independent signals.  The kernel works in two stages:

1. Once per period, the prefix ``coef * f0 * f1 * ...`` of every entry is
   computed for all the period's steps in one call, over the distinct
   combinations of options of the periods the control lags reach (16 under
   the default config, whatever the number of rows).
2. Once per horizon step, one gather reads each entry's trailing prediction
   factor (an exact 1.0 where an entry has none), one multiply applies the
   prefixes, and the water and zone entries are summed.

The products are those of a single multiplication chain, in the same order,
and ``* 1.0`` is exact, so a plan costs the same bits alone or among others;
``predict_horizon`` is the one-row case.  Internally the newest period's
option is the most significant digit of a row (each period boundary tiles
the rows so far once per option), so the rows of one combination form a
contiguous block that one prefix broadcasts over.  The costs are permuted
back to enumeration order once per decision, with a fixed per-config
permutation, so the first-minimum tie-break is unchanged.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, HistoryUnderflowError
from .identify import _rh_spec, oe_predict
from .regressors import (CompiledLayout, LaggedHistory, RegressorSpec,
                         compile_layout, layout, measured_columns, sum_entries,
                         warmup)
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

    def check(self, n_hor: int, n_neighbors: int) -> None:
        """Raise ``ConfigError`` unless every array covers ``n_hor`` samples
        and the forecast and the decision sample both carry ``n_neighbors``
        neighbor temperatures."""
        for name, count in (("forecast", len(self.t_neighbors)),
                            ("decision sample", len(self.now.t_neighbors))):
            if count != n_neighbors:
                raise ConfigError(f"the {name} has {count} neighbor "
                                  f"temperature(s), the spec expects {n_neighbors}")
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


# ---------------------------------------------------------------------------
# rollout kernel
# ---------------------------------------------------------------------------

# inside the horizon the layouts' output channels read the rollout's own
# predictions (planes of the prediction buffers), and the controls follow the
# plan (planes of a period's control table)
_PREDICTIONS = {"yhat_r": 0, "T_r": 0, "yhat_w": 1, "T_w": 1}
_CONTROLS = {"Tw_in": 0, "Vw": 1}


def _index(triples) -> tuple[np.ndarray, ...]:
    """Three read-only index arrays from a list of triples."""
    a = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    a.flags.writeable = False
    return tuple(a)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The water and zone predictors of one zone spec as a single compiled
    table (water entries first), split at each entry's trailing prediction
    factor.

    Stage 1 fills the value-table rows that read a control (``control_*``:
    row, control plane, lag) or a plan-independent signal (``shared_*``:
    row, index into ``shared``, lag) and leaves an exact 1.0 in the rows of
    the prediction factors.  Stage 2 reads each entry's trailing prediction
    factor from prediction plane ``pred_plane`` at lag ``pred_lag``, or an
    exact 1.0 where ``has_pred`` is 0.
    """

    lay: CompiledLayout
    n_water: int
    shared: tuple[str, ...]
    shared_rows: np.ndarray
    shared_channel: np.ndarray
    shared_lag: np.ndarray
    control_rows: np.ndarray
    control_plane: np.ndarray
    control_lag: np.ndarray
    pred_plane: np.ndarray
    pred_lag: np.ndarray
    has_pred: np.ndarray

    def depth(self, s: int) -> int:
        """How many periods before its own a period's steps read controls
        of, at ``s`` samples per period.  Step ``j`` (1..s) of period p is
        horizon position ``p*s + j`` and reads the controls of position
        ``p*s + j - lag``, which belong to period ``(p*s + j - lag) // s``."""
        return (int(self.control_lag.max(initial=1)) - 2 + s) // s


@functools.lru_cache(maxsize=None)
def _kernel(spec: RegressorSpec) -> _Kernel:
    rh = _rh_spec(spec)
    lay = compile_layout(rh, spec)
    shared = tuple(f"T_rj_{j}" for j in range(1, spec.n_neighbors + 1)) + \
        ("Ta_in", "Va", "Qext")
    control, other = [], []
    for row, (channel, lag) in enumerate(lay.columns):
        if channel in _CONTROLS:
            control.append((row, _CONTROLS[channel], lag))
        elif channel not in _PREDICTIONS:
            other.append((row, shared.index(channel), lag))
    trailing = []
    for entry in lay.entries:
        if any(channel in _PREDICTIONS for channel, _ in entry[:-1]):
            raise ConfigError(f"kernel entry {entry} has a prediction factor "
                              f"before its last position")
        channel, lag = entry[-1]
        trailing.append((_PREDICTIONS[channel], lag, 1) if channel in _PREDICTIONS
                        else (0, 0, 0))
    return _Kernel(lay, len(layout(rh)), shared, *_index(other), *_index(control),
                   *_index(trailing))


def _period_prefixes(kern: _Kernel, coef: np.ndarray, controls: np.ndarray,
                     shared_at: np.ndarray, choices, p: int, s: int,
                     w: int) -> np.ndarray:
    """Stage 1: ``coef * f0 * f1 * ...`` of every entry, up to its trailing
    prediction factor, at the ``s`` steps of period p.

    Returns shape ``(entries, s, combinations)``: one column per combination
    of options of the periods ``lo..p`` that the steps' control lags reach,
    period ``lo``'s option the least significant digit, as in the rollout
    rows.  ``controls`` holds the recorded controls of positions ``0..w-1``;
    ``shared_at`` the shared value-table rows at every horizon step.
    """
    lo = max(p - kern.depth(s), 0)
    sizes = [len(inlet) for inlet, _ in choices[lo:p + 1]]
    n_comb = math.prod(sizes)
    ctrl = np.empty((2, w + (p + 1) * s, n_comb))
    ctrl[:, :w] = controls[:, :, None]
    stride = 1
    for q, m in enumerate(sizes, start=lo):
        option = np.arange(n_comb) // stride % m
        for plane, values in enumerate(choices[q]):
            ctrl[plane, w + q * s:w + (q + 1) * s] = values[option]
        stride *= m
    values = np.ones((len(kern.lay.columns) + 1, s, n_comb))
    steps = np.arange(w + 1 + p * s, w + 1 + (p + 1) * s)
    values[kern.control_rows] = ctrl[kern.control_plane[:, None],
                                     steps - kern.control_lag[:, None]]
    values[kern.shared_rows] = shared_at[:, p * s:(p + 1) * s, None]
    return kern.lay.terms(values, coef[:, None, None])


@functools.lru_cache(maxsize=1)
def _workspace(n_entries: int, width: int,
               n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch memory of the rollouts of one shape: room for the prediction
    buffers of every row, and for one step's terms.

    Every such rollout reuses it and writes it before reading it.  Memory
    of this size allocated afresh per decision is page-faulted in anew
    whenever the allocator has returned it to the system in between (with
    glibc's malloc, about 550 minor faults per decision under the default
    config).  The memory is held until a rollout of another shape needs
    its own.  A rollout's buffers are valid until the next rollout, so
    rollouts must not run concurrently.
    """
    return np.empty(2 * width * n_rows), np.empty(n_entries * n_rows)


def _rollout(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
             hist: LaggedHistory, forecast: HorizonForecast, cfg: MpcConfig,
             choices) -> tuple[np.ndarray, int]:
    """Roll the water and zone predictors out over a tree of plan prefixes.

    ``choices[p]`` holds period p's candidate (inlet, flow) values as two
    arrays.  Every lag is at least one sample, so the horizon steps of
    period p read controls of periods 0..p only: at each period boundary
    the rows are tiled once per option, and the period is rolled out once
    per plan prefix (stage 1 computes its prefixes, stage 2 steps it; see
    the module docstring).  Each row's arithmetic does not depend on how
    many rows there are.  Returns ``(buffers, w)``: ``buffers`` has shape
    ``(2, w + 1 + n_hor, rows)`` and holds the zone and water predictions by
    position (0..w-1 the recorded past, w the decision sample, w+1.. the
    horizon).  Row ``sum_p o_p * (m_0 * ... * m_{p-1})`` is the plan of
    option ``o_p`` of ``m_p`` in period p: the newest period is the most
    significant digit.
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
    coef = np.concatenate((theta_w, theta_r))

    # plan-independent signals by position: recorded, measured at the
    # decision sample, then forecast
    now = {"Ta_in": forecast.now.ta_in, "Va": forecast.now.va,
           "Qext": forecast.now.qext}
    future = {"Ta_in": forecast.ta_in, "Va": forecast.va, "Qext": forecast.qext}
    for j, (v, a) in enumerate(zip(forecast.now.t_neighbors, forecast.t_neighbors),
                               start=1):
        now[f"T_rj_{j}"] = v
        future[f"T_rj_{j}"] = a
    shared = np.empty((len(kern.shared), total))
    for i, c in enumerate(kern.shared):
        shared[i, :w] = [hist.get(c, k) for k in range(t - w, t)]
        shared[i, w] = now[c]
        shared[i, w + 1:] = future[c]
    steps = np.arange(w + 1, total)
    # the shared rows of the value table at each horizon step
    shared_at = shared[kern.shared_channel[:, None], steps - kern.shared_lag[:, None]]
    controls = np.array([[hist.get(c, k) for k in range(t - w, t)]
                         for c in _CONTROLS])

    # prediction buffers by position, and one position of exact 1.0s that
    # the entries without a prediction factor read in stage 2; every period's
    # rows live at the front of the workspace
    width = total + 1
    region, scratch = _workspace(len(coef), width,
                                 math.prod(len(inlet) for inlet, _ in choices))
    buffers = region[:2 * width].reshape(2, width, 1)
    for c in ("yhat_r", "yhat_w"):
        buffers[_PREDICTIONS[c], :w, 0] = [hist.get(c, k) for k in range(t - w, t)]
    buffers[0, w] = forecast.now.t_r
    buffers[1, w] = oe_predict(theta_w, _rh_spec(spec), hist, t)
    buffers[:, total] = 1.0
    # the row of the flattened buffers each entry reads at each horizon step
    gather = np.where(kern.has_pred, kern.pred_plane * width - kern.pred_lag
                      + steps[:, None], total)

    nw = kern.n_water
    for p, (inlet, _) in enumerate(choices):
        rows = buffers.shape[2] * len(inlet)
        if len(inlet) > 1:
            # tile: one block of the rows so far per option of period p
            done = w + p * s + 1  # positions rolled out
            tiled = region[:2 * width * rows].reshape(2, width, rows)
            tiled.reshape(2, width, len(inlet), -1)[:, :done] = \
                buffers[:, :done, None, :]
            tiled[:, total] = 1.0
            buffers = tiled
        flat = buffers.reshape(2 * width, rows)
        prefix = _period_prefixes(kern, coef, controls, shared_at, choices, p, s, w)
        terms = scratch[:len(coef) * rows].reshape(len(coef), rows)
        # the rows of one combination of options are a contiguous block
        blocks = terms.reshape(len(coef), prefix.shape[2], -1)
        water, zone = terms[:nw], terms[nw:]
        for k, step_prefix in enumerate(prefix.transpose(1, 0, 2)[..., None],
                                        start=p * s):
            flat.take(gather[k], axis=0, out=terms, mode="clip")
            blocks *= step_prefix
            sum_entries(water, out=buffers[1, w + 1 + k])
            sum_entries(zone, out=buffers[0, w + 1 + k])
    buffers = buffers[:, :total]
    if not np.all(np.isfinite(buffers[:, w:])):
        raise DivergenceError("plan rollout produced non-finite predictions")
    return buffers, w


def _costs(t_r: np.ndarray, t_w: np.ndarray, inlet: np.ndarray,
           flow: np.ndarray, forecast: HorizonForecast, cfg: MpcConfig):
    """Comfort and heating cost of each row (one plan per row).

    ``t_r`` holds horizon positions 0..n_hor and ``t_w`` 0..n_hor-1 of each
    row as ``(positions, rows)`` arrays; ``inlet`` and ``flow`` hold each
    row's option as ``(periods, rows)`` arrays.  The comfort sum is averaged
    by n_hor; the heating term is beta * t_sam * (inlet - predicted outlet),
    optionally multiplied by an indicator that the flow is nonzero.  Every
    row sum runs over a C-ordered row, so a plan costs the same bits alone
    or among others.
    """
    n = cfg.n_hor
    occ_path = np.concatenate(([forecast.now.occ], forecast.occ))
    comfort = np.subtract(t_r, cfg.t_set)
    np.square(comfort, out=comfort)
    comfort *= occ_path[:, None]
    # the samples of each period against that period's option
    heating = np.subtract(inlet[:, None], t_w.reshape(len(inlet), -1, t_w.shape[1]))
    if cfg.heating_cost_gated_by_flow:
        heating *= (flow > 0.0)[:, None]
    return (cfg.alpha * np.sum(np.ascontiguousarray(comfort.T), axis=1) / n,
            cfg.beta * cfg.t_sam * np.sum(
                np.ascontiguousarray(heating.reshape(n, -1).T), axis=1))


def _pump_cost(flow: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """Pump cost of each row of per-sample flows (it depends on the plan
    alone)."""
    return cfg.gamma * cfg.t_sam * np.sum(np.ascontiguousarray(flow), axis=1)


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
    forecast.check(n, spec.n_neighbors)
    if len(plan.periods) != cfg.n_periods:
        raise ConfigError(f"plan has {len(plan.periods)} periods, "
                          f"config expects {cfg.n_periods}")
    choices = [(option[:1], option[1:])
               for option in np.array(plan.periods, dtype=float)]
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
    _, flow_seq = plan.expand(cfg)
    options = np.array(plan.periods, dtype=float)
    comfort, heating = (float(c[0]) for c in _costs(
        t_r_trace[:, None], t_w_trace[:, None], options[:, :1], options[:, 1:],
        forecast, cfg))
    pump = float(_pump_cost(flow_seq[None, :], cfg)[0])
    return CostBreakdown(total=comfort + heating + pump, comfort=comfort,
                         heating=heating, pump=pump)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _PlanTable:
    """What ``solve`` needs of a config's plans that no forecast changes.

    ``plans`` lists every admissible plan in tie-break order, with its pump
    cost in ``pump``; ``inlet`` and ``flow`` hold one period's options in
    the same order.  ``inlet_rows`` and ``flow_rows`` hold the option of
    each period in each rollout row, and ``order`` the rollout row of each
    plan: ``costs[order]`` puts costs by row into enumeration order.
    """

    plans: tuple
    pump: np.ndarray
    inlet: np.ndarray
    flow: np.ndarray
    inlet_rows: np.ndarray
    flow_rows: np.ndarray
    order: np.ndarray


@functools.lru_cache(maxsize=8)
def _plan_table(cfg: MpcConfig) -> _PlanTable:
    """Built once per config."""
    options = cfg.options()
    m, n_periods = len(options), cfg.n_periods
    n_plans = m ** n_periods
    if n_plans > cfg.plan_budget:
        raise ConfigError(f"enumeration of {n_plans} plans exceeds the budget "
                          f"of {cfg.plan_budget}")
    plans = tuple(itertools.product(options, repeat=n_periods))
    pump = _pump_cost(np.repeat([[f for _, f in plan] for plan in plans],
                                cfg.samples_per_period, axis=1), cfg)
    inlet = np.array([i for i, _ in options], dtype=float)
    flow = np.array([f for _, f in options], dtype=float)
    # period p's option is the digit of weight m**p of the rollout row:
    # the reverse digit order of the enumeration
    digits = np.arange(n_plans) // m ** np.arange(n_periods)[:, None] % m
    order = np.arange(n_plans).reshape((m,) * n_periods).T.ravel()
    table = _PlanTable(plans, pump, inlet, flow, inlet[digits], flow[digits], order)
    for a in (pump, inlet, flow, table.inlet_rows, table.flow_rows, order):
        a.flags.writeable = False
    return table


def _plan_costs(theta_r, theta_w, spec, hist, forecast, cfg) -> np.ndarray:
    """Total cost of every plan, in enumeration order."""
    n = cfg.n_hor
    table = _plan_table(cfg)
    buffers, w = _rollout(theta_r, theta_w, spec, hist, forecast, cfg,
                          [(table.inlet, table.flow)] * cfg.n_periods)
    comfort, heating = _costs(buffers[0, w:w + n + 1], buffers[1, w:w + n],
                              table.inlet_rows, table.flow_rows, forecast, cfg)
    return (comfort + heating)[table.order] + table.pump


def solve(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
          hist: LaggedHistory, forecast: HorizonForecast,
          cfg: MpcConfig) -> ControlPlan:
    """Exhaustively enumerate all admissible plans and return the cheapest
    (first minimum in tie-break order)."""
    plans = _plan_table(cfg).plans
    forecast.check(cfg.n_hor, spec.n_neighbors)
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
