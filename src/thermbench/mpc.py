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
predictions.  A decision reads one ``DecisionWindow``: the recorded past, the
decision sample and the exact exogenous forecast, an array per channel (in
the closed loop, views of its logs and of the scenario).  ``water_estimate``
is the one water estimate, logged per sample and computed per decision.

One rollout kernel serves every plan.  It walks the plan-prefix tree: every
regressor lag is at least one sample, so the steps of period p depend on the
choices of periods 0..p only, and period p is rolled out once per prefix (4,
16, 64, 256 and 1024 rows under the default config); every admissible plan
is still costed.  Every kernel entry is ``coef * f0 * f1 * ... * pred``: the
trailing prediction factor reads a zone or water prediction, the factors
before it only controls and plan-independent signals.  So a period's
predictions are ``Phi_c . state + beta_c``, with maps that depend on its
combination of options c alone, of the predictions before it that its steps
read (zone lags 1-3 and water lag 1 under NRM_MI and LRM with one neighbor).
Once per decision:

1. One ``CompiledLayout.terms`` call computes ``coef * f0 * f1 * ...`` of
   every entry at every step of every period, over the combinations of
   options of the periods its control lags reach (4, then 16 per period),
   from a control template cached per spec and config.
2. One step loop (a gather of each entry's trailing factor, a multiply by
   the prefixes, the water and zone entry sums) runs over one period for
   basis rows of every period and combination: a unit row per state value,
   where the exact 1.0 that entries without a prediction factor read is 0,
   gives ``Phi_c``, and an offset row of zero state ``beta_c`` (340 rows).
3. Each period's rows are filled from their states by the multiply-adds
   ``Phi_c[0] * x_0 + Phi_c[1] * x_1 + ... + beta_c``, in this order.

The maps serve every row count, so a row's arithmetic does not depend on
how many rows there are and ``predict_horizon`` is the one-row case bit for
bit.  A period's buffer holds its steps and the ``w`` positions before them,
copied at the boundary once per option, the newest period's option the most
significant digit, so the rows of one combination are a contiguous block.
Each period's cost terms are summed in order and added to its prefix's sums,
so a plan costs the same bits alone or among others; a fixed permutation
puts the costs in enumeration order for the first-minimum tie-break.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, HistoryUnderflowError
from .identify import _rh_spec
from .identify import oe_predict  # noqa: F401  (perfbench's self-test patches mpc.oe_predict)
from .regressors import (CompiledLayout, RegressorSpec, compile_layout, layout,
                         regressor_length, sum_entries, warmup)
from .simulator import (SimConfig, ZoneParams, check_control_set, heating_curve,
                        hysteresis_control, simulate, synthesize_scenario,
                        write_rows)
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


#: recorded channels of a decision window besides the zone temperature: the
#: water estimate and the applied controls, known for the past only
_RECORDED = ("yhat_w", "Tw_in", "Vw")


@dataclass(frozen=True)
class DecisionWindow:
    """What a decision reads: one array per channel, indexed by position.

    Positions ``0..past-1`` are the recorded past, ``past`` is the decision
    sample and ``past+1..past+n_hor`` the forecast, which is assumed exact.
    The exogenous channels ``T_rj_j``, ``Ta_in``, ``Va``, ``Qext`` and ``occ``
    cover every position, the measured zone temperature ``T_r`` positions
    ``0..past``, and the water estimate ``yhat_w`` and the applied controls
    ``Tw_in`` and ``Vw`` positions ``0..past-1``.  The arrays may be views of
    longer logs; nothing here copies them.

    Every lag is at least one sample, so the rollout's last step reads the
    forecast at ``past+n_hor-1``: at ``past+n_hor`` only ``occ`` is read, for
    the last comfort term.  ``check`` still asks every exogenous channel to
    cover it, so that they all have one length.
    """

    columns: Mapping[str, np.ndarray]

    @classmethod
    def at(cls, columns: Mapping[str, np.ndarray], k: int, past: int,
           n_hor: int) -> "DecisionWindow":
        """Views of per-sample ``columns`` around decision sample ``k``:
        positions ``k-past .. k+n_hor``, each channel as far as it is known."""
        ends = {"T_r": k + 1, **dict.fromkeys(_RECORDED, k)}
        return cls({c: a[k - past:ends.get(c, k + 1 + n_hor)]
                    for c, a in columns.items()})

    @property
    def past(self) -> int:
        return len(self.columns["T_r"]) - 1

    def check(self, spec: RegressorSpec, n_hor: int) -> None:
        """Raise ``ConfigError`` unless the window holds the channels of
        ``spec``'s controller, with ``spec.n_neighbors`` neighbor
        temperatures, over ``n_hor`` forecast positions; raise
        ``HistoryUnderflowError`` when the past is shorter than the
        rollout's deepest lag."""
        count = sum(c.startswith("T_rj_") for c in self.columns)
        if count != spec.n_neighbors:
            raise ConfigError(f"the decision window has {count} neighbor "
                              f"temperature(s), the spec expects {spec.n_neighbors}")
        exogenous = (*_kernel(spec).shared, "occ")
        missing = [c for c in ("T_r", *_RECORDED, *exogenous) if c not in self.columns]
        if missing:
            raise ConfigError(f"the decision window lacks channels {missing}")
        w = max(warmup(spec), 1)
        if self.past < w:
            raise HistoryUnderflowError(f"the decision window records {self.past} "
                                        f"samples, the rollout needs {w}")
        want = {**dict.fromkeys(_RECORDED, self.past),
                **dict.fromkeys(exogenous, self.past + 1 + n_hor)}
        short = [c for c, n in want.items() if len(self.columns[c]) != n]
        if short:
            raise ConfigError(f"forecast arrays must have length {n_hor}, recorded "
                              f"ones {self.past}: channels {short} do not")


@functools.lru_cache(maxsize=None)
def _water_layout(spec: RegressorSpec) -> tuple[CompiledLayout, int]:
    """The compiled water layout of ``spec``'s controller and its deepest lag."""
    lay = compile_layout(_rh_spec(spec))
    return lay, max(lag for _, lag in lay.columns)


def water_estimate(theta_w: np.ndarray, spec: RegressorSpec,
                   columns: Mapping[str, np.ndarray], t: int) -> float:
    """The water predictor's output-error estimate at position ``t`` of
    ``columns`` (``T_r``, ``yhat_w``, ``Tw_in`` and ``Vw`` by position) from
    the positions before it.

    The regressor is the compiled water-layout row, its products started
    from an exact 1.0 as ``build_regressor`` starts them, and one
    ``@ theta_w`` follows: ``identify.oe_predict`` bit for bit.
    """
    lay, deepest = _water_layout(spec)
    if t < deepest:
        raise HistoryUnderflowError(f"the water estimate at position {t} reads "
                                    f"{deepest} position(s) back")
    values = np.array([columns[c][t - lag] for c, lag in lay.columns] + [1.0])
    return float(lay.terms(values) @ theta_w)


# ---------------------------------------------------------------------------
# rollout kernel
# ---------------------------------------------------------------------------

# inside the horizon the layouts' output channels read the rollout's own
# predictions (planes of the prediction buffers), and the controls follow the
# plan (planes of a period's control table)
_PREDICTIONS = {"yhat_r": 0, "T_r": 0, "yhat_w": 1, "T_w": 1}
_CONTROLS = {"Tw_in": 0, "Vw": 1}


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The water and zone predictors of one zone spec as a single compiled
    table (water entries first), split at each entry's trailing prediction
    factor.

    Stage 1 fills the value-table rows that read a control (``control_*``:
    row, control plane, lag) or a plan-independent signal (``shared_*``:
    row, index into ``shared``, lag) and writes an exact 1.0 in the other
    rows (``one_rows``: the prediction factors' rows and the padding row).
    Stage 2 reads each entry's trailing prediction factor from prediction
    plane ``pred_plane`` at lag ``pred_lag``, or where ``has_pred`` is 0 the
    basis rows' exact 1.0 (0 in the unit rows).
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
    one_rows: np.ndarray

    def depth(self, s: int) -> int:
        """How many periods before its own a period's steps read controls
        of, at ``s`` samples per period.  Step ``j`` (1..s) of period p is
        horizon position ``p*s + j`` and reads the controls of position
        ``p*s + j - lag``, which belong to period ``(p*s + j - lag) // s``."""
        return (int(self.control_lag.max(initial=1)) - 2 + s) // s


def _readonly(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _index(triples) -> tuple[np.ndarray, ...]:
    """Three read-only index arrays from a list of triples."""
    return tuple(_readonly(a)
                 for a in np.array(triples, dtype=np.intp).reshape(-1, 3).T)


@functools.lru_cache(maxsize=None)
def _kernel(spec: RegressorSpec) -> _Kernel:
    rh = _rh_spec(spec)
    lay = compile_layout(rh, spec)
    shared = tuple(f"T_rj_{j}" for j in range(1, spec.n_neighbors + 1)) + \
        ("Ta_in", "Va", "Qext")
    control, other, ones = [], [], [len(lay.columns)]
    for row, (channel, lag) in enumerate(lay.columns):
        if channel in _CONTROLS:
            control.append((row, _CONTROLS[channel], lag))
        elif channel in _PREDICTIONS:
            ones.append(row)
        else:
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
                   *_index(trailing), _readonly(np.array(ones, dtype=np.intp)))


@dataclass(frozen=True, eq=False)
class _Template:
    """What the rollout of one plan tree reads that nothing measured changes.

    Stage 1's columns run over the periods and, within period p, over the
    ``n_comb[p]`` combinations of options of the periods ``lo..p`` that its
    control lags reach, period ``lo``'s option the least significant digit,
    as in the rollout rows.  ``values`` holds the value table's control rows,
    ``(control rows, s, columns)``; step j of column i is horizon step
    ``step[j, i]``.  The value-table slots ``rec`` (row, step and column
    indices) read recorded controls instead, ``rec_from`` (control plane and
    position indices).  A basis buffer is laid out as a period's plus an exact
    1.0 (or 0) at position w+s, plane after plane: ``gather[j]`` holds the
    row each entry's trailing factor reads at step j, and ``state`` the rows
    before w that some step reads.
    """

    values: np.ndarray
    n_comb: tuple[int, ...]
    step: np.ndarray
    rec: tuple[np.ndarray, ...]
    rec_from: tuple[np.ndarray, ...]
    gather: np.ndarray
    state: np.ndarray


def _control_template(spec: RegressorSpec, choices, s: int) -> _Template:
    """The template of the plan tree ``choices`` (period p's candidate inlet
    and flow values as two arrays) at ``s`` samples per period."""
    kern = _kernel(spec)
    w = max(warmup(spec), 1)
    sizes = [len(inlet) for inlet, _ in choices]
    lo = np.maximum(np.arange(len(sizes)) - kern.depth(s), 0)
    n_comb = tuple(math.prod(sizes[a:p + 1]) for p, a in enumerate(lo))
    # column i is combination comb[i] of period period[i]
    period = np.repeat(np.arange(len(sizes)), n_comb)
    comb = np.arange(len(period)) - np.repeat(np.cumsum((0,) + n_comb[:-1]), n_comb)
    step = period * s + np.arange(s)[:, None]
    # step k (position w+1+k) reads the controls applied at position
    # w+1+k-lag: recorded ones before w, those of period (pos - w) // s after
    pos = w + 1 + step - kern.control_lag[:, None, None]
    q = np.maximum(pos - w, 0) // s
    # period q's digit of a combination of periods lo..p weighs the option
    # counts of periods lo..q-1
    radix = np.cumprod([1] + sizes)
    option = comb // (radix[q] // radix[lo[period]]) % np.array(sizes)[q]
    table = np.zeros((2, len(sizes), max(sizes)))
    for p, options in enumerate(choices):
        table[:, p, :sizes[p]] = options
    rec = np.nonzero(pos < w)
    width = w + s + 1
    gather = np.where(kern.has_pred, kern.pred_plane * width - kern.pred_lag
                      + np.arange(w, w + s)[:, None], w + s)
    return _Template(_readonly(table[kern.control_plane[:, None, None], q, option]),
                     n_comb, _readonly(step),
                     tuple(map(_readonly, (kern.control_rows[rec[0]], *rec[1:]))),
                     tuple(map(_readonly, (kern.control_plane[rec[0]], pos[rec]))),
                     _readonly(gather),
                     _readonly(np.flatnonzero(np.bincount(gather[gather % width < w]))))


def _rollout(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
             win: DecisionWindow, cfg: MpcConfig, choices,
             template: _Template | None = None) -> tuple[list[np.ndarray], int]:
    """Roll the water and zone predictors out over a tree of plan prefixes
    by period maps (see the module docstring).  ``choices[p]`` holds period
    p's candidate (inlet, flow) values as two arrays, and ``template`` their
    template, built here when not given.  No prediction is checked here.

    Returns ``(periods, w)``: ``periods[p]``, of shape ``(2, w + s,
    rows_p)``, holds period p's zone and water predictions at the ``w``
    positions before its first step (for period 0 the last ``w - 1``
    recorded ones and the decision sample) and at its steps.  Row ``sum_q
    o_q * (m_0 * ... * m_{q-1})`` is the prefix of option ``o_q`` of ``m_q``
    in each period q <= p.  Every array is allocated here, per call.
    """
    n = cfg.n_hor
    s = cfg.samples_per_period
    w = max(warmup(spec), 1)
    win.check(spec, n)
    cols, lo = win.columns, win.past - w
    kern = _kernel(spec)
    tpl = template if template is not None else _control_template(spec, choices, s)
    coef = np.concatenate((theta_w, theta_r))
    # plan-independent signals by position, and the shared value-table rows
    # at each horizon step
    shared = np.array([cols[c][lo:] for c in kern.shared], dtype=float)
    shared_at = shared[kern.shared_channel[:, None],
                       np.arange(w + 1, w + 1 + n) - kern.shared_lag[:, None]]
    controls = np.array([cols[c][lo:] for c in _CONTROLS], dtype=float)

    width, state = w + s + 1, tpl.state
    # stage 1: coef * f0 * f1 * ... of every entry, up to its trailing
    # prediction factor (an exact 1.0 in the value table)
    values = np.empty((len(kern.lay.columns) + 1, *tpl.step.shape))
    values[kern.control_rows] = tpl.values
    values[tpl.rec] = controls[tpl.rec_from]
    values[kern.shared_rows] = shared_at.take(tpl.step, axis=1)
    values[kern.one_rows] = 1.0
    prefix = kern.lay.terms(values, coef[:, None, None])

    # stage 2: per template column, one unit row per state value and an
    # offset row, stepped through one period
    basis = np.zeros((2 * width, len(state) + 1, tpl.step.shape[1]))
    basis[state, np.arange(len(state))] = 1.0
    basis[w + s, -1] = 1.0
    flat = basis.reshape(2 * width, -1)
    terms = np.empty((len(coef), flat.shape[1]))
    blocks = terms.reshape(len(coef), len(state) + 1, -1)
    water, zone = terms[:kern.n_water], terms[kern.n_water:]
    for j in range(s):
        flat.take(tpl.gather[j], axis=0, out=terms, mode="clip")
        blocks *= prefix[:, j, None]
        sum_entries(water, out=flat[width + w + j])
        sum_entries(zone, out=flat[w + j])
    # (2, s, state values + 1, template columns, 1), the offset last
    maps = basis.reshape(2, width, len(state) + 1, -1, 1)[:, w:w + s]
    plane, pos = np.divmod(state, width)

    # stage 3, from the measured zone temperatures and the water estimates
    tail = np.empty((2, w, 1))
    tail[0, :, 0] = cols["T_r"][lo + 1:]
    tail[1, :w - 1, 0] = cols["yhat_w"][lo + 1:]
    tail[1, w - 1] = water_estimate(theta_w, spec, cols, win.past)
    periods, first = [], 0
    for p, (inlet, _) in enumerate(choices):
        buf = np.empty((2, w + s, len(inlet) * tail.shape[2]))
        # one copy of the previous period's last w positions per option
        buf[:, :w].reshape(2, w, len(inlet), -1)[...] = tail[:, :, None]
        # the rows of one combination of options are a contiguous block
        n_comb = tpl.n_comb[p]
        x = buf[plane, pos].reshape(len(state), n_comb, -1)
        out = buf[:, w:].reshape(2, s, n_comb, -1)
        tmp = np.empty_like(out)
        m = maps[..., first:first + n_comb, :]
        np.multiply(m[:, :, 0], x[0], out=out)
        for k in range(1, len(state)):
            out += np.multiply(m[:, :, k], x[k], out=tmp)
        out += m[:, :, -1]
        first += n_comb
        periods.append(buf)
        tail = buf[:, s:s + w]
    return periods, w


def _costs(t_r0: float, zone, water, inlet, flow, win: DecisionWindow,
           cfg: MpcConfig):
    """Comfort and heating cost of each row (one plan per row) of the last
    period of a rollout.

    ``t_r0`` is the decision sample's zone temperature; ``zone[p]`` and
    ``water[p]`` are period p's ``(s, rows_p)`` blocks of zone predictions
    at its steps and water predictions at the positions before them, and
    ``inlet[p]`` and ``flow[p]`` its rows' options; the occupancy is
    ``win``'s from the decision sample on.  The comfort sum is averaged by
    n_hor; the heating term is beta * t_sam * (inlet - predicted outlet),
    optionally multiplied by an indicator that the flow is nonzero.  Each
    period's terms are summed in order and added to its prefix's sums, the
    comfort's from the decision sample's term and the heating's from 0.0,
    so a plan costs the same bits alone or among others.  The blocks are
    overwritten.
    """
    s = cfg.samples_per_period
    occ = win.columns["occ"][win.past:]
    comfort = np.square(np.subtract([t_r0], cfg.t_set)) * occ[:1]
    heating = np.zeros(1)
    for p, (t_r, t_w) in enumerate(zip(zone, water)):
        np.subtract(t_r, cfg.t_set, out=t_r)
        np.square(t_r, out=t_r)
        t_r *= occ[1 + p * s:1 + (p + 1) * s, None]
        np.subtract(inlet[p], t_w, out=t_w)
        if cfg.heating_cost_gated_by_flow:
            t_w *= flow[p] > 0.0
        # period p's rows are its prefix's rows once per option
        comfort = (comfort + sum_entries(t_r).reshape(-1, len(comfort))).ravel()
        heating = (heating + sum_entries(t_w).reshape(-1, len(heating))).ravel()
    return cfg.alpha * comfort / cfg.n_hor, cfg.beta * cfg.t_sam * heating


def _pump_cost(flow: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """Pump cost of each row of per-sample flows (it depends on the plan
    alone)."""
    return cfg.gamma * cfg.t_sam * np.sum(np.ascontiguousarray(flow), axis=1)


def predict_horizon(theta_r: np.ndarray, theta_w: np.ndarray,
                    spec: RegressorSpec, win: DecisionWindow, plan: ControlPlan,
                    cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multi-step rollout of the zone and water predictors under one plan.

    Returns the zone trace (length n_hor+1, position 0 is the current
    measurement) and the water-outlet trace (length n_hor).  This is the
    one-row case of the rollout ``solve`` ranks plans with, bit for bit.
    """
    n = cfg.n_hor
    if n == 0:
        return np.empty(0), np.empty(0)
    if len(plan.periods) != cfg.n_periods:
        raise ConfigError(f"plan has {len(plan.periods)} periods, "
                          f"config expects {cfg.n_periods}")
    choices = [(option[:1], option[1:])
               for option in np.array(plan.periods, dtype=float)]
    periods, w = _rollout(theta_r, theta_w, spec, win, cfg, choices)
    s = cfg.samples_per_period
    zone = np.concatenate([periods[0][0, w - 1:w, 0], *(b[0, w:w + s, 0] for b in periods)])
    water = np.concatenate([b[1, w - 1:w + s - 1, 0] for b in periods])
    if not (np.all(np.isfinite(zone)) and np.all(np.isfinite(water))):
        raise DivergenceError("plan rollout produced non-finite predictions")
    return zone, water


@dataclass(frozen=True)
class CostBreakdown:
    total: float
    comfort: float
    heating: float
    pump: float


def plan_cost(traces: tuple[np.ndarray, np.ndarray], plan: ControlPlan,
              win: DecisionWindow, cfg: MpcConfig) -> CostBreakdown:
    """Comfort, heating and pump cost of one rolled-out plan, by the cost
    function ``solve`` ranks plans with."""
    t_r_trace, t_w_trace = traces
    if cfg.n_hor == 0 or len(t_r_trace) == 0:
        return CostBreakdown(0.0, 0.0, 0.0, 0.0)
    _, flow_seq = plan.expand(cfg)
    options = np.array(plan.periods, dtype=float)
    # one-row period blocks; copies: the costs are computed in place
    zone, water = (np.array(a, dtype=float).reshape(len(options), -1, 1)
                   for a in (t_r_trace[1:], t_w_trace))
    comfort, heating = (float(c[0]) for c in _costs(
        t_r_trace[0], zone, water, options[:, :1], options[:, 1:], win, cfg))
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
    the same order.  ``inlet_rows[p]`` and ``flow_rows[p]`` hold the option
    of period p in each of its rollout rows, and ``order`` the last period's
    rollout row of each plan: ``costs[order]`` puts costs by row into
    enumeration order.
    """

    plans: tuple
    pump: np.ndarray
    inlet: np.ndarray
    flow: np.ndarray
    inlet_rows: tuple[np.ndarray, ...]
    flow_rows: tuple[np.ndarray, ...]
    order: np.ndarray

    @property
    def choices(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The plan tree: every period's candidate inlet and flow values."""
        return [(self.inlet, self.flow)] * len(self.inlet_rows)


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
    # period p's option is the digit of weight m**p of its rollout rows:
    # the reverse digit order of the enumeration
    inlet_rows, flow_rows = (tuple(np.repeat(a, m ** p) for p in range(n_periods))
                             for a in (inlet, flow))
    order = np.arange(n_plans).reshape((m,) * n_periods).T.ravel()
    for a in (pump, inlet, flow, *inlet_rows, *flow_rows, order):
        a.flags.writeable = False
    return _PlanTable(plans, pump, inlet, flow, inlet_rows, flow_rows, order)


@functools.lru_cache(maxsize=8)
def _plan_template(spec: RegressorSpec, cfg: MpcConfig) -> _Template:
    """The control template of ``solve``'s plan tree, built once per spec
    and config."""
    table = _plan_table(cfg)
    return _control_template(spec, table.choices, cfg.samples_per_period)


def _plan_costs(theta_r, theta_w, spec, win, cfg) -> np.ndarray:
    """Total cost of every plan, in enumeration order; ``DivergenceError``
    unless every cost is finite.  A non-finite prediction reaches its plan's
    cost through the square, the occupancy product and the flow gate, so
    this catches every diverged rollout, and also costs that overflow."""
    s = cfg.samples_per_period
    table = _plan_table(cfg)
    periods, w = _rollout(theta_r, theta_w, spec, win, cfg, table.choices,
                          _plan_template(spec, cfg))
    # the costs overwrite the predictions, which nothing reads after them
    comfort, heating = _costs(periods[0][0, w - 1, 0],
                              [b[0, w:w + s] for b in periods],
                              [b[1, w - 1:w + s - 1] for b in periods],
                              table.inlet_rows, table.flow_rows, win, cfg)
    costs = (comfort + heating)[table.order] + table.pump
    if not np.all(np.isfinite(costs)):
        raise DivergenceError("plan costs are not finite: a rollout diverged "
                              "or a cost overflowed")
    return costs


def solve(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
          win: DecisionWindow, cfg: MpcConfig) -> ControlPlan:
    """Exhaustively enumerate all admissible plans and return the cheapest
    (first minimum in tie-break order)."""
    plans = _plan_table(cfg).plans
    costs = _plan_costs(theta_r, theta_w, spec, win, cfg)
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
            write_rows(fh, [self.t_hours, self.t_r_plant, self.inlet, self.flow,
                            self.run_avg_comfort, self.run_avg_heating,
                            self.run_avg_pump])


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
    the ``control`` of the plant loop ``simulator.simulate``; it logs the
    measured zone temperature, its water estimate and the applied controls
    by sample, and each decision reads a ``DecisionWindow`` of views of
    those logs and of the scenario.
    """
    if abs(sim_cfg.epsilon - cfg.t_sam) > 1e-9:
        raise ConfigError("simulator sampling period and t_sam must agree")
    for name, layout_spec, theta in (("theta_r", spec, theta_r),
                                     ("theta_w", _rh_spec(spec), theta_w)):
        want = (regressor_length(layout_spec),)
        if np.shape(theta) != want:
            raise ConfigError(
                f"the {spec.structure.value} controller (n_neighbors="
                f"{spec.n_neighbors}) got {name} of shape {np.shape(theta)}, "
                f"its {layout_spec.structure.value} layout has shape {want}")
    n = sim_cfg.n_samples
    n_hor = cfg.n_hor
    rng = np.random.default_rng(sim_cfg.seed)
    scen = synthesize_scenario(sim_cfg.disturbance_spec, sim_cfg.epsilon,
                               n + n_hor + 1, rng)
    noise = (rng.normal(0.0, sim_cfg.noise_std, size=n) if sim_cfg.noise_std > 0
             else np.zeros(n))

    t_r, yhat_w, tw_in, vw = (np.empty(n) for _ in range(4))
    columns = {"T_r": t_r, "yhat_w": yhat_w, "Tw_in": tw_in, "Vw": vw,
               **{f"T_rj_{j}": nb for j, nb in enumerate(scen.neighbors, start=1)},
               "Ta_in": scen.ta_in, "Va": scen.va, "Qext": scen.q_ext, "occ": scen.occ}
    warm = max(warmup(spec), 1)
    current = None  # (inlet, flow) applied during the current period

    def control(k, t_r_true):
        nonlocal current
        t_r[k] = t_r_true + noise[k]
        if k < warm or (current is None and k % cfg.samples_per_period != 0):
            # bootstrap: hysteresis with the heating-curve inlet
            flow_k = hysteresis_control(t_r[k], t_r[max(k - 1, 0)], scen.occ[k] > 0,
                                        sim_cfg.hysteresis)
            inlet_k = heating_curve(sim_cfg.hysteresis.t_set, scen.neighbors[0][k],
                                    sim_cfg.heating_curve)
        else:
            if k % cfg.samples_per_period == 0 or current is None:
                win = DecisionWindow.at(columns, k, warm, n_hor)
                current = solve(theta_r, theta_w, spec, win, cfg).periods[0]
            inlet_k, flow_k = current

        # controller-side water estimate, then record the sample
        yhat_w[k] = water_estimate(theta_w, spec, columns, k) if k >= 1 else t_r[k]
        tw_in[k], vw[k] = inlet_k, flow_k
        return inlet_k, flow_k

    t_r_plant, t_w_plant, inlet_log, flow_log = simulate(params, sim_cfg, scen, n,
                                                         control)
    comfort, heating, pump = realized_costs(t_r_plant, t_w_plant, scen.occ[:n],
                                            inlet_log, flow_log, cfg)
    return EpisodeReport(t_hours=scen.t_hours[:n], t_r_plant=t_r_plant,
                         t_w_plant=t_w_plant, inlet=inlet_log, flow=flow_log,
                         occ=scen.occ[:n].copy(), run_avg_comfort=comfort,
                         run_avg_heating=heating, run_avg_pump=pump)
