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

Every lag is at least one sample and an output factor comes last in its
entry (``compile_layout`` checks both), so the steps of period p depend on
the choices of periods 0..p only, and every kernel entry is ``coef * f0 *
f1 * ... * pred``: the trailing prediction factor reads a zone or water
prediction, the factors before it only controls and plan-independent
signals.  So a period's predictions are ``Phi_c . x + beta_c`` of its entry
state x, the predictions before it that its steps read (zone lags 1-3 and
water lag 1 under NRM_MI and LRM with one neighbor: 4 values), with maps
that depend on its combination of options c alone.  A decision goes maps ->
forms -> walk:

1. Maps.  One ``CompiledLayout.terms`` call computes ``coef * f0 * f1 *
   ...`` of every entry at every step of every period, over the
   combinations of options its control lags reach (4, then 16 per period),
   from a control template cached per spec and config.  One step loop over
   basis rows (a unit row per state value, where the exact 1.0 that entries
   without a prediction factor read is 0, and an offset row of zero state)
   gives ``Phi_c`` and ``beta_c`` (340 rows).
2. Forms.  On the centred entry state ``x~ = [x - t_set; 1]`` every
   prediction minus ``t_set`` is a row times ``x~``.  So a period's cost,
   ``alpha / n_hor * sum_j occ_j (z_j - t_set)^2`` plus ``beta * t_sam *
   sum_j (inlet - w_j)`` (times the flow gate when so configured), is the
   quadratic form ``x~ . (Q_c x~)``, the heating term and the inlet constant
   folded into its last row and the pump cost ``gamma * t_sam * s * flow``
   into its constant entry, and the next period's entry state is 4 more
   rows of ``x~``: one stacked (5 + 4) x 5 form per combination.
3. Walk.  The plan tree is walked period by period (4, 16, 64, 256 and 1024
   rows, the newest period's option the most significant digit, so the rows
   of one combination are a contiguous block): each row's state goes through
   its combination's form, its period cost is added to its prefix's, and its
   next state passes to its children.  The view of the costs with the period
   axes reversed puts them in enumeration order for the first-minimum
   tie-break.

Every product is an elementwise multiply and every sum an in-order sum over
a leading axis from 0.0 (``sum_entries``), never BLAS, so a column's bits do
not depend on how many columns are built together.  The forms depend on
theta, the exact forecast and the option combination, not on the state, so
``closed_loop_run`` builds them once per period of the episode, ``_CHUNK``
periods at a time before the decision that first needs them; a decision
whose horizon reads controls that no earlier decision applied (the first
after the hysteresis bootstrap) builds its own from its window, by the same
code, with the same bits.

``stage_costs`` is the one per-sample cost: the forms expand it, ``plan_cost``
sums it over a rollout and ``realized_costs`` averages it over plant truth.
``predict_horizon`` fills one plan's predictions from the maps by the
multiply-adds ``Phi_c[0] * x_0 + ... + beta_c``: ``solve``'s costs equal
``predict_horizon`` + ``plan_cost`` within rounding, not bit for bit, since
the forms expand the squares.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, HistoryUnderflowError
from .identify import oe_predict  # noqa: F401  (perfbench's self-test patches mpc.oe_predict)
from .regressors import (CompiledLayout, RegressorSpec, compile_layout, layout,
                         regressor_length, sum_entries, warmup, water_spec)
from .simulator import (SimConfig, ZoneParams, check_control_set, check_positive,
                        column_names, float_rows, heating_curve, hysteresis_control,
                        simulate, synthesize_scenario, write_csv)
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
        for name, weight in (("alpha", self.alpha), ("beta", self.beta),
                             ("gamma", self.gamma)):
            if not weight >= 0.0:
                raise ConfigError(f"{name} must be non-negative, got {weight!r}")
        check_control_set(self.inlet_set, self.flow_set)
        check_positive(t_sam=self.t_sam, t_opt=self.t_opt, t_hor=self.t_hor)
        for whole, part, names in ((self.t_hor, self.t_opt, "t_hor/t_opt"),
                                   (self.t_opt, self.t_sam, "t_opt/t_sam")):
            ratio = whole / part
            if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
                raise ConfigError(f"{names} must be a positive integer, got {ratio}")
        if self.plan_budget < 1:
            raise ConfigError(f"plan_budget must be at least 1, got {self.plan_budget}")

    @property
    def n_periods(self) -> int:
        return int(round(self.t_hor / self.t_opt))

    @property
    def samples_per_period(self) -> int:
        return int(round(self.t_opt / self.t_sam))

    @property
    def n_hor(self) -> int:
        return self.n_periods * self.samples_per_period

    @property
    def n_options(self) -> int:
        """The number of per-period choices, ``len(options())``."""
        return len(self.inlet_set) * len(self.flow_set)

    def options(self) -> list[tuple[float, float]]:
        """Per-period (inlet, flow) choices in tie-break order."""
        return [(i, f) for i in sorted(self.inlet_set) for f in sorted(self.flow_set)]


def stage_costs(cfg: MpcConfig, t_r, t_w, occ, inlet, flow):
    """The per-sample (comfort, heating, pump) costs, elementwise, of zone
    temperatures ``t_r`` at occupancies ``occ`` and of water outlets ``t_w``
    at ``inlet`` and ``flow``; with the config's flow gate, heating is
    charged only where the flow is nonzero.  The terms may differ in length."""
    flow = np.asarray(flow)
    gate = (flow > 0.0) if cfg.heating_cost_gated_by_flow else 1.0
    return (cfg.alpha * np.asarray(occ) * (np.asarray(t_r) - cfg.t_set) ** 2,
            cfg.beta * cfg.t_sam * (np.asarray(inlet) - np.asarray(t_w)) * gate,
            cfg.gamma * cfg.t_sam * flow)


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
    The exogenous channels (``occ`` and the plan-independent signals that
    the spec's layouts read: ``T_rj_j``, ``Va``, ``Qext`` and, but for
    NRM_LI, ``Ta_in``) cover every position, the measured zone temperature
    ``T_r`` positions ``0..past``, and the water estimate ``yhat_w`` and the
    applied controls ``Tw_in`` and ``Vw`` positions ``0..past-1``.  The
    arrays may be views of longer logs; nothing here copies them.

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
        w = warmup(spec)
        if self.past < w:
            raise HistoryUnderflowError(f"the decision window records {self.past} "
                                        f"samples, the rollout needs {w}")
        want = {**dict.fromkeys(_RECORDED, self.past),
                **dict.fromkeys(exogenous, self.past + 1 + n_hor)}
        short = [f"{c} has {len(self.columns[c])}, needs {n}"
                 for c, n in want.items() if len(self.columns[c]) != n]
        if short:
            raise ConfigError(f"channel lengths do not fit a past of {self.past} and "
                              f"a horizon of {n_hor}: {'; '.join(short)}")


@functools.lru_cache(maxsize=None)
def _water_layout(spec: RegressorSpec) -> tuple[tuple, tuple, int]:
    """The compiled water layout of ``spec``'s controller: its distinct
    factors, the factor indices of each entry in the layout's factor order
    (the spare positions reading the exact 1.0 after the factors), and its
    deepest lag."""
    lay = compile_layout(water_spec(spec))
    entries = tuple(tuple(int(i) for i in lay.factors[:, e])
                    for e in range(len(lay.entries)))
    return lay.columns, entries, warmup(water_spec(spec))


def water_estimate(theta_w: np.ndarray, spec: RegressorSpec,
                   columns: Mapping[str, np.ndarray], t: int) -> float:
    """The water predictor's output-error estimate at position ``t`` of
    ``columns`` (``T_r``, ``yhat_w``, ``Tw_in`` and ``Vw`` by position) from
    the positions before it.

    The regressor is the compiled water-layout row, built in Python floats,
    each product started from an exact 1.0 and multiplied in the layout's
    factor order as ``CompiledLayout.terms`` multiplies it, and one ``@
    theta_w`` follows: ``identify.oe_predict`` bit for bit.
    """
    factors, entries, deepest = _water_layout(spec)
    if t < deepest:
        raise HistoryUnderflowError(f"the water estimate at position {t} reads "
                                    f"{deepest} position(s) back")
    values = [float(columns[c][t - lag]) for c, lag in factors]
    values.append(1.0)
    row = []
    for entry in entries:
        term = 1.0
        for i in entry:
            term *= values[i]
        row.append(term)
    return float(np.array(row) @ theta_w)


# ---------------------------------------------------------------------------
# period maps, cost forms and the plan-tree walk
# ---------------------------------------------------------------------------

#: periods of a closed loop whose cost forms are built together, sized so
#: that a build's largest array stays about the size of a decision's own.
#: Under the default config that is stage 1's prefixes: 30 entries x 12
#: steps x 80 columns (5 periods of 16 combinations) for NRM_MI, 28.8k
#: values, against 24.5k for one decision's maps and 25.6k for the last
#: product of its walk.  ``_control_template``'s int64 digit radix wraps at
#: 4^32 for 4 options per period, so a chunk plus its depth stays within 32
#: periods: 31 kept the default closed loop's bytes, 32 and 48 changed them
_CHUNK = 5

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
    """The kernel of ``spec``'s controller.  Its ``shared`` signals, which a
    decision window must cover, are the compiled layout's channels that are
    neither controls nor predictions, in dataset column order: an NRM_LI
    kernel reads no ``Ta_in``."""
    rh = water_spec(spec)
    lay = compile_layout(rh, spec)
    read = {channel for channel, _ in lay.columns}.difference(_CONTROLS, _PREDICTIONS)
    shared = tuple(c for c in column_names(spec.n_neighbors) if c in read)
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
        channel, lag = entry[-1]
        trailing.append((_PREDICTIONS[channel], lag, 1) if channel in _PREDICTIONS
                        else (0, 0, 0))
    return _Kernel(lay, len(layout(rh)), shared, *_index(other), *_index(control),
                   *_index(trailing), _readonly(np.array(ones, dtype=np.intp)))


@dataclass(frozen=True, eq=False)
class _Template:
    """What the maps and forms of a run of periods read that nothing
    measured changes.

    Stage 1's columns run over the periods and, within period p, over the
    ``n_comb[p]`` combinations of options of the periods ``lo..p`` that its
    control lags reach, period ``lo``'s option the least significant digit,
    as in the walk's rows; ``own`` holds each column's inlet and flow of
    period p.  ``values`` holds the value table's control rows, ``(control
    rows, s, columns)``; step j of column i is step ``step[j, i]`` of the
    run.  The value-table slots ``rec`` (row, step and column indices) read
    recorded controls instead, ``rec_from`` (control plane and position
    indices).  A basis buffer is laid out as a period's ``w`` entry
    positions and ``s`` steps plus an exact 1.0 (or 0) at position w+s,
    plane after plane: ``gather[j]`` holds the row each entry's trailing
    factor reads at step j, and ``state`` the rows before w that some step
    reads, a period's entry state.  ``next`` indexes the rows of the next
    period's entry state, ``plane * s + j`` for step j's prediction and
    ``2s + k`` for entry value k where a lag reaches past the period, and
    ``water`` is the entry value the first heating term reads.
    """

    values: np.ndarray
    n_comb: tuple[int, ...]
    step: np.ndarray
    rec: tuple[np.ndarray, ...]
    rec_from: tuple[np.ndarray, ...]
    gather: np.ndarray
    state: np.ndarray
    own: np.ndarray
    next: np.ndarray
    water: int


def _control_template(spec: RegressorSpec, choices, s: int, skip: int = 0) -> _Template:
    """The template of the plan tree ``choices`` (period p's candidate inlet
    and flow values as two arrays) at ``s`` samples per period, without the
    columns of its first ``skip`` periods."""
    kern = _kernel(spec)
    w = warmup(spec)
    sizes = [len(inlet) for inlet, _ in choices]
    lo = np.maximum(np.arange(len(sizes)) - kern.depth(s), 0)
    n_comb = tuple(math.prod(sizes[a:p + 1]) for p, a in enumerate(lo))[skip:]
    # column i is combination comb[i] of period period[i]
    period = np.repeat(np.arange(skip, len(sizes)), n_comb)
    comb = np.arange(len(period)) - np.repeat(np.cumsum((0,) + n_comb[:-1]), n_comb)
    step = period * s + np.arange(s)[:, None]
    # step k (position w+1+k) reads the controls applied at position
    # w+1+k-lag: recorded ones before w, those of period (pos - w) // s after
    pos = w + 1 + step - kern.control_lag[:, None, None]
    q = np.maximum(pos - w, 0) // s
    # period q's digit of a combination of periods lo..p weighs the option
    # counts of periods lo..q-1
    radix = np.cumprod([1] + sizes)

    def digit(q):
        return comb // (radix[q] // radix[lo[period]]) % np.array(sizes)[q]

    table = np.zeros((2, len(sizes), max(sizes)))
    for p, options in enumerate(choices):
        table[:, p, :sizes[p]] = options
    rec = np.nonzero(pos < w)
    width = w + s + 1
    gather = np.where(kern.has_pred, kern.pred_plane * width - kern.pred_lag
                      + np.arange(w, w + s)[:, None], w + s)
    state = np.flatnonzero(np.bincount(gather[gather % width < w]))
    # the next period's entry value at position i is this period's at i + s
    # (every layout reads its predictions at lags 1..d, so that is in the state)
    entry = {divmod(int(row), width): k for k, row in enumerate(state)}
    nxt = [plane * s + i + s - w if i + s >= w else 2 * s + entry[plane, i + s]
           for plane, i in entry]
    return _Template(_readonly(table[kern.control_plane[:, None, None], q, digit(q)]),
                     n_comb, _readonly(step - skip * s),
                     tuple(map(_readonly, (kern.control_rows[rec[0]], *rec[1:]))),
                     tuple(map(_readonly, (kern.control_plane[rec[0]], pos[rec]))),
                     _readonly(gather), _readonly(state),
                     _readonly(table[:, period, digit(period)]),
                     _readonly(np.array(nxt, dtype=np.intp)), entry[1, w - 1])


def _maps(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
          tpl: _Template, shared: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """Stages 1 and 2 over the columns of ``tpl``: ``(2, s, state values +
    1, columns)``, each plane and step's factor of every entry state value,
    the offset last.  ``shared`` holds the plan-independent signals and
    ``controls`` the recorded controls by position, position ``w`` the
    sample before the first step.  Every array is allocated here, per call.
    """
    kern = _kernel(spec)
    w = warmup(spec)
    s = tpl.step.shape[0]
    coef = np.concatenate((theta_w, theta_r))
    # the shared value-table rows at each step of the run
    shared_at = shared[kern.shared_channel[:, None],
                       np.arange(w + 1, shared.shape[1]) - kern.shared_lag[:, None]]

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
    return basis.reshape(2, width, len(state) + 1, -1)[:, w:w + s]


def _forms(maps: np.ndarray, tpl: _Template, occ: np.ndarray,
           cfg: MpcConfig) -> np.ndarray:
    """The stacked cost form of every column of ``tpl`` from its ``maps``:
    ``(K + 1, 2K + 1, columns)`` for K entry state values, ``forms[k, i, c]``
    the weight of ``x~_k`` in row i of column c's form on ``x~ = [x - t_set;
    1]``.  Rows 0..K are the period-cost form Q: ``x~ . (Q x~)`` is the
    period's comfort, heating and pump cost.  Rows K+1.. are the next period's
    entry state minus ``t_set``.  ``occ`` is the occupancy at each column's
    steps, ``(s, columns)``.
    """
    _, s, k1, n = maps.shape
    t_set = cfg.t_set
    # rows[:, plane, j]: the prediction at step j minus t_set, on x~
    rows = np.moveaxis(maps, 2, 0).copy()
    gain = sum_entries(rows[:-1].reshape(k1 - 1, -1)).reshape(2, s, n)
    rows[-1] -= t_set * (1.0 - gain)
    # comfort: Q[i, k] = sum_j (a_j[i] * alpha / n_hor * occ_j) * a_j[k]
    zone = rows[:, 0].transpose(1, 0, 2)
    weighted = zone * (cfg.alpha / cfg.n_hor * occ)[:, None]
    q = sum_entries((weighted[:, :, None] * zone[:, None]).reshape(s, -1))
    q = q.reshape(k1, k1, n)
    # heating: beta * t_sam (times the flow gate) per kelvin of the sum of
    # (inlet - outlet) at the entry's last water value and first s - 1 steps
    water = np.zeros((s, k1, n))
    water[0, tpl.water] = 1.0
    water[1:] = rows[:, 1, :s - 1].transpose(1, 0, 2)
    outlet = sum_entries(water.reshape(s, -1)).reshape(k1, n)
    inlet, flow = tpl.own
    per_kelvin = stage_costs(cfg, t_r=t_set, t_w=0.0, occ=0.0, inlet=1.0, flow=flow)[1]
    inflow = np.zeros((k1, n))
    inflow[-1] = s * (inlet - t_set)
    q[-1] += (inflow - outlet) * per_kelvin
    # pump: gamma * t_sam per sample of the period's flow, a constant
    q[-1, -1] += cfg.gamma * cfg.t_sam * s * flow
    # the next entry state: this period's predictions, or entry values that
    # lags reach past the period
    units = np.broadcast_to(np.eye(k1, k1 - 1)[:, :, None], (k1, k1 - 1, n))
    source = np.concatenate((rows.reshape(k1, 2 * s, n), units), axis=1)
    return np.concatenate((q.transpose(1, 0, 2), source[:, tpl.next]), axis=1)


def _walk(forms: list[np.ndarray], entry: np.ndarray, cost: float,
          m: int) -> np.ndarray:
    """The cost of every plan of a tree of ``m`` options per period, by
    row: ``cost`` plus each period's ``x~ . (Q x~)``, where x~ is ``entry``
    in period 0 and after it the previous period's next-state rows times its
    x~.  ``forms[p]`` holds period p's forms by combination; period p's row
    ``o * R + r`` is option o after row r of the R rows before it, so the
    rows of a combination are a contiguous block."""
    k1 = len(entry)
    x, costs = entry.reshape(k1, 1, 1), np.array([cost])
    for p, f in enumerate(forms):
        groups = f.shape[2] // m  # period p's combinations per option
        if p == len(forms) - 1:
            f = f[:, :k1]  # the last period's next state is not read
        x = x.reshape(k1, 1, groups, -1)
        y = np.empty((f.shape[1] + 1, m, *x.shape[2:]))
        y[-1] = 1.0
        sum_entries((f.reshape(*f.shape[:2], m, groups, 1) * x[:, None]).reshape(k1, -1),
                    out=y[:-1].reshape(-1))
        costs = (costs + sum_entries((x * y[:k1]).reshape(k1, -1)).reshape(m, -1)).ravel()
        x = y[k1:]
    return costs


def _window_signals(spec: RegressorSpec,
                    win: DecisionWindow) -> tuple[np.ndarray, np.ndarray]:
    """The plan-independent signals and the recorded controls of ``win``
    from the ``w`` positions before its decision sample on."""
    lo = win.past - warmup(spec)
    return tuple(np.array([win.columns[c][lo:] for c in channels], dtype=float)
                 for channels in (_kernel(spec).shared, _CONTROLS))


def _tail(theta_w: np.ndarray, spec: RegressorSpec, win: DecisionWindow) -> np.ndarray:
    """The zone and water values of the ``w`` positions up to the decision
    sample: the measured zone temperatures and the water estimates."""
    w = warmup(spec)
    cols, lo = win.columns, win.past - w
    tail = np.empty((2, w))
    tail[0] = cols["T_r"][lo + 1:]
    tail[1, :w - 1] = cols["yhat_w"][lo + 1:]
    tail[1, w - 1] = water_estimate(theta_w, spec, cols, win.past)
    return tail


def predict_horizon(theta_r: np.ndarray, theta_w: np.ndarray,
                    spec: RegressorSpec, win: DecisionWindow, plan: ControlPlan,
                    cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multi-step rollout of the zone and water predictors under one plan.

    Returns the zone trace (length n_hor+1, position 0 is the current
    measurement) and the water-outlet trace (length n_hor), filled from
    the period maps ``solve`` builds its forms from.
    """
    n = cfg.n_hor
    if len(plan.periods) != cfg.n_periods:
        raise ConfigError(f"plan has {len(plan.periods)} periods, "
                          f"config expects {cfg.n_periods}")
    win.check(spec, n)
    s, w = cfg.samples_per_period, warmup(spec)
    tpl = _control_template(spec, [(option[:1], option[1:]) for option in
                                   np.array(plan.periods, dtype=float)], s)
    with np.errstate(all="ignore"):  # the finite check below reports divergence
        maps = _maps(theta_r, theta_w, spec, tpl, *_window_signals(spec, win))
        plane, pos = np.divmod(tpl.state, w + s + 1)
        # positions 0..w-1 up to the decision sample, then the steps
        traj = np.empty((2, w + n))
        traj[:, :w] = _tail(theta_w, spec, win)
        tmp = np.empty((2, s))
        for p in range(cfg.n_periods):
            x = traj[plane, p * s + pos]
            m = maps[..., p]
            out = traj[:, w + p * s:w + (p + 1) * s]
            np.multiply(m[:, :, 0], x[0], out=out)
            for k in range(1, len(x)):
                out += np.multiply(m[:, :, k], x[k], out=tmp)
            out += m[:, :, -1]
    zone, water = traj[0, w - 1:], traj[1, w - 1:-1]
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
    function ``solve`` ranks plans with: the sums of its ``stage_costs``,
    comfort over horizon positions 0..n_hor averaged by n_hor, heating and
    pump over positions 0..n_hor-1."""
    occ = win.columns["occ"][win.past:win.past + cfg.n_hor + 1]
    comfort, heating, pump = (float(np.sum(term)) for term in
                              stage_costs(cfg, *traces, occ, *plan.expand(cfg)))
    comfort /= cfg.n_hor
    return CostBreakdown(total=comfort + heating + pump, comfort=comfort,
                         heating=heating, pump=pump)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

def _choices(cfg: MpcConfig, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """A plan tree of ``n`` periods, each over every option in tie-break order."""
    inlet, flow = np.array(cfg.options(), dtype=float).T
    return [(inlet, flow)] * n


@functools.lru_cache(maxsize=8)
def _plan_template(spec: RegressorSpec, cfg: MpcConfig) -> _Template:
    """The control template of ``solve``'s plan tree, built once per spec
    and config."""
    n_plans = cfg.n_options ** cfg.n_periods
    if n_plans > cfg.plan_budget:
        raise ConfigError(f"enumeration of {n_plans} plans exceeds the budget "
                          f"of {cfg.plan_budget}")
    return _control_template(spec, _choices(cfg, cfg.n_periods), cfg.samples_per_period)


@functools.lru_cache(maxsize=32)
def _chunk_template(spec: RegressorSpec, cfg: MpcConfig, count: int) -> _Template:
    """The template of ``count`` consecutive periods of a closed loop: the
    last ``count`` periods of a plan tree ``depth`` periods longer, whose
    steps read no recorded control."""
    s = cfg.samples_per_period
    depth = _kernel(spec).depth(s)
    return _control_template(spec, _choices(cfg, depth + count), s, skip=depth)


def _decision_forms(theta_r, theta_w, spec, win, cfg) -> list[np.ndarray]:
    """Each period's forms of ``solve``'s plan tree, from the decision
    window: period 0's steps read the recorded controls."""
    tpl = _plan_template(spec, cfg)
    maps = _maps(theta_r, theta_w, spec, tpl, *_window_signals(spec, win))
    forms = _forms(maps, tpl, win.columns["occ"][win.past + 1:][tpl.step], cfg)
    return np.split(forms, np.cumsum(tpl.n_comb[:-1]), axis=2)


class _EpisodeForms:
    """The forms of a closed loop's periods, by period of the episode.

    Period q's forms cover every combination of options of the periods
    ``q - depth .. q`` that its control lags reach, period ``q - depth``'s
    option the least significant digit, and read the scenario's forecast:
    they do not depend on the state, so each period's are built once,
    ``_CHUNK`` periods at a time, and dropped once no decision reads them.
    """

    def __init__(self, theta_r, theta_w, spec: RegressorSpec, cfg: MpcConfig,
                 columns: Mapping[str, np.ndarray]):
        self.thetas, self.spec, self.cfg, self.columns = (theta_r, theta_w), spec, cfg, columns
        self.by_period: dict[int, np.ndarray] = {}

    def horizon(self, period: int, applied: tuple[int, ...]) -> list[np.ndarray]:
        """The forms of the plan tree of the decision that starts ``period``
        after the options ``applied`` (indices into ``cfg.options()``) in
        the ``depth`` periods before it, oldest first."""
        cfg, m, d = self.cfg, self.cfg.n_options, len(applied)
        for q in range(period, period + cfg.n_periods):
            if q not in self.by_period:
                self._build(q)
        for q in [q for q in self.by_period if q < period]:
            del self.by_period[q]
        forms = []
        for p in range(cfg.n_periods):
            f = self.by_period[period + p]
            if p < d:
                # the combinations whose digits before the decision are the
                # applied options
                known = sum(a * m ** i for i, a in enumerate(applied[p:]))
                f = f[..., known + m ** (d - p) * np.arange(m ** (p + 1))]
            forms.append(f)
        return forms

    def _build(self, first: int) -> None:
        cfg, spec = self.cfg, self.spec
        s, w = cfg.samples_per_period, warmup(spec)
        occ = self.columns["occ"]
        # the periods from ``first`` on whose last comfort term the scenario holds
        count = min(_CHUNK, (len(occ) - 1) // s - first)
        tpl = _chunk_template(spec, cfg, count)
        k = first * s
        shared = np.array([self.columns[c][k - w:k + 1 + count * s]
                           for c in _kernel(spec).shared], dtype=float)
        maps = _maps(*self.thetas, spec, tpl, shared, np.empty((2, 0)))
        forms = _forms(maps, tpl, occ[k + 1:][tpl.step], cfg)
        self.by_period.update(enumerate(np.split(forms, count, axis=2), start=first))


def _plan_costs(theta_r, theta_w, spec, win, cfg, forms=None) -> np.ndarray:
    """Total cost of every plan, in enumeration order (``forms`` as for
    ``solve``); ``DivergenceError`` unless every cost is finite.  A
    non-finite value of the window or of a form reaches the cost of every
    plan that reads it through the products and sums, so this catches every
    diverged rollout, and also costs that overflow."""
    win.check(spec, cfg.n_hor)
    tpl = _plan_template(spec, cfg)
    with np.errstate(all="ignore"):  # the finite check below reports divergence
        if forms is None:
            forms = _decision_forms(theta_r, theta_w, spec, win, cfg)
        plane, pos = np.divmod(tpl.state, warmup(spec) + cfg.samples_per_period + 1)
        x = _tail(theta_w, spec, win)[plane, pos] - cfg.t_set
        z = float(win.columns["T_r"][win.past]) - cfg.t_set
        cost = cfg.alpha / cfg.n_hor * float(win.columns["occ"][win.past]) * z * z
        m = cfg.n_options
        # the walk's rows weigh period p's option by m**p: reversed axes give
        # enumeration order, the earliest period most significant
        costs = _walk(forms, np.append(x, 1.0), cost, m)
    costs = costs.reshape((m,) * cfg.n_periods).T.ravel()
    if not np.all(np.isfinite(costs)):
        raise DivergenceError("plan costs are not finite: a rollout diverged "
                              "or a cost overflowed")
    return costs


def solve(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
          win: DecisionWindow, cfg: MpcConfig, forms=None) -> ControlPlan:
    """Exhaustively enumerate all admissible plans and return the cheapest
    (first minimum in tie-break order).

    ``forms``, when given, is the list of each period's forms of the
    decision's plan tree (``closed_loop_run`` passes the ones it builds once
    per period of the episode, before the decision); without it they are
    built from ``win`` by the same code.
    """
    costs = _plan_costs(theta_r, theta_w, spec, win, cfg, forms)
    options, n = cfg.options(), cfg.n_periods
    # the cheapest plan's digits, the earliest period most significant
    i, m = int(np.argmin(costs)), len(options)
    return ControlPlan(periods=tuple(options[i // m ** (n - 1 - p) % m] for p in range(n)))


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
        write_csv(path, ["t_hours", "T_r_plant", "plan_inlet", "plan_flow",
                         "run_avg_comfort", "run_avg_heating", "run_avg_pump"],
                  [self.t_hours, self.t_r_plant, self.inlet, self.flow,
                   self.run_avg_comfort, self.run_avg_heating, self.run_avg_pump])


def realized_costs(t_r_true, t_w_true, occ, inlet, flow,
                   cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running averages of the realized comfort, heating and pump
    ``stage_costs`` (plant truth, not predictions)."""
    steps = np.arange(1, len(t_r_true) + 1)
    return tuple(np.cumsum(term) / steps
                 for term in stage_costs(cfg, t_r_true, t_w_true, occ, inlet, flow))


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
    those logs and of the scenario.  Its plan costs read the cost forms the
    episode builds once per period from the scenario, except where its
    horizon reads controls that no decision applied (the first decision
    after the bootstrap), which builds its own from the window.
    """
    if abs(sim_cfg.epsilon - cfg.t_sam) > 1e-9:
        raise ConfigError("simulator sampling period and t_sam must agree")
    for name, layout_spec, theta in (("theta_r", spec, theta_r),
                                     ("theta_w", water_spec(spec), theta_w)):
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
    columns = {"T_r": t_r, "yhat_w": yhat_w, "Tw_in": tw_in, "Vw": vw, **scen.columns}
    warm = warmup(spec)
    current = None  # (inlet, flow) applied during the current period
    s = cfg.samples_per_period
    options = cfg.options()
    depth = _kernel(spec).depth(s)
    episode = _EpisodeForms(theta_r, theta_w, spec, cfg, columns)
    decided: dict[int, int] = {}  # the option each decision applied, by period

    signals = float_rows(n, noise, scen.occ, scen.neighbors[0])

    def control(k, t_r_true):
        nonlocal current
        noise_k, occ_k, t_out_k = next(signals)
        t_r[k] = t_r_true + noise_k
        if k < warm or (current is None and k % s != 0):
            # bootstrap: hysteresis with the heating-curve inlet
            flow_k = hysteresis_control(t_r[k], t_r[max(k - 1, 0)], occ_k > 0,
                                        sim_cfg.hysteresis)
            inlet_k = heating_curve(sim_cfg.hysteresis.t_set, t_out_k,
                                    sim_cfg.heating_curve)
        else:
            if k % s == 0:
                win = DecisionWindow.at(columns, k, warm, n_hor)
                period = k // s
                # the episode's forms serve a decision once decisions applied
                # every control its horizon reads
                applied = tuple(decided.get(q) for q in range(period - depth, period))
                forms = None if None in applied else episode.horizon(period, applied)
                current = solve(theta_r, theta_w, spec, win, cfg, forms=forms).periods[0]
                decided[period] = options.index(current)
            inlet_k, flow_k = current

        # controller-side water estimate, then record the sample
        yhat_w[k] = water_estimate(theta_w, spec, columns, k) if k >= 1 else t_r[k]
        tw_in[k], vw[k] = inlet_k, flow_k
        return inlet_k, flow_k

    # a diverging decision or plant step is reported by its own finite check,
    # not by numpy's warnings
    with np.errstate(all="ignore"):
        t_r_plant, t_w_plant, inlet_log, flow_log = simulate(params, sim_cfg, scen, n,
                                                             control)
        costs = realized_costs(t_r_plant, t_w_plant, scen.occ[:n], inlet_log, flow_log, cfg)
    return EpisodeReport(scen.t_hours[:n], t_r_plant, t_w_plant, inlet_log, flow_log,
                         scen.occ[:n].copy(), *costs)
