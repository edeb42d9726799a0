"""Reference rollouts and the reference controller of the MPC, kept as test
oracles.

``predict_horizon`` steps one plan through a ``LaggedHistory`` built from the
decision window's recorded past, with ``oe_predict`` (a BLAS dot per step),
and ``plan_cost`` sums the costs in Python loops.  It shares no rollout or
cost arithmetic with ``thermbench.mpc``, so the controller's tree rollout is
checked against separate code; the two agree to about 1e-11 relative, not bit
for bit.

``tree_plan_costs`` is the earlier one-stage tree kernel: at every horizon
step it fills a value table with the plan buffers and the shared signals and
multiplies every factor of every entry over all rows, with the plans in
enumeration order.  It reads the window's past through its own
``LaggedHistory``.  The two-stage kernel of ``thermbench.mpc`` must reproduce
its cost vectors bit for bit.

``closed_loop_run`` is the earlier controller: it records the episode in a
``LaggedHistory``, one pushed row per sample, computes its water estimates
with ``oe_predict`` and hands ``mpc.solve`` a decision window built from that
history.  ``thermbench.mpc.closed_loop_run`` must reproduce its episodes bit
for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from thermbench import mpc
from thermbench.errors import DivergenceError
from thermbench.identify import oe_predict
from thermbench.mpc import (ControlPlan, CostBreakdown, DecisionWindow,
                            EpisodeReport, MpcConfig, _rh_spec, realized_costs)
from thermbench.regressors import (CompiledLayout, LaggedHistory, RegressorSpec,
                                   compile_layout, layout, measured_columns,
                                   sum_entries, warmup)
from thermbench.simulator import (heating_curve, hysteresis_control, simulate,
                                  synthesize_scenario)


def runtime_channels(spec: RegressorSpec) -> list[str]:
    """History channels a controller keeps for a zone structure plus the
    water-loop predictor."""
    cols = set(measured_columns(spec.structure, spec.n_neighbors))
    cols.update(["Vw", "Tw_in", "Ta_in", "Va", "Qext", "T_r"])
    cols.update(f"T_rj_{j}" for j in range(1, spec.n_neighbors + 1))
    cols.discard("T_w")  # the water state is tracked through yhat_w
    return sorted(cols)


def _push_rollout_row(work: LaggedHistory, *, t_r, t_w,
                      t_neighbors, ta_in, va, qext, occ, tw_in, vw) -> None:
    row = {"T_r": t_r, "Ta_in": ta_in, "Va": va, "Qext": qext, "occ": occ,
           "Tw_in": tw_in, "Vw": vw, "T_w": t_w}
    for j, v in enumerate(t_neighbors, start=1):
        row[f"T_rj_{j}"] = v
    work.push({c: row[c] for c in work.channels if c in row})


def _neighbors(win: DecisionWindow, i: int) -> tuple[float, ...]:
    n = sum(c.startswith("T_rj_") for c in win.columns)
    return tuple(float(win.columns[f"T_rj_{j}"][i]) for j in range(1, n + 1))


def history(win: DecisionWindow, spec: RegressorSpec) -> LaggedHistory:
    """The recorded past of ``win`` as a controller history, one pushed row
    per position."""
    cols = win.columns
    hist = LaggedHistory(runtime_channels(spec), extra_predictions=("yhat_w",))
    for i in range(win.past):
        _push_rollout_row(hist, t_r=cols["T_r"][i], t_w=cols["yhat_w"][i],
                          t_neighbors=_neighbors(win, i), ta_in=cols["Ta_in"][i],
                          va=cols["Va"][i], qext=cols["Qext"][i], occ=cols["occ"][i],
                          tw_in=cols["Tw_in"][i], vw=cols["Vw"][i])
        hist.record_prediction("yhat_w", i, cols["yhat_w"][i])
    return hist


def predict_horizon(theta_r: np.ndarray, theta_w: np.ndarray,
                    spec: RegressorSpec, win: DecisionWindow,
                    plan: ControlPlan, cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multi-step rollout of the zone and water predictors under one plan.

    Returns the zone trace (length n_hor+1, position 0 is the current
    measurement) and the water-outlet trace (length n_hor).
    """
    n = cfg.n_hor
    if n == 0:
        return np.empty(0), np.empty(0)
    win.check(spec, n)
    rh = _rh_spec(spec)
    inlet_seq, flow_seq = plan.expand(cfg)
    work = history(win, spec)
    t = len(work)
    cols = win.columns

    def now(c, kappa):
        return float(cols[c][t + kappa])

    t_r_trace = np.empty(n + 1)
    t_w_trace = np.empty(n)
    t_r_trace[0] = now("T_r", 0)

    # current water estimate from the recorded history (plan independent)
    yhat_w = oe_predict(theta_w, rh, work, t) if t >= 1 else t_r_trace[0]
    t_w_trace[0] = yhat_w
    _push_rollout_row(work, t_r=t_r_trace[0], t_w=yhat_w,
                      t_neighbors=_neighbors(win, t), ta_in=now("Ta_in", 0),
                      va=now("Va", 0), qext=now("Qext", 0), occ=now("occ", 0),
                      tw_in=inlet_seq[0], vw=flow_seq[0])
    work.record_prediction("yhat_w", t, yhat_w)

    for kappa in range(1, n + 1):
        idx = t + kappa
        yhat_w = oe_predict(theta_w, rh, work, idx)
        yhat_r = oe_predict(theta_r, spec, work, idx)
        if not (math.isfinite(yhat_r) and math.isfinite(yhat_w)):
            raise DivergenceError(f"rollout diverged at horizon step {kappa}")
        t_r_trace[kappa] = yhat_r
        if kappa < n:
            t_w_trace[kappa] = yhat_w
        s = min(kappa, n - 1)
        _push_rollout_row(work, t_r=yhat_r, t_w=yhat_w,
                          t_neighbors=_neighbors(win, idx), ta_in=now("Ta_in", kappa),
                          va=now("Va", kappa), qext=now("Qext", kappa),
                          occ=now("occ", kappa), tw_in=inlet_seq[s], vw=flow_seq[s])
        work.record_prediction("yhat_r", idx, yhat_r)
        work.record_prediction("yhat_w", idx, yhat_w)
    return t_r_trace, t_w_trace


def plan_cost(traces: tuple[np.ndarray, np.ndarray], plan: ControlPlan,
              win: DecisionWindow, cfg: MpcConfig) -> CostBreakdown:
    """Comfort, heating and pump cost of one rolled-out plan.

    The comfort sum runs over horizon positions 0..n_hor and is averaged by
    n_hor; heating and pump sum positions 0..n_hor-1.  The heating term is
    beta * t_sam * (inlet - predicted outlet), optionally multiplied by an
    indicator that the flow is nonzero.
    """
    t_r_trace, t_w_trace = traces
    n = cfg.n_hor
    if n == 0 or len(t_r_trace) == 0:
        return CostBreakdown(0.0, 0.0, 0.0, 0.0)
    inlet_seq, flow_seq = plan.expand(cfg)
    occ = win.columns["occ"][win.past:]

    comfort = float(occ[0]) * (t_r_trace[0] - cfg.t_set) ** 2
    for kappa in range(1, n + 1):
        comfort += float(occ[kappa]) * (t_r_trace[kappa] - cfg.t_set) ** 2
    comfort = cfg.alpha * comfort / n

    heating = 0.0
    pump = 0.0
    for k in range(n):
        gate = (1.0 if flow_seq[k] > 0.0 else 0.0) \
            if cfg.heating_cost_gated_by_flow else 1.0
        heating += cfg.beta * cfg.t_sam * (inlet_seq[k] - t_w_trace[k]) * gate
        pump += cfg.gamma * cfg.t_sam * flow_seq[k]
    return CostBreakdown(total=comfort + heating + pump, comfort=comfort,
                         heating=heating, pump=pump)


def scalar_costs(theta, theta_w, spec, win, cfg, plans):
    """Total cost of each plan (a tuple of per-period (inlet, flow) pairs)."""
    out = []
    for periods in plans:
        plan = ControlPlan(periods)
        traces = predict_horizon(theta, theta_w, spec, win, plan, cfg)
        out.append(plan_cost(traces, plan, win, cfg).total)
    return out


# ---------------------------------------------------------------------------
# one-stage tree kernel
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
             win: DecisionWindow, cfg: MpcConfig, choices) -> tuple[np.ndarray, int]:
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
    win.check(spec, n)
    hist = history(win, spec)
    t = len(hist)
    total = w + 1 + n
    kern = _kernel(spec)

    # plan-independent signals by position: recorded, then the decision
    # sample and the forecast; the last row is the constant 1.0
    shared = np.empty((len(kern.shared) + 1, total))
    for i, c in enumerate(kern.shared):
        shared[i, :w] = [hist.get(c, k) for k in range(t - w, t)]
        shared[i, w:] = win.columns[c][t:]
    shared[-1] = 1.0
    # the shared rows of the value table at each horizon step
    shared_at = shared[kern.shared_channel,
                       np.arange(w + 1, total)[:, None] - kern.shared_lag]

    buffers = np.zeros((4, total, 1))
    for c in ("yhat_r", "yhat_w", "Tw_in", "Vw"):
        buffers[_PLAN_BUFFERS[c], :w, 0] = [hist.get(c, k) for k in range(t - w, t)]
    buffers[0, w] = win.columns["T_r"][t]
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
           flow: np.ndarray, occ_path: np.ndarray, cfg: MpcConfig):
    """Comfort, heating and pump cost of each row (one plan per row).

    ``t_r`` and the occupancy ``occ_path`` cover horizon positions
    0..n_hor, the others 0..n_hor-1.  The
    comfort sum is averaged by n_hor; the heating term is
    beta * t_sam * (inlet - predicted outlet), optionally multiplied by an
    indicator that the flow is nonzero.  The terms of each optimization
    period are added in order, and the periods' sums in turn, the comfort
    starting from the decision sample's term and the heating from 0.0: the
    association of ``thermbench.mpc``'s per-period sums.  The pump cost is
    numpy's sum of a C-ordered row.
    """
    n, s = cfg.n_hor, cfg.samples_per_period
    comfort_terms = occ_path * (t_r - cfg.t_set) ** 2
    gate = (flow > 0.0).astype(float) if cfg.heating_cost_gated_by_flow else 1.0
    heating_terms = (inlet - t_w) * gate
    comfort, heating = comfort_terms[:, 0], np.zeros(len(t_w))
    for start in range(0, n, s):
        c, h = comfort_terms[:, 1 + start], heating_terms[:, start]
        for k in range(start + 1, start + s):
            c = c + comfort_terms[:, 1 + k]
            h = h + heating_terms[:, k]
        comfort = comfort + c
        heating = heating + h
    comfort = cfg.alpha * comfort / n
    heating = cfg.beta * cfg.t_sam * heating
    pump = cfg.gamma * cfg.t_sam * np.sum(np.ascontiguousarray(flow), axis=1)
    return comfort, heating, pump


def tree_plan_costs(theta_r, theta_w, spec, win, cfg) -> np.ndarray:
    """Total cost of every plan, in enumeration order."""
    n = cfg.n_hor
    options = cfg.options()
    inlet = np.array([i for i, _ in options], dtype=float)
    flow = np.array([f for _, f in options], dtype=float)
    buffers, w = _rollout(theta_r, theta_w, spec, win, cfg,
                          [(inlet, flow)] * cfg.n_periods)
    # (plans, positions) views of the leaves
    t_r, t_w, inlet_seq, flow_seq = (buffers[b, w:w + n + (b == 0)].T
                                     for b in range(4))
    occ_path = np.asarray(win.columns["occ"][win.past:], dtype=float)
    comfort, heating, pump = _costs(t_r, t_w, inlet_seq, flow_seq, occ_path, cfg)
    return comfort + heating + pump


# ---------------------------------------------------------------------------
# LaggedHistory controller
# ---------------------------------------------------------------------------

def _window(hist: LaggedHistory, w: int, t_r: float, exogenous: dict, k: int,
            n_hor: int) -> DecisionWindow:
    """The decision window at sample ``k``: the last ``w`` samples of
    ``hist``, the measured ``t_r`` and the scenario's ``exogenous`` signals
    from ``k`` on (its occupancy over every position)."""
    t = len(hist)

    def past(c):
        return np.array([hist.get(c, i) for i in range(t - w, t)])

    cols = {c: past(c) for c in ("yhat_w", "Tw_in", "Vw")}
    cols["T_r"] = np.append(past("T_r"), t_r)
    for c, a in exogenous.items():
        cols[c] = (a[k - w:k + 1 + n_hor] if c == "occ"
                   else np.concatenate((past(c), a[k:k + 1 + n_hor])))
    return DecisionWindow(cols)


def closed_loop_run(params, sim_cfg, cfg: MpcConfig, spec: RegressorSpec,
                    theta_r: np.ndarray, theta_w: np.ndarray) -> EpisodeReport:
    """Receding-horizon episode against the RK4 plant, recorded in a
    ``LaggedHistory``; every decision is ``mpc.solve`` on a window built
    from it."""
    n = sim_cfg.n_samples
    n_hor = cfg.n_hor
    rng = np.random.default_rng(sim_cfg.seed)
    scen = synthesize_scenario(sim_cfg.disturbance_spec, sim_cfg.epsilon,
                               n + n_hor + 1, rng)
    noise = (rng.normal(0.0, sim_cfg.noise_std, size=n) if sim_cfg.noise_std > 0
             else np.zeros(n))
    q_ext = scen.q_ext
    exogenous = {**{f"T_rj_{j}": nb for j, nb in enumerate(scen.neighbors, start=1)},
                 "Ta_in": scen.ta_in, "Va": scen.va, "Qext": q_ext, "occ": scen.occ}
    rh = _rh_spec(spec)

    hist = LaggedHistory(runtime_channels(spec), extra_predictions=("yhat_w",))
    warm = max(warmup(spec), 1)
    t_r_prev_meas = None
    current = None  # (inlet, flow) applied during the current period

    def control(k, t_r_true):
        nonlocal t_r_prev_meas, current
        t_r_meas = t_r_true + noise[k]
        if k < warm or (current is None and k % cfg.samples_per_period != 0):
            # bootstrap: hysteresis with the heating-curve inlet
            prev = t_r_meas if t_r_prev_meas is None else t_r_prev_meas
            flow_k = hysteresis_control(t_r_meas, prev, scen.occ[k] > 0,
                                        sim_cfg.hysteresis)
            inlet_k = heating_curve(sim_cfg.hysteresis.t_set, scen.neighbors[0][k],
                                    sim_cfg.heating_curve)
        else:
            if k % cfg.samples_per_period == 0 or current is None:
                win = _window(hist, warm, float(t_r_meas), exogenous, k, n_hor)
                current = mpc.solve(theta_r, theta_w, spec, win, cfg).periods[0]
            inlet_k, flow_k = current

        # controller-side water estimate, then record the sample
        yhat_w_k = oe_predict(theta_w, rh, hist, k) if k >= 1 else float(t_r_meas)
        _push_rollout_row(hist, t_r=float(t_r_meas), t_w=yhat_w_k,
                          t_neighbors=tuple(float(nb[k]) for nb in scen.neighbors),
                          ta_in=float(scen.ta_in[k]), va=float(scen.va[k]),
                          qext=float(q_ext[k]), occ=float(scen.occ[k]),
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
