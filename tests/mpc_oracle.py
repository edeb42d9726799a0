"""Reference rollouts and the reference controller of the MPC, kept as test
oracles.

``predict_horizon`` steps one plan through a ``LaggedHistory`` built from the
decision window's recorded past, with ``oe_predict`` (a BLAS dot per step),
and ``plan_cost`` sums the costs in Python loops.  It shares no rollout or
cost arithmetic with ``thermbench.mpc``, so the controller's plan costs are
checked against separate code; the two agree to about 1e-11 relative, not
bit for bit.

``map_rollout`` redoes the arithmetic of ``thermbench.mpc``'s period maps
one plan at a time, in Python floats and loops over the layouts' entries,
and ``form_plan_costs`` the arithmetic of its cost forms and of the walk
over the plan tree on them: ``mpc.predict_horizon`` must reproduce the
former's predictions and ``mpc.solve`` the latter's cost vectors bit for
bit.

``closed_loop_run`` is the earlier controller: it records the episode in a
``LaggedHistory``, one pushed row per sample, computes its water estimates
with ``oe_predict`` and hands ``mpc.solve`` a decision window built from that
history, without the episode's forms.  ``thermbench.mpc.closed_loop_run``
must reproduce its episodes bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from thermbench import mpc
from thermbench.errors import DivergenceError
from thermbench.identify import oe_predict
from thermbench.mpc import (ControlPlan, CostBreakdown, DecisionWindow,
                            EpisodeReport, MpcConfig, realized_costs)
from thermbench.regressors import (LaggedHistory, RegressorSpec, layout,
                                   measured_columns, warmup, water_spec)
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
    rh = water_spec(spec)
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
# period maps and cost forms, one plan at a time
# ---------------------------------------------------------------------------

#: the trajectory plane a prediction channel reads: zone 0, water 1
_PLANES = {"yhat_r": 0, "T_r": 0, "yhat_w": 1, "T_w": 1}


def _period_maps(theta_r, theta_w, spec, win, cfg):
    """What the period maps of a decision read.

    A period's steps read the predictions of its ``state``: the positions
    before its first step that some step reads, as ``(plane, offset)``, the
    zone's oldest first, then the water's.  At each step every entry is
    ``coef * f0 * f1 * ...`` left to right, times its trailing prediction
    factor or, for an entry without one, times ``one``; the water entries
    and the zone entries are each summed in order from 0.0.  Stepped through
    the period from a unit state with ``one = 0.0`` that gives each state
    value's factors ``phi_k``, from a zero state with ``one = 1.0`` the
    offset ``beta``.

    Returns ``(state, past, signals, period_map)``: ``past`` holds the zone
    and water values by window position up to the decision sample (its
    water value the estimate), ``signals`` the window's channels as Python
    floats, and ``period_map(first, controls)`` gives ``phi[k][plane][j]``,
    the offset at ``k = len(state)``, of the period whose first step is
    position ``first`` under the control sequences ``controls`` by channel.
    """
    s = cfg.samples_per_period
    win.check(spec, cfg.n_hor)
    cols, t = win.columns, win.past
    rh = water_spec(spec)
    entries = layout(rh) + layout(spec)
    n_water = len(layout(rh))
    coef = [float(c) for c in (*theta_w, *theta_r)]
    trailing = [entry[-1] for entry in entries]
    state = sorted({(_PLANES[entry[-1][0]], j - entry[-1][1]) for entry in entries
                    if entry[-1][0] in _PLANES for j in range(s) if j < entry[-1][1]})
    signals = {c: [float(v) for v in a] for c, a in cols.items()}
    past = (signals["T_r"][:t + 1],
            signals["yhat_w"][:t] + [oe_predict(theta_w, rh, history(win, spec), t)])

    # each entry's trailing read: a prediction's (plane, lag), or None for ``one``
    reads = [(_PLANES[c], lag) if c in _PLANES else None for c, lag in trailing]
    statics = [entry if r is None else entry[:-1] for entry, r in zip(entries, reads)]

    def period_map(first, controls):
        read = {**signals, **controls}
        # each entry's product up to its trailing prediction factor, by step
        prefixes = []
        for j in range(s):
            prefixes.append([])
            for i, entry in enumerate(statics):
                term = coef[i]
                for channel, lag in entry:
                    term *= read[channel][first + j - lag]
                prefixes[j].append(term)
        out = []
        for b in range(len(state) + 1):
            pred = {v: float(b == k) for k, v in enumerate(state)}
            one = float(b == len(state))
            for j in range(s):
                terms = [prefix * (one if r is None else pred[r[0], j - r[1]])
                         for prefix, r in zip(prefixes[j], reads)]
                water = zone = 0.0
                for term in terms[:n_water]:
                    water += term
                for term in terms[n_water:]:
                    zone += term
                pred[0, j], pred[1, j] = zone, water
            out.append([[pred[plane, j] for j in range(s)] for plane in (0, 1)])
        return out

    return state, past, signals, period_map


def _plan_controls(signals, t, plan, s):
    """The recorded controls and then ``plan``'s, by channel and position."""
    return {c: signals[c][:t] + [float(p[i]) for p in plan for _ in range(s)]
            for i, c in enumerate(("Tw_in", "Vw"))}


def map_rollout(theta_r, theta_w, spec, win, cfg, choices) -> tuple[np.ndarray, int]:
    """Roll every plan of the tree ``choices`` out by period maps, one plan
    at a time.

    A prediction of a period is ``phi_0 * x_0 + phi_1 * x_1 + ... + beta``
    of the plan's state ``x``, added left to right.  The maps are computed
    once per period and sequence of controls its steps read, and each plan
    prefix's predictions once.

    Returns ``(leaves, w)``: ``leaves`` has shape ``(2, w + 1 + n_hor,
    plans)`` and holds the zone and water predictions by position (0..w-1
    the recorded past, w the decision sample, w+1.. the horizon); the plans
    are in enumeration order, earliest period most significant.
    """
    n, s = cfg.n_hor, cfg.samples_per_period
    w = max(warmup(spec), 1)
    state, past, signals, period_map = _period_maps(theta_r, theta_w, spec, win, cfg)
    t = win.past
    maps, periods = {}, {}
    plans = list(itertools.product(*(list(zip(*options)) for options in choices)))
    leaves = np.empty((2, w + 1 + n, len(plans)))
    for col, plan in enumerate(plans):
        controls = _plan_controls(signals, t, plan, s)
        traj = [list(past[0]), list(past[1])]
        for p in range(len(plan)):
            first = t + 1 + p * s
            if plan[:p + 1] not in periods:
                key = (p, *(tuple(a[first - w:first + s - 1]) for a in controls.values()))
                if key not in maps:
                    maps[key] = period_map(first, controls)
                phi = maps[key]
                x = [traj[plane][first + offset] for plane, offset in state]
                steps = []
                for plane in (0, 1):
                    for j in range(s):
                        v = phi[0][plane][j] * x[0]
                        for k in range(1, len(state)):
                            v += phi[k][plane][j] * x[k]
                        steps.append(v + phi[-1][plane][j])
                periods[plan[:p + 1]] = steps
            steps = periods[plan[:p + 1]]
            traj[0] += steps[:s]
            traj[1] += steps[s:]
        leaves[:, :, col] = [a[t - w:] for a in traj]
    return leaves, w


def _form(phi, state, occ, inlet, flow, cfg) -> list[list[float]]:
    """The rows of one period's stacked cost form on ``x~ = [x - t_set; 1]``
    from its maps ``phi``: the period-cost form Q, then the next period's
    entry state minus ``t_set``.  ``occ`` is the occupancy at its steps."""
    s, t_set, k1 = cfg.samples_per_period, cfg.t_set, len(state) + 1
    # each step's prediction minus t_set: the offset beta - t_set * (1 - gain)
    rows = {}
    for plane in (0, 1):
        for j in range(s):
            gain = 0.0
            for k in range(k1 - 1):
                gain += phi[k][plane][j]
            rows[plane, j] = ([phi[k][plane][j] for k in range(k1 - 1)]
                              + [phi[-1][plane][j] - t_set * (1.0 - gain)])
    q = [[0.0] * k1 for _ in range(k1)]
    for j in range(s):
        weight, a = cfg.alpha / cfg.n_hor * occ[j], rows[0, j]
        for i in range(k1):
            for k in range(k1):
                q[i][k] += a[i] * weight * a[k]
    # the heating term reads the entry's last water value and the first
    # s - 1 water predictions
    water = state.index((1, -1))
    gate = cfg.beta * cfg.t_sam * (float(flow > 0.0) if cfg.heating_cost_gated_by_flow
                                   else 1.0)
    for k in range(k1):
        outlet = 0.0 + float(k == water)
        for j in range(s - 1):
            outlet += rows[1, j][k]
        q[-1][k] += ((s * (inlet - t_set) if k == k1 - 1 else 0.0) - outlet) * gate
    # the pump cost of the period's s samples, in the constant entry
    q[-1][-1] += cfg.gamma * cfg.t_sam * s * flow
    nxt = []
    for plane, offset in state:
        if offset + s >= 0:
            nxt.append(rows[plane, offset + s])
        else:
            nxt.append([float(k == state.index((plane, offset + s))) for k in range(k1)])
    return q + nxt


def form_plan_costs(theta_r, theta_w, spec, win, cfg) -> np.ndarray:
    """Total cost of every plan, in enumeration order, by the cost forms.

    Each plan's cost starts from the decision sample's comfort term; each
    period adds ``x~ . (Q x~)`` of its entry state ``x~``, whose products
    are summed in order from 0.0, and hands ``x~``'s next-state rows to the
    next period.  The forms are computed once per period and sequence of
    controls its steps read, and each plan prefix's walk once.
    """
    s, t_set, t = cfg.samples_per_period, cfg.t_set, win.past
    w = max(warmup(spec), 1)
    state, past, signals, period_map = _period_maps(theta_r, theta_w, spec, win, cfg)
    k1 = len(state) + 1
    z = past[0][t] - t_set
    start = ([past[plane][t + 1 + offset] - t_set for plane, offset in state] + [1.0],
             cfg.alpha / cfg.n_hor * signals["occ"][t] * z * z)
    options = cfg.options()
    plans = list(itertools.product(options, repeat=cfg.n_periods))
    forms, walks = {}, {(): start}
    out = []
    for plan in plans:
        controls = _plan_controls(signals, t, plan, s)
        for p in range(len(plan)):
            if plan[:p + 1] in walks:
                continue
            first = t + 1 + p * s
            key = (p, *(tuple(a[first - w:first + s - 1]) for a in controls.values()))
            if key not in forms:
                forms[key] = _form(period_map(first, controls), state,
                                   signals["occ"][first:first + s], *plan[p], cfg)
            x, cost = walks[plan[:p]]
            y = []
            for row in forms[key]:
                acc = 0.0
                for k in range(k1):
                    acc += row[k] * x[k]
                y.append(acc)
            quad = 0.0
            for k in range(k1):
                quad += x[k] * y[k]
            walks[plan[:p + 1]] = (y[k1:] + [1.0], cost + quad)
        out.append(walks[plan][1])
    return np.array(out)


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
    rh = water_spec(spec)

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
