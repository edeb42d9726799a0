"""Scalar reference rollout of the MPC predictors, kept as a test oracle.

``predict_horizon`` steps one plan through a copy of the controller's
``LaggedHistory`` with ``oe_predict`` (a BLAS dot per step) and ``plan_cost``
sums the costs in Python loops.  It shares no rollout or cost arithmetic with
``thermbench.mpc``, so the controller's tree rollout is checked against
separate code; the two agree to about 1e-11 relative, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from thermbench.errors import DivergenceError
from thermbench.identify import oe_predict
from thermbench.mpc import (ControlPlan, CostBreakdown, HorizonForecast,
                            MpcConfig, _push_rollout_row, _rh_spec)
from thermbench.regressors import LaggedHistory, RegressorSpec


def predict_horizon(theta_r: np.ndarray, theta_w: np.ndarray,
                    spec: RegressorSpec, hist: LaggedHistory,
                    plan: ControlPlan, forecast: HorizonForecast,
                    cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multi-step rollout of the zone and water predictors under one plan.

    Returns the zone trace (length n_hor+1, position 0 is the current
    measurement) and the water-outlet trace (length n_hor).  The caller's
    history is not modified.
    """
    n = cfg.n_hor
    if n == 0:
        return np.empty(0), np.empty(0)
    forecast.check_length(n)
    rh = _rh_spec(spec)
    inlet_seq, flow_seq = plan.expand(cfg)
    work = hist.copy()
    t = len(work)

    t_r_trace = np.empty(n + 1)
    t_w_trace = np.empty(n)
    t_r_trace[0] = forecast.now.t_r

    # current water estimate from the recorded history (plan independent)
    yhat_w = oe_predict(theta_w, rh, work, t) if t >= 1 else forecast.now.t_r
    t_w_trace[0] = yhat_w
    _push_rollout_row(work, t_r=forecast.now.t_r, t_w=yhat_w,
                      t_neighbors=forecast.now.t_neighbors,
                      ta_in=forecast.now.ta_in, va=forecast.now.va,
                      qext=forecast.now.qext, occ=forecast.now.occ,
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
                          t_neighbors=tuple(float(a[kappa - 1])
                                            for a in forecast.t_neighbors),
                          ta_in=float(forecast.ta_in[kappa - 1]),
                          va=float(forecast.va[kappa - 1]),
                          qext=float(forecast.qext[kappa - 1]),
                          occ=float(forecast.occ[kappa - 1]),
                          tw_in=inlet_seq[s], vw=flow_seq[s])
        work.record_prediction("yhat_r", idx, yhat_r)
        work.record_prediction("yhat_w", idx, yhat_w)
    return t_r_trace, t_w_trace


def plan_cost(traces: tuple[np.ndarray, np.ndarray], plan: ControlPlan,
              forecast: HorizonForecast, cfg: MpcConfig) -> CostBreakdown:
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

    comfort = forecast.now.occ * (t_r_trace[0] - cfg.t_set) ** 2
    for kappa in range(1, n + 1):
        comfort += float(forecast.occ[kappa - 1]) * (t_r_trace[kappa] - cfg.t_set) ** 2
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


def scalar_costs(theta, theta_w, spec, hist, forecast, cfg, plans):
    """Total cost of each plan (a tuple of per-period (inlet, flow) pairs)."""
    out = []
    for periods in plans:
        plan = ControlPlan(periods)
        traces = predict_horizon(theta, theta_w, spec, hist, plan, forecast, cfg)
        out.append(plan_cost(traces, plan, forecast, cfg).total)
    return out
