"""Per-sample reference training and prediction, kept as a test oracle.

``train`` and ``predict_series`` walk the dataset one sample at a time through
a ``LaggedHistory`` and ``build_regressor``, and ``rls_update`` is the
recursive least-squares step written out without in-place arithmetic.  They
share no table, buffer or update code with ``thermbench.identify``, whose
compiled pass must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from thermbench.errors import ConfigError, NumericalError
from thermbench.identify import (RlsConfig, RlsState, TrainReport,
                                 _history_channels, _needs_rh_feed,
                                 oe_predict, rls_init, rolling_rmse,
                                 DEFAULT_RMSE_WINDOW)
from thermbench.regressors import (LaggedHistory, RegressorSpec, Structure,
                                   build_regressor, prediction_channel,
                                   regressor_length, target_column, warmup)
from thermbench.simulator import TimeSeriesDataset


def rls_update(s: RlsState, phi: np.ndarray, y: float) -> RlsState:
    """Exponentially weighted RLS step; the covariance is re-symmetrized."""
    if phi.shape != s.theta.shape:
        raise ConfigError(f"phi has shape {phi.shape}, theta {s.theta.shape}")
    lam = s.forgetting
    p_phi = s.p_matrix @ phi
    gain = p_phi / (lam + phi @ p_phi)
    theta = s.theta + gain * (y - phi @ s.theta)
    p = (s.p_matrix - np.outer(gain, p_phi)) / lam
    p = 0.5 * (p + p.T)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(p))):
        raise NumericalError(f"RLS update produced non-finite values at step {s.k}")
    return RlsState(theta=theta, p_matrix=p, forgetting=lam, k=s.k + 1)


def _row(dataset: TimeSeriesDataset, cols: list[str], k: int) -> dict[str, float]:
    return {c: float(dataset.columns[c][k]) for c in cols}


def train(dataset: TimeSeriesDataset, spec: RegressorSpec, passes: int = 1,
          rls_cfg: RlsConfig | None = None, theta_w: np.ndarray | None = None,
          window: int = DEFAULT_RMSE_WINDOW) -> TrainReport:
    """Sequential RLS over the dataset, repeated ``passes`` times.

    The estimate and covariance carry across passes; the lag history is
    rebuilt each pass.  The first ``warmup`` samples of each pass use measured
    values in place of unavailable predictions and are excluded from the loss.
    The FI zone structure needs the RH predictor for its water channel; it is
    trained first on the same data unless ``theta_w`` is given.
    """
    if passes < 0:
        raise ConfigError("passes must be non-negative")
    cols = _history_channels(spec, dataset)
    dim = regressor_length(spec)
    state = rls_init(dim, rls_cfg)
    if passes == 0:
        return TrainReport(spec=spec, theta=state.theta, errors=np.empty(0),
                           rolling_rmse=np.empty(0), window=window, pass_rmse=[])

    rh_spec = None
    if _needs_rh_feed(spec):
        rh_spec = RegressorSpec(Structure.NRM_FI_RH, spec.n_neighbors)
        if theta_w is None:
            theta_w = train(dataset, rh_spec, passes, rls_cfg, window=window).theta

    y = dataset.columns[target_column(spec)]
    pred_chan = prediction_channel(spec)
    wu = warmup(spec)
    n = len(dataset)
    errors = []
    pass_rmse = []

    for _ in range(passes):
        hist = LaggedHistory(cols)
        pass_errors = []
        for k in range(n):
            yhat = None
            yhat_w = None
            if k >= wu:
                if rh_spec is not None:
                    yhat_w = oe_predict(theta_w, rh_spec, hist, k)
                phi = build_regressor(spec, hist, k)
                yhat = float(phi @ state.theta)
            hist.push(_row(dataset, cols, k))
            if yhat is not None:
                hist.record_prediction(pred_chan, k, yhat)
                if yhat_w is not None:
                    hist.record_prediction("yhat_w", k, yhat_w)
                e = float(y[k]) - yhat
                pass_errors.append(e)
                state = rls_update(state, phi, float(y[k]))
        errors.extend(pass_errors)
        pass_rmse.append(float(np.sqrt(np.mean(np.square(pass_errors)))))

    errors = np.asarray(errors)
    return TrainReport(spec=spec, theta=state.theta, errors=errors,
                       rolling_rmse=rolling_rmse(errors, window), window=window,
                       pass_rmse=pass_rmse, theta_w=theta_w)


def predict_series(theta: np.ndarray, spec: RegressorSpec,
                   dataset: TimeSeriesDataset,
                   theta_w: np.ndarray | None = None) -> np.ndarray:
    """One-step OE predictions over a dataset with a fixed parameter vector;
    NaN during warm-up."""
    cols = _history_channels(spec, dataset)
    rh_spec = None
    if _needs_rh_feed(spec):
        if theta_w is None:
            raise ConfigError("the FI zone structure needs theta_w for prediction")
        rh_spec = RegressorSpec(Structure.NRM_FI_RH, spec.n_neighbors)
    pred_chan = prediction_channel(spec)
    wu = warmup(spec)
    n = len(dataset)
    hist = LaggedHistory(cols)
    out = np.full(n, np.nan)
    for k in range(n):
        yhat_w = None
        if k >= wu:
            if rh_spec is not None:
                yhat_w = oe_predict(theta_w, rh_spec, hist, k)
            out[k] = oe_predict(theta, spec, hist, k)
        hist.push(_row(dataset, cols, k))
        if k >= wu:
            hist.record_prediction(pred_chan, k, out[k])
            if yhat_w is not None:
                hist.record_prediction("yhat_w", k, yhat_w)
    return out
