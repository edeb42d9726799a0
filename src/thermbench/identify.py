"""Output-error prediction and regularized recursive least-squares training.

Training runs sequentially over the dataset (optionally several passes, with
the estimate and covariance carried across passes and the predictions reset),
feeding the predictor its own past outputs.  The report keeps the per-step
one-step-ahead errors and a rolling RMSE over a configurable window.

Training and ``predict_series`` share one output-error pass, ``_oe_pass``.
Every regressor entry is a static product of measured, lagged columns times
at most one trailing prediction factor (see :mod:`thermbench.regressors`).
The static products for the whole dataset are evaluated once per ``train``
call, by the spec's ``compile_layout`` with an exact 1.0 in place of each
prediction factor.  Each step then copies its row, multiplies the prediction
entries by the lagged predictions and takes one dot product: the same
arithmetic as ``build_regressor`` over a ``LaggedHistory``, which stays as
the readable per-sample reference (``oe_predict``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .regressors import (PREDICTION_MIRRORS, LaggedHistory, RegressorSpec,
                         Structure, build_regressor, compile_layout,
                         measured_columns, prediction_channel,
                         regressor_length, target_column, warmup)
from .simulator import TimeSeriesDataset

DEFAULT_RMSE_WINDOW = 2016  # samples; 7 days at 5-minute sampling


@dataclass(frozen=True)
class RlsConfig:
    """Forgetting factor, initial-covariance scale and initial estimate."""

    forgetting: float = 0.999
    reg_init: float = 1.0e3
    theta0: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < self.forgetting <= 1.0):
            raise ConfigError("forgetting factor must be in (0, 1]")
        if self.reg_init <= 0.0:
            raise ConfigError("reg_init must be positive")


@dataclass
class RlsState:
    theta: np.ndarray
    p_matrix: np.ndarray
    forgetting: float
    k: int = 0


def rls_init(dim: int, cfg: RlsConfig | None = None) -> RlsState:
    cfg = cfg or RlsConfig()
    theta = np.zeros(dim) if cfg.theta0 is None else np.asarray(cfg.theta0, dtype=float).copy()
    if theta.shape != (dim,):
        raise ConfigError(f"theta0 has shape {theta.shape}, expected ({dim},)")
    return RlsState(theta=theta, p_matrix=cfg.reg_init * np.eye(dim),
                    forgetting=cfg.forgetting)


def rls_update(s: RlsState, phi: np.ndarray, y: float) -> RlsState:
    """Exponentially weighted RLS step; the covariance is re-symmetrized."""
    if phi.shape != s.theta.shape:
        raise ConfigError(f"phi has shape {phi.shape}, theta {s.theta.shape}")
    lam = s.forgetting
    p_phi = s.p_matrix @ phi
    gain = p_phi / (lam + phi @ p_phi)
    theta = s.theta + gain * (y - phi @ s.theta)
    p = s.p_matrix - np.multiply.outer(gain, p_phi)
    p /= lam
    p += p.T
    p *= 0.5
    if not (np.isfinite(theta).all() and np.isfinite(p).all()):
        raise NumericalError(f"RLS update produced non-finite values at step {s.k}")
    return RlsState(theta=theta, p_matrix=p, forgetting=lam, k=s.k + 1)


@dataclass
class TrainReport:
    spec: RegressorSpec
    theta: np.ndarray
    errors: np.ndarray        # one-step errors, concatenated across passes
    rolling_rmse: np.ndarray
    window: int
    pass_rmse: list[float]
    theta_w: np.ndarray | None = None  # RH predictor used by the FI zone model

    @property
    def final_rmse(self) -> float:
        return float(self.rolling_rmse[-1]) if len(self.rolling_rmse) else float("nan")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,e,rolling_rmse\n")
            for k, (e, r) in enumerate(zip(self.errors, self.rolling_rmse)):
                fh.write(f"{k},{e:.9g},{r:.9g}\n")


def rolling_rmse(errors: np.ndarray, window: int) -> np.ndarray:
    if window < 2:
        raise ConfigError("rolling window must be at least 2")
    sq = np.concatenate(([0.0], np.cumsum(np.asarray(errors) ** 2)))
    n = len(errors)
    idx = np.arange(1, n + 1)
    lo = np.maximum(0, idx - window)
    return np.sqrt((sq[idx] - sq[lo]) / (idx - lo))


def _history_channels(spec: RegressorSpec, dataset: TimeSeriesDataset) -> list[str]:
    cols = measured_columns(spec.structure, spec.n_neighbors)
    missing = [c for c in cols if c not in dataset.columns]
    if missing:
        raise ConfigError(f"dataset lacks columns {missing} required by "
                          f"{spec.structure.value}")
    return cols


def oe_predict(theta: np.ndarray, spec: RegressorSpec, hist: LaggedHistory,
               k: int) -> float:
    """One-step prediction phi(k)^T theta with output feedback from the
    stored prediction channel."""
    return float(build_regressor(spec, hist, k) @ theta)


def _needs_rh_feed(spec: RegressorSpec) -> bool:
    return spec.structure is Structure.NRM_FI_ZONE


def _rh_spec(spec: RegressorSpec) -> RegressorSpec:
    return RegressorSpec(Structure.NRM_FI_RH, spec.n_neighbors)


@dataclass(frozen=True, eq=False)
class _StaticTable:
    """Static regressor products of one spec for samples ``start..n-1``, one
    C-ordered row per sample, and the entries that still take their trailing
    prediction factor: ``feeds`` holds (prediction channel, entry indices,
    lags)."""

    start: int
    rows: np.ndarray
    feeds: tuple[tuple[str, np.ndarray, np.ndarray], ...]


_TABLE_CHUNK = 512  # samples per value table while a static table is built


def _static_table(spec: RegressorSpec, dataset: TimeSeriesDataset,
                  start: int) -> _StaticTable:
    lay = compile_layout(spec)
    m = max(len(dataset) - start, 0)
    rows = np.empty((m, len(lay.entries)))
    # value-table rows: measured columns by lag, an exact 1.0 for every
    # prediction factor and for the padding row; built in chunks of samples
    # so the transient tables stay small next to the result
    for lo in range(0, m, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, m)
        values = np.ones((len(lay.columns) + 1, hi - lo))
        for row, (channel, lag) in enumerate(lay.columns):
            if channel not in PREDICTION_MIRRORS:
                values[row] = dataset.columns[channel][start - lag + lo:start - lag + hi]
        rows[lo:hi] = lay.terms(values).T
    feeds: dict[str, list[tuple[int, int]]] = {}
    for i, entry in enumerate(lay.entries):
        channel, lag = entry[-1]
        if channel in PREDICTION_MIRRORS:
            feeds.setdefault(channel, []).append((i, lag))
    return _StaticTable(start=start, rows=rows,
                        feeds=tuple((channel, *np.array(f, dtype=np.intp).T)
                                    for channel, f in feeds.items()))


def _oe_pass(spec: RegressorSpec, dataset: TimeSeriesDataset,
             table: _StaticTable, feed: tuple[_StaticTable, np.ndarray] | None,
             theta: np.ndarray | None = None, state: RlsState | None = None,
             pass_no: int = 1) -> tuple[np.ndarray, RlsState | None]:
    """One output-error pass over samples ``table.start..n-1``.

    ``feed`` is the static table and parameters of the RH predictor whose
    outputs fill ``yhat_w`` for the FI zone structure.  With an RLS ``state``
    the estimate is updated after every sample (training) and ``theta`` is
    not used; otherwise the fixed ``theta`` predicts.  Prediction buffers
    hold the mirrored measurement until a sample is predicted.  Returns the
    predictions of samples ``table.start..n-1`` and the final state.
    """
    tables = (table,) if feed is None else (feed[0], table)
    buffers = {channel: np.array(dataset.columns[PREDICTION_MIRRORS[channel]],
                                 dtype=float)
               for t in tables for channel, _, _ in t.feeds}

    def bound(t):
        return t.rows, tuple((buffers[c], idx, lags) for c, idx, lags in t.feeds)

    def regressor(t, i, k):
        rows, feeds = t
        phi = rows[i].copy()
        for buf, idx, lags in feeds:
            phi[idx] *= buf[k - lags]
        return phi

    main = bound(table)
    rh = None if feed is None else bound(feed[0])
    y = dataset.columns[target_column(spec)]
    yhat_buf = buffers[prediction_channel(spec)]
    start, n = table.start, len(dataset)
    out = np.empty(max(n - start, 0))
    for k in range(start, n):
        i = k - start
        if rh is not None:
            yhat_w = float(regressor(rh, i, k) @ feed[1])
        phi = regressor(main, i, k)
        yhat = float(phi @ (theta if state is None else state.theta))
        yhat_buf[k] = out[i] = yhat
        if rh is not None:
            buffers["yhat_w"][k] = yhat_w
        if state is not None:
            try:
                state = rls_update(state, phi, float(y[k]))
            except NumericalError as exc:
                raise NumericalError(
                    f"training {spec.structure.value} (n_neighbors="
                    f"{spec.n_neighbors}) diverged in pass {pass_no} at dataset "
                    f"sample {k}: {exc}") from exc
    return out, state


def train(dataset: TimeSeriesDataset, spec: RegressorSpec, passes: int = 1,
          rls_cfg: RlsConfig | None = None, theta_w: np.ndarray | None = None,
          window: int = DEFAULT_RMSE_WINDOW) -> TrainReport:
    """Sequential RLS over the dataset, repeated ``passes`` times.

    The estimate and covariance carry across passes; the prediction buffers
    are reset each pass.  The first ``warmup`` samples of each pass use measured
    values in place of unavailable predictions and are excluded from the loss.
    The FI zone structure needs the RH predictor for its water channel; it is
    trained first on the same data unless ``theta_w`` is given.
    """
    if passes < 0:
        raise ConfigError("passes must be non-negative")
    _history_channels(spec, dataset)
    dim = regressor_length(spec)
    state = rls_init(dim, rls_cfg)
    if passes == 0:
        return TrainReport(spec=spec, theta=state.theta, errors=np.empty(0),
                           rolling_rmse=np.empty(0), window=window, pass_rmse=[])

    wu = warmup(spec)
    if len(dataset) <= wu:
        raise ConfigError(
            f"{spec.structure.value} (n_neighbors={spec.n_neighbors}) has a "
            f"{wu}-sample warm-up; a dataset of {len(dataset)} samples leaves "
            "nothing to train on")
    feed = None
    if _needs_rh_feed(spec):
        if theta_w is None:
            theta_w = train(dataset, _rh_spec(spec), passes, rls_cfg,
                            window=window).theta
        feed = (_static_table(_rh_spec(spec), dataset, wu), theta_w)
    table = _static_table(spec, dataset, wu)
    y = dataset.columns[target_column(spec)][wu:]
    errors = []
    pass_rmse = []
    for p in range(1, passes + 1):
        yhat, state = _oe_pass(spec, dataset, table, feed, state=state, pass_no=p)
        pass_errors = y - yhat
        errors.append(pass_errors)
        pass_rmse.append(float(np.sqrt(np.mean(np.square(pass_errors)))))

    errors = np.concatenate(errors)
    return TrainReport(spec=spec, theta=state.theta, errors=errors,
                       rolling_rmse=rolling_rmse(errors, window), window=window,
                       pass_rmse=pass_rmse, theta_w=theta_w)


def predict_series(theta: np.ndarray, spec: RegressorSpec,
                   dataset: TimeSeriesDataset,
                   theta_w: np.ndarray | None = None) -> np.ndarray:
    """One-step OE predictions over a dataset with a fixed parameter vector;
    NaN during warm-up."""
    _history_channels(spec, dataset)
    wu = warmup(spec)
    feed = None
    if _needs_rh_feed(spec):
        if theta_w is None:
            raise ConfigError("the FI zone structure needs theta_w for prediction")
        feed = (_static_table(_rh_spec(spec), dataset, wu), theta_w)
    out = np.full(len(dataset), np.nan)
    out[wu:], _ = _oe_pass(spec, dataset, _static_table(spec, dataset, wu),
                           feed, theta)
    return out


def theta_to_file(theta: np.ndarray, path) -> None:
    """Plain-text parameter sidecar, one coefficient per line in layout order."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in theta:
            fh.write(f"{v:.17g}\n")


def theta_from_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.asarray([float(line) for line in fh if line.strip()])
