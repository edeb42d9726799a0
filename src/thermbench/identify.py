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
factor of the spec's own prediction; the static products of the entries that
take that factor are kept beside the table.  Each step multiplies those
products by the lagged predictions, writes them into its own row of the
table and takes one dot product: the same arithmetic as ``build_regressor``
over a ``LaggedHistory``, which stays as the readable per-sample reference
(``oe_predict``).  The FI zone structure also reads the water-loop
prediction ``yhat_w``.  That series does not depend on the zone estimate, so
it is computed once per call, by ``_oe_pass`` over the RH structure with its
fixed ``theta_w``, and its static table reads it like a measured column.

Recursive least squares is one class, ``Rls``.  Its update is one kernel,
compiled once per estimate over one contiguous buffer of the estimate and
the covariance, the work vectors and the scratch matrix; it reuses the
prediction the pass has already taken.  A dot of the buffer with a ones
vector screens it for non-finite values, and only when the dot is not finite
are the elements checked one by one.  ``Rls.step`` screens after every
update; training screens once per block of ``_BLOCK`` samples and replays a
block that diverged through ``Rls.step``, from a snapshot taken before it,
so both report the same sample and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .regressors import (PREDICTION_MIRRORS, LaggedHistory, RegressorSpec,
                         Structure, build_regressor, compile_layout,
                         measured_columns, prediction_channel,
                         regressor_length, target_column, warmup)
from .simulator import TimeSeriesDataset, write_rows

DEFAULT_RMSE_WINDOW = 2016  # samples; 7 days at 5-minute sampling


@dataclass(frozen=True)
class RlsConfig:
    """Forgetting factor and initial-covariance scale."""

    forgetting: float = 0.999
    reg_init: float = 1.0e3

    def __post_init__(self):
        if not (0.0 < self.forgetting <= 1.0):
            raise ConfigError("forgetting factor must be in (0, 1]")
        if self.reg_init <= 0.0:
            raise ConfigError("reg_init must be positive")


def _rls_kernel(theta: np.ndarray, p: np.ndarray, lam: float):
    """The RLS update of ``theta`` and ``p`` in place, compiled once per
    estimate: ``kernel(phi, y, yhat)``, where ``yhat`` is ``phi @ theta``
    taken before the update.  A closure over the work vectors, the scratch
    matrix and its transpose, ``lam`` and the ufuncs, each called with a
    positional ``out``.  No check: the caller screens the state."""
    dim = len(theta)
    p_phi, gain, m = np.empty(dim), np.empty(dim), np.empty((dim, dim))
    gain_col, m_t = gain[:, np.newaxis], m.T
    # 0-d arrays skip the conversion a Python float takes in every call
    lam_0d, half = np.array(lam), np.array(0.5)
    dot, add, subtract, multiply, divide = (np.dot, np.add, np.subtract,
                                            np.multiply, np.divide)

    def kernel(phi, y, yhat):
        dot(p, phi, p_phi)
        divide(p_phi, lam + dot(phi, p_phi), gain)
        multiply(gain_col, p_phi, m)  # outer product
        multiply(gain, y - yhat, gain)
        add(theta, gain, theta)
        subtract(p, m, m)
        divide(m, lam_0d, m)
        add(m, m_t, p)  # re-symmetrized
        multiply(p, half, p)

    return kernel


class Rls:
    """An exponentially weighted RLS estimate, updated in place: the one RLS
    of the package.  It starts from theta = 0 and P = ``reg_init`` * I.

    ``theta`` and ``p`` are views of one contiguous buffer, so one dot with a
    ones vector screens both for non-finite values: the dot is non-finite
    whenever an element is.  A finite state can overflow the sum, so the
    elements are checked one by one before the state is reported as
    diverged.  A non-finite element stays non-finite under every later
    update, so a screen after a run of updates fires exactly when one of
    them diverged.
    """

    def __init__(self, dim: int, cfg: RlsConfig | None = None):
        cfg = cfg or RlsConfig()
        self._buf = np.zeros(dim * (dim + 1))
        self._ones = np.ones(len(self._buf))
        self.theta = self._buf[:dim]
        self.p = self._buf[dim:].reshape(dim, dim)
        np.fill_diagonal(self.p, cfg.reg_init)
        self.lam = cfg.forgetting
        self.k = 0
        self._kernel = _rls_kernel(self.theta, self.p, self.lam)

    def _diverged(self) -> bool:
        # vdot, unlike dot and matmul, raises no numpy warning when the sum
        # of a finite state overflows
        return (not math.isfinite(np.vdot(self._buf, self._ones))
                and not np.isfinite(self._buf).all())

    def step(self, phi: np.ndarray, y: float, yhat: float) -> None:
        """Update with regressor ``phi`` and measurement ``y``; ``yhat`` must
        be ``phi @ theta`` taken before the step.  The covariance is
        re-symmetrized, and the state screened for non-finite values."""
        if np.shape(phi) != self.theta.shape:
            raise ConfigError(f"phi has shape {np.shape(phi)}, theta "
                              f"{self.theta.shape}")
        self._kernel(phi, y, yhat)
        if self._diverged():
            raise NumericalError(f"RLS update produced non-finite values at step {self.k}")
        self.k += 1


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
            write_rows(fh, [np.arange(len(self.errors)), self.errors,
                            self.rolling_rmse])


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
    dataset.require(cols, spec.structure.value)
    return cols


def oe_predict(theta: np.ndarray, spec: RegressorSpec, hist: LaggedHistory,
               k: int) -> float:
    """One-step prediction phi(k)^T theta with output feedback from the
    stored prediction channel."""
    return float(build_regressor(spec, hist, k) @ theta)


def _rh_spec(spec: RegressorSpec) -> RegressorSpec:
    return RegressorSpec(Structure.NRM_FI_RH, spec.n_neighbors)


@dataclass(frozen=True, eq=False)
class _StaticTable:
    """Static regressor products of one spec for samples ``start..n-1``, one
    C-ordered row per sample, and the entries that still take their trailing
    factor from the spec's own prediction channel: ``idx`` holds their
    indices, ``lags`` the lags of that factor and ``static`` their static
    products, one row per sample.  The pass writes the fed products into the
    sample's row, so those entries of ``rows`` hold whatever the last pass
    wrote."""

    start: int
    rows: np.ndarray
    static: np.ndarray
    idx: np.ndarray
    lags: np.ndarray


_TABLE_CHUNK = 512  # samples per value table while a static table is built


def _static_table(spec: RegressorSpec, dataset: TimeSeriesDataset,
                  start: int) -> _StaticTable:
    lay = compile_layout(spec)
    own = prediction_channel(spec)
    m = max(len(dataset) - start, 0)
    rows = np.empty((m, len(lay.entries)))
    # value-table rows: the columns by lag, an exact 1.0 for every factor of
    # the spec's own prediction and for the padding row; built in chunks of
    # samples so the transient tables stay small next to the result
    for lo in range(0, m, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, m)
        values = np.ones((len(lay.columns) + 1, hi - lo))
        for row, (channel, lag) in enumerate(lay.columns):
            if channel != own:
                values[row] = dataset.columns[channel][start - lag + lo:start - lag + hi]
        rows[lo:hi] = lay.terms(values).T
    feed = [(i, entry[-1][1]) for i, entry in enumerate(lay.entries)
            if entry[-1][0] == own]
    idx, lags = np.array(feed, dtype=np.intp).T
    return _StaticTable(start=start, rows=rows, static=rows[:, idx], idx=idx,
                        lags=lags)


def _table(spec: RegressorSpec, dataset: TimeSeriesDataset,
           theta_w: np.ndarray | None) -> _StaticTable:
    """The static table of ``spec`` from its warm-up on.  The FI zone
    structure reads ``yhat_w`` from the RH predictor ``theta_w``, which it
    requires: its output-error series from the same warm-up on, the measured
    ``T_w`` before."""
    wu = warmup(spec)
    if spec.structure is Structure.NRM_FI_ZONE:
        if theta_w is None:
            raise ConfigError("the FI zone structure needs theta_w, the RH "
                              "predictor's parameters")
        rh = _rh_spec(spec)
        yhat_w = _oe_pass(rh, dataset, _static_table(rh, dataset, wu), theta_w)
        dataset = replace(dataset, columns={**dataset.columns, "yhat_w": yhat_w})
    return _static_table(spec, dataset, wu)


_BLOCK = 64  # training samples per non-finite screen of the RLS state


def _oe_pass(spec: RegressorSpec, dataset: TimeSeriesDataset,
             table: _StaticTable, theta: np.ndarray | None = None,
             rls: Rls | None = None, pass_no: int = 1) -> np.ndarray:
    """One output-error pass over samples ``table.start..n-1``.

    With an ``rls`` estimate it is updated in place after every sample
    (training) and ``theta`` is not used; otherwise the fixed ``theta``
    predicts.  Returns the prediction series of all ``n`` samples, which
    holds the mirrored measurement before ``table.start``.

    Training runs the RLS kernel in blocks of ``_BLOCK`` samples and screens
    the state once per block.  A block whose screen fires, or that raises,
    is replayed from a snapshot of the state through ``Rls.step``, which
    stops at the first diverged step, so the error names the sample and the
    RLS step that a screen after every step would.
    """
    if rls is not None:
        theta = rls.theta
    if table.rows.shape[1:] != np.shape(theta):
        raise ConfigError(f"phi has shape {table.rows.shape[1:]}, theta "
                          f"{np.shape(theta)}")
    yhat_buf = np.array(dataset.columns[PREDICTION_MIRRORS[prediction_channel(spec)]],
                        dtype=float)
    rows, static, idx, start = table.rows, table.static, table.idx, table.start
    # the prediction at lag l of sample k is element deep - l of
    # yhat_buf[k - deep:k]: one slice and one take per sample
    deep = int(table.lags.max())
    back = deep - table.lags
    fed = np.empty(len(idx))
    y = dataset.columns[target_column(spec)].tolist()
    multiply, dot = np.multiply, np.dot

    def run(lo, hi, step):
        for k in range(lo, hi):
            j = k - start
            phi = rows[j]
            multiply(static[j], yhat_buf[k - deep:k].take(back), fed)
            phi[idx] = fed
            yhat = yhat_buf[k] = dot(phi, theta)
            if step is not None:
                step(phi, y[k], yhat)

    if rls is None:
        run(start, len(dataset), None)
        return yhat_buf
    snapshot = np.empty_like(rls._buf)
    for lo in range(start, len(dataset), _BLOCK):
        hi = min(lo + _BLOCK, len(dataset))
        np.copyto(snapshot, rls._buf)
        try:
            run(lo, hi, rls._kernel)
            if not rls._diverged():
                rls.k += hi - lo
                continue
        except (ArithmeticError, Warning):
            pass  # numpy set to raise: the replay raises it again, at the same step
        np.copyto(rls._buf, snapshot)
        k0 = rls.k
        try:
            run(lo, hi, rls.step)
        except NumericalError as exc:
            raise NumericalError(
                f"training {spec.structure.value} (n_neighbors="
                f"{spec.n_neighbors}) diverged in pass {pass_no} at dataset "
                f"sample {lo + rls.k - k0}: {exc}") from exc
    return yhat_buf


def train(dataset: TimeSeriesDataset, spec: RegressorSpec, passes: int = 1,
          rls_cfg: RlsConfig | None = None, theta_w: np.ndarray | None = None,
          window: int = DEFAULT_RMSE_WINDOW) -> TrainReport:
    """Sequential RLS over the dataset, repeated ``passes`` times.

    The estimate and covariance carry across passes; the prediction buffers
    are reset each pass.  The first ``warmup`` samples of each pass use measured
    values in place of unavailable predictions and are excluded from the loss.
    The FI zone structure reads its water channel from the RH predictor, whose
    parameters ``theta_w`` it requires.
    """
    if passes < 0:
        raise ConfigError("passes must be non-negative")
    _history_channels(spec, dataset)
    table = _table(spec, dataset, theta_w)
    dim = regressor_length(spec)
    if passes == 0:
        return TrainReport(spec=spec, theta=np.zeros(dim), errors=np.empty(0),
                           rolling_rmse=np.empty(0), window=window, pass_rmse=[],
                           theta_w=theta_w)

    wu = table.start
    if len(dataset) <= wu:
        raise ConfigError(
            f"{spec.structure.value} (n_neighbors={spec.n_neighbors}) has a "
            f"{wu}-sample warm-up; a dataset of {len(dataset)} samples leaves "
            "nothing to train on")
    y = dataset.columns[target_column(spec)][wu:]
    rls = Rls(dim, rls_cfg)
    errors = []
    pass_rmse = []
    for p in range(1, passes + 1):
        yhat = _oe_pass(spec, dataset, table, rls=rls, pass_no=p)
        pass_errors = y - yhat[wu:]
        errors.append(pass_errors)
        pass_rmse.append(float(np.sqrt(np.mean(np.square(pass_errors)))))

    errors = np.concatenate(errors)
    return TrainReport(spec=spec, theta=rls.theta.copy(), errors=errors,
                       rolling_rmse=rolling_rmse(errors, window), window=window,
                       pass_rmse=pass_rmse, theta_w=theta_w)


def predict_series(theta: np.ndarray, spec: RegressorSpec,
                   dataset: TimeSeriesDataset,
                   theta_w: np.ndarray | None = None) -> np.ndarray:
    """One-step OE predictions over a dataset with a fixed parameter vector;
    NaN during warm-up."""
    _history_channels(spec, dataset)
    table = _table(spec, dataset, theta_w)
    out = np.full(len(dataset), np.nan)
    out[table.start:] = _oe_pass(spec, dataset, table, theta)[table.start:]
    return out


def theta_to_file(theta: np.ndarray, path) -> None:
    """Plain-text parameter sidecar, one coefficient per line in layout order."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in theta:
            fh.write(f"{v:.17g}\n")


def theta_from_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.asarray([float(line) for line in fh if line.strip()])
