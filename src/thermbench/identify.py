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
factor of the spec's own prediction, into a read-only table.  Each step
gathers every entry's other factor (a lagged prediction or an exact 1.0) in
one ``take``, multiplies the sample's row by them and takes one dot product:
the same arithmetic as ``build_regressor`` over a ``LaggedHistory``, which
stays as the readable per-sample reference (``oe_predict``).  The FI zone
structure also reads the water-loop prediction ``yhat_w``.  That series does
not depend on the zone estimate, so it is computed once per call, by
``_oe_pass`` over ``regressors.water_spec(spec)`` with its fixed
``theta_w``, and its static table reads it like a measured column.

Recursive least squares is one class, ``Rls``.  Its update is one kernel,
compiled once per estimate: one rank-1 update of the contiguous buffer
[theta; P], then the covariance's re-symmetrization; it reuses the
prediction the pass has already taken.  ``Rls.step`` screens the buffer for
non-finite values after every update; training screens it once per pass and
replays a pass that diverged through ``Rls.step``, from a snapshot taken
before it, so both report the same sample and step.  ``train`` and
``predict_series`` run under ``np.errstate(all="ignore")``, so a diverging
pass shows as the screen's error or as non-finite predictions, never as
numpy's warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .regressors import (PREDICTION_MIRRORS, LaggedHistory, RegressorSpec,
                         Structure, build_regressor, compile_layout,
                         measured_columns, prediction_channel,
                         regressor_length, warmup, water_spec)
from .simulator import TimeSeriesDataset, write_csv

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


def _rls_kernel(w: np.ndarray, lam: float):
    """The RLS update of W = [theta; P], a (dim + 1) x dim matrix, in place,
    compiled once per estimate: ``kernel(phi, y, yhat)``, where ``yhat`` is
    ``phi @ theta`` taken before the update.  With the gain
    g = P phi / (lam + phi . P phi), the rank-1 update
    W -= [yhat - y; P phi] g^T gives theta and X, then
    P = (X / lam + (X / lam)^T) / 2: bit for bit theta + g (y - yhat) and
    P - g (P phi)^T, as yhat - y is exactly -(y - yhat) and X is that P's
    transpose while P is exactly symmetric (it starts diagonal, and every
    step ends in X + X^T).  A closure over work vectors, views and ufuncs,
    each called with a positional ``out``; the caller screens the state."""
    dim, p = w.shape[1], w[1:]
    # P phi = a[1:] is an operand of dot, aligned to 16 bytes like a fresh
    # array: some BLAS kernels' dot sums in an order set by the alignment
    a = np.empty(dim + 2)
    a = a[1 - a.ctypes.data % 16 // 8:][:dim + 1]
    gain, m = np.empty(dim), np.empty((dim + 1, dim))
    a_col, p_phi, x, x_t = a[:, np.newaxis], a[1:], m[1:], m[1:].T
    # 0-d arrays skip the conversion a Python float takes in every call
    lam_0d, half = np.array(lam), np.array(0.5)
    dot, add, subtract, multiply, divide = (np.dot, np.add, np.subtract,
                                            np.multiply, np.divide)

    def kernel(phi, y, yhat):
        dot(p, phi, p_phi)
        divide(p_phi, lam + dot(phi, p_phi), gain)
        a[0] = yhat - y
        multiply(a_col, gain, m)  # outer product
        subtract(w, m, w)
        divide(p, lam_0d, x)
        add(x, x_t, p)  # re-symmetrized
        multiply(p, half, p)

    return kernel


class Rls:
    """An exponentially weighted RLS estimate, updated in place: the one RLS
    of the package.  It starts from theta = 0 and P = ``reg_init`` * I.

    ``theta`` and ``p`` are views of one contiguous buffer, screened as one
    for non-finite values.  A non-finite element stays non-finite under
    every later update, so a screen after a run of updates fires exactly
    when one of them diverged.
    """

    def __init__(self, dim: int, cfg: RlsConfig | None = None):
        cfg = cfg or RlsConfig()
        self._buf = np.zeros(dim * (dim + 1))
        w = self._buf.reshape(dim + 1, dim)
        self.theta, self.p = w[0], w[1:]
        np.fill_diagonal(self.p, cfg.reg_init)
        self.lam = cfg.forgetting
        self.k = 0
        self._kernel = _rls_kernel(w, self.lam)

    def _diverged(self) -> bool:
        return not np.isfinite(self._buf).all()

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
        write_csv(path, ["k", "e", "rolling_rmse"],
                  [np.arange(len(self.errors)), self.errors, self.rolling_rmse])


def check_training(passes: int, window: int) -> None:
    """The settings :func:`train` accepts: a non-negative number of passes
    and a rolling-RMSE window of at least two samples."""
    if passes < 0:
        raise ConfigError(f"passes must be non-negative, got {passes}")
    if window < 2:
        raise ConfigError(f"rmse_window must be at least 2, got {window}")


def rolling_rmse(errors: np.ndarray, window: int) -> np.ndarray:
    """RMSE of each error and the ``window - 1`` before it (a ``window`` as
    :func:`check_training` accepts)."""
    sq = np.concatenate(([0.0], np.cumsum(np.asarray(errors) ** 2)))
    n = len(errors)
    idx = np.arange(1, n + 1)
    lo = np.maximum(0, idx - window)
    return np.sqrt((sq[idx] - sq[lo]) / (idx - lo))


def oe_predict(theta: np.ndarray, spec: RegressorSpec, hist: LaggedHistory,
               k: int) -> float:
    """One-step prediction phi(k)^T theta with output feedback from the
    stored prediction channel."""
    return float(build_regressor(spec, hist, k) @ theta)


@dataclass(frozen=True, eq=False)
class _StaticTable:
    """Static regressor products of one spec for samples ``start..n-1``, one
    read-only C-ordered row per sample, and where each entry takes its last
    factor: entry i of row j takes position ``j + offsets[i]`` of the pass's
    prediction series followed by ``n - start`` ones.  So an entry whose
    trailing factor is the spec's own prediction at lag l has the offset
    ``start - l``, and every other entry, which takes an exact 1.0, n."""

    start: int
    rows: np.ndarray
    offsets: np.ndarray


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
    rows.flags.writeable = False
    offsets = np.array([start - entry[-1][1] if entry[-1][0] == own
                        else len(dataset) for entry in lay.entries], dtype=np.intp)
    return _StaticTable(start=start, rows=rows, offsets=offsets)


def _table(spec: RegressorSpec, dataset: TimeSeriesDataset,
           theta_w: np.ndarray | None) -> _StaticTable:
    """The static table of ``spec`` from its warm-up on; the dataset must
    hold the spec's measured columns.  The FI zone structure reads ``yhat_w``
    from the RH predictor ``theta_w``, which it requires: its output-error
    series from the same warm-up on, the measured ``T_w`` before."""
    dataset.require(measured_columns(spec.structure, spec.n_neighbors),
                    spec.structure.value)
    wu = warmup(spec)
    if spec.structure is Structure.NRM_FI_ZONE:
        if theta_w is None:
            raise ConfigError("the FI zone structure needs theta_w, the RH "
                              "predictor's parameters")
        rh = water_spec(spec)
        yhat_w = _oe_pass(rh, dataset, _static_table(rh, dataset, wu), theta_w)
        dataset = replace(dataset, columns={**dataset.columns, "yhat_w": yhat_w})
    return _static_table(spec, dataset, wu)


def _oe_pass(spec: RegressorSpec, dataset: TimeSeriesDataset,
             table: _StaticTable, theta: np.ndarray | None = None,
             rls: Rls | None = None, pass_no: int = 1) -> np.ndarray:
    """One output-error pass over samples ``table.start..n-1``.

    With an ``rls`` estimate it is updated in place after every sample
    (training) and ``theta`` is not used; otherwise the fixed ``theta``
    predicts.  Returns the prediction series of all ``n`` samples, which
    holds the mirrored measurement before ``table.start``.

    Training runs the RLS kernel over the whole pass and screens the state
    once, at its end.  A pass whose screen fires is replayed from a snapshot
    of the state through ``Rls.step``, which stops at the first diverged
    step, so the error names the sample and the RLS step that a screen
    after every step would.
    """
    if rls is not None:
        theta = rls.theta
    if table.rows.shape[1:] != np.shape(theta):
        raise ConfigError(f"phi has shape {table.rows.shape[1:]}, theta "
                          f"{np.shape(theta)}")
    # the prediction series, then the exact 1.0s the static entries take
    rows, offsets, start, n = table.rows, table.offsets, table.start, len(dataset)
    ext = np.ones(n + len(rows))
    ext[:n] = dataset.columns[PREDICTION_MIRRORS[prediction_channel(spec)]]
    lagged, phi = np.empty(len(offsets)), np.empty(len(offsets))
    y = ext[:n].tolist()  # the measured output, before the pass predicts it
    multiply, dot = np.multiply, np.dot

    def run(step):
        for k in range(start, n):
            j = k - start
            ext[j:].take(offsets, out=lagged, mode="clip")  # all in range
            multiply(rows[j], lagged, phi)
            yhat = ext[k] = dot(phi, theta)
            if step is not None:
                step(phi, y[k], yhat)

    if rls is None:
        run(None)
        return ext[:n]
    snapshot, k0 = rls._buf.copy(), rls.k
    run(rls._kernel)
    if not rls._diverged():
        rls.k += n - start
        return ext[:n]
    np.copyto(rls._buf, snapshot)
    try:
        run(rls.step)
    except NumericalError as exc:
        raise NumericalError(
            f"training {spec.structure.value} (n_neighbors="
            f"{spec.n_neighbors}) diverged in pass {pass_no} at dataset "
            f"sample {start + rls.k - k0}: {exc}") from exc
    raise AssertionError("the replay of a diverged pass did not diverge")


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
    check_training(passes, window)
    # a diverging pass is reported by its own screen, not by numpy's warnings
    with np.errstate(all="ignore"):
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
        y = dataset.columns[PREDICTION_MIRRORS[prediction_channel(spec)]][wu:]
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
    out = np.full(len(dataset), np.nan)
    with np.errstate(all="ignore"):
        table = _table(spec, dataset, theta_w)
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
