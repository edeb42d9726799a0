"""Regression vectors for the zone/water predictors and the delay-operator
algebra used to check their derivation identities.

Every model structure is encoded declaratively as a lag-table layout: one
entry per regressor component, each entry a product of lagged channels.
``build_regressor`` evaluates a layout against a ``LaggedHistory`` and is the
readable reference; ``compile_layout`` turns the same table into index arrays,
so the block layout has a single source of truth.  The compiled form serves
both fast paths: the multi-step rollout in :mod:`thermbench.mpc` evaluates it
over a row axis of plans, and training in :mod:`thermbench.identify`
evaluates it over a whole dataset at once.

Output-error discipline: past outputs enter the regressor through the
``yhat_*`` prediction channels, never through the measured output.  A
prediction factor is always the last factor of its entry, so every entry is
a *static* product of measured, lagged channels times at most one trailing
prediction factor; ``compile_layout`` checks this.  Below the deepest lag the
prediction channels fall back to the measured values (warm-up), and training
discards those samples from the loss.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, HistoryUnderflowError

# one regressor component: product over (channel, lag) factors
Entry = tuple[tuple[str, int], ...]

#: prediction channels and the measured channel each one mirrors in warm-up
PREDICTION_MIRRORS = {"yhat_r": "T_r", "yhat_w": "T_w"}


class Structure(str, Enum):
    LRM = "LRM"
    NRM_FI_ZONE = "NRM_FI_ZONE"
    NRM_FI_RH = "NRM_FI_RH"
    NRM_MI = "NRM_MI"
    NRM_LI = "NRM_LI"


@dataclass(frozen=True)
class RegressorSpec:
    structure: Structure
    n_neighbors: int = 1

    def __post_init__(self):
        if self.n_neighbors < 1:
            raise ConfigError("n_neighbors must be at least 1")


def measured_columns(structure: Structure, n_neighbors: int) -> list[str]:
    """Columns available to a structure (the zone temperature is always
    measured; it is the identification target)."""
    neigh = [f"T_rj_{j}" for j in range(1, n_neighbors + 1)]
    base = ["T_r", *neigh, "Vw", "Va", "Qext"]
    if structure in (Structure.NRM_FI_RH, Structure.NRM_FI_ZONE):
        return ["T_r", "T_w", *neigh, "Vw", "Va", "Tw_in", "Ta_in", "Qext"]
    if structure in (Structure.NRM_MI, Structure.LRM):
        return base[:1] + neigh + ["Vw", "Va", "Tw_in", "Ta_in", "Qext"]
    if structure is Structure.NRM_LI:
        return base
    raise ConfigError(f"unknown structure {structure!r}")


def target_column(spec: RegressorSpec) -> str:
    return "T_w" if spec.structure is Structure.NRM_FI_RH else "T_r"


def prediction_channel(spec: RegressorSpec) -> str:
    return "yhat_w" if spec.structure is Structure.NRM_FI_RH else "yhat_r"


@functools.lru_cache(maxsize=None)
def layout(spec: RegressorSpec) -> tuple[Entry, ...]:
    """Fully expanded lag table of the regressor vector, in block order."""
    n = spec.n_neighbors
    s = spec.structure
    entries: list[Entry] = []

    def block(channels: tuple[str, ...], m_lo: int, m_hi: int,
              extra: tuple[int, ...] | None = None):
        ex = extra or (0,) * len(channels)
        for m in range(m_lo, m_hi + 1):
            entries.append(tuple((c, m + e) for c, e in zip(channels, ex)
                                 if c != "one"))

    if s is Structure.NRM_FI_RH:
        block(("yhat_w",), 1, 1)
        block(("Vw", "yhat_w"), 1, 1)
        block(("Vw", "Tw_in"), 1, 1)
        block(("T_r",), 1, 1)

    elif s is Structure.NRM_FI_ZONE:
        d = n + 1
        block(("yhat_r",), 1, d)
        for j in range(1, n + 1):
            block((f"T_rj_{j}",), 2, d)
        block(("Va", "yhat_r"), 1, d)
        block(("Va", "Ta_in"), 1, d)
        block(("yhat_w",), 1, d)
        block(("Qext",), 1, d)

    elif s in (Structure.NRM_MI, Structure.NRM_LI):
        d = n + 2
        tw = "one" if s is Structure.NRM_LI else "Tw_in"
        ta = "one" if s is Structure.NRM_LI else "Ta_in"
        block(("yhat_r",), 1, d)
        for j in range(1, n + 1):
            block((f"T_rj_{j}",), 2, d)
        block(("Va", "yhat_r"), 1, d)
        block(("Va", ta), 1, d)
        block(("Va", "Vw", ta), 2, d)
        # water-flow blocks: the first lags the flow one step deeper than the
        # prediction it multiplies, the second uses aligned lags
        block(("Vw", "yhat_r"), 1, n + 1, extra=(1, 0))
        block(("Vw", "yhat_r"), 2, d)
        block(("Vw", "Va", "yhat_r"), 2, d)
        block(("Vw", tw), 2, d)
        block(("Qext",), 1, d)
        block(("Vw", "Qext"), 2, d)

    elif s is Structure.LRM:
        d = n + 2
        block(("yhat_r",), 1, d)
        for j in range(1, n + 1):
            block((f"T_rj_{j}",), 1, d)
        block(("Va",), 1, d)
        block(("Ta_in",), 1, d)
        block(("Vw",), 1, d)
        block(("Tw_in",), 1, d)
        block(("Qext",), 1, d)

    else:
        raise ConfigError(f"unknown structure {s!r}")

    return tuple(entries)


def regressor_length(spec: RegressorSpec) -> int:
    return len(layout(spec))


@functools.lru_cache(maxsize=None)
def warmup(spec: RegressorSpec) -> int:
    """Deepest lag referenced by the structure."""
    return max(lag for entry in layout(spec) for _, lag in entry)


@dataclass(frozen=True, eq=False)
class CompiledLayout:
    """Index form of a lag table, evaluated against a table of factor values.

    ``columns`` lists the distinct (channel, lag) factors the entries read,
    in first-use order.  A value table holds one row per column plus a last
    row of exactly 1.0; factor position ``f`` of entry ``i`` reads row
    ``factors[f, i]``, and an entry with fewer factors than the widest one
    reads the 1.0 row in its spare positions.
    """

    entries: tuple[Entry, ...]
    columns: tuple[tuple[str, int], ...]
    factors: np.ndarray  # (factor positions, entries) value-table rows

    def terms(self, values: np.ndarray, coef=1.0) -> np.ndarray:
        """Per-entry products ``coef * f_0 * f_1 * ...``, multiplied left to
        right as ``build_regressor`` does; the entry axis replaces the first
        axis of ``values``."""
        out = np.multiply(coef, values.take(self.factors[0], axis=0, mode="clip"))
        for rows in self.factors[1:]:
            out *= values.take(rows, axis=0, mode="clip")
        return out


def sum_entries(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Left-to-right sum from 0.0 of a C-ordered ``(entries, n)`` array over
    its entries, for each of the ``n`` columns (into ``out`` if given)."""
    if terms.shape[1] == 1:
        # numpy sums one contiguous axis pairwise; accumulate runs in order,
        # from the first entry, and 0.0 + gives the zero sign of a sum from 0.0
        total = 0.0 + np.add.accumulate(terms, axis=0)[-1]
        if out is None:
            return total
        out[...] = total
        return out
    # across rows numpy adds row after row to its identity, 0.0
    return np.add.reduce(terms, axis=0, out=out)


@functools.lru_cache(maxsize=None)
def compile_layout(*specs: RegressorSpec) -> CompiledLayout:
    """Compiled form of ``layout(spec)``, built once per spec; given several
    specs, one table holding their entries back to back.

    A prediction factor must be the last factor of its entry: the static
    part of an entry is then the product of the factors before it.
    """
    entries = tuple(entry for spec in specs for entry in layout(spec))
    for entry in entries:
        if any(channel in PREDICTION_MIRRORS for channel, _ in entry[:-1]):
            raise ConfigError(f"layout entry {entry} has a prediction factor "
                              f"before its last position")
    columns = tuple(dict.fromkeys(factor for entry in entries for factor in entry))
    row = {c: i for i, c in enumerate(columns)}
    width = max(len(entry) for entry in entries)
    factors = np.full((width, len(entries)), len(columns), dtype=np.intp)
    for i, entry in enumerate(entries):
        for f, factor in enumerate(entry):
            factors[f, i] = row[factor]
    factors.flags.writeable = False
    return CompiledLayout(entries=entries, columns=columns, factors=factors)


class LaggedHistory:
    """Append-only per-channel sample store with prediction channels.

    Pushing a row appends the measured values; prediction channels
    (``yhat_r`` mirroring ``T_r``, ``yhat_w`` mirroring ``T_w``) are
    initialized with the mirrored measurement and overwritten by
    ``record_prediction`` once a predictor has produced the sample.  The
    virtual channel ``one`` is the constant 1.
    """

    _MIRRORS = PREDICTION_MIRRORS

    def __init__(self, channels, extra_predictions=()):
        self._data: dict[str, list[float]] = {c: [] for c in channels}
        for pred, src in self._MIRRORS.items():
            if src in self._data and pred not in self._data:
                self._data[pred] = []
        # prediction channels without a measured mirror: pushed as NaN and
        # expected to be recorded explicitly each sample
        self._unmirrored = tuple(p for p in extra_predictions if p not in self._data)
        for p in self._unmirrored:
            self._data[p] = []

    def __len__(self) -> int:
        return len(self._data["T_r"]) if "T_r" in self._data else \
            len(next(iter(self._data.values())))

    @property
    def channels(self) -> list[str]:
        return list(self._data)

    def copy(self) -> "LaggedHistory":
        dup = LaggedHistory(())
        dup._data = {c: list(buf) for c, buf in self._data.items()}
        dup._unmirrored = self._unmirrored
        return dup

    def push(self, row: dict[str, float]) -> None:
        for c, buf in self._data.items():
            if c in self._unmirrored:
                buf.append(float("nan"))
            elif c in self._MIRRORS:
                buf.append(float(row[self._MIRRORS[c]]))
            else:
                buf.append(float(row[c]))

    def record_prediction(self, channel: str, k: int, value: float) -> None:
        self._data[channel][k] = float(value)

    def get(self, channel: str, k: int) -> float:
        if channel == "one":
            return 1.0
        buf = self._data.get(channel)
        if buf is None:
            raise ConfigError(f"history does not track channel {channel!r}")
        if k < 0 or k >= len(buf):
            raise HistoryUnderflowError(
                f"channel {channel!r} has no sample {k} (history length {len(buf)})")
        return buf[k]


def build_regressor(spec: RegressorSpec, hist: LaggedHistory, k: int) -> np.ndarray:
    """Evaluate the regressor vector at sample ``k`` (lags reach into
    ``k-1`` and deeper, so the history must hold samples ``0..k-1``)."""
    lay = layout(spec)
    out = np.empty(len(lay))
    for i, entry in enumerate(lay):
        v = 1.0
        for channel, lag in entry:
            v *= hist.get(channel, k - lag)
        out[i] = v
    return out


# ---------------------------------------------------------------------------
# delay-operator algebra
# ---------------------------------------------------------------------------

class DelayPolynomialOp:
    """Finite polynomial in the one-step delay with possibly time-varying
    coefficients: applied at sample k it yields
    ``sum_m coef(m, k) * x(k - m)``.

    Coefficients are floats or callables of the absolute sample index; under
    composition, inner coefficients are evaluated at the delayed index, which
    reproduces how time-varying flow coefficients shift through products of
    these operators.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return all(not callable(c) for c in self.coeffs)

    def coef(self, m: int, k: int) -> float:
        c = self.coeffs[m]
        return c(k) if callable(c) else c


def apply_op(op: DelayPolynomialOp, signal, k: int) -> float:
    if k < op.order:
        raise HistoryUnderflowError(
            f"operator of order {op.order} needs samples back to {k - op.order}")
    return sum(op.coef(m, k) * signal[k - m] for m in range(op.order + 1))


def apply_series(op: DelayPolynomialOp, signal) -> np.ndarray:
    """Operator applied at every admissible index; leading entries are NaN."""
    n = len(signal)
    out = np.full(n, np.nan)
    for k in range(op.order, n):
        out[k] = apply_op(op, signal, k)
    return out


def compose(outer: DelayPolynomialOp, inner: DelayPolynomialOp) -> DelayPolynomialOp:
    """Operator equal to applying ``inner`` first, then ``outer``."""
    order = outer.order + inner.order
    coeffs = []
    for p in range(order + 1):
        pairs = [(m, p - m) for m in range(len(outer.coeffs))
                 if 0 <= p - m < len(inner.coeffs)]
        if outer.is_constant and inner.is_constant:
            coeffs.append(sum(outer.coeffs[m] * inner.coeffs[l] for m, l in pairs))
        else:
            def c(k, pairs=tuple(pairs)):
                return sum(outer.coef(m, k) * inner.coef(l, k - m) for m, l in pairs)
            coeffs.append(c)
    return DelayPolynomialOp(coeffs)


def identity_op() -> DelayPolynomialOp:
    return DelayPolynomialOp((1.0,))


def q_separator(a_s: float, epsilon: float) -> DelayPolynomialOp:
    """1 - (1 + eps*a_s) q^-1 with a constant separator coefficient."""
    return DelayPolynomialOp((1.0, -(1.0 + epsilon * a_s)))


def q_varying(a_series, epsilon: float) -> DelayPolynomialOp:
    """1 - (1 + eps*a(k)) q^-1 with a sample-indexed coefficient series."""
    a = np.asarray(a_series, dtype=float)
    return DelayPolynomialOp((1.0, lambda k: -(1.0 + epsilon * a[k])))


def verify_property_1(op_a: DelayPolynomialOp, op_b: DelayPolynomialOp,
                      signal) -> float:
    """Largest pointwise difference between the two application orders."""
    ab = compose(op_a, op_b)
    ba = compose(op_b, op_a)
    return float(max(abs(apply_op(ab, signal, k) - apply_op(ba, signal, k))
                     for k in range(ab.order, len(signal))))


def property2_correction(a_series, a_s: float, epsilon: float, signal,
                         k: int) -> float:
    """Right-hand correction term of the swap identity for a separator
    operator against a flow-varying one: nonzero exactly where the flow
    coefficient changed between consecutive samples."""
    a = np.asarray(a_series, dtype=float)
    return -(1.0 + epsilon * a_s) * epsilon * (a[k] - a[k - 1]) * signal[k - 2]


def verify_property_2(flow_signal, a_s: float, epsilon: float, signal,
                      a_wc=None) -> float:
    """Largest residual of the swap identity
    ``Q_s Q_wc = Q_wc Q_s + correction`` over the signal.

    ``a_wc`` maps a flow sample to its rate coefficient; any map works for
    the identity, the default is an arbitrary affine one.
    """
    if a_wc is None:
        a_wc = lambda v: -(0.5 + v)
    a_series = np.asarray([a_wc(v) for v in flow_signal], dtype=float)
    q_wc = q_varying(a_series, epsilon)
    q_s = q_separator(a_s, epsilon)
    lhs = compose(q_s, q_wc)
    rhs = compose(q_wc, q_s)
    worst = 0.0
    for k in range(2, len(signal)):
        r = apply_op(lhs, signal, k) - apply_op(rhs, signal, k) \
            - property2_correction(a_series, a_s, epsilon, signal, k)
        worst = max(worst, abs(r))
    return float(worst)


def verify_property_3(ops, signal) -> float:
    """Residual of reconstructing a product of constant separator operators
    as ``x(k) + sum_m alpha_m x(k-m)``, with the alphas recovered from unit
    impulses pushed through the same sequential pipeline."""
    n_ops = len(ops)
    if any(op.order != 1 or not op.is_constant for op in ops):
        raise ConfigError("property 3 applies to first-order constant operators")

    def pipeline(x):
        y = np.asarray(x, dtype=float)
        for op in ops:
            y = apply_series(op, y)
        return y

    # impulse probe: response at offsets 0..n_ops gives (1, alpha_1..alpha_n)
    probe = np.zeros(2 * n_ops + 1)
    probe[n_ops] = 1.0
    resp = pipeline(probe)
    alphas = [resp[n_ops + m] for m in range(1, n_ops + 1)]

    y = pipeline(signal)
    worst = abs(resp[n_ops] - 1.0)
    for k in range(n_ops, len(signal)):
        recon = signal[k] + sum(a * signal[k - m] for m, a in enumerate(alphas, start=1))
        worst = max(worst, abs(y[k] - recon))
    return float(worst)
