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

One rollout kernel serves every plan.  It evaluates the compiled water and
zone layouts over a row axis of plans and walks the plan-prefix tree: every
regressor lag is at least one sample, so the horizon steps of period p depend
on the choices of periods 0..p only, and period p is rolled out once per
prefix (4, 16, 64, 256 and 1024 rows under the default config).  The tree
still reaches every admissible plan, so the search stays exhaustive.  Every
kernel entry is ``coef * f0 * f1 * ... * pred``: the trailing prediction
factor reads a zone or water prediction, the factors before it read only the
controls and the plan-independent signals.  The kernel works in two stages:

1. Once per decision, the prefix ``coef * f0 * f1 * ...`` of every entry is
   computed for every horizon step in one call.  Each period's steps are
   evaluated over the distinct combinations of options of the periods
   their control lags reach (16 under the default config, whatever the
   number of rows).  The control rows of that value table depend on the
   plan tree alone: ``solve`` copies them from a template cached per spec
   and config, and only the few slots whose lags reach the recorded
   controls, and the plan-independent signals, are written per decision.
2. Once per horizon step, one gather reads each entry's trailing prediction
   factor (an exact 1.0 where an entry has none), one multiply applies the
   prefixes, and the water and zone entries are summed.

The products are those of a single multiplication chain, in the same order,
and ``* 1.0`` is exact, so a plan costs the same bits alone or among others;
``predict_horizon`` is the one-row case.  Internally the newest period's
option is the most significant digit of a row (each period boundary tiles
the rows so far once per option), so the rows of one combination form a
contiguous block that one prefix broadcasts over.  The cost terms are laid
out by horizon position, one column per row, and each row's sums repeat
numpy's pairwise summation of a C-ordered row one whole-column operation at
a time (``_pairwise_sums``), so no transposed copy is made.  The costs are
permuted back to enumeration order once per decision, with a fixed
per-config permutation, so the first-minimum tie-break is unchanged.
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


def water_estimate(theta_w: np.ndarray, spec: RegressorSpec,
                   columns: Mapping[str, np.ndarray], t: int) -> float:
    """The water predictor's output-error estimate at position ``t`` of
    ``columns`` (``T_r``, ``yhat_w``, ``Tw_in`` and ``Vw`` by position) from
    the positions before it.

    The regressor is the compiled water-layout row, its products started
    from an exact 1.0 as ``build_regressor`` starts them, and one
    ``@ theta_w`` follows: ``identify.oe_predict`` bit for bit.
    """
    lay = compile_layout(_rh_spec(spec))
    deepest = max(lag for _, lag in lay.columns)
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
    plane ``pred_plane`` at lag ``pred_lag``, or an exact 1.0 where
    ``has_pred`` is 0.
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
    """The control rows of the stage-1 value table over the whole horizon:
    what of it depends on the plan tree and on nothing measured.

    Horizon step ``k`` of period p reads column ``j`` as the combination
    ``j % n_comb[p]`` of options of the periods ``lo..p`` that its control
    lags reach, period ``lo``'s option the least significant digit, as in
    the rollout rows; the columns from ``n_comb[p]`` on repeat combinations
    and are never read.  ``values`` has shape ``(control rows, n_hor,
    max(n_comb))``.  Slot ``i`` of ``rec_*`` (control row ``rec_row``, step
    ``rec_step``) reads a recorded control instead, position ``rec_pos`` of
    control plane ``rec_plane``; each decision writes those slots.
    """

    values: np.ndarray
    n_comb: tuple[int, ...]
    rec_row: np.ndarray
    rec_step: np.ndarray
    rec_plane: np.ndarray
    rec_pos: np.ndarray


def _control_template(spec: RegressorSpec, choices, s: int) -> _Template:
    """The control template of the plan tree ``choices`` (period p's
    candidate inlet and flow values as two arrays) at ``s`` samples per
    period."""
    kern = _kernel(spec)
    w = max(warmup(spec), 1)
    sizes = [len(inlet) for inlet, _ in choices]
    lo = np.maximum(np.arange(len(sizes)) - kern.depth(s), 0)
    n_comb = tuple(math.prod(sizes[a:p + 1]) for p, a in enumerate(lo))
    steps = np.arange(len(sizes) * s)
    period = steps // s
    # step k (position w+1+k) reads the controls applied at position
    # w+1+k-lag: recorded ones before w, those of period (pos - w) // s after
    pos = w + 1 + steps - kern.control_lag[:, None]
    q = np.maximum(pos - w, 0) // s
    # period q's digit of a combination of periods lo..p weighs the option
    # counts of periods lo..q-1
    radix = np.cumprod([1] + sizes)
    comb = np.arange(max(n_comb)) % np.array(n_comb)[period][:, None]
    option = (comb // (radix[q] // radix[lo[period]])[..., None]
              % np.array(sizes)[q][..., None])
    table = np.zeros((2, len(sizes), max(sizes)))
    for p, options in enumerate(choices):
        table[:, p, :sizes[p]] = options
    rec_row, rec_step = np.nonzero(pos < w)
    return _Template(_readonly(table[kern.control_plane[:, None, None], q[..., None],
                                     option]),
                     n_comb, _readonly(rec_row), _readonly(rec_step),
                     _readonly(kern.control_plane[rec_row]),
                     _readonly(pos[rec_row, rec_step]))


def _prefixes(kern: _Kernel, tpl: _Template, coef: np.ndarray,
              controls: np.ndarray, shared_at: np.ndarray, values: np.ndarray,
              out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Stage 1: ``coef * f0 * f1 * ...`` of every entry, up to its trailing
    prediction factor, at every horizon step, into ``out`` of shape
    ``(entries, n_hor, width)``; period p's steps read its first
    ``tpl.n_comb[p]`` columns.

    ``controls`` holds the recorded controls by position, ``shared_at`` the
    shared value-table rows at every horizon step.  ``values`` (the value
    table, ``(columns + 1, n_hor, width)``) and ``scratch`` (``out``'s shape)
    are overwritten.
    """
    values[kern.control_rows] = tpl.values
    values[kern.control_rows[tpl.rec_row], tpl.rec_step] = \
        controls[tpl.rec_plane, tpl.rec_pos, None]
    values[kern.shared_rows] = shared_at[:, :, None]
    values[kern.one_rows] = 1.0
    return kern.lay.terms(values, coef[:, None, None], out=out, scratch=scratch)


_WORKSPACE: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}


def _workspace(*sizes: int) -> tuple[np.ndarray, ...]:
    """Scratch memory of the rollouts of one shape: one flat array of each
    of ``sizes``.

    Every such rollout reuses it and writes it before reading it.  Memory
    of this size allocated afresh per decision is page-faulted in anew
    whenever the allocator has returned it to the system in between (with
    glibc's malloc, about 550 minor faults per decision under the default
    config).  The memory is held until a rollout of another shape needs
    its own, and released before that one is allocated, so that the two
    are never held at once (allocated first, the new arrays could not reuse
    the old ones' memory: switching between the closed-loop week's two
    specs raised the peak resident memory by about 1 MB).  A rollout's
    buffers are valid until the next rollout, so rollouts must not run
    concurrently.
    """
    if sizes not in _WORKSPACE:
        _WORKSPACE.clear()
        _WORKSPACE[sizes] = tuple(np.empty(n) for n in sizes)
    return _WORKSPACE[sizes]


def _tile(region: np.ndarray, buffers: np.ndarray, m: int, done: int) -> None:
    """Tile the first ``done`` positions of ``buffers``, ``(2, width,
    rows)`` at the front of ``region``, into ``(2, width, m, rows)`` at the
    front of ``region``: ``m`` copies of each position's rows.

    The copy of flat position ``i`` (plane-major) lands on positions
    ``i*m .. i*m+m-1`` of the source's layout, never below ``i``.  So the
    water plane is copied first, then the zone plane from the top down in
    ranges ``[lo, hi)`` with ``lo*m >= hi``: no range overwrites a source
    not yet read or overlaps its own, and numpy needs no temporary copy (an
    overlapping assignment copies its whole source first, which took about
    half the time of the tiling).
    """
    width = buffers.shape[1]
    src = buffers.reshape(2 * width, -1)
    dst = region[:src.size * m].reshape(2 * width, m, -1)
    dst[width:width + done] = src[width:width + done, None]
    hi = done
    while hi > 1:
        lo = -(-hi // m)
        dst[lo:hi] = src[lo:hi, None]
        hi = lo
    dst[0, 1:] = src[0]  # position 0's first copy is its source


def _rollout(theta_r: np.ndarray, theta_w: np.ndarray, spec: RegressorSpec,
             win: DecisionWindow, cfg: MpcConfig, choices,
             template: _Template | None = None) -> tuple[np.ndarray, int]:
    """Roll the water and zone predictors out over a tree of plan prefixes.

    ``choices[p]`` holds period p's candidate (inlet, flow) values as two
    arrays, and ``template`` their control template, built here when not
    given.  Every lag is at least one sample, so the horizon steps of
    period p read controls of periods 0..p only: at each period boundary
    the rows are tiled once per option, and the period is rolled out once
    per plan prefix (stage 1 computes the prefixes of every period at once,
    stage 2 steps them; see the module docstring).  Each row's arithmetic
    does not depend on how many rows there are.  Returns ``(buffers, w)``:
    ``buffers`` has shape ``(2, w + 1 + n_hor, rows)`` and holds the zone
    and water predictions by position (0..w-1 the last ``w`` recorded
    positions of ``win``, w the decision sample, w+1.. the horizon).  Row
    ``sum_p o_p * (m_0 * ... * m_{p-1})`` is the plan of option ``o_p`` of
    ``m_p`` in period p: the newest period is the most significant digit.
    """
    n = cfg.n_hor
    s = cfg.samples_per_period
    w = max(warmup(spec), 1)
    win.check(spec, n)
    cols, lo = win.columns, win.past - w
    total = w + 1 + n
    kern = _kernel(spec)
    tpl = template if template is not None else _control_template(spec, choices, s)
    coef = np.concatenate((theta_w, theta_r))

    # plan-independent signals by position
    shared = np.array([cols[c][lo:] for c in kern.shared], dtype=float)
    steps = np.arange(w + 1, total)
    # the shared rows of the value table at each horizon step
    shared_at = shared[kern.shared_channel[:, None], steps - kern.shared_lag[:, None]]
    controls = np.array([cols[c][lo:] for c in _CONTROLS], dtype=float)

    # prediction buffers by position, and one position of exact 1.0s that
    # the entries without a prediction factor read in stage 2; every period's
    # rows live at the front of the workspace region.  Stage 1 runs before
    # the buffers are written, so its value table and gather scratch borrow
    # the region too.
    width = total + 1
    n_rows = math.prod(len(inlet) for inlet, _ in choices)
    value_shape = (len(kern.lay.columns) + 1, n, tpl.values.shape[2])
    prefix_shape = (len(coef), n, tpl.values.shape[2])
    n_values, n_prefix = math.prod(value_shape), math.prod(prefix_shape)
    region, scratch, stage1 = _workspace(
        max(2 * width * n_rows, n_values + n_prefix), len(coef) * n_rows, n_prefix)
    prefix = _prefixes(kern, tpl, coef, controls, shared_at,
                       region[:n_values].reshape(value_shape),
                       stage1.reshape(prefix_shape),
                       region[n_values:n_values + n_prefix].reshape(prefix_shape))
    buffers = region[:2 * width].reshape(2, width, 1)
    # the zone predictions' past is the measured zone temperature
    buffers[0, :w + 1, 0] = cols["T_r"][lo:]
    buffers[1, :w, 0] = cols["yhat_w"][lo:]
    buffers[1, w] = water_estimate(theta_w, spec, cols, win.past)
    buffers[:, total] = 1.0
    # the row of the flattened buffers each entry reads at each horizon step
    gather = np.where(kern.has_pred, kern.pred_plane * width - kern.pred_lag
                      + steps[:, None], total)

    nw = kern.n_water
    for p, (inlet, _) in enumerate(choices):
        rows = buffers.shape[2] * len(inlet)
        if len(inlet) > 1:
            # tile: one block of the rows so far per option of period p
            _tile(region, buffers, len(inlet), w + p * s + 1)
            buffers = region[:2 * width * rows].reshape(2, width, rows)
            buffers[:, total] = 1.0
        flat = buffers.reshape(2 * width, rows)
        terms = scratch[:len(coef) * rows].reshape(len(coef), rows)
        # the rows of one combination of options are a contiguous block
        n_comb = tpl.n_comb[p]
        blocks = terms.reshape(len(coef), n_comb, -1)
        water, zone = terms[:nw], terms[nw:]
        step_prefixes = prefix[:, p * s:(p + 1) * s, :n_comb].transpose(1, 0, 2)
        for k, step_prefix in enumerate(step_prefixes[..., None], start=p * s):
            flat.take(gather[k], axis=0, out=terms, mode="clip")
            blocks *= step_prefix
            sum_entries(water, out=buffers[1, w + 1 + k])
            sum_entries(zone, out=buffers[0, w + 1 + k])
    buffers = buffers[:, :total]
    if not np.all(np.isfinite(buffers[:, w:])):
        raise DivergenceError("plan rollout produced non-finite predictions")
    return buffers, w


def _pairwise_sums(a: np.ndarray) -> np.ndarray:
    """numpy's sum of each column of ``a``, ``(n, rows)``, as if the column
    were a C-ordered row: ``np.sum(np.ascontiguousarray(a.T), axis=1)`` bit
    for bit, without the transposing copy.

    numpy sums a contiguous float64 row of ``n`` values as ``0.0 + pw(n)``:
    below 8 values ``pw`` adds them in order from 0.0; up to 128 it keeps
    eight accumulators ``r[j] = a[j]``, adds each block of eight into them,
    combines them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the
    ``n % 8`` left over in order; above 128 it splits at ``n // 2`` rounded
    down to a multiple of 8 and adds the two halves' ``pw``.  Here each of
    those steps is one operation over all the columns.  The leading ``0.0 +`` is
    kept: it makes the sum of all ``-0.0`` ``+0.0``, as numpy's is.
    """
    return 0.0 + _pairwise(a)


def _pairwise(a: np.ndarray) -> np.ndarray:
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(a[:half]) + _pairwise(a[half:])
    if n < 8:
        total = np.zeros(a.shape[1:])
        start = 0
    else:
        start = n - n % 8
        # a reduction over the outer axis adds block after block, from +0.0:
        # that changes only the sign of a zero, which the leading 0.0 + of
        # _pairwise_sums makes +0.0 either way
        r = np.add.reduce(a[:start].reshape(start // 8, 8, -1), axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in a[start:]:
        total += row
    return total


def _costs(t_r: np.ndarray, t_w: np.ndarray, inlet: np.ndarray,
           flow: np.ndarray, win: DecisionWindow, cfg: MpcConfig):
    """Comfort and heating cost of each row (one plan per row).

    ``t_r`` holds horizon positions 0..n_hor and ``t_w`` 0..n_hor-1 of each
    row as ``(positions, rows)`` arrays; ``inlet`` and ``flow`` hold each
    row's option as ``(periods, rows)`` arrays; the occupancy is ``win``'s
    from the decision sample on.  The comfort sum is averaged
    by n_hor; the heating term is beta * t_sam * (inlet - predicted outlet),
    optionally multiplied by an indicator that the flow is nonzero.  Every
    row sum is numpy's sum of the row in C order (``_pairwise_sums``), so a
    plan costs the same bits alone or among others.  The terms are computed
    in place: ``t_r`` and ``t_w`` are overwritten.
    """
    n = cfg.n_hor
    comfort = np.subtract(t_r, cfg.t_set, out=t_r)
    np.square(comfort, out=comfort)
    comfort *= win.columns["occ"][win.past:, None]
    # the samples of each period against that period's option
    heating = t_w.reshape(len(inlet), -1, t_w.shape[1])
    np.subtract(inlet[:, None], heating, out=heating)
    if cfg.heating_cost_gated_by_flow:
        heating *= (flow > 0.0)[:, None]
    return (cfg.alpha * _pairwise_sums(comfort) / n,
            cfg.beta * cfg.t_sam * _pairwise_sums(heating.reshape(n, -1)))


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
    buffers, w = _rollout(theta_r, theta_w, spec, win, cfg, choices)
    return buffers[0, w:w + n + 1, 0].copy(), buffers[1, w:w + n, 0].copy()


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
    # copies: the costs are computed in place
    t_r = np.array(t_r_trace, dtype=float)[:, None]
    t_w = np.array(t_w_trace, dtype=float)[:, None]
    comfort, heating = (float(c[0]) for c in _costs(
        t_r, t_w, options[:, :1], options[:, 1:], win, cfg))
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
    the same order.  ``inlet_rows`` and ``flow_rows`` hold the option of
    each period in each rollout row, and ``order`` the rollout row of each
    plan: ``costs[order]`` puts costs by row into enumeration order.
    """

    plans: tuple
    pump: np.ndarray
    inlet: np.ndarray
    flow: np.ndarray
    inlet_rows: np.ndarray
    flow_rows: np.ndarray
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
    # period p's option is the digit of weight m**p of the rollout row:
    # the reverse digit order of the enumeration
    digits = np.arange(n_plans) // m ** np.arange(n_periods)[:, None] % m
    order = np.arange(n_plans).reshape((m,) * n_periods).T.ravel()
    table = _PlanTable(plans, pump, inlet, flow, inlet[digits], flow[digits], order)
    for a in (pump, inlet, flow, table.inlet_rows, table.flow_rows, order):
        a.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _plan_template(spec: RegressorSpec, cfg: MpcConfig) -> _Template:
    """The control template of ``solve``'s plan tree, built once per spec
    and config."""
    table = _plan_table(cfg)
    return _control_template(spec, table.choices, cfg.samples_per_period)


def _plan_costs(theta_r, theta_w, spec, win, cfg) -> np.ndarray:
    """Total cost of every plan, in enumeration order."""
    n = cfg.n_hor
    table = _plan_table(cfg)
    buffers, w = _rollout(theta_r, theta_w, spec, win, cfg, table.choices,
                          _plan_template(spec, cfg))
    # the costs overwrite the predictions, which nothing reads after them
    comfort, heating = _costs(buffers[0, w:w + n + 1], buffers[1, w:w + n],
                              table.inlet_rows, table.flow_rows, win, cfg)
    return (comfort + heating)[table.order] + table.pump


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
