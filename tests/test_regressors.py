import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plant_oracle
from thermbench.config import default_config
from thermbench.errors import ConfigError, HistoryUnderflowError
from thermbench.regressors import (DelayPolynomialOp, LaggedHistory,
                                   RegressorSpec, Structure, apply_op,
                                   build_regressor, compile_layout, compose,
                                   identity_op, layout, measured_columns,
                                   property2_correction, q_separator,
                                   q_varying, regressor_length, sum_entries,
                                   verify_property_1, verify_property_2,
                                   verify_property_3, warmup)
from thermbench.simulator import SECONDS_PER_HOUR

ALL_STRUCTURES = list(Structure)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def test_identity_op():
    x = np.random.default_rng(0).normal(size=16)
    for k in range(len(x)):
        assert apply_op(identity_op(), x, k) == x[k]


def test_separator_q_definition():
    # Q{x}(k) = x(k) - (1 + eps*a) x(k-1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=32)
    a, eps = -3.4e-5, 300.0
    q = q_separator(a, eps)
    for k in range(1, len(x)):
        assert apply_op(q, x, k) == pytest.approx(x[k] - (1 + eps * a) * x[k - 1],
                                                  rel=1e-15)


def test_composition_matches_convolution():
    rng = np.random.default_rng(2)
    x = rng.normal(size=64)
    a = DelayPolynomialOp(tuple(rng.normal(size=3)))
    b = DelayPolynomialOp(tuple(rng.normal(size=4)))
    ab = compose(a, b)
    conv = np.convolve(np.asarray(a.coeffs), np.asarray(b.coeffs))
    assert np.allclose(np.asarray(ab.coeffs), conv, rtol=1e-14)
    for k in range(ab.order, len(x)):
        direct = sum(c * x[k - m] for m, c in enumerate(conv))
        assert apply_op(ab, x, k) == pytest.approx(direct, rel=1e-12)


def test_insufficient_history_raises():
    q = q_separator(-1e-4, 300.0)
    with pytest.raises(HistoryUnderflowError):
        apply_op(q, [1.0, 2.0], 0)


def test_property_1_commutes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        eps = rng.uniform(0.01, 0.2)
        qa = q_separator(rng.uniform(-2, 0), eps)
        qb = q_separator(rng.uniform(-2, 0), eps)
        x = rng.normal(size=64)
        assert verify_property_1(qa, qb, x) < 1e-12


def test_property_1_identical_ops_exact_zero():
    rng = np.random.default_rng(4)
    q = q_separator(-0.7, 0.1)
    x = rng.normal(size=32)
    assert verify_property_1(q, q, x) == 0.0


def test_property_1_time_varying_discrepancy_is_correction_term():
    # swapping a separator operator with a flow-varying one leaves exactly
    # the first-difference correction term
    rng = np.random.default_rng(5)
    eps = 0.05
    a_s = -0.9
    a_series = rng.normal(size=64)
    x = rng.normal(size=64)
    q_s = q_separator(a_s, eps)
    q_w = q_varying(a_series, eps)
    sw = compose(q_s, q_w)
    ws = compose(q_w, q_s)
    for k in range(2, len(x)):
        diff = apply_op(sw, x, k) - apply_op(ws, x, k)
        corr = property2_correction(a_series, a_s, eps, x, k)
        assert diff == pytest.approx(corr, rel=1e-12, abs=1e-15)


def test_property_2_constant_flow_exact():
    rng = np.random.default_rng(6)
    flow = np.full(32, 0.0787)
    x = rng.normal(size=32)
    assert verify_property_2(flow, -1.2, 0.08, x) < 1e-15


def test_property_2_random_flow():
    rng = np.random.default_rng(7)
    for _ in range(30):
        flow = rng.uniform(0, 0.1, size=64)
        x = rng.normal(size=64)
        assert verify_property_2(flow, rng.uniform(-2, 0), rng.uniform(0.01, 0.2), x) < 1e-12


def test_property_2_step_flow_support():
    # direct-expansion oracle: the swap residual lives exactly where the flow
    # coefficient differs between consecutive samples, i.e. at the step index
    rng = np.random.default_rng(8)
    eps, a_s = 0.1, -0.8
    k0 = 10
    flow = np.where(np.arange(32) >= k0, 0.0787, 0.0)
    a_wc = lambda v: -(0.5 + v)
    a_series = np.array([a_wc(v) for v in flow])
    x = rng.normal(size=32)
    q_s = q_separator(a_s, eps)
    q_w = q_varying(a_series, eps)
    sw, ws = compose(q_s, q_w), compose(q_w, q_s)
    support = [k for k in range(2, 32)
               if abs(apply_op(sw, x, k) - apply_op(ws, x, k)) > 1e-14]
    assert support == [k0]


def test_property_3_reconstruction():
    rng = np.random.default_rng(9)
    for n_ops in (1, 2, 3, 4):
        eps = rng.uniform(0.01, 0.2)
        ops = [q_separator(rng.uniform(-2, 0), eps) for _ in range(n_ops)]
        x = rng.normal(size=64)
        assert verify_property_3(ops, x) < 1e-12


# ---------------------------------------------------------------------------
# regressor layouts
# ---------------------------------------------------------------------------

def test_rh_layout_block_list():
    lay = layout(RegressorSpec(Structure.NRM_FI_RH, 1))
    assert lay == (
        (("yhat_w", 1),),
        (("Vw", 1), ("yhat_w", 1)),
        (("Vw", 1), ("Tw_in", 1)),
        (("T_r", 1),),
    )


def test_regressor_lengths_fixed_points():
    assert regressor_length(RegressorSpec(Structure.NRM_FI_RH, 1)) == 4
    assert regressor_length(RegressorSpec(Structure.NRM_FI_ZONE, 1)) == 11
    assert regressor_length(RegressorSpec(Structure.NRM_MI, 1)) == 26
    assert regressor_length(RegressorSpec(Structure.NRM_LI, 1)) == 26
    assert regressor_length(RegressorSpec(Structure.LRM, 1)) == 21


def _lrm_length_oracle(n):
    # brute-force enumeration of the printed vector: one output block and one
    # block per input/disturbance channel over lags 1..n+2, the neighbor
    # block repeated per neighbor
    lags = n + 2
    count = lags              # predicted output lags
    count += n * lags         # neighbor temperatures, one block per neighbor
    count += 5 * lags         # air flow, air inlet, water flow, water inlet, gains
    return count


def test_lrm_length_by_enumeration():
    for n in (1, 2, 3, 4):
        assert regressor_length(RegressorSpec(Structure.LRM, n)) == _lrm_length_oracle(n)
    assert _lrm_length_oracle(2) == 32


def _mi_length_oracle(n):
    d = n + 2
    total = d            # output lags 1..d
    total += n * (d - 1)  # neighbors, lags 2..d
    total += d           # Va * yhat
    total += d           # Va * Ta
    total += d - 1       # Va * Vw * Ta, lags 2..d
    total += n + 1       # Vw(extra lag) * yhat, lags 1..n+1
    total += d - 1       # Vw * yhat, lags 2..d
    total += d - 1       # Vw * Va * yhat, lags 2..d
    total += d - 1       # Vw * Tw_in, lags 2..d
    total += d           # gains
    total += d - 1       # Vw * gains
    return total


def test_mi_length_by_enumeration():
    assert _mi_length_oracle(1) == 3 + 2 + 3 + 3 + 2 + 2 + 2 + 2 + 2 + 3 + 2
    for n in (1, 2, 3):
        assert regressor_length(RegressorSpec(Structure.NRM_MI, n)) == _mi_length_oracle(n)
        assert regressor_length(RegressorSpec(Structure.NRM_LI, n)) == _mi_length_oracle(n)


def _history_from_arrays(cols, upto):
    hist = LaggedHistory(list(cols))
    for k in range(upto):
        hist.push({c: cols[c][k] for c in cols})
    return hist


def _random_columns(rng, n, length=32):
    names = measured_columns(Structure.NRM_FI_ZONE, n) + ["occ"]
    return {c: rng.normal(size=length) for c in set(names)}


def test_build_matches_length_everywhere():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        cols = _random_columns(rng, n)
        for s in ALL_STRUCTURES:
            spec = RegressorSpec(s, n)
            hist = _history_from_arrays(cols, 20)
            for k in (warmup(spec), 12, 19):
                phi = build_regressor(spec, hist, k)
                assert len(phi) == regressor_length(spec)


def test_mi_entries_exactly_as_printed():
    # hand-built expected vector for one neighbor at a fixed k
    rng = np.random.default_rng(11)
    cols = _random_columns(rng, 1)
    hist = _history_from_arrays(cols, 16)
    k = 12
    y = cols["T_r"]  # prediction channel falls back to the measured value
    va, vw, ta, tw, q = (cols["Va"], cols["Vw"], cols["Ta_in"], cols["Tw_in"],
                         cols["Qext"])
    tr1 = cols["T_rj_1"]
    expected = [
        y[k - 1], y[k - 2], y[k - 3],
        tr1[k - 2], tr1[k - 3],
        va[k - 1] * y[k - 1], va[k - 2] * y[k - 2], va[k - 3] * y[k - 3],
        va[k - 1] * ta[k - 1], va[k - 2] * ta[k - 2], va[k - 3] * ta[k - 3],
        va[k - 2] * vw[k - 2] * ta[k - 2], va[k - 3] * vw[k - 3] * ta[k - 3],
        vw[k - 2] * y[k - 1], vw[k - 3] * y[k - 2],
        vw[k - 2] * y[k - 2], vw[k - 3] * y[k - 3],
        vw[k - 2] * va[k - 2] * y[k - 2], vw[k - 3] * va[k - 3] * y[k - 3],
        vw[k - 2] * tw[k - 2], vw[k - 3] * tw[k - 3],
        q[k - 1], q[k - 2], q[k - 3],
        vw[k - 2] * q[k - 2], vw[k - 3] * q[k - 3],
    ]
    phi = build_regressor(RegressorSpec(Structure.NRM_MI, 1), hist, k)
    assert np.allclose(phi, expected, rtol=1e-15)


def test_li_replaces_inlet_temperatures_with_unity():
    rng = np.random.default_rng(12)
    cols = _random_columns(rng, 1)
    hist = _history_from_arrays(cols, 16)
    unity = dict(cols)
    unity["Tw_in"] = np.ones_like(cols["Tw_in"])
    unity["Ta_in"] = np.ones_like(cols["Ta_in"])
    hist_unity = _history_from_arrays(unity, 16)
    k = 12
    li = build_regressor(RegressorSpec(Structure.NRM_LI, 1), hist, k)
    mi = build_regressor(RegressorSpec(Structure.NRM_MI, 1), hist_unity, k)
    assert np.allclose(li, mi, rtol=1e-15)


def test_entry_shape_audit():
    for n in (1, 2, 3):
        for s in ALL_STRUCTURES:
            shapes = [len(e) for e in layout(RegressorSpec(s, n))]
            assert max(shapes) <= 3
            if s is Structure.NRM_MI:
                assert shapes.count(3) == 2 * (n + 1)  # the two triple blocks
            if s is Structure.LRM:
                assert max(shapes) == 1


def test_mi_with_unit_flows_lies_in_lrm_span():
    # with both flows pinned at one, every MI entry value equals some LRM
    # entry value on the same history
    rng = np.random.default_rng(13)
    cols = _random_columns(rng, 1)
    cols["Vw"] = np.ones_like(cols["Vw"])
    cols["Va"] = np.ones_like(cols["Va"])
    hist = _history_from_arrays(cols, 16)
    k = 12
    mi = build_regressor(RegressorSpec(Structure.NRM_MI, 1), hist, k)
    lrm = set(build_regressor(RegressorSpec(Structure.LRM, 1), hist, k).tolist())
    for v in mi:
        assert v in lrm


def test_warmup_depths():
    assert warmup(RegressorSpec(Structure.NRM_FI_RH, 1)) == 1
    assert warmup(RegressorSpec(Structure.NRM_FI_ZONE, 1)) == 2
    for n in (1, 2):
        assert warmup(RegressorSpec(Structure.NRM_MI, n)) == n + 2
        assert warmup(RegressorSpec(Structure.LRM, n)) == n + 2


def test_build_underflow():
    rng = np.random.default_rng(14)
    cols = _random_columns(rng, 1)
    hist = _history_from_arrays(cols, 2)
    with pytest.raises(HistoryUnderflowError):
        build_regressor(RegressorSpec(Structure.NRM_MI, 1), hist, 2)


def test_missing_channel_is_config_error():
    hist = LaggedHistory(["T_r", "Vw"])
    hist.push({"T_r": 21.0, "Vw": 0.0})
    hist.push({"T_r": 21.0, "Vw": 0.0})
    with pytest.raises(ConfigError):
        build_regressor(RegressorSpec(Structure.NRM_FI_RH, 1), hist, 2)


def test_predictions_overwrite_mirror():
    hist = LaggedHistory(["T_r"])
    hist.push({"T_r": 20.0})
    hist.push({"T_r": 21.0})
    assert hist.get("yhat_r", 1) == 21.0
    hist.record_prediction("yhat_r", 1, 22.5)
    assert hist.get("yhat_r", 1) == 22.5
    assert hist.get("T_r", 1) == 21.0


# ---------------------------------------------------------------------------
# compiled layouts
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(structure=st.sampled_from(ALL_STRUCTURES), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), width=st.integers(1, 5))
@example(structure=Structure.LRM, n=1, seed=0, width=1)
@example(structure=Structure.NRM_FI_ZONE, n=2, seed=1, width=3)
@example(structure=Structure.NRM_FI_RH, n=3, seed=2, width=5)
@example(structure=Structure.NRM_MI, n=1, seed=3, width=4)
@example(structure=Structure.NRM_LI, n=3, seed=4, width=2)
def test_compiled_layout_matches_build_regressor(structure, n, seed, width):
    spec = RegressorSpec(structure, n)
    rng = np.random.default_rng(seed)
    hist = _history_from_arrays(_random_columns(rng, n), 32)
    for k in range(32):  # predictions that differ from their mirrors
        hist.record_prediction("yhat_r", k, rng.normal())
        hist.record_prediction("yhat_w", k, rng.normal())
    lay = compile_layout(spec)
    assert lay is compile_layout(spec)
    assert lay.entries == layout(spec)
    # one value-table column per evaluation sample
    ks = rng.integers(warmup(spec), 32, size=width)
    values = np.array([[hist.get(c, k - lag) for k in ks] for c, lag in lay.columns]
                      + [[1.0] * width])
    terms = lay.terms(values)
    for j, k in enumerate(ks):
        assert np.array_equal(terms[:, j], build_regressor(spec, hist, k))
    # coefficient first, factors left to right, entries summed in order
    theta = rng.normal(size=len(lay.entries))
    got = sum_entries(lay.terms(values, theta[:, None]))
    for j, k in enumerate(ks):
        acc = 0.0
        for coef, entry in zip(theta, lay.entries):
            term = coef
            for channel, lag in entry:
                term *= hist.get(channel, k - lag)
            acc += term
        assert got[j] == acc


_AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-308, -2.5e-308, 1e300, -1e300,
            1.0, -3.5, 0.1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(entries=st.integers(1, 130),
       columns=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 16, 64, 1024]),
       zero_column=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(entries=130, columns=1, zero_column=True, seed=0)
@example(entries=129, columns=7, zero_column=False, seed=1)
@example(entries=9, columns=1024, zero_column=True, seed=2)
@example(entries=1, columns=16, zero_column=True, seed=3)
def test_sum_entries_adds_left_to_right(entries, columns, zero_column, seed):
    # the one fixed-order sum of the rollout and of the MPC costs, so a
    # plan's bits do not depend on how many rows share its arrays: numpy's
    # own sum of one contiguous axis is pairwise from 9 values on, and its
    # reduction across rows starts from 0.0, which turns an all -0.0 column
    # into +0.0 however many columns there are
    rng = np.random.default_rng(seed)
    shape = (entries, columns)
    terms = np.where(rng.random(shape) < 0.3, rng.choice(_AWKWARD, size=shape),
                     rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape))
    if zero_column:
        terms[:, rng.integers(columns)] = -0.0
    want = []
    for column in terms.T.tolist():
        total = 0.0
        for value in column:
            total += value
        want.append(float.hex(total))
    for got in (sum_entries(terms), sum_entries(terms, out=np.empty(columns))):
        assert [float.hex(v) for v in got] == want


def test_compile_layout_rejects_a_prediction_factor_before_the_last(monkeypatch):
    # the static/prediction split of an entry relies on this order
    import thermbench.regressors as regressors
    monkeypatch.setattr(regressors, "layout",
                        lambda spec: ((("Va", 1), ("yhat_r", 1)),
                                      (("yhat_r", 1), ("Va", 1))))
    with pytest.raises(ConfigError, match="prediction factor"):
        compile_layout.__wrapped__(RegressorSpec(Structure.LRM, 1))


@pytest.mark.parametrize("entry,message", [
    ((("Va", 0), ("yhat_r", 1)), "lag below 1"),
    ((("T_r", 1), ("Vw", 1)), "prediction factor or its mirror"),
])
def test_compile_layout_checks_the_rollout_invariants(monkeypatch, entry, message):
    # the rollout reads T_r/T_w as predictions and every lag from the past
    import thermbench.regressors as regressors
    monkeypatch.setattr(regressors, "layout", lambda spec: ((("Va", 1),), entry))
    with pytest.raises(ConfigError, match=message):
        compile_layout.__wrapped__(RegressorSpec(Structure.LRM, 1))


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_every_layout_compiles_with_a_warmup_of_at_least_one(structure):
    for n in range(1, 5):
        spec = RegressorSpec(structure, n)
        compile_layout(spec)
        assert warmup(spec) >= 1


# ---------------------------------------------------------------------------
# the layouts against the plant's heat balances
# ---------------------------------------------------------------------------

def _plant_run(step, epsilon, flows, n=600, seed=0):
    """``n`` samples of the default one-neighbor plant stepped by ``step``
    (``plant_oracle.euler`` or ``rk4``), by dataset column: the water flow
    drawn per sample from ``flows``, the other inputs uniformly."""
    plant = default_config().plant
    rng = np.random.default_rng(seed)
    cols = {"Vw": rng.choice(flows, n), "Va": rng.uniform(0.0, 0.06, n),
            "Tw_in": rng.uniform(30.0, 50.0, n), "Ta_in": rng.uniform(15.0, 22.0, n),
            "T_rj_1": rng.uniform(-5.0, 15.0, n), "Qext": rng.uniform(0.0, 300.0, n)}
    x, h = [20.0, 12.0, 30.0], epsilon * SECONDS_PER_HOUR
    cols["T_r"], cols["T_w"] = np.empty(n), np.empty(n)
    for k in range(n):
        cols["T_r"][k], cols["T_w"][k] = x[0], x[-1]
        x = step(plant, x, (cols["Vw"][k], cols["Va"][k], cols["Tw_in"][k],
                            cols["Ta_in"][k], [cols["T_rj_1"][k]], cols["Qext"][k]), h)
    return cols


def _fit_residual(structure, cols):
    """RMS residual in K of the equation-error least-squares fit of the
    one-neighbor layout of ``structure`` to ``cols``, the measured outputs
    in place of the predictions."""
    theta, phi, y = plant_oracle.fit_layout(RegressorSpec(structure, 1), cols)
    return float(np.sqrt(np.mean(np.square(phi @ theta - y))))


def test_layouts_against_the_discretized_heat_balances():
    # both FI layouts are the forward-Euler heat balances with the separator
    # states eliminated; MI is exact only at constant flow (Property 2's
    # correction term is nonzero where the flow changes); LRM and LI are
    # approximations
    flows = (0.0, 0.03, 0.0787)
    euler = _plant_run(plant_oracle.euler, 1.0 / 12.0, flows)
    for structure in (Structure.NRM_FI_ZONE, Structure.NRM_FI_RH):
        assert _fit_residual(structure, euler) < 1e-10, structure
    for structure in (Structure.LRM, Structure.NRM_LI):
        assert _fit_residual(structure, euler) > 1e-4, structure
    constant = _plant_run(plant_oracle.euler, 1.0 / 12.0, flows[-1:])
    assert _fit_residual(Structure.NRM_MI, constant) < 1e-10
    # the plant steps by RK4, which no layout reproduces: the residuals of
    # MI and FI fall second order in the sampling period
    coarse, fine = (_plant_run(plant_oracle.rk4, epsilon, flows)
                    for epsilon in (1.0 / 12.0, 1.0 / 24.0))
    for structure in (Structure.NRM_MI, Structure.NRM_FI_ZONE):
        ratio = _fit_residual(structure, coarse) / _fit_residual(structure, fine)
        assert 3.0 <= ratio <= 5.0, (structure, ratio)
