import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermbench.errors import ConfigError, DivergenceError, HistoryUnderflowError
from thermbench.identify import oe_predict, train
from thermbench.mpc import (ControlPlan, DecisionWindow, MpcConfig,
                            closed_loop_run, plan_cost, predict_horizon,
                            realized_costs, solve, stage_costs, water_estimate)
from thermbench.regressors import (LaggedHistory, RegressorSpec, Structure,
                                   warmup, water_spec)
from thermbench.simulator import (SECONDS_PER_HOUR, OccupancySchedule, step,
                                  run_probe_experiment)
from thermbench.thermal_core import (ControlInput, Disturbance, PlantState,
                                     SeparatorParams)

import mpc_oracle
import plant_oracle
from mpc_oracle import scalar_costs

SPEC = RegressorSpec(Structure.NRM_MI, 1)


def toy_cfg(**kw):
    base = dict(alpha=1e6, t_sam=1.0 / 12.0, t_opt=1.0, t_hor=2.0)
    base.update(kw)
    return MpcConfig(**base)


def stable_toy_theta(spec, seed=0):
    rng = np.random.default_rng(seed)
    from thermbench.regressors import layout, regressor_length
    theta = np.zeros(regressor_length(spec))
    for i, entry in enumerate(layout(spec)):
        chans = [c for c, _ in entry]
        if chans == ["yhat_r"]:
            theta[i] = {1: 0.85, 2: 0.06, 3: 0.03}.get(entry[0][1], 0.0)
        elif "yhat_r" in chans:
            theta[i] = rng.uniform(-0.2, 0.2)
        else:
            theta[i] = rng.uniform(-0.01, 0.01)
    return theta


def toy_theta_w(eps_s=300.0):
    # physically shaped water predictor: mild decay plus inlet coupling
    return np.array([0.9, -0.7, 0.7, 0.1])


def window(past, now, future):
    """A decision window from the recorded ``past`` arrays, the decision
    sample's values ``now`` and the exogenous ``future`` arrays, by channel."""
    cols = {c: np.concatenate((past[c], [now[c]], a)) for c, a in future.items()}
    cols["T_r"] = np.append(past["T_r"], now["T_r"])
    cols.update((c, past[c]) for c in ("yhat_w", "Tw_in", "Vw"))
    return DecisionWindow(cols)


def warm_history(n=8, seed=1):
    """The recorded past of a one-neighbor toy window, by channel; the
    occupancy of the past is never read."""
    rng = np.random.default_rng(seed)
    past = {c: np.empty(n) for c in ("T_r", "T_rj_1", "yhat_w")}
    for k in range(n):
        past["T_r"][k] = 20.5 + 0.1 * rng.normal()
        past["T_rj_1"][k] = 5.0 + rng.normal()
        past["yhat_w"][k] = 30.0 + rng.normal()
    return {**past, "Ta_in": np.full(n, 19.0), "Va": np.full(n, 0.03),
            "Qext": np.full(n, 200.0), "Vw": 0.0787 * (np.arange(n) % 2),
            "Tw_in": np.full(n, 41.0), "occ": np.ones(n)}


def toy_forecast(cfg, past, seed=2, occ=1.0):
    """``past``, a decision sample and a toy forecast over ``cfg``'s
    horizon, occupied at ``occ`` throughout."""
    rng = np.random.default_rng(seed)
    n = cfg.n_hor
    future = {"occ": np.full(n, occ),
              "Ta_in": np.full(n, 19.0) + 0.1 * rng.normal(size=n),
              "Va": np.full(n, 0.03), "Qext": np.full(n, 200.0) + rng.normal(size=n),
              "T_rj_1": np.full(n, 5.0) + 0.2 * rng.normal(size=n)}
    now = {"T_r": 20.5, "occ": occ, "T_rj_1": 5.0, "Ta_in": 19.0, "Va": 0.03,
           "Qext": 200.0}
    return window(past, now, future)


def toy_window(cfg, seed=1, forecast_seed=2, occ=1.0):
    return toy_forecast(cfg, warm_history(seed=seed), forecast_seed, occ)


# ---------------------------------------------------------------------------
# configuration and plan mechanics
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ConfigError):
        MpcConfig(t_opt=0.7)  # not a multiple of t_sam
    with pytest.raises(ConfigError):
        MpcConfig(t_hor=2.5)  # not a multiple of t_opt
    cfg = MpcConfig()
    assert cfg.n_hor == 60 and cfg.n_periods == 5 and cfg.samples_per_period == 12


def test_plan_expansion_zero_order_hold():
    cfg = toy_cfg()
    plan = ControlPlan(((40.0, 0.0), (45.0, 0.0787)))
    inlet, flow = plan.expand(cfg)
    assert len(inlet) == 24
    assert np.all(inlet[:12] == 40.0) and np.all(inlet[12:] == 45.0)
    assert np.all(flow[:12] == 0.0) and np.all(flow[12:] == 0.0787)
    three = ControlPlan(plan.periods + ((40.0, 0.0),))
    for call in (lambda: three.expand(cfg),
                 lambda: predict_horizon(stable_toy_theta(SPEC), toy_theta_w(), SPEC,
                                         toy_window(cfg), three, cfg)):
        with pytest.raises(ConfigError, match="^plan has 3 periods, config expects 2$"):
            call()


def test_budget_cap():
    cfg = MpcConfig(plan_budget=100)  # 4^5 = 1024 > 100
    with pytest.raises(ConfigError):
        solve(stable_toy_theta(SPEC), toy_theta_w(), SPEC, toy_window(cfg), cfg)


def test_causality_plans_equal_until_divergence():
    cfg = toy_cfg(t_hor=3.0)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    win = toy_window(cfg)
    a = ControlPlan(((40.0, 0.0787), (45.0, 0.0), (40.0, 0.0)))
    b = ControlPlan(((40.0, 0.0787), (45.0, 0.0), (45.0, 0.0787)))
    tr_a = predict_horizon(theta, theta_w, SPEC, win, a, cfg)
    tr_b = predict_horizon(theta, theta_w, SPEC, win, b, cfg)
    j = 2 * cfg.samples_per_period  # plans agree through the second period
    assert np.array_equal(tr_a[0][:j + 1], tr_b[0][:j + 1])
    assert np.array_equal(tr_a[1][:j], tr_b[1][:j])
    assert not np.array_equal(tr_a[0], tr_b[0])


# ---------------------------------------------------------------------------
# plan_cost
# ---------------------------------------------------------------------------

def test_cost_all_zero():
    cfg = toy_cfg()
    n = cfg.n_hor
    plan = ControlPlan(((40.0, 0.0), (40.0, 0.0)))
    win = toy_window(cfg, occ=0.0)
    tw = np.full(n, 40.0)  # outlet equals inlet: no heating term
    tr = np.full(n + 1, 21.0)
    c = plan_cost((tr, tw), plan, win, cfg)
    assert c.total == c.comfort == c.heating == c.pump == 0.0


def test_pump_cost_hand_value():
    # 0.5278e3 * (1/12) * 0.0787 per sample, 60 samples
    cfg = MpcConfig()
    plan = ControlPlan(tuple((45.0, 0.0787) for _ in range(5)))
    tr = np.full(cfg.n_hor + 1, 21.0)
    tw = np.full(cfg.n_hor, 45.0)
    c = plan_cost((tr, tw), plan, toy_window(cfg), cfg)
    assert c.pump == pytest.approx(0.5278e3 * (1.0 / 12.0) * 0.0787 * 60, rel=1e-12)
    assert c.pump == pytest.approx(207.69, abs=0.01)


def test_comfort_zero_at_setpoint_regardless_of_occupancy():
    cfg = toy_cfg()
    plan = ControlPlan(((45.0, 0.0787), (45.0, 0.0787)))
    tr = np.full(cfg.n_hor + 1, cfg.t_set)
    tw = np.full(cfg.n_hor, 38.0)
    c = plan_cost((tr, tw), plan, toy_window(cfg), cfg)
    assert c.comfort == 0.0
    assert c.heating > 0.0


def test_cost_decomposition_exact():
    rng = np.random.default_rng(3)
    cfg = toy_cfg()
    plan = ControlPlan(((40.0, 0.0787), (45.0, 0.0)))
    tr = 21.0 + rng.normal(size=cfg.n_hor + 1)
    tw = 35.0 + rng.normal(size=cfg.n_hor)
    c = plan_cost((tr, tw), plan, toy_window(cfg), cfg)
    assert c.total == c.comfort + c.heating + c.pump


def test_gating_flag_zeroes_heating_without_flow():
    cfg = toy_cfg(heating_cost_gated_by_flow=True)
    plan = ControlPlan(((45.0, 0.0), (45.0, 0.0)))
    tr = np.full(cfg.n_hor + 1, 21.0)
    tw = np.full(cfg.n_hor, 25.0)
    c = plan_cost((tr, tw), plan, toy_window(cfg), cfg)
    assert c.heating == 0.0 and c.pump == 0.0


@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_stage_costs_equal_a_scalar_loop_bit_for_bit(gated):
    # the one per-sample cost, against its definition in Python floats, over
    # zero and nonzero flows, occupied and unoccupied samples, and outlets
    # on both sides of the inlet
    cfg = MpcConfig(heating_cost_gated_by_flow=gated)
    rng = np.random.default_rng(11)
    n = 200
    t_r, t_w = 21.0 + rng.normal(size=n), 42.0 + 5.0 * rng.normal(size=n)
    occ = rng.integers(2, size=n).astype(float)
    inlet, flow = rng.choice(cfg.inlet_set, n), rng.choice(cfg.flow_set, n)
    assert {0.0, 1.0} <= set(occ) and 0.0 in flow and np.any(flow > 0.0)
    got = stage_costs(cfg, t_r, t_w, occ, inlet, flow)
    for k in range(n):
        d = float(t_r[k]) - cfg.t_set
        gate = (1.0 if float(flow[k]) > 0.0 else 0.0) if gated else 1.0
        want = (cfg.alpha * float(occ[k]) * (d * d),  # numpy's ** 2 multiplies
                cfg.beta * cfg.t_sam * (float(inlet[k]) - float(t_w[k])) * gate,
                cfg.gamma * cfg.t_sam * float(flow[k]))
        assert [float(term[k]).hex() for term in got] == [v.hex() for v in want], k


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_matches_independent_enumeration():
    # scalar-path enumeration in a different (reversed) iteration order, ties
    # by smallest plan index
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    for seed in range(6):
        win = toy_window(cfg, seed=seed, forecast_seed=seed + 100)
        plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
        costs = scalar_costs(theta, theta_w, SPEC, win, cfg, plans)
        best = min(reversed(range(len(plans))),
                   key=lambda i: (costs[i], i))
        got = solve(theta, theta_w, SPEC, win, cfg)
        assert got.periods == plans[best]


def test_solve_beats_random_plans():
    cfg = toy_cfg(t_hor=3.0)
    rng = np.random.default_rng(4)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    win = toy_window(cfg)
    best = solve(theta, theta_w, SPEC, win, cfg)
    tr = predict_horizon(theta, theta_w, SPEC, win, best, cfg)
    best_cost = plan_cost(tr, best, win, cfg).total
    options = cfg.options()
    for _ in range(100):
        periods = tuple(options[rng.integers(len(options))]
                        for _ in range(cfg.n_periods))
        plan = ControlPlan(periods)
        traces = predict_horizon(theta, theta_w, SPEC, win, plan, cfg)
        assert best_cost <= plan_cost(traces, plan, win, cfg).total + 1e-9


def test_unoccupied_gated_horizon_prefers_rest():
    # no one home and gated heating: all-zero-flow plans cost exactly zero
    # and the tie resolves to the lowest inlet everywhere
    cfg = toy_cfg(heating_cost_gated_by_flow=True)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    plan = solve(theta, theta_w, SPEC, toy_window(cfg, occ=0.0), cfg)
    assert plan.periods == tuple((40.0, 0.0) for _ in range(cfg.n_periods))


def test_alpha_zero_minimizes_energy_only():
    cfg = toy_cfg(alpha=0.0)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    win = toy_window(cfg)
    plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
    costs = scalar_costs(theta, theta_w, SPEC, win, cfg, plans)
    best = min(range(len(plans)), key=lambda i: (costs[i], i))
    got = solve(theta, theta_w, SPEC, win, cfg)
    assert got.periods == plans[best]
    # the cheapest constant plan, found by its own enumeration, is no better
    const_costs = {}
    for opt in cfg.options():
        periods = tuple(opt for _ in range(cfg.n_periods))
        plan = ControlPlan(periods)
        tr = predict_horizon(theta, theta_w, SPEC, win, plan, cfg)
        const_costs[periods] = plan_cost(tr, plan, win, cfg).total
    assert costs[best] <= min(const_costs.values()) + 1e-12


def test_vectorized_equals_scalar_path():
    from thermbench.mpc import _plan_costs
    cfg = toy_cfg(t_hor=3.0)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    win = toy_window(cfg)
    plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
    vec = _plan_costs(theta, theta_w, SPEC, win, cfg)
    rng = np.random.default_rng(5)
    for i in rng.choice(len(plans), size=10, replace=False):
        plan = ControlPlan(plans[i])
        tr = mpc_oracle.predict_horizon(theta, theta_w, SPEC, win, plan, cfg)
        sc = mpc_oracle.plan_cost(tr, plan, win, cfg).total
        assert vec[i] == pytest.approx(sc, rel=1e-11)


# ---------------------------------------------------------------------------
# rollout kernel against the scalar oracle
# ---------------------------------------------------------------------------

def _random_history(spec, rng, n):
    """A random recorded past of ``n`` samples, by channel; the occupancy of
    the past is never read."""
    neighbors = [f"T_rj_{j}" for j in range(1, spec.n_neighbors + 1)]
    past = {c: np.empty(n) for c in ("T_r", "Ta_in", "Qext", "Vw", "Tw_in",
                                     "yhat_w", *neighbors)}
    for k in range(n):
        past["T_r"][k] = 20.5 + 0.1 * rng.normal()
        past["Ta_in"][k] = 19.0 + rng.normal()
        past["Qext"][k] = 200.0 + 10.0 * rng.normal()
        past["Vw"][k] = 0.0787 * rng.integers(2)
        past["Tw_in"][k] = 40.0 + 5.0 * rng.integers(2)
        rng.normal()  # a water outlet temperature, which no controller records
        for c in neighbors:
            past[c][k] = 5.0 + rng.normal()
        past["yhat_w"][k] = 30.0 + rng.normal()
    return {**past, "Va": np.full(n, 0.03), "occ": np.ones(n)}


def _random_forecast(cfg, n_neighbors, rng, past):
    """``past``, a random decision sample and a random forecast over
    ``cfg``'s horizon."""
    n = cfg.n_hor
    neighbors = [f"T_rj_{j}" for j in range(1, n_neighbors + 1)]
    future = {"occ": rng.integers(2, size=n).astype(float),
              "Ta_in": 19.0 + 0.1 * rng.normal(size=n), "Va": np.full(n, 0.03),
              "Qext": 200.0 + rng.normal(size=n)}
    future.update((c, 5.0 + 0.2 * rng.normal(size=n)) for c in neighbors)
    now = {"T_r": 20.5 + 0.1 * rng.normal(), "occ": float(rng.integers(2))}
    now.update(zip(neighbors, 5.0 + rng.normal(size=n_neighbors)))
    now.update(Ta_in=19.0, Va=0.03, Qext=200.0)
    return window(past, now, future)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(structure=st.sampled_from([Structure.LRM, Structure.NRM_MI,
                                  Structure.NRM_LI, Structure.NRM_FI_ZONE]),
       n_neighbors=st.integers(1, 3), n_periods=st.integers(1, 3),
       samples=st.integers(1, 4), inlet_set=st.sampled_from([(40.0,), (40.0, 45.0)]),
       flow_set=st.sampled_from([(0.0,), (0.0, 0.0787)]), gated=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(structure=Structure.NRM_MI, n_neighbors=2, n_periods=2, samples=3,
         inlet_set=(40.0, 45.0), flow_set=(0.0, 0.0787), gated=False, seed=0)
@example(structure=Structure.LRM, n_neighbors=1, n_periods=3, samples=4,
         inlet_set=(40.0, 45.0), flow_set=(0.0, 0.0787), gated=True, seed=1)
@example(structure=Structure.NRM_MI, n_neighbors=3, n_periods=3, samples=2,
         inlet_set=(40.0, 45.0), flow_set=(0.0, 0.0787), gated=False, seed=2)
@example(structure=Structure.NRM_LI, n_neighbors=2, n_periods=2, samples=4,
         inlet_set=(40.0,), flow_set=(0.0, 0.0787), gated=True, seed=3)
@example(structure=Structure.NRM_FI_ZONE, n_neighbors=1, n_periods=3, samples=1,
         inlet_set=(40.0, 45.0), flow_set=(0.0,), gated=False, seed=4)
@example(structure=Structure.LRM, n_neighbors=2, n_periods=2, samples=2,
         inlet_set=(40.0,), flow_set=(0.0,), gated=True, seed=5)
def test_tree_rollout_matches_scalar_oracle(structure, n_neighbors, n_periods,
                                            samples, inlet_set, flow_set,
                                            gated, seed):
    from thermbench.mpc import _plan_costs
    from thermbench.regressors import warmup
    spec = RegressorSpec(structure, n_neighbors)
    cfg = MpcConfig(t_opt=samples / 12.0, t_hor=n_periods * samples / 12.0,
                    inlet_set=inlet_set, flow_set=flow_set,
                    heating_cost_gated_by_flow=gated)
    rng = np.random.default_rng(seed)
    theta, theta_w = stable_toy_theta(spec, seed=seed % 1000), toy_theta_w()
    win = _random_forecast(cfg, n_neighbors, rng,
                           _random_history(spec, rng, warmup(spec) + 3))
    plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))

    costs = _plan_costs(theta, theta_w, spec, win, cfg)
    oracle = scalar_costs(theta, theta_w, spec, win, cfg, plans)
    assert costs == pytest.approx(oracle, rel=1e-11)

    # solve takes the kernel's first minimum; that is the oracle's first
    # minimum unless the two sit within the paths' rounding distance
    chosen = plans.index(solve(theta, theta_w, spec, win, cfg).periods)
    assert chosen == int(np.argmin(costs))
    best = min(range(len(plans)), key=lambda i: (oracle[i], i))
    assert chosen == best or oracle[chosen] == pytest.approx(oracle[best], rel=1e-11)

    # a one-plan rollout and its cost agree with the forms' within rounding
    for i, periods in enumerate(plans):
        plan = ControlPlan(periods)
        traces = predict_horizon(theta, theta_w, spec, win, plan, cfg)
        assert plan_cost(traces, plan, win, cfg).total == pytest.approx(costs[i], rel=1e-11)


_OPTION_SETS = st.lists(st.sampled_from([40.0, 42.5, 45.0]), min_size=1,
                        max_size=3, unique=True)
_FLOW_SETS = st.lists(st.sampled_from([0.0, 0.04, 0.0787]), min_size=1,
                      max_size=3, unique=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(structure=st.sampled_from([Structure.LRM, Structure.NRM_MI,
                                  Structure.NRM_LI, Structure.NRM_FI_ZONE]),
       n_neighbors=st.integers(1, 3), n_periods=st.integers(1, 3),
       samples=st.integers(1, 4), inlet_set=_OPTION_SETS, flow_set=_FLOW_SETS,
       gated=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(structure=Structure.NRM_MI, n_neighbors=1, n_periods=5, samples=12,
         inlet_set=[40.0, 45.0], flow_set=[0.0, 0.0787], gated=False, seed=0)
@example(structure=Structure.LRM, n_neighbors=2, n_periods=3, samples=3,
         inlet_set=[40.0, 45.0], flow_set=[0.0, 0.0787], gated=True, seed=1)
@example(structure=Structure.NRM_MI, n_neighbors=3, n_periods=3, samples=2,
         inlet_set=[40.0, 42.5, 45.0], flow_set=[0.0, 0.0787], gated=False, seed=2)
@example(structure=Structure.NRM_LI, n_neighbors=2, n_periods=2, samples=4,
         inlet_set=[42.5], flow_set=[0.0, 0.04, 0.0787], gated=True, seed=3)
@example(structure=Structure.NRM_FI_ZONE, n_neighbors=1, n_periods=3, samples=1,
         inlet_set=[40.0, 45.0], flow_set=[0.04], gated=False, seed=4)
def test_plan_costs_match_form_oracle_bit_for_bit(
        structure, n_neighbors, n_periods, samples, inlet_set, flow_set, gated, seed):
    # 1-4 samples per period put the deepest control lag 1-3 periods back;
    # the first example is the default config (1024 plans), the third has
    # fewer samples per period than lags (s=2, w=5), so a period's next entry
    # state holds entry values of its own as well as predictions
    from thermbench.mpc import _plan_costs
    from thermbench.regressors import warmup
    spec = RegressorSpec(structure, n_neighbors)
    cfg = MpcConfig(t_opt=samples / 12.0, t_hor=n_periods * samples / 12.0,
                    inlet_set=tuple(inlet_set), flow_set=tuple(flow_set),
                    heating_cost_gated_by_flow=gated)
    rng = np.random.default_rng(seed)
    theta, theta_w = stable_toy_theta(spec, seed=seed % 1000), toy_theta_w()
    win = _random_forecast(cfg, n_neighbors, rng,
                           _random_history(spec, rng, warmup(spec) + 3))
    costs = _plan_costs(theta, theta_w, spec, win, cfg)
    assert np.array_equal(costs, mpc_oracle.form_plan_costs(theta, theta_w, spec, win, cfg))
    # predict_horizon fills one plan's predictions from the maps, bit for bit
    plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
    for periods in {plans[0], plans[len(plans) // 2], plans[-1]}:
        zone, water = predict_horizon(theta, theta_w, spec, win, ControlPlan(periods), cfg)
        leaves, w = mpc_oracle.map_rollout(theta, theta_w, spec, win, cfg,
                                           [(np.array([i]), np.array([f])) for i, f in periods])
        assert np.array_equal(zone, leaves[0, w:, 0])
        assert np.array_equal(water, leaves[1, w:-1, 0])


def test_rollouts_in_several_threads_match_a_serial_run():
    # the threads share the module caches (kernel, plan template, water
    # layout): threads on one spec and config must cost their windows
    # as a serial run does, and none may see another's predictions as a
    # divergence
    from concurrent.futures import ThreadPoolExecutor
    from thermbench.mpc import _plan_costs
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    wins = [toy_window(cfg, seed=i, forecast_seed=i + 10) for i in range(3)]
    want = [_plan_costs(theta, theta_w, SPEC, win, cfg) for win in wins]

    def run(win):
        return [_plan_costs(theta, theta_w, SPEC, win, cfg) for _ in range(150)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(wins)) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(run, w) for w in wins]]
    finally:
        sys.setswitchinterval(interval)
    for costs, expected in zip(got, want):
        assert all(np.array_equal(c, expected) for c in costs)


def test_plan_template_cache_is_keyed_by_spec_and_config():
    # B has A's shapes but other option values, C another period length;
    # the two specs' kernels read controls at different lags.  Every
    # decision must read the template of its own spec and config, and a
    # one-plan rollout (uncached template) after it must still cost the same
    # within rounding.
    from thermbench.mpc import _plan_costs
    from thermbench.regressors import warmup
    cfg_a = toy_cfg()
    cfg_b = toy_cfg(inlet_set=(38.0, 44.0), flow_set=(0.0, 0.05))
    cfg_c = toy_cfg(t_opt=3.0 / 12.0, t_hor=9.0 / 12.0)
    rng = np.random.default_rng(3)
    for spec in (RegressorSpec(Structure.NRM_MI, 1), RegressorSpec(Structure.NRM_LI, 2)):
        theta, theta_w = stable_toy_theta(spec), toy_theta_w()
        past = _random_history(spec, rng, warmup(spec) + 3)
        for cfg in (cfg_a, cfg_b, cfg_c, cfg_a):
            win = _random_forecast(cfg, spec.n_neighbors, rng, past)
            costs = _plan_costs(theta, theta_w, spec, win, cfg)
            assert np.array_equal(costs, mpc_oracle.form_plan_costs(
                theta, theta_w, spec, win, cfg))
            solve(theta, theta_w, spec, win, cfg)
            plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
            for i in (0, len(plans) // 2, len(plans) - 1):
                plan = ControlPlan(plans[i])
                traces = predict_horizon(theta, theta_w, spec, win, plan, cfg)
                assert plan_cost(traces, plan, win, cfg).total == pytest.approx(
                    costs[i], rel=1e-11)


def test_plan_costs_without_comfort_and_heating_weights_are_pump_costs():
    # with alpha = beta = 0 a plan's cost is the pump cost that each
    # period's form holds in its constant entry: every entry of _plan_costs
    # is the pump cost of the plan at its index of the enumeration order
    from thermbench.mpc import _plan_costs
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    for cfg in (MpcConfig(alpha=0.0, beta=0.0),
                toy_cfg(alpha=0.0, beta=0.0, flow_set=(0.0, 0.04, 0.0787))):
        traces = (np.full(cfg.n_hor + 1, 21.0), np.full(cfg.n_hor, 35.0))
        win = toy_window(cfg)
        costs = _plan_costs(theta, theta_w, SPEC, win, cfg)
        plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
        assert len(costs) == len(plans)
        for cost, periods in zip(costs, plans):
            assert cost == pytest.approx(
                plan_cost(traces, ControlPlan(periods), win, cfg).pump, rel=1e-12)
    # pump costs do not depend on the order of the periods, comfort and
    # heating costs do: with them back every plan costs what its own rollout
    # does, which pins the enumeration order
    cfg = toy_cfg(flow_set=(0.0, 0.04, 0.0787))
    win = toy_window(cfg)
    costs = _plan_costs(theta, theta_w, SPEC, win, cfg)
    for cost, periods in zip(costs, itertools.product(cfg.options(), repeat=cfg.n_periods)):
        plan = ControlPlan(periods)
        traces = predict_horizon(theta, theta_w, SPEC, win, plan, cfg)
        assert cost == pytest.approx(plan_cost(traces, plan, win, cfg).total, rel=1e-11)
    # every zero-flow plan then costs 0, and the first minimum is the lowest
    # inlet at zero flow in every period, whatever order inlet_set lists
    for cfg in (MpcConfig(alpha=0.0, beta=0.0, inlet_set=(40.0, 45.0)),
                MpcConfig(alpha=0.0, beta=0.0, inlet_set=(45.0, 40.0)),
                toy_cfg(alpha=0.0, beta=0.0, inlet_set=(45.0, 42.5, 40.0))):
        plan = solve(theta, theta_w, SPEC, toy_window(cfg), cfg)
        assert plan.periods == ((40.0, 0.0),) * cfg.n_periods


@pytest.mark.parametrize("forecast_neighbors,now_neighbors",
                         [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_forecast_with_the_wrong_neighbor_count_is_a_config_error(
        forecast_neighbors, now_neighbors):
    # too few neighbor temperatures used to surface as a raw KeyError from
    # the rollout, and a decision sample with more neighbors than the
    # forecast was truncated silently. A neighbor known at the decision
    # sample but not forecast, or the other way round, is a column one
    # position short of the rest
    spec = RegressorSpec(Structure.NRM_MI, 2)
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(spec), toy_theta_w()
    rng = np.random.default_rng(0)
    count = max(forecast_neighbors, now_neighbors)
    good = _random_forecast(cfg, count, rng, _random_history(
        RegressorSpec(Structure.NRM_MI, count), rng, 10))
    past = good.past
    cols = dict(good.columns)
    for j in range(1, count + 1):
        c = f"T_rj_{j}"
        keep = [np.arange(past)]
        if j <= now_neighbors:
            keep.append([past])
        if j <= forecast_neighbors:
            keep.append(np.arange(past + 1, past + 1 + cfg.n_hor))
        cols[c] = cols[c][np.concatenate(keep)]
    win = DecisionWindow(cols)
    have = past + 1 if forecast_neighbors < 2 else past + cfg.n_hor
    match = (f"has {count} neighbor.*expects 2" if count != 2 else
             f"a past of {past} and a horizon of {cfg.n_hor}: "
             f"T_rj_2 has {have}, needs {past + 1 + cfg.n_hor}$")
    plan = ControlPlan(((40.0, 0.0), (45.0, 0.0787)))
    for call in (lambda: win.check(spec, cfg.n_hor),
                 lambda: solve(theta, theta_w, spec, win, cfg),
                 lambda: predict_horizon(theta, theta_w, spec, win, plan, cfg)):
        with pytest.raises(ConfigError, match=match):
            call()


def test_window_check_names_each_fault():
    # every fault is raised by the one check, before the rollout reads the
    # window: through solve and predict_horizon alike
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    plan = ControlPlan(((40.0, 0.0), (45.0, 0.0787)))
    good = toy_window(cfg)
    good.check(SPEC, cfg.n_hor)
    no_qext = DecisionWindow({c: a for c, a in good.columns.items() if c != "Qext"})
    spec_2 = RegressorSpec(Structure.NRM_MI, 2)
    for spec, win, error, match in [
            (SPEC, no_qext, ConfigError, r"lacks channels \['Qext'\]"),
            # NRM_MI with one neighbor reads three samples back
            (SPEC, toy_forecast(cfg, warm_history(n=2)), HistoryUnderflowError,
             "records 2 samples, the rollout needs 3"),
            (spec_2, good, ConfigError, "has 1 neighbor.*expects 2"),
            # a recorded control at the decision sample, which is not known yet
            (SPEC, DecisionWindow({**good.columns, "Vw": np.append(good.columns["Vw"], 0.0)}),
             ConfigError, "a past of 8 and a horizon of 24: Vw has 9, needs 8$"),
            # a 36-sample forecast: 8 + 1 + 36 exogenous positions, not 8 + 1 + 24
            (SPEC, toy_forecast(toy_cfg(t_hor=3.0), warm_history()), ConfigError,
             "a past of 8 and a horizon of 24: T_rj_1 has 45, needs 33; "
             "Ta_in has 45, needs 33; Va has 45, needs 33; Qext has 45, "
             "needs 33; occ has 45, needs 33$")]:
        for call in (lambda: win.check(spec, cfg.n_hor),
                     lambda: solve(theta if spec == SPEC else stable_toy_theta(spec),
                                   theta_w, spec, win, cfg),
                     lambda: predict_horizon(stable_toy_theta(spec), theta_w, spec,
                                             win, plan, cfg)):
            with pytest.raises(error, match=match):
                call()


def test_li_window_needs_no_inlet_air_temperature():
    # NRM_LI's layouts read no Ta_in: a window without it is complete, and
    # every decision quantity has the bits of the same window with it
    from thermbench.mpc import _plan_costs
    spec = RegressorSpec(Structure.NRM_LI, 1)
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(spec), toy_theta_w()
    win = toy_window(cfg)
    bare = DecisionWindow({c: a for c, a in win.columns.items() if c != "Ta_in"})
    plan = ControlPlan(((40.0, 0.0), (45.0, 0.0787)))
    assert np.array_equal(_plan_costs(theta, theta_w, spec, bare, cfg),
                          _plan_costs(theta, theta_w, spec, win, cfg))
    assert solve(theta, theta_w, spec, bare, cfg) == solve(theta, theta_w, spec, win, cfg)
    for got, want in zip(predict_horizon(theta, theta_w, spec, bare, plan, cfg),
                         predict_horizon(theta, theta_w, spec, win, plan, cfg)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("fault", ["inf-Qext", "nan-T_r", "overflowing-theta"])
def test_diverging_rollout_is_a_divergence_error(fault):
    # the forecast's last position is read only as the comfort term's
    # occupancy: the last Qext the rollout reads is the one before it, which
    # only the last step reads.  A NaN zone temperature recorded one sample
    # before the decision, and a zone model whose first-lag coefficient is
    # 1e200, reach every plan
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    win = toy_window(cfg)
    cols = {c: a.copy() for c, a in win.columns.items()}
    if fault == "inf-Qext":
        cols["Qext"][win.past + cfg.n_hor - 1] = np.inf
    elif fault == "nan-T_r":
        cols["T_r"][win.past - 1] = np.nan
    else:
        theta[0] = 1e200
    win = DecisionWindow(cols)
    plan = ControlPlan(((40.0, 0.0787), (45.0, 0.0)))
    with pytest.raises(DivergenceError):
        solve(theta, theta_w, SPEC, win, cfg)
    with pytest.raises(DivergenceError):
        predict_horizon(theta, theta_w, SPEC, win, plan, cfg)


def test_overflowing_plan_costs_are_a_divergence_error():
    # finite predictions whose comfort cost overflows: every plan would cost
    # inf, and the first plan would win by its place in the enumeration
    cfg = toy_cfg(alpha=1e308)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    with pytest.raises(DivergenceError, match="not finite"):
        solve(theta, theta_w, SPEC, toy_window(cfg), cfg)


def test_last_forecast_position_is_read_for_the_occupancy_only():
    # every lag is at least one sample, so the last step reads the
    # exogenous forecast at past + n_hor - 1; at past + n_hor only the
    # occupancy is read, for the last comfort term
    from thermbench.mpc import _plan_costs
    cfg = toy_cfg()
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    win = toy_window(cfg)
    plan = ControlPlan(((40.0, 0.0787), (45.0, 0.0)))
    costs = _plan_costs(theta, theta_w, SPEC, win, cfg)
    zone, water = predict_horizon(theta, theta_w, SPEC, win, plan, cfg)

    def with_inf_qext(position):
        cols = {c: a.copy() for c, a in win.columns.items()}
        cols["Qext"][position] = np.inf
        return DecisionWindow(cols)

    last = with_inf_qext(win.past + cfg.n_hor)
    assert np.array_equal(_plan_costs(theta, theta_w, SPEC, last, cfg), costs)
    got = predict_horizon(theta, theta_w, SPEC, last, plan, cfg)
    assert np.array_equal(got[0], zone) and np.array_equal(got[1], water)
    before = with_inf_qext(win.past + cfg.n_hor - 1)
    with pytest.raises(DivergenceError):
        _plan_costs(theta, theta_w, SPEC, before, cfg)
    with pytest.raises(DivergenceError):
        predict_horizon(theta, theta_w, SPEC, before, plan, cfg)


_MODERATE = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-308, 1.0, -3.5, 0.1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_neighbors=st.integers(1, 3), t=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
@example(n_neighbors=1, t=1, seed=0, share=1.0)
def test_water_estimate_is_oe_predict_bit_for_bit(n_neighbors, t, seed, share):
    # a share of the values, the parameters among them, from signed zeros,
    # subnormals and small integers; the others spread over six decades
    rng = np.random.default_rng(seed)

    def draw(size):
        return np.where(rng.random(size) < share, rng.choice(_MODERATE, size=size),
                        rng.normal(size=size) * 10.0 ** rng.integers(-3, 3, size=size))

    cols = {c: draw(t) for c in ("T_r", "yhat_w", "Tw_in", "Vw")}
    theta_w = draw(4)
    hist = LaggedHistory(["T_r", "Tw_in", "Vw"], extra_predictions=("yhat_w",))
    for k in range(t):
        hist.push({c: cols[c][k] for c in ("T_r", "Tw_in", "Vw")})
        hist.record_prediction("yhat_w", k, cols["yhat_w"][k])
    rh = RegressorSpec(Structure.NRM_FI_RH, n_neighbors)
    want = oe_predict(theta_w, rh, hist, t)
    for spec in (rh, RegressorSpec(Structure.NRM_LI, n_neighbors)):
        assert float.hex(water_estimate(theta_w, spec, cols, t)) == float.hex(want)
    # position 0 has no past to read (a negative index would wrap)
    with pytest.raises(HistoryUnderflowError, match="position 0 reads 1"):
        water_estimate(theta_w, rh, cols, 0)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def probe_dataset(cfg):
    return run_probe_experiment(cfg.plant, dataclasses.replace(cfg.sim, duration=168.0))


@pytest.fixture(scope="module")
def probe_models(probe_dataset):
    theta = train(probe_dataset, SPEC, passes=4).theta
    theta_w = train(probe_dataset, RegressorSpec(Structure.NRM_FI_RH, 1), passes=4).theta
    return theta, theta_w


def _dataset_rollout_inputs(ds, t0, n, with_yhat_w_from="T_w"):
    """The decision window at dataset sample ``t0`` over 12 recorded samples,
    the water estimates read from column ``with_yhat_w_from``, and the
    one-period plan the dataset applied at ``t0``."""
    cols = {c: ds.columns[c] for c in ("T_r", "T_rj_1", "Ta_in", "Va", "Qext",
                                       "occ", "Tw_in", "Vw")}
    cols["yhat_w"] = ds.columns[with_yhat_w_from]
    plan = ControlPlan(((float(ds.columns["Tw_in"][t0]),
                         float(ds.columns["Vw"][t0])),))
    return DecisionWindow.at(cols, t0, 12, n), plan


def test_rollout_reproduces_self_consistent_truth():
    # data generated by the zone structure itself under hourly-held controls:
    # rolling the generating parameters out must retrace the series exactly
    from test_identify import synthetic_columns, stable_theta
    from thermbench.regressors import (LaggedHistory as LH, build_regressor,
                                       measured_columns, warmup)
    from thermbench.simulator import TimeSeriesDataset
    n_data = 1200
    cols = synthetic_columns(n_data)
    rng = np.random.default_rng(21)
    hold = np.repeat(rng.choice([0.0, 0.0787], size=n_data // 12 + 1), 12)[:n_data]
    cols["Vw"] = hold
    cols["Tw_in"] = np.repeat(rng.choice([40.0, 45.0], size=n_data // 12 + 1),
                              12)[:n_data]
    theta_star = stable_theta(SPEC)
    chan = measured_columns(SPEC.structure, 1)
    gen = LH(chan)
    y = np.zeros(n_data)
    y[:warmup(SPEC)] = 21.0
    for k in range(n_data):
        if k >= warmup(SPEC):
            y[k] = build_regressor(SPEC, gen, k) @ theta_star
        row = {c: cols[c][k] for c in chan if c != "T_r"}
        row["T_r"] = y[k]
        gen.push(row)
    cols["T_r"] = y
    ds = TimeSeriesDataset(epsilon=1.0 / 12.0, n_neighbors=1, columns=cols)

    cfgm = toy_cfg(t_hor=1.0)
    t0 = 600  # hour boundary: the recorded controls are one valid plan
    win, plan = _dataset_rollout_inputs(ds, t0, cfgm.n_hor, with_yhat_w_from="T_r")
    # the water predictor plays no role in the zone structure's regressor;
    # any stable theta_w leaves the zone trace untouched
    tr, _ = predict_horizon(theta_star, toy_theta_w(), SPEC, win, plan, cfgm)
    truth = ds.columns["T_r"][t0:t0 + cfgm.n_hor + 1]
    assert np.max(np.abs(tr - truth)) < 1e-9


def test_rollout_tracks_plant_on_converged_model(cfg):
    # noise-free probe data, converged theta, rollout driven by the recorded
    # plan: over one hour the drift stays within the structural error scale
    # (the model is first-order in the sampling step; bound it by the fitted
    # one-step residual accumulated over the horizon)
    sim = dataclasses.replace(cfg.sim, duration=168.0, noise_std=0.0)
    ds = run_probe_experiment(cfg.plant, sim)
    rep = train(ds, SPEC, passes=6)
    theta_w = train(ds, RegressorSpec(Structure.NRM_FI_RH, 1), passes=6).theta
    cfgm = toy_cfg(t_hor=1.0)
    n = cfgm.n_hor
    worst = 0.0
    for t0 in (300, 600, 900, 1200, 1500):
        assert np.all(ds.columns["Vw"][t0:t0 + n] == ds.columns["Vw"][t0])
        win, plan = _dataset_rollout_inputs(ds, t0, n)
        tr, _ = predict_horizon(rep.theta, theta_w, SPEC, win, plan, cfgm)
        truth = ds.columns["T_r"][t0:t0 + n + 1]
        worst = max(worst, float(np.max(np.abs(tr - truth))))
    # the recorded OE residual is itself a free-run divergence, so a
    # re-anchored one-hour rollout should stay within a few multiples of it
    free_run = float(np.sqrt(np.mean(rep.errors[-2000:] ** 2)))
    assert worst < max(3 * free_run, 0.05)
    assert worst < 1.5  # absolute sanity on a degree-scale quantity


def test_zero_capacity_controller_is_constant_and_plant_drifts_free(cfg):
    # nobody home: the hysteresis bootstrap is inert too, so the whole episode
    # is free drift and the zero-capacity controller's choice is constant
    mcfg = MpcConfig(flow_set=(0.0,), t_hor=2.0)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    sd = dataclasses.replace(cfg.sim.disturbance_spec,
                             occupancy=OccupancySchedule(absent_windows=((0.0, 24.0),)))
    sim = dataclasses.replace(cfg.sim, disturbance_spec=sd, duration=12.0,
                              noise_std=0.0)
    ep = closed_loop_run(cfg.plant, sim, mcfg, SPEC, theta, theta_w)
    assert np.all(ep.flow == 0.0)
    assert len(set(ep.inlet[mcfg.samples_per_period:])) == 1  # constant choice
    assert np.all(ep.run_avg_comfort == 0.0)
    # free-drift oracle: step the plant directly with zero water flow
    from thermbench.simulator import synthesize_scenario
    rng = np.random.default_rng(sim.seed)
    scen = synthesize_scenario(sim.disturbance_spec, sim.epsilon,
                               sim.n_samples + mcfg.n_hor + 1, rng)
    x = PlantState(t_r=sim.initial.t_r, t_s=list(sim.initial.t_s),
                   t_w=sim.initial.t_w)
    for k in range(sim.n_samples):
        assert ep.t_r_plant[k] == pytest.approx(x.t_r, abs=1e-9)
        d = Disturbance(t_w_in=float(ep.inlet[k]), t_a_in=float(scen.ta_in[k]),
                        t_neighbors=(float(scen.neighbors[0][k]),),
                        q_ext=float(scen.q_ext[k]))
        x = step(cfg.plant, x, ControlInput(0.0, float(scen.va[k])), d, sim.epsilon)


def test_closed_loop_runs_and_logs(cfg, probe_models):
    theta, theta_w = probe_models
    sim = dataclasses.replace(cfg.sim, duration=24.0)
    ep = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    assert len(ep.t_r_plant) == sim.n_samples
    assert np.all(np.isfinite(ep.t_r_plant))
    # after the bootstrap hour every applied inlet comes from the control set
    assert set(np.unique(ep.inlet[12:])) <= {40.0, 45.0}
    assert ep.final_energy == pytest.approx(ep.final_heating + ep.final_pump)
    # running averages recompute from the logs
    c, h, p = realized_costs(ep.t_r_plant, ep.t_w_plant, ep.occ, ep.inlet,
                             ep.flow, MpcConfig())
    assert np.allclose(c, ep.run_avg_comfort)
    assert np.allclose(h + p, ep.run_avg_heating + ep.run_avg_pump)


def test_realized_costs_are_running_means_of_the_stage_costs(cfg, probe_models):
    theta, theta_w = probe_models
    sim = dataclasses.replace(cfg.sim, duration=24.0)
    ep = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    steps = np.arange(1, sim.n_samples + 1)
    logs = (ep.t_r_plant, ep.t_w_plant, ep.occ, ep.inlet, ep.flow)
    assert 0.0 in ep.flow and 0.0 in ep.occ
    for mcfg in (MpcConfig(), MpcConfig(heating_cost_gated_by_flow=True)):
        want = [np.cumsum(term) / steps for term in stage_costs(mcfg, *logs)]
        for got, term in zip(realized_costs(*logs, mcfg), want):
            assert np.array_equal(got, term)
    for got, term in zip((ep.run_avg_comfort, ep.run_avg_heating, ep.run_avg_pump),
                         realized_costs(*logs, MpcConfig())):
        assert np.array_equal(got, term)


def test_closed_loop_deterministic(cfg, probe_models):
    theta, theta_w = probe_models
    sim = dataclasses.replace(cfg.sim, duration=12.0)
    a = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    b = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    assert np.array_equal(a.t_r_plant, b.t_r_plant)
    assert np.array_equal(a.flow, b.flow)


def test_closed_loop_prefix_independent_of_future(cfg, probe_models):
    # controls applied at time t use only data with timestamps <= t: running
    # a shorter episode reproduces the long episode's prefix exactly
    theta, theta_w = probe_models
    sd = dataclasses.replace(cfg.sim.disturbance_spec,
                             occupancy=OccupancySchedule())  # no jitter draws
    long = dataclasses.replace(cfg.sim, disturbance_spec=sd, duration=18.0,
                               noise_std=0.0)
    short = dataclasses.replace(long, duration=12.0)
    a = closed_loop_run(cfg.plant, long, MpcConfig(), SPEC, theta, theta_w)
    b = closed_loop_run(cfg.plant, short, MpcConfig(), SPEC, theta, theta_w)
    n = short.n_samples
    assert np.array_equal(a.t_r_plant[:n], b.t_r_plant)
    assert np.array_equal(a.flow[:n], b.flow)


def test_episode_csv(tmp_path, cfg, probe_models):
    theta, theta_w = probe_models
    sim = dataclasses.replace(cfg.sim, duration=6.0)
    ep = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    path = tmp_path / "episode.csv"
    ep.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == sim.n_samples
    assert data["run_avg_pump"][-1] == pytest.approx(ep.final_pump, rel=1e-8)


#: zone, wall and water temperatures of a warm start, from which the LRM
#: controller switches its first-period decision within 6 h
WARM_START = PlantState(t_r=21.5, t_s=[20.5], t_w=30.0)

#: the working-day absences of the criterion-7 evaluation week; the NRM_MI
#: controller switches its first-period decision when the 8 h absence begins,
#: and a 10 h episode leaves one more decision to read the switched controls
AWAY = OccupancySchedule(absent_windows=((8.0, 16.0), (22.5, 23.5)), jitter_h=0.3)


@pytest.mark.parametrize("structure,initial,occupancy,hours", [
    *(pytest.param(s, start, None, 6.0, id=s.value + tag)
      for start, tag in ((None, ""), (WARM_START, "-warm"))
      for s in (Structure.NRM_MI, Structure.LRM, Structure.NRM_LI, Structure.NRM_FI_ZONE)),
    pytest.param(Structure.NRM_MI, None, AWAY, 10.0, id="NRM_MI-away")])
def test_closed_loop_matches_the_lagged_history_controller(
        cfg, probe_dataset, probe_models, structure, initial, occupancy, hours,
        monkeypatch):
    # the reference controller records the episode in a LaggedHistory, takes
    # its water estimates from oe_predict and builds each decision window
    # from the history: the column-array controller must apply the same
    # controls to the same plant, bit for bit.  Both call mpc.solve, which
    # records every decision's cost vector and plan: the column-array
    # controller's from the episode's forms, the reference's from each
    # window's own, so the two must agree bit for bit.  From the default start
    # every controller keeps one plan for the first 6 h, so there the costs
    # pin the windows; from the warm start the LRM controller, and ahead of
    # the absence the NRM_MI controller, switch plans, which pins the applied
    # decisions and the windows that read them
    from thermbench import mpc
    spec = RegressorSpec(structure, 1)
    theta_w = probe_models[1]
    theta = (probe_models[0] if structure is Structure.NRM_MI
             else train(probe_dataset, spec, passes=2, theta_w=theta_w).theta)
    sd = dataclasses.replace(cfg.sim.disturbance_spec,
                             occupancy=occupancy or cfg.sim.disturbance_spec.occupancy)
    sim = dataclasses.replace(cfg.sim, duration=hours, disturbance_spec=sd,
                              initial=initial or cfg.sim.initial)
    costs, plans = [], []

    def recorded(*args, **kwargs):
        costs.append(mpc._plan_costs(*args, **kwargs))
        plans.append(solve(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(mpc, "solve", recorded)
    got = closed_loop_run(cfg.plant, sim, MpcConfig(), spec, theta, theta_w)
    n_decisions = len(costs)
    want = mpc_oracle.closed_loop_run(cfg.plant, sim, MpcConfig(), spec, theta, theta_w)
    assert n_decisions == hours - 1 and len(costs) == 2 * n_decisions
    for a, b in zip(costs[:n_decisions], costs[n_decisions:]):
        assert np.array_equal(a, b)
    assert plans[:n_decisions] == plans[n_decisions:]
    if (initial is WARM_START and structure is Structure.LRM) or occupancy is AWAY:
        assert len({plan.periods[0] for plan in plans[:n_decisions]}) >= 2
    for name in ("inlet", "flow", "t_r_plant"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_episode_forms_match_each_windows_own_forms(cfg, probe_models, monkeypatch):
    # one sample per period puts NRM_MI's deepest control lag two periods
    # back, so each horizon's first two periods select the combinations of
    # the applied options; the last forms built stop at the scenario's end.
    # Every decision's costs from the episode's forms must be those of its
    # window's own, bit for bit
    from thermbench import mpc
    theta, theta_w = probe_models
    mcfg = MpcConfig(t_opt=1.0 / 12.0, t_hor=3.0 / 12.0)
    sim = dataclasses.replace(cfg.sim, duration=3.0)
    pairs = []

    def recorded(*args, forms=None):
        if forms is not None:
            pairs.append((mpc._plan_costs(*args, forms=forms), mpc._plan_costs(*args)))
        return solve(*args, forms=forms)

    monkeypatch.setattr(mpc, "solve", recorded)
    closed_loop_run(cfg.plant, sim, mcfg, SPEC, theta, theta_w)
    # the bootstrap covers samples 0-2, which the decisions at 3 and 4 read
    assert len(pairs) == sim.n_samples - 5
    for chunked, own in pairs:
        assert np.array_equal(chunked, own)


def test_closed_loop_controls_do_not_depend_on_the_chunk_length(cfg, probe_models,
                                                                monkeypatch):
    # a 48-period chunk is a plan tree of 49 periods: its digit weights must
    # not wrap, so that its columns decode as those of 5-period chunks do
    from thermbench import mpc
    theta, theta_w = probe_models
    sim = dataclasses.replace(cfg.sim, duration=48.0)
    want = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    monkeypatch.setattr(mpc, "_CHUNK", 48)
    got = closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, theta, theta_w)
    assert len(set(want.flow[12:])) == 2
    for name in ("inlet", "flow"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_closed_loop_rejects_a_sampling_period_other_than_t_sam(cfg):
    sim = dataclasses.replace(cfg.sim, duration=1.0, epsilon=1.0 / 6.0)
    with pytest.raises(ConfigError, match="^simulator sampling period and t_sam must agree$"):
        closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, stable_toy_theta(SPEC),
                        toy_theta_w())


def test_closed_loop_rejects_parameters_of_the_wrong_length(cfg):
    sim = dataclasses.replace(cfg.sim, duration=1.0)
    theta, theta_w = stable_toy_theta(SPEC), toy_theta_w()
    for args, match in [((theta, theta_w[:3]), r"theta_w of shape \(3,\).*\(4,\)"),
                        ((theta, None), r"theta_w of shape \(\)"),
                        ((theta[:-1], theta_w), r"theta_r of shape \(25,\).*\(26,\)")]:
        with pytest.raises(ConfigError, match=r"NRM_MI controller.*" + match):
            closed_loop_run(cfg.plant, sim, MpcConfig(), SPEC, *args)


# ---------------------------------------------------------------------------
# the controller against the physics
# ---------------------------------------------------------------------------

def _plant_inputs(cols, k, inlet, flow, n_neighbors):
    """The inputs of ``plant_oracle.euler`` at dataset sample ``k`` of
    ``cols`` under the controls ``inlet`` and ``flow``."""
    return (flow, cols["Va"][k], inlet, cols["Ta_in"][k],
            [cols[f"T_rj_{j}"][k] for j in range(1, n_neighbors + 1)], cols["Qext"][k])


def _euler_history(plant, cfg, n, rng):
    """``n`` samples of ``plant`` stepped by ``plant_oracle.euler``, by
    dataset column, and its states before each step: the controls an option
    of ``cfg`` drawn per hour, occupied and unoccupied in turn for 6 hours,
    the other inputs drawn per sample."""
    m, s = plant.n_neighbors, cfg.samples_per_period
    hours = -(-n // s)
    options = np.array(cfg.options())[rng.integers(cfg.n_options, size=hours)]
    cols = dict(zip(("Tw_in", "Vw"), np.repeat(options, s, axis=0)[:n].T))
    cols.update(Va=rng.uniform(0.0, 0.06, n), Ta_in=rng.uniform(15.0, 22.0, n),
                Qext=rng.uniform(0.0, 300.0, n),
                occ=(np.arange(n) // (6 * s) % 2 == 0).astype(float))
    cols.update((f"T_rj_{j}", rng.uniform(-5.0, 15.0, n)) for j in range(1, m + 1))
    states, x = np.empty((n, m + 2)), [20.0, *[12.0] * m, 30.0]
    for k in range(n):
        states[k] = x
        x = plant_oracle.euler(plant, x, _plant_inputs(cols, k, cols["Tw_in"][k],
                                                       cols["Vw"][k], m),
                               cfg.t_sam * SECONDS_PER_HOUR)
    cols["T_r"], cols["T_w"] = states[:, 0].copy(), states[:, -1].copy()
    return cols, states


@pytest.mark.parametrize("n_neighbors", [1, 2])
def test_plan_costs_against_the_euler_plant(cfg, n_neighbors):
    # both FI layouts are exact regressions of a forward-Euler plant, so the
    # controller fitted to one must cost every plan as the plant's own
    # rollout from its true state does.  The oracles share the controller's
    # conventions; this checks them against the physics, so a control read a
    # sample early or late, or a cost term the forms expand wrongly, fails
    from thermbench.mpc import _plan_costs
    # a second separator as fast as the first leaves the fit ill-conditioned
    plant = cfg.plant if n_neighbors == 1 else dataclasses.replace(
        cfg.plant, separators={1: cfg.plant.separators[1],
                               2: SeparatorParams(r_plus=0.006, r_minus=0.009, c_s=5e5)})
    mcfg = MpcConfig()
    n, h = mcfg.n_hor, mcfg.t_sam * SECONDS_PER_HOUR
    cols, states = _euler_history(plant, mcfg, 800, np.random.default_rng(n_neighbors))
    spec = RegressorSpec(Structure.NRM_FI_ZONE, n_neighbors)
    theta_r, theta_w = (plant_oracle.fit_layout(s, cols)[0] for s in (spec, water_spec(spec)))
    cols["yhat_w"] = cols.pop("T_w")  # the fit is exact: estimates are the truth
    plans = [ControlPlan(p) for p in
             itertools.product(mcfg.options(), repeat=mcfg.n_periods)]
    inlet, flow = np.repeat(np.array([p.periods for p in plans]),
                            mcfg.samples_per_period, axis=1).transpose(2, 0, 1)
    # horizons that are occupied throughout, occupied in part, and unoccupied,
    # where the heating and pump costs alone rank the plans.  Each decision
    # is an hour's first or second sample, after a change of option, so a
    # window that read its controls a sample early or late would differ
    for k in (433, 697, 504):
        assert len({(cols["Tw_in"][j], cols["Vw"][j]) for j in (k - 2, k - 1, k)}) == 2
        win = DecisionWindow.at(cols, k, warmup(spec), n)
        # every plan's Euler rollout from the plant's true state at sample k
        x, zone, water = list(states[k]), np.empty((len(plans), n + 1)), np.empty((len(plans), n))
        for j in range(n):
            zone[:, j], water[:, j] = x[0], x[-1]
            x = plant_oracle.euler(plant, x, _plant_inputs(cols, k + j, inlet[:, j],
                                                           flow[:, j], n_neighbors), h)
        zone[:, n] = x[0]
        for gated in (False, True):
            gcfg = dataclasses.replace(mcfg, heating_cost_gated_by_flow=gated)
            truth = np.array([plan_cost((zone[i], water[i]), plan, win, gcfg).total
                              for i, plan in enumerate(plans)])
            costs = _plan_costs(theta_r, theta_w, spec, win, gcfg)
            assert np.all(np.abs(costs - truth) <= 1e-9 * np.abs(truth)), (k, gated)
            best, runner_up = np.sort(truth)[:2]
            if runner_up - best > 1e-9 * abs(best):
                assert np.argmin(costs) == np.argmin(truth), (k, gated)
        # one plan's predicted traces are the plant's, within the fit's
        # rounding carried over 60 steps
        i = int(np.argmin(truth))
        got = predict_horizon(theta_r, theta_w, spec, win, plans[i], mcfg)
        assert np.max(np.abs(got[0] - zone[i])) <= 1e-8
        assert np.max(np.abs(got[1] - water[i])) <= 1e-8
