"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from thermbench.cli import evaluate, train_all
from thermbench.config import default_config
from thermbench.excitation import informativity_check, pe_order, spectrum
from thermbench.identify import RlsConfig, train
from thermbench.mpc import realized_costs, solve
from thermbench.regressors import (RegressorSpec, Structure, q_separator,
                                   verify_property_1, verify_property_2,
                                   verify_property_3)
from thermbench.simulator import (OccupancySchedule, run_experiment,
                                  run_probe_experiment, step)

from conftest import random_point
from mpc_oracle import scalar_costs
from test_identify import generate_self_consistent, stable_theta
from test_mpc import stable_toy_theta, toy_cfg, toy_theta_w, toy_window

SPEC_MI = RegressorSpec(Structure.NRM_MI, 1)
SPEC_LRM = RegressorSpec(Structure.LRM, 1)


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. operator identities
# ---------------------------------------------------------------------------

def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst1 = worst2 = worst3 = 0.0
    for _ in range(100):
        eps = rng.uniform(1e-6, 0.2)
        x = rng.normal(size=64)
        qa = q_separator(rng.uniform(-2, 0), eps)
        qb = q_separator(rng.uniform(-2, 0), eps)
        worst1 = max(worst1, verify_property_1(qa, qb, x))
        flow = rng.uniform(0, 0.1, size=64)
        worst2 = max(worst2, verify_property_2(flow, rng.uniform(-2, 0), eps, x))
        ops = [q_separator(rng.uniform(-2, 0), eps)
               for _ in range(rng.integers(1, 4))]
        worst3 = max(worst3, verify_property_3(ops, x))
    elapsed = time.perf_counter() - t0
    assert worst1 < 1e-12 and worst2 < 1e-12 and worst3 < 1e-12
    assert elapsed < 1.0
    report(1, f"operator identities on 100 random instances: max residuals "
              f"{worst1:.1e} / {worst2:.1e} / {worst3:.1e} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Taylor-order of the water predictor
# ---------------------------------------------------------------------------

def test_criterion_2_water_predictor_second_order():
    t0 = time.perf_counter()
    cfg = default_config()
    rh = cfg.plant.rh
    rng = np.random.default_rng(7)
    points = [random_point(rng) for _ in range(200)]

    def max_defect(eps_hours):
        eps_s = eps_hours * 3600.0
        a_w = 1.0 / (rh.c_w * rh.r_c)
        theta = np.array([1.0 - eps_s * a_w, -eps_s / (rh.rho_w * rh.v_w_volume),
                          eps_s / (rh.rho_w * rh.v_w_volume), eps_s * a_w])
        worst = 0.0
        for x, u, d in points:
            phi = np.array([x.t_w, u.vdot_w * x.t_w, u.vdot_w * d.t_w_in, x.t_r])
            worst = max(worst, abs(phi @ theta - step(cfg.plant, x, u, d, eps_hours).t_w))
        return worst

    e1 = max_defect(1.0 / 12.0)
    e2 = max_defect(1.0 / 24.0)
    ratio = e1 / e2
    elapsed = time.perf_counter() - t0
    assert 3.0 < ratio < 5.0
    assert elapsed < 1.0
    report(2, f"one-step defect ratio when halving the sampling period: "
              f"{ratio:.2f} in [3, 5] ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. self-consistency identification
# ---------------------------------------------------------------------------

def test_criterion_3_self_consistency():
    t0 = time.perf_counter()
    theta_star = stable_theta(SPEC_MI)
    ds = generate_self_consistent(SPEC_MI, theta_star, 10_000)
    info = informativity_check(ds, SPEC_MI)
    assert all(e.order >= 6 for e in info.entries)
    rep = train(ds, SPEC_MI, passes=5, rls_cfg=RlsConfig())
    rel = np.linalg.norm(rep.theta - theta_star) / np.linalg.norm(theta_star)
    elapsed = time.perf_counter() - t0
    assert rel < 1e-3
    assert elapsed < 10.0
    report(3, f"generating parameters recovered to {rel:.1e} relative after "
              f"{len(rep.pass_rmse)} passes over {len(ds)} samples ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. identification-error comparison
# ---------------------------------------------------------------------------

def test_criterion_4_nrm_beats_lrm_identification():
    t0 = time.perf_counter()
    cfg = default_config()
    ds = run_experiment(cfg.plant, cfg.sim)
    assert cfg.sim.noise_std == 0.05
    assert len(np.unique(ds.columns["Vw"])) > 1      # hysteresis-driven flow
    assert len(np.unique(ds.columns["Tw_in"])) > 10  # heating-curve inlet
    _, reports = train_all(cfg, ds, [SPEC_LRM, SPEC_MI])  # 5 passes, default RLS
    rmse = {spec.structure: rep.final_rmse for spec, rep in reports.items()}
    ratio = rmse[Structure.NRM_MI] / rmse[Structure.LRM]
    elapsed = time.perf_counter() - t0
    assert ratio < 1.0  # hard requirement; 0.9 is the reported target
    assert elapsed < 60.0
    target = "met" if ratio <= 0.9 else "not met (directional claim satisfied)"
    report(4, f"steady rolling RMSE NRM/LRM = {rmse[Structure.NRM_MI]:.4f}/"
              f"{rmse[Structure.LRM]:.4f} = {ratio:.3f} < 1.0; "
              f"0.9 target {target} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. excitation-order counting
# ---------------------------------------------------------------------------

def test_criterion_5_pe_order_oracle():
    n = 512
    k = np.arange(n)

    def sine(cycles, phase=0.0, amp=1.0):
        return amp * np.sin(2 * np.pi * cycles * k / n + phase)

    assert pe_order(spectrum(np.full(n, 2.0))) == 1
    assert pe_order(spectrum(sine(11))) == 2
    assert pe_order(spectrum(1.5 + sine(11) + sine(43, 0.9, 0.6))) == 5
    assert pe_order(spectrum(sine(11) + sine(43, 0.9, 0.6) + sine(97, 2.0, 0.4))) == 6
    report(5, "excitation orders (constant, sine, offset+2 sines, 3 sines) "
              "= (1, 2, 5, 6)")


# ---------------------------------------------------------------------------
# 6. enumeration optimality on toy instances
# ---------------------------------------------------------------------------

def test_criterion_6_toy_enumeration_optimality():
    t0 = time.perf_counter()
    cfg = toy_cfg()  # two periods: 16 admissible plans
    theta_w = toy_theta_w()
    plans = list(itertools.product(cfg.options(), repeat=cfg.n_periods))
    assert len(plans) == 16
    for seed in range(20):
        theta = stable_toy_theta(SPEC_MI, seed=seed)
        win = toy_window(cfg, seed=seed + 50, forecast_seed=seed + 500)
        costs = scalar_costs(theta, theta_w, SPEC_MI, win, cfg, plans)
        # independent enumeration in reversed order, ties -> smallest index
        best = min(reversed(range(len(plans))), key=lambda i: (costs[i], i))
        assert solve(theta, theta_w, SPEC_MI, win, cfg).periods == plans[best]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(6, f"20 random two-period instances match the independent "
              f"enumeration minimum ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 7. closed-loop comparison
# ---------------------------------------------------------------------------

def test_criterion_7_closed_loop_comparison():
    t0 = time.perf_counter()
    cfg = default_config()
    mpc_cfg = cfg.mpc
    assert mpc_cfg.n_hor == 60 and len(mpc_cfg.options()) ** mpc_cfg.n_periods == 1024

    # parameters identified once, from a randomized probe over the
    # controller's own discrete set (the heating-curve data keeps the flow on
    # almost continuously, which leaves the flow response unidentified)
    probe = run_probe_experiment(cfg.plant, cfg.sim,
                                 inlet_set=mpc_cfg.inlet_set,
                                 flow_set=mpc_cfg.flow_set,
                                 period_h=mpc_cfg.t_opt)
    _, reports = train_all(cfg, probe, [SPEC_MI, SPEC_LRM])

    # evaluation week (seed 777, 168 h): same weather family, working-day absences
    away = OccupancySchedule(absent_windows=((8.0, 16.0), (22.5, 23.5)),
                             jitter_h=0.3)
    sd = dataclasses.replace(cfg.sim.disturbance_spec, occupancy=away)
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, disturbance_spec=sd))
    episodes = evaluate(cfg, reports)
    nrm, lrm = episodes[SPEC_MI], episodes[SPEC_LRM]

    # hysteresis baseline on the identical scenario, costed from plant truth
    baseline = run_experiment(cfg.plant, cfg.evaluation_sim)
    bl_comfort, _, _ = realized_costs(
        baseline.metadata["t_r_true"], baseline.metadata["t_w_true"],
        baseline.columns["occ"], baseline.columns["Tw_in"],
        baseline.columns["Vw"], mpc_cfg)

    elapsed = time.perf_counter() - t0
    assert nrm.final_comfort <= lrm.final_comfort
    assert nrm.final_energy <= lrm.final_energy
    assert nrm.final_comfort < bl_comfort[-1]
    assert elapsed < 300.0
    report(7, f"comfort {nrm.final_comfort:.0f} <= {lrm.final_comfort:.0f}, "
              f"energy {nrm.final_energy:.3f} <= {lrm.final_energy:.3f} "
              f"(baseline comfort {bl_comfort[-1]:.0f}) ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 8. hysteresis regulation sanity
# ---------------------------------------------------------------------------

def test_criterion_8_regulation_band(default_dataset):
    t = default_dataset.columns["t_hours"]
    occ = default_dataset.columns["occ"]
    t_r = default_dataset.metadata["t_r_true"]
    mask = (t >= 12.0) & (occ > 0)
    lo, hi = t_r[mask].min(), t_r[mask].max()
    assert lo >= 20.0
    assert hi <= 22.0
    report(8, f"occupied zone temperature after the 12 h transient stays in "
              f"[{lo:.2f}, {hi:.2f}] within [20, 22]")
