import math

import numpy as np
import pytest

from thermbench.errors import ParameterError, ShapeError
from thermbench.simulator import step
from thermbench.thermal_core import (ControlInput, Disturbance, PlantState,
                                     RhParams, SeparatorParams, ZoneParams,
                                     air_conductance, water_conductance)

from conftest import random_point, random_zone_params
from plant_oracle import coefficients, field_rate


def rate_of(params, x, u, d):
    """``field_rate``, the balance that the generated RK4 stage reproduces
    bit for bit, on the typed records' fields."""
    return field_rate(params, [x.t_r, *x.t_s, x.t_w], u.vdot_w, u.vdot_a, d.t_w_in,
                      d.t_a_in, d.t_neighbors, d.q_ext)


def test_zero_flow_conductances_vanish(cfg):
    u = ControlInput(vdot_w=0.0, vdot_a=0.0)
    c = coefficients(cfg.plant, u)
    assert c.a_ww == 0.0
    assert c.a_ra == 0.0
    assert c.a_wc == -c.a_w


def test_water_conductance_hand_value():
    # 4186 J/(kg K) * 0.0787 kg/s, computed by hand
    rh = RhParams(c_w_medium=4186.0, rho_w=1000.0, v_w_volume=0.1, r_c=0.005)
    assert water_conductance(rh, 0.0787) == pytest.approx(329.4382, abs=1e-4)


def test_separator_self_term_relation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        params = random_zone_params(rng, n_neighbors=2)
        c = coefficients(params, ControlInput(0.01, 0.02))
        for p, m, s in zip(c.a_s_plus, c.a_s_minus, c.a_s):
            assert s == -p - m


def test_flow_dependence_linear():
    rng = np.random.default_rng(4)
    params = random_zone_params(rng)
    c1 = coefficients(params, ControlInput(0.03, 0.01))
    c2 = coefficients(params, ControlInput(0.06, 0.02))
    assert c2.a_ww == pytest.approx(2.0 * c1.a_ww, rel=1e-12)
    assert c2.a_ra == pytest.approx(2.0 * c1.a_ra, rel=1e-12)


def test_equilibrium_derivative_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        params = random_zone_params(rng, n_neighbors=2)
        t = rng.uniform(10, 30)
        x = PlantState(t_r=t, t_s=[t, t], t_w=t)
        d = Disturbance(t_w_in=t, t_a_in=t, t_neighbors=(t, t), q_ext=0.0)
        u = ControlInput(rng.uniform(0, 0.1), rng.uniform(0, 0.1))
        dx = rate_of(params, x, u, d)
        assert max(abs(v) for v in dx) < 1e-12


def test_linearity_in_state_and_disturbance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        params = random_zone_params(rng)
        u = ControlInput(rng.uniform(0, 0.1), rng.uniform(0, 0.1))
        x1, _, d1 = random_point(rng)
        x2, _, d2 = random_point(rng)
        xs = PlantState(t_r=x1.t_r + x2.t_r,
                        t_s=[a + b for a, b in zip(x1.t_s, x2.t_s)],
                        t_w=x1.t_w + x2.t_w)
        ds = Disturbance(t_w_in=d1.t_w_in + d2.t_w_in, t_a_in=d1.t_a_in + d2.t_a_in,
                         t_neighbors=tuple(a + b for a, b in
                                           zip(d1.t_neighbors, d2.t_neighbors)),
                         q_ext=d1.q_ext + d2.q_ext)
        lhs = rate_of(params, xs, u, ds)
        rhs = [a + b for a, b in zip(rate_of(params, x1, u, d1),
                                     rate_of(params, x2, u, d2))]
        for a, b in zip(lhs, rhs):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_doubling_doubles_rate():
    rng = np.random.default_rng(7)
    params = random_zone_params(rng)
    x, u, d = random_point(rng)
    r1 = rate_of(params, x, u, d)
    x2 = PlantState(t_r=2 * x.t_r, t_s=[2 * v for v in x.t_s], t_w=2 * x.t_w)
    d2 = Disturbance(t_w_in=2 * d.t_w_in, t_a_in=2 * d.t_a_in,
                     t_neighbors=tuple(2 * v for v in d.t_neighbors),
                     q_ext=2 * d.q_ext)
    r2 = rate_of(params, x2, u, d2)
    for a, b in zip(r2, r1):
        assert a == pytest.approx(2 * b, rel=1e-12)


def _dense_matrices(params, u):
    """Independent oracle: dense A(u), E(u) assembled from the generalized
    rate-coefficient layout (state (T_r, T_s.., T_w); disturbance
    (Tw_in, Ta_in, T_rj.., Qext))."""
    n = params.n_neighbors
    c = coefficients(params, u)
    dim = n + 2
    A = np.zeros((dim, dim))
    E = np.zeros((dim, n + 3))
    A[0, 0] = c.a_r
    A[0, 1:1 + n] = c.a_rs_plus
    A[0, 1 + n] = c.a_rw
    for j in range(n):
        A[1 + j, 0] = c.a_s_plus[j]
        A[1 + j, 1 + j] = c.a_s[j]
        E[1 + j, 2 + j] = c.a_s_minus[j]
    A[1 + n, 0] = c.a_w
    A[1 + n, 1 + n] = c.a_wc
    E[0, 1] = c.a_ra
    E[0, 2 + n] = c.a_ext
    E[1 + n, 0] = c.a_ww
    return A, E


def test_derivative_matches_dense_matrix_oracle():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for _ in range(10):
            params = random_zone_params(rng, n_neighbors=n)
            x, u, d = random_point(rng, n_neighbors=n)
            A, E = _dense_matrices(params, u)
            xv = np.array([x.t_r, *x.t_s, x.t_w])
            dv = np.array([d.t_w_in, d.t_a_in, *d.t_neighbors, d.q_ext])
            expected = A @ xv + E @ dv
            got = np.array(rate_of(params, x, u, d))
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-18)


def test_invalid_parameter_rejected():
    with pytest.raises(ParameterError):
        SeparatorParams(r_plus=math.nan, r_minus=0.01, c_s=1e6)
    with pytest.raises(ParameterError):
        RhParams(c_w_medium=4186.0, rho_w=-1.0, v_w_volume=0.1, r_c=0.005)
    with pytest.raises(ParameterError):
        ControlInput(vdot_w=-0.1, vdot_a=0.0)
    with pytest.raises(ParameterError):
        ZoneParams(c_r=1e6, separators={}, rh=RhParams(4186, 1000, 0.1, 0.005),
                   hvac=None)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(9)
    params = random_zone_params(rng, n_neighbors=2)
    x, u, d = random_point(rng, n_neighbors=1)
    with pytest.raises(ShapeError):
        step(params, x, u, d, 1.0 / 12.0)


def test_conductance_continuity_at_zero_flow():
    rng = np.random.default_rng(10)
    params = random_zone_params(rng)
    for v in (1e-12, 1e-9, 1e-6):
        assert water_conductance(params.rh, v) == pytest.approx(
            params.rh.c_w_medium * v, rel=1e-12)
        assert air_conductance(params.hvac, v) == pytest.approx(
            params.hvac.rho_a * params.hvac.c_a * v, rel=1e-12)
