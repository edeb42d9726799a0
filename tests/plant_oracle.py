"""Reference plant arithmetic, kept as test oracles.

``field_rate`` is the reference for the generated RK4 stage: the zone,
separator and water heat balances written against the parameter records,
field by field, on the flat state ``[T_r, T_s_1..T_s_n, T_w]``.  The physics
tests (equilibrium, superposition, the dense-matrix oracle) run on it.

``rk4`` is the earlier RK4 step of the plant: four ``field_rate`` stages over
flat state lists, with the conductances taken in every stage.  It runs none
of the generated code, and the generated stepper ``thermal_core.rk4_step``
must reproduce it bit for bit, so each generated stage is ``field_rate`` to
the bit.

``euler`` is one forward-Euler step on ``field_rate``: the discretization
that the regressor layouts are derived for.  ``fit_layout`` fits a layout to
a plant run by least squares.

``coefficients`` evaluates the rate coefficients of the generalized bilinear
form, an independent reference that the tests assemble into dense matrices
and pin ``field_rate`` to.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from thermbench.errors import DivergenceError
from thermbench.regressors import (PREDICTION_MIRRORS, RegressorSpec, layout,
                                   prediction_channel, warmup)
from thermbench.thermal_core import (ControlInput, ZoneParams, air_conductance,
                                     water_conductance)


def field_rate(params: ZoneParams, x: Sequence[float], vdot_w: float,
               vdot_a: float, t_w_in: float, t_a_in: float,
               t_neighbors: Sequence[float], q_ext: float) -> list[float]:
    """Componentwise heat balances of the zone, separators and water node.

    ``x`` is the flat state ``[T_r, T_s_1..T_s_n, T_w]`` and the result its
    derivative in K/s; the inputs are the fields of ``ControlInput`` and
    ``Disturbance``, unchecked.  Linear in (x, disturbance) for fixed flows.
    """
    n = params.n_neighbors
    t_r, t_s, t_w = x[0], x[1:1 + n], x[1 + n]
    seps = params.ordered_separators

    # Separator balances: heat in from the neighbor side, out to the zone side.
    q_s_plus = [(ts - t_r) / s.r_plus for ts, s in zip(t_s, seps)]
    dt_s = [((tj - ts) / s.r_minus - qp) / s.c_s
            for tj, ts, qp, s in zip(t_neighbors, t_s, q_s_plus, seps)]

    # Radiator water node: inlet advection against convection to the zone.
    g_w = water_conductance(params.rh, vdot_w)
    q_w = (t_w - t_r) / params.rh.r_c
    dt_w = (g_w * (t_w_in - t_w) - q_w) / params.rh.c_w

    # Zone balance: separators, radiator, air loop, external sources.
    g_a = air_conductance(params.hvac, vdot_a)
    dt_r = (sum(q_s_plus) + q_w + g_a * (t_a_in - t_r) + q_ext) / params.c_r
    return [dt_r, *dt_s, dt_w]


def rk4(params: ZoneParams, x: list[float], inputs: tuple, h: float) -> list[float]:
    """One classical RK4 step of ``h`` seconds on the flat state ``x``;
    ``inputs`` are the arguments of :func:`field_rate` after the state, held
    constant over the step."""
    k1 = field_rate(params, x, *inputs)
    k2 = field_rate(params, [a + 0.5 * h * b for a, b in zip(x, k1)], *inputs)
    k3 = field_rate(params, [a + 0.5 * h * b for a, b in zip(x, k2)], *inputs)
    k4 = field_rate(params, [a + h * b for a, b in zip(x, k3)], *inputs)
    out = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]

    if not all(map(math.isfinite, out)):
        n = params.n_neighbors
        i, v = next((i, v) for i, v in enumerate(out) if not math.isfinite(v))
        name = "T_r" if i == 0 else ("T_w" if i == n + 1 else f"T_s[{i - 1}]")
        raise DivergenceError(f"integration diverged: state {name} is {v!r}")
    return out


def euler(params: ZoneParams, x: list[float], inputs: tuple, h: float) -> list[float]:
    """One forward-Euler step of ``h`` seconds on the flat state ``x``, with
    ``inputs`` as for :func:`rk4`."""
    return [a + h * b for a, b in zip(x, field_rate(params, x, *inputs))]


def fit_layout(spec: RegressorSpec, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The equation-error least-squares fit of ``spec``'s layout to a plant
    run ``cols`` (arrays by dataset column), each prediction read as the
    measurement it mirrors: the parameters, and the regressor rows and the
    outputs they were fitted to."""
    w, n = warmup(spec), len(cols["T_r"])
    phi = np.array([np.prod([cols[PREDICTION_MIRRORS.get(c, c)][w - lag:n - lag]
                             for c, lag in entry], axis=0)
                    for entry in layout(spec)]).T
    scale = np.linalg.norm(phi, axis=0)  # unit columns, for the conditioning
    y = cols[PREDICTION_MIRRORS[prediction_channel(spec)]][w:]
    return np.linalg.lstsq(phi / scale, y, rcond=None)[0] / scale, phi, y


@dataclass(frozen=True)
class CoefficientSet:
    """Rate coefficients (1/s, except q_ext gain in K/(J)) of the generalized
    bilinear form of the zone dynamics, for one (params, input) pair.

    Per-neighbor entries are ordered by neighbor id.
    """

    a_r: float                      # zone self-term, includes the air-flow part
    a_rs_plus: tuple[float, ...]    # zone <- separator core
    a_ra: float                     # zone <- air inlet (flow dependent)
    a_rw: float                     # zone <- water node
    a_s_plus: tuple[float, ...]     # separator core <- zone
    a_s_minus: tuple[float, ...]    # separator core <- neighbor
    a_s: tuple[float, ...]          # separator self-term (= -a_s_plus - a_s_minus)
    a_w: float                      # water node <- zone
    a_ww: float                     # water node <- inlet (flow dependent)
    a_wc: float                     # water self-term (= -a_w - a_ww)
    a_ext: float                    # zone <- external heat, K/(J)


def coefficients(params: ZoneParams, u: ControlInput) -> CoefficientSet:
    """Evaluate every rate coefficient of the generalized zone dynamics."""
    c_r = params.c_r
    c_w = params.rh.c_w
    r_c = params.rh.r_c
    seps = [params.separators[j] for j in params.neighbor_ids]

    g_w = water_conductance(params.rh, u.vdot_w)
    g_a = air_conductance(params.hvac, u.vdot_a)

    a_rs_plus = tuple(1.0 / (c_r * s.r_plus) for s in seps)
    a_s_plus = tuple(1.0 / (s.c_s * s.r_plus) for s in seps)
    a_s_minus = tuple(1.0 / (s.c_s * s.r_minus) for s in seps)
    a_s = tuple(-p - m for p, m in zip(a_s_plus, a_s_minus))

    a_rw = 1.0 / (c_r * r_c)
    a_ra = g_a / c_r
    a_r = -sum(a_rs_plus) - a_rw - a_ra

    a_w = 1.0 / (c_w * r_c)
    a_ww = g_w / c_w
    a_wc = -a_w - a_ww

    return CoefficientSet(
        a_r=a_r, a_rs_plus=a_rs_plus, a_ra=a_ra, a_rw=a_rw,
        a_s_plus=a_s_plus, a_s_minus=a_s_minus, a_s=a_s,
        a_w=a_w, a_ww=a_ww, a_wc=a_wc, a_ext=1.0 / c_r,
    )
