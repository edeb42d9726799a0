"""Reference plant arithmetic, kept as test oracles.

``field_rate`` is the earlier body of ``thermal_core.rate``: the zone,
separator and water heat balances written against the parameter records,
field by field, on the flat state ``[T_r, T_s_1..T_s_n, T_w]``.  The compiled
``ZoneParams.balance`` (through ``thermal_core.rate``) must reproduce it bit
for bit.

``rk4`` is the earlier RK4 step of the plant: four ``thermal_core.rate``
stages over flat state lists, with the conductances taken in every stage.
The compiled stepper ``simulator._stepper`` must reproduce it bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from thermbench.errors import DivergenceError
from thermbench.thermal_core import (ZoneParams, air_conductance, rate,
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
    ``inputs`` are the arguments of :func:`thermal_core.rate` after the state,
    held constant over the step."""
    k1 = rate(params, x, *inputs)
    k2 = rate(params, [a + 0.5 * h * b for a, b in zip(x, k1)], *inputs)
    k3 = rate(params, [a + 0.5 * h * b for a, b in zip(x, k2)], *inputs)
    k4 = rate(params, [a + h * b for a, b in zip(x, k3)], *inputs)
    out = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]

    if not all(map(math.isfinite, out)):
        n = params.n_neighbors
        i, v = next((i, v) for i, v in enumerate(out) if not math.isfinite(v))
        name = "T_r" if i == 0 else ("T_w" if i == n + 1 else f"T_s[{i - 1}]")
        raise DivergenceError(f"integration diverged: state {name} is {v!r}")
    return out
