"""RC-network heat-mass transfer model of a single thermal zone.

A zone node (capacitance ``c_r``) exchanges heat with each neighboring zone
through a separator (two resistances around one capacitance), with a radiant
heating loop (water capacitance behind a flow-dependent restrictor and a
convection resistance) and with an air loop whose restrictor scales with the
air flow.  All quantities are SI: capacitances in J/K, resistances in K/W,
heat in W, temperatures in degC and rates per second.

Flow conventions: the water flow is a mass flow in kg/s, so the water-side
conductance is ``c_w * vdot_w``; the air flow is volumetric in m^3/s, so the
air-side conductance is ``rho_a * c_a * vdot_a``.  Both conductances are
exactly zero at zero flow.

There is one heat balance, written once as the stage template of a code
generator that writes straight-line source per neighbor count and compiles
it once.  ``rk4_step`` is the RK4 step, four stages in one function;
``ZoneParams.balance`` is the one-stage form, from the state ``(t_r, t_s,
t_w)``, the two flow conductances and the disturbances to ``(dt_r, dt_s,
dt_w)``; ``rate`` is the balance on the flat state list and the raw flows.
A plant's constants and the step length are names of the generated
function's namespace, never text of its source, so plants with the same
neighbor count share one code object.  The other per-plant constants
(neighbor order, ordered separators, water capacitance) are cached
properties of the frozen parameter records.  The checked records
``PlantState``, ``ControlInput`` and ``Disturbance`` serve the typed
``simulator.step``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import DivergenceError, ParameterError


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v) or v <= 0.0:
            raise ParameterError(f"{name} must be strictly positive and finite, got {v!r}")


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class SeparatorParams:
    """Wall between the zone and one neighbor: zone-side / far-side resistance
    around a single storage node."""

    r_plus: float   # K/W, resistance adjacent to the zone
    r_minus: float  # K/W, resistance adjacent to the neighbor
    c_s: float      # J/K

    def __post_init__(self):
        _require_positive(r_plus=self.r_plus, r_minus=self.r_minus, c_s=self.c_s)


@dataclass(frozen=True)
class RhParams:
    """Radiant (hydronic) heating loop parameters."""

    c_w_medium: float   # J/(kg K), specific heat of the water
    rho_w: float        # kg/m^3
    v_w_volume: float   # m^3 of water in the loop
    r_c: float          # K/W, radiator-to-zone convection resistance

    def __post_init__(self):
        _require_positive(c_w_medium=self.c_w_medium, rho_w=self.rho_w,
                          v_w_volume=self.v_w_volume, r_c=self.r_c)

    @cached_property
    def c_w(self) -> float:
        """Thermal capacitance of the water volume, J/K."""
        return self.c_w_medium * self.rho_w * self.v_w_volume


@dataclass(frozen=True)
class HvacParams:
    """Air-loop medium properties."""

    c_a: float    # J/(kg K)
    rho_a: float  # kg/m^3

    def __post_init__(self):
        _require_positive(c_a=self.c_a, rho_a=self.rho_a)


@dataclass(frozen=True)
class ZoneParams:
    """Full parameter set of one zone and its boundary.  ``separators`` is
    not mutated after construction: the neighbor order is cached."""

    c_r: float                              # J/K, zone capacitance
    separators: dict[int, SeparatorParams]  # neighbor id -> wall parameters
    rh: RhParams
    hvac: HvacParams

    def __post_init__(self):
        _require_positive(c_r=self.c_r)
        if not self.separators:
            raise ParameterError("a zone needs at least one neighbor separator")

    @cached_property
    def neighbor_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.separators))

    @cached_property
    def ordered_separators(self) -> tuple[SeparatorParams, ...]:
        """The separators ordered by neighbor id."""
        return tuple(self.separators[j] for j in self.neighbor_ids)

    @property
    def n_neighbors(self) -> int:
        return len(self.separators)

    @cached_property
    def balance(self):
        """The zone, separator and water heat balances of this plant, the
        generated code's one-stage form: ``balance(t_r, t_s, t_w, g_w, g_a,
        t_w_in, t_a_in, t_neighbors, q_ext) -> (dt_r, dt_s, dt_w)``, with
        ``t_s``, ``dt_s`` and ``t_neighbors`` ordered by neighbor id, ``g_w``
        and ``g_a`` the conductances of :func:`water_conductance` and
        :func:`air_conductance` and the derivatives in K/s."""
        return _generated(self, False)


def _stage(i: int, x: str, n: int) -> list[str]:
    """The heat balance, written once: the lines that set stage ``i``'s
    derivatives ``k{i}_r``, ``k{i}_s{j}``, ``k{i}_w`` of the state ``{x}_r``,
    ``{x}_s{j}``, ``{x}_w``.  The separator sum starts from ``0.0``, as
    ``sum()`` does from ``0``, so that a zero sum is never ``-0.0``."""
    q_sum = "".join(f" + q{j}" for j in range(n))
    return [
        # Separator balances: heat in from the neighbor side, out to the zone side.
        *(line for j in range(n) for line in (
            f"q{j} = ({x}_s{j} - {x}_r) / r_plus{j}",
            f"k{i}_s{j} = ((t_n{j} - {x}_s{j}) / r_minus{j} - q{j}) / c_s{j}")),
        # Radiator water node: inlet advection against convection to the zone.
        f"q_w = ({x}_w - {x}_r) / r_c",
        f"k{i}_w = (g_w * (t_w_in - {x}_w) - q_w) / c_w",
        # Zone balance: separators, radiator, air loop, external sources.
        f"k{i}_r = (0.0{q_sum} + q_w + g_a * (t_a_in - {x}_r) + q_ext) / c_r"]


def _source(n: int, rk4: bool) -> str:
    """Straight-line source, for ``n`` neighbors, of ``balance`` (one stage on
    the conductances) or ``rk4`` (the RK4 step on the flows), associating as
    ``x + 0.5 * h * k`` and ``x + h / 6.0 * (k1 + 2 k2 + 2 k3 + k4)`` do."""
    xs = ["r", *(f"s{j}" for j in range(n)), "w"]
    t_s, k_s = (", ".join(f"{p}_{x}" for x in xs[1:-1]) for p in ("t", "k1"))
    body = [f"{t_s}, = t_s", ", ".join(f"t_n{j}" for j in range(n)) + ", = t_neighbors"]
    if not rk4:
        body += [*_stage(1, "t", n), f"return k1_r, [{k_s}], k1_w"]
    else:
        body += ["g_w = g_w_per_flow * vdot_w", "g_a = g_a_per_flow * vdot_a",
                 *_stage(1, "t", n)]
        for i, c in ((1, "half"), (2, "half"), (3, "h")):
            body += [f"x_{x} = t_{x} + {c} * k{i}_{x}" for x in xs] + _stage(i + 1, "x", n)
        body += [f"t_{x} = t_{x} + sixth * (k1_{x} + 2.0 * k2_{x} + 2.0 * k3_{x} + k4_{x})"
                 for x in xs]
        body += [f"if not ({' and '.join(f'isfinite(t_{x})' for x in xs)}):",
                 f"    diverged(t_r, [{t_s}], t_w)", f"return t_r, [{t_s}], t_w"]
    head = "rk4(t_r, t_s, t_w, vdot_w, vdot_a" if rk4 else "balance(t_r, t_s, t_w, g_w, g_a"
    return (f"def {head}, t_w_in, t_a_in, t_neighbors, q_ext):\n"
            + "".join(f"    {line}\n" for line in body))


@functools.lru_cache(maxsize=None)
def _code(n: int, rk4: bool):
    return compile(_source(n, rk4), f"<thermal_core {n} neighbors>", "exec")


def _generated(params: ZoneParams, rk4: bool, **names):
    """The generated function for ``params``: the plant's constants and
    ``names`` are names of its namespace, never text of its source."""
    ns = {"r_c": params.rh.r_c, "c_w": params.rh.c_w, "c_r": params.c_r,
          # both conductances are linear in the flow
          "g_w_per_flow": water_conductance(params.rh, 1.0),
          "g_a_per_flow": air_conductance(params.hvac, 1.0),
          "isfinite": math.isfinite, "diverged": _diverged, **names}
    for j, s in enumerate(params.ordered_separators):
        ns.update({f"r_plus{j}": s.r_plus, f"r_minus{j}": s.r_minus, f"c_s{j}": s.c_s})
    exec(_code(params.n_neighbors, rk4), ns)
    return ns["rk4" if rk4 else "balance"]


def rk4_step(params: ZoneParams, h: float):
    """The classical RK4 step of ``h`` seconds, four stages of the balance in
    one function: ``rk4(t_r, t_s, t_w, vdot_w, vdot_a, t_w_in, t_a_in,
    t_neighbors, q_ext) -> (t_r, t_s, t_w)``, the inputs held over the step."""
    return _generated(params, True, h=h, half=0.5 * h, sixth=h / 6.0)


def _diverged(t_r, t_s, t_w):
    states = [("T_r", t_r), *((f"T_s[{i}]", v) for i, v in enumerate(t_s)), ("T_w", t_w)]
    name, v = next((name, v) for name, v in states if not math.isfinite(v))
    raise DivergenceError(f"integration diverged: state {name} is {v!r}")


@dataclass
class PlantState:
    """Zone temperature, separator core temperatures (one per neighbor,
    ordered by neighbor id) and water temperature."""

    t_r: float
    t_s: list[float]
    t_w: float

    def as_list(self) -> list[float]:
        return [self.t_r, *self.t_s, self.t_w]

    def __post_init__(self):
        _require_finite(t_r=self.t_r, t_w=self.t_w)
        for i, v in enumerate(self.t_s):
            _require_finite(**{f"t_s[{i}]": v})


@dataclass(frozen=True)
class ControlInput:
    """Water mass flow (kg/s) and air volume flow (m^3/s)."""

    vdot_w: float
    vdot_a: float

    def __post_init__(self):
        _require_finite(vdot_w=self.vdot_w, vdot_a=self.vdot_a)
        if self.vdot_w < 0.0 or self.vdot_a < 0.0:
            raise ParameterError("flows must be non-negative")


@dataclass(frozen=True)
class Disturbance:
    """Inlet water / air temperatures, neighbor zone temperatures (ordered by
    neighbor id) and aggregate external heat input in W."""

    t_w_in: float
    t_a_in: float
    t_neighbors: tuple[float, ...]
    q_ext: float

    def __post_init__(self):
        _require_finite(t_w_in=self.t_w_in, t_a_in=self.t_a_in, q_ext=self.q_ext)
        for i, v in enumerate(self.t_neighbors):
            _require_finite(**{f"t_neighbors[{i}]": v})


def water_conductance(rh: RhParams, vdot_w: float) -> float:
    """1/R_w in W/K for a water mass flow in kg/s; exactly 0 at zero flow."""
    return rh.c_w_medium * vdot_w


def air_conductance(hvac: HvacParams, vdot_a: float) -> float:
    """1/R_a in W/K for an air volume flow in m^3/s; exactly 0 at zero flow."""
    return hvac.rho_a * hvac.c_a * vdot_a


def rate(params: ZoneParams, x: Sequence[float], vdot_w: float, vdot_a: float,
         t_w_in: float, t_a_in: float, t_neighbors: Sequence[float],
         q_ext: float) -> list[float]:
    """Componentwise heat balances of the zone, separators and water node.

    ``x`` is the flat state ``[T_r, T_s_1..T_s_n, T_w]`` and the result its
    derivative in K/s; the inputs are the fields of ``ControlInput`` and
    ``Disturbance``, unchecked.  Linear in (x, disturbance) for fixed flows.
    This is :attr:`ZoneParams.balance` on the flat state and the raw flows.
    """
    n = params.n_neighbors
    dt_r, dt_s, dt_w = params.balance(
        x[0], x[1:1 + n], x[1 + n], water_conductance(params.rh, vdot_w),
        air_conductance(params.hvac, vdot_a), t_w_in, t_a_in, t_neighbors, q_ext)
    return [dt_r, *dt_s, dt_w]
