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

``rate`` is the one heat-balance function, on flat floats; the RK4 stepper in
``simulator`` integrates it.  The checked records ``PlantState``,
``ControlInput`` and ``Disturbance`` serve the typed ``simulator.step``.
``coefficients`` (the bilinear form) is an independent reference that the
tests assemble into dense matrices and pin ``rate`` to.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ParameterError


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

    @property
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
    """Full parameter set of one zone and its boundary."""

    c_r: float                              # J/K, zone capacitance
    separators: dict[int, SeparatorParams]  # neighbor id -> wall parameters
    rh: RhParams
    hvac: HvacParams

    def __post_init__(self):
        _require_positive(c_r=self.c_r)
        if not self.separators:
            raise ParameterError("a zone needs at least one neighbor separator")

    @property
    def neighbor_ids(self) -> list[int]:
        return sorted(self.separators)

    @property
    def n_neighbors(self) -> int:
        return len(self.separators)


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


def water_conductance(rh: RhParams, vdot_w: float) -> float:
    """1/R_w in W/K for a water mass flow in kg/s; exactly 0 at zero flow."""
    return rh.c_w_medium * vdot_w


def air_conductance(hvac: HvacParams, vdot_a: float) -> float:
    """1/R_a in W/K for an air volume flow in m^3/s; exactly 0 at zero flow."""
    return hvac.rho_a * hvac.c_a * vdot_a


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


def rate(params: ZoneParams, x: Sequence[float], vdot_w: float, vdot_a: float,
         t_w_in: float, t_a_in: float, t_neighbors: Sequence[float],
         q_ext: float) -> list[float]:
    """Componentwise heat balances of the zone, separators and water node.

    ``x`` is the flat state ``[T_r, T_s_1..T_s_n, T_w]`` and the result its
    derivative in K/s; the inputs are the fields of ``ControlInput`` and
    ``Disturbance``, unchecked.  Linear in (x, disturbance) for fixed flows.
    """
    n = params.n_neighbors
    t_r, t_s, t_w = x[0], x[1:1 + n], x[1 + n]
    seps = [params.separators[j] for j in params.neighbor_ids]

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
