"""Call-site wrappers around the thermbench package: counters, timers, spans.

A module-level function is wrapped wherever a caller looks it up: every
attribute of every loaded ``thermbench`` module that *is* the function object
is replaced.  ``from .simulator import step`` in ``mpc`` therefore gets the
wrapper at ``thermbench.mpc.step`` as well as ``thermbench.simulator.step``.
A method is wrapped on its class.  ``Patches.restore`` puts every original
back, in reverse order, so wrappers may be stacked.

Three kinds of wrapper:

- ``count``: the call is counted, nothing else (``LaggedHistory.get``,
  ``layout``, validation hooks: too frequent and too short to time);
- ``hot``: the call is timed into an aggregate (calls, busy time, per-call
  samples) with no span (``step``, ``build_regressor``, ...);
- ``span``: as ``hot``, plus one span record (name, start, end, parent) per
  call, for calls of a millisecond or more.

Timed calls nest: each timed frame adds its duration to its parent's child
time, so a layer's self time is its busy time minus its timed children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

COUNT, HOT, SPAN = "count", "hot", "span"

#: (target, metric name, kind); a target is "module:function" or
#: "module:Class.method".  Several targets may feed one metric.
TRACE_PLAN = (
    ("thermbench.config:load_config", "config.load_config", SPAN),
    ("thermbench.simulator:run_experiment", "simulator.run_experiment", SPAN),
    ("thermbench.simulator:run_probe_experiment", "simulator.run_probe_experiment", SPAN),
    ("thermbench.simulator:TimeSeriesDataset.to_csv", "simulator.to_csv", SPAN),
    ("thermbench.simulator:TimeSeriesDataset.from_csv", "simulator.from_csv", SPAN),
    ("thermbench.simulator:step", "simulator.step", HOT),
    ("thermbench.thermal_core:PlantState.__post_init__", "thermal_core.validations", COUNT),
    ("thermbench.thermal_core:ControlInput.__post_init__", "thermal_core.validations", COUNT),
    ("thermbench.thermal_core:Disturbance.__post_init__", "thermal_core.validations", COUNT),
    ("thermbench.excitation:informativity_check", "excitation.informativity_check", SPAN),
    ("thermbench.excitation:spectrum", "excitation.spectrum", COUNT),
    ("thermbench.regressors:build_regressor", "regressors.build_regressor", HOT),
    ("thermbench.regressors:layout", "regressors.layout", COUNT),
    ("thermbench.regressors:LaggedHistory.get", "regressors.LaggedHistory.get", COUNT),
    ("thermbench.regressors:LaggedHistory.push", "regressors.LaggedHistory.push", COUNT),
    ("thermbench.identify:rls_update", "identify.rls_update", HOT),
    ("thermbench.identify:oe_predict", "identify.oe_predict", HOT),
    ("thermbench.mpc:solve", "mpc.solve", SPAN),
    ("thermbench.mpc:ControlPlan.expand", "mpc.ControlPlan.expand", COUNT),
    ("thermbench.mpc:realized_costs", "mpc.realized_costs", SPAN),
)

SOLVE_TARGET = "thermbench.mpc:solve"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "thermbench" or name.startswith("thermbench."))]


class Patches:
    """Replaced attributes and their originals."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make) -> int:
        """Replace ``target`` by ``make(original)`` at every call site; return
        the number of sites patched (0 when the target does not exist)."""
        mod_name, qual = target.split(":")
        mod = importlib.import_module(mod_name)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                return 0
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self.saved.append((cls, attr, raw))
            setattr(cls, attr, new)
            return 1
        fn = getattr(mod, qual, None)
        if fn is None:
            return 0
        new = make(fn)
        sites = [(m, a) for m in _package_modules()
                 for a, v in list(vars(m).items()) if v is fn]
        for m, a in sites:
            self.saved.append((m, a, fn))
            setattr(m, a, new)
        return len(sites)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    child: float = 0.0
    samples: list = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Tracer:
    """Aggregates and spans for the wrapped layers, kept in memory."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.origin = time.perf_counter()
        self._stack: list[list] = []   # open timed frames
        self._next_id = 0
        self._missing: set[str] = set()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _counter(self, name):
        stat = self.stat(name)

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _open(self, record_span: bool) -> list:
        parent = self._stack[-1][1] if self._stack else None
        sid = parent
        if record_span:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid, parent, time.perf_counter()]  # child time, id, parent, start
        self._stack.append(frame)
        return frame

    def _close(self, stat: Stat, name: str, frame: list, record_span: bool) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        d = t1 - frame[3]
        stat.calls += 1
        stat.busy += d
        stat.child += frame[0]
        stat.samples.append(d)
        if self._stack:
            self._stack[-1][0] += d
        if record_span:
            self.spans.append((frame[1], name, frame[3], t1, frame[2]))

    def _timer(self, name, record_span):
        stat = self.stat(name)
        open_, close = self._open, self._close

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                frame = open_(record_span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(stat, name, frame, record_span)
            return timed
        return make

    def wrapper(self, name: str, kind: str):
        return self._counter(name) if kind == COUNT else self._timer(name, kind == SPAN)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its call into a layer."""
        stat = self.stat(name)
        frame = self._open(True)
        try:
            yield
        finally:
            self._close(stat, name, frame, True)

    def install(self, patches: Patches) -> None:
        for target, name, kind in TRACE_PLAN:
            if not patches.wrap(target, self.wrapper(name, kind)) \
                    and target not in self._missing:
                self._missing.add(target)
                print(f"perfbench: trace target {target} not found; "
                      f"{name} reads 0", file=sys.stderr)

    def span_records(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": t0 - self.origin,
                 "end": t1 - self.origin, "parent": parent}
                for sid, name, t0, t1, parent in self.spans]


class SolveTimer:
    """Times every ``mpc.solve`` call and keeps the first period of the plan it
    returns: the controller's decision latency and decision sequence."""

    def __init__(self):
        self.ms: list[float] = []
        self.decisions: list[tuple[float, float]] = []

    def install(self, patches: Patches) -> None:
        def make(fn):
            @functools.wraps(fn)
            def timed_solve(*args, **kwargs):
                t0 = time.perf_counter()
                plan = fn(*args, **kwargs)
                self.ms.append((time.perf_counter() - t0) * 1e3)
                self.decisions.append(plan.periods[0])
                return plan
            return timed_solve
        patches.wrap(SOLVE_TARGET, make)
