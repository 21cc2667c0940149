"""Scenarios, solver settings, and the plan of a run.

A scenario perturbs component states, steps loads, or scales line couplings
at times aligned with the integration grid. :func:`check_scenario` checks
it against the network and the components, each load and line event
applied alone; :func:`plan_run` also checks it against the step grid and
builds every network the run switches to, so a bad input, or a bad
combination of overlapping events, fails before any work. The
:class:`RunPlan` it returns is what the simulator steps on.
"""

from __future__ import annotations

import math

from .components import Component
from .network import NetworkError, NetworkModel
from .records import field, recordclass

__all__ = [
    "ScenarioError", "StatePerturbation", "LoadStep", "LineScale", "Scenario",
    "SolverConfig", "RunPlan", "check_scenario", "plan_run",
]

GRID_ALIGN_TOL = 1e-9


class ScenarioError(ValueError):
    """Scenario fields violate their invariants."""


@recordclass(frozen=True)
class StatePerturbation:
    at: float
    component: str
    delta: dict[str, float]  # state label -> additive increment


@recordclass(frozen=True)
class LoadStep:
    at: float
    bus: str
    dp: float  # consumption-positive deltas
    dq: float
    duration: float | None = None


@recordclass(frozen=True)
class LineScale:
    at: float
    line_index: int
    factor: float
    duration: float | None = None


NetworkDisturbance = LoadStep | LineScale
Disturbance = StatePerturbation | NetworkDisturbance


@recordclass
class Scenario:
    horizon: float
    output_period: float = 0.01
    initial: str = "equilibrium"  # or "explicit"
    explicit_states: dict[str, dict[str, float]] | None = None
    disturbances: list[Disturbance] = field(default_factory=list)

    def __post_init__(self) -> None:
        # the comparisons are written to fail for NaN as well
        if not 0.0 <= self.horizon < math.inf:
            raise ScenarioError(f"horizon must be nonnegative, got {self.horizon}")
        if not 0.0 < self.output_period < math.inf:
            raise ScenarioError("output period must be positive")
        if self.initial not in ("equilibrium", "explicit"):
            raise ScenarioError(f"unknown initial condition source {self.initial!r}")
        if self.initial == "explicit" and not self.explicit_states:
            raise ScenarioError("explicit initial condition requires explicit_states")
        # (where, values by name) of every value that must be finite
        finite = [(f"explicit_states.{cid}", v) for cid, v in (self.explicit_states or {}).items()]
        for i, d in enumerate(self.disturbances):
            where = f"disturbances[{i}]"
            if not 0.0 <= d.at <= self.horizon:
                raise ScenarioError(f"disturbance time {d.at} outside horizon [0, {self.horizon}]")
            if isinstance(d, StatePerturbation):
                finite.append((f"{where}.delta", d.delta))
            elif isinstance(d, LoadStep):
                finite.append((where, {"dp": d.dp, "dq": d.dq}))
            else:
                finite.append((where, {"factor": d.factor}))
            if isinstance(d, LineScale) and d.factor <= 0.0:
                raise ScenarioError(f"line scale factor must be positive, got {d.factor}")
            duration = getattr(d, "duration", None)
            if duration is not None and not 0.0 < duration < math.inf:
                raise ScenarioError(f"{where}.duration must be positive and finite, got {duration}")
        for where, values in finite:
            for name, value in values.items():
                if not math.isfinite(value):
                    raise ScenarioError(f"{where}.{name} must be finite, got {value}")

    def network_events(self) -> bool:
        return any(isinstance(d, (LoadStep, LineScale)) for d in self.disturbances)


@recordclass(frozen=True)
class SolverConfig:
    step_size: float = 1e-3
    newton_tol: float = 1e-10
    newton_max_iter: int = 25

    def __post_init__(self) -> None:
        # the comparisons are written to fail for NaN as well
        if not 0.0 < self.step_size < math.inf:
            raise ScenarioError("step size must be positive")
        if not 0.0 < self.newton_tol < math.inf:
            raise ScenarioError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if self.newton_max_iter < 0:
            raise ScenarioError("newton_max_iter must be nonnegative")


@recordclass(frozen=True)
class RunPlan:
    """The plan of one run, made by :func:`plan_run` before any work: the
    network, components, scenario and solver settings it was checked for,
    the step count, the steps per sample, and for each event step the run
    reaches, the state perturbations due there and the network in force
    after it (None when no load or line event starts or ends there)."""

    net: NetworkModel
    components: dict[str, Component]
    scenario: Scenario
    config: SolverConfig
    n_steps: int
    sample_every: int
    events: dict[int, tuple[list[StatePerturbation], NetworkModel | None]]


def check_scenario(
    net: NetworkModel, components: dict[str, Component], scenario: Scenario
) -> None:
    """Check a scenario against the network and its components: the checks
    that no step size changes. Explicit states and state perturbations name
    only components and their states; explicit states hold a positive
    ``v``, and with ``initial="explicit"`` cover every component. Each load
    and line event, applied alone to `net`, builds a network."""
    comp_ids = [s.component_id for s in net.dynamic_shunts]
    states = scenario.explicit_states or {}
    missing = [cid for cid in comp_ids if cid not in states]
    if scenario.initial == "explicit" and missing:
        raise ScenarioError(f"explicit_states: missing component(s) {missing}")
    named = [(f"explicit_states.{cid}", cid, given) for cid, given in states.items()]
    named += [
        (f"disturbances[{i}]", d.component, d.delta)
        for i, d in enumerate(scenario.disturbances)
        if isinstance(d, StatePerturbation)
    ]
    for where, cid, given in named:
        if cid not in comp_ids:
            raise ScenarioError(f"{where}: unknown component {cid!r}")
        for label in given:
            if label not in components[cid].state_labels:
                raise ScenarioError(f"{where}: component {cid!r} has no state {label!r}")
    for cid, given in states.items():
        missing = [label for label in components[cid].state_labels if label not in given]
        if scenario.initial == "explicit" and missing:
            raise ScenarioError(f"explicit_states.{cid}: missing state(s) {missing}")
        if not given.get("v", 1.0) > 0.0:
            raise ScenarioError(f"explicit_states.{cid}.v must be positive, got {given['v']}")
    for i, d in enumerate(scenario.disturbances):
        if not isinstance(d, StatePerturbation):
            try:
                _switched(net, d)
            except NetworkError as exc:
                raise ScenarioError(f"disturbances[{i}]: {exc}") from None


def _switched(net: NetworkModel, d: NetworkDisturbance) -> NetworkModel:
    """`net` with the load or line event `d` applied."""
    if isinstance(d, LoadStep):
        return net.with_load_delta(d.bus, d.dp, d.dq)
    return net.with_scaled_line(d.line_index, d.factor)


def _snap_to_grid(value: float, h: float, what: str) -> int:
    ratio = value / h
    # a ratio past the float range is no step count; 0 then fails the check
    steps = round(ratio) if math.isfinite(ratio) else 0
    if abs(value - steps * h) > GRID_ALIGN_TOL:
        raise ScenarioError(f"{what} = {value} does not align with the step grid (h = {h})")
    return steps


def plan_run(
    net: NetworkModel, components: dict[str, Component], scenario: Scenario,
    config: SolverConfig, checked: bool = False,
) -> RunPlan:
    """Plan a run of `scenario` on `net` at `config`'s step, before any work.

    Checks the scenario against the step grid and, unless the caller has
    already passed it through :func:`check_scenario` (``checked``), against
    the network and the components, and builds the network in force after
    each event step the run reaches: from `net`, with the load and line
    events in force applied in the order they started. So every combination
    of overlapping events is built here; one that fails names the
    disturbances in force and the step's time in front of the network's
    message.
    """
    h = config.step_size
    n_steps = _snap_to_grid(scenario.horizon, h, "horizon")
    sample_every = _snap_to_grid(scenario.output_period, h, "output period")
    if sample_every <= 0:
        raise ScenarioError("output period shorter than one step")
    if scenario.horizon > 0 and n_steps % sample_every != 0:
        raise ScenarioError(
            f"horizon {scenario.horizon} must be a whole number of output periods "
            f"(the output period snaps to {sample_every * h:.6g}, "
            f"{sample_every} steps of h = {h})"
        )
    if not checked:
        check_scenario(net, components, scenario)
    # per step, the disturbances due there by index, each with whether it ends there
    due: dict[int, list[tuple[int, Disturbance, bool]]] = {}
    for i, d in enumerate(scenario.disturbances):
        due.setdefault(_snap_to_grid(d.at, h, "disturbance time"), []).append((i, d, False))
        if not isinstance(d, StatePerturbation) and d.duration is not None:
            end = _snap_to_grid(d.at + d.duration, h, "disturbance end time")
            due.setdefault(end, []).append((i, d, True))
    events = {}
    # the load and line events in force by index, in the order they started
    active: dict[int, NetworkDisturbance] = {}
    for step in sorted(s for s in due if s <= n_steps):
        kicks, switched = [], None
        for i, d, ends in due[step]:
            if isinstance(d, StatePerturbation):
                kicks.append(d)
            elif ends:
                del active[i]
            else:
                active[i] = d
        if len(kicks) < len(due[step]):  # a load or line event is due
            switched = net
            try:
                for d in active.values():
                    switched = _switched(switched, d)
            except NetworkError as exc:
                names = ", ".join(f"disturbances[{i}]" for i in active)
                raise ScenarioError(f"{names} at t = {step * h:.6g}: {exc}") from None
        events[step] = (kicks, switched)
    return RunPlan(net, components, scenario, config, n_steps, sample_every, events)
