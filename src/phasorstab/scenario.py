"""Scenarios, solver settings, and the plan of a run.

A scenario perturbs component states, steps loads, or scales line couplings
at times aligned with the integration grid. :func:`check_scenario` checks
it against the network and the components; :func:`plan_run` also checks it
against the step grid and builds every network the run switches to, so a
bad input, or a bad combination of overlapping events, fails before any
work.
"""

from __future__ import annotations

import math

from .components import Component, SupplyConvention
from .network import NetworkModel
from .records import field, recordclass

__all__ = [
    "ScenarioError", "StatePerturbation", "LoadStep", "LineScale", "Scenario",
    "SolverConfig", "check_scenario", "plan_run",
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
        for i, d in enumerate(self.disturbances):
            where = f"disturbances[{i}]"
            if not 0.0 <= d.at <= self.horizon:
                raise ScenarioError(f"disturbance time {d.at} outside horizon [0, {self.horizon}]")
            if isinstance(d, StatePerturbation):
                values = {f"delta.{label}": v for label, v in d.delta.items()}
            elif isinstance(d, LoadStep):
                values = {"dp": d.dp, "dq": d.dq}
            else:
                values = {"factor": d.factor}
            for name, value in values.items():
                if not math.isfinite(value):
                    raise ScenarioError(f"{where}.{name} must be finite, got {value}")
            if isinstance(d, LineScale) and d.factor <= 0.0:
                raise ScenarioError(f"line scale factor must be positive, got {d.factor}")
            duration = getattr(d, "duration", None)
            if duration is not None and not 0.0 < duration < math.inf:
                raise ScenarioError(f"{where}.duration must be positive, got {duration}")

    def network_events(self) -> bool:
        return any(isinstance(d, (LoadStep, LineScale)) for d in self.disturbances)


@recordclass(frozen=True)
class SolverConfig:
    step_size: float = 1e-3
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    convention: SupplyConvention = SupplyConvention.NEGATED

    def __post_init__(self) -> None:
        # the comparisons are written to fail for NaN as well
        if not 0.0 < self.step_size < math.inf:
            raise ScenarioError("step size must be positive")
        if not 0.0 < self.newton_tol < math.inf:
            raise ScenarioError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if self.newton_max_iter < 0:
            raise ScenarioError("newton_max_iter must be nonnegative")


def check_scenario(
    net: NetworkModel, components: dict[str, Component], scenario: Scenario
) -> None:
    """Check a scenario's explicit states and state perturbations against
    the network's components: the checks that no step size changes."""
    comp_ids = {s.component_id for s in net.dynamic_shunts}
    if scenario.initial == "explicit":
        for s in net.dynamic_shunts:
            given = scenario.explicit_states.get(s.component_id)
            if given is None:
                raise ScenarioError(f"explicit initial state missing for {s.component_id!r}")
            for label in components[s.component_id].state_labels:
                if label not in given:
                    raise ScenarioError(
                        f"explicit state for {s.component_id!r} missing field {label!r}"
                    )
    for d in scenario.disturbances:
        if isinstance(d, StatePerturbation):
            if d.component not in comp_ids:
                raise ScenarioError(f"unknown component {d.component!r}")
            labels = components[d.component].state_labels
            for label in d.delta:
                if label not in labels:
                    raise ScenarioError(f"component {d.component!r} has no state {label!r}")


def _snap_to_grid(value: float, h: float, what: str) -> int:
    steps = round(value / h)
    if abs(value - steps * h) > GRID_ALIGN_TOL:
        raise ScenarioError(f"{what} = {value} does not align with the step grid (h = {h})")
    return steps


def plan_run(
    net: NetworkModel, components: dict[str, Component], scenario: Scenario, h: float
) -> tuple[int, int, dict[int, tuple[list[StatePerturbation], NetworkModel | None]]]:
    """Plan a run of `scenario` on `net` at step `h`, before any work.

    Checks the scenario against the step grid, the network and the
    components. Returns the step count, the steps per sample, and for each
    event step the run reaches, the state perturbations due there and the
    network in force after it: None when no load or line event starts or
    ends there, else built from `net` with the events in force applied in
    the order they started. So every combination of overlapping events is
    built here, and raises what building it raises.
    """
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
    check_scenario(net, components, scenario)
    # per step, the disturbances due there, each with whether it ends there
    due: dict[int, list[tuple[Disturbance, bool]]] = {}
    for d in scenario.disturbances:
        due.setdefault(_snap_to_grid(d.at, h, "disturbance time"), []).append((d, False))
        if not isinstance(d, StatePerturbation) and d.duration is not None:
            end = _snap_to_grid(d.at + d.duration, h, "disturbance end time")
            due.setdefault(end, []).append((d, True))
    events = {}
    active: list[NetworkDisturbance] = []
    for step in sorted(s for s in due if s <= n_steps):
        kicks, switched = [], None
        for d, ends in due[step]:
            if isinstance(d, StatePerturbation):
                kicks.append(d)
            elif ends:
                active.remove(d)
            else:
                active.append(d)
        if len(kicks) < len(due[step]):  # a load or line event is due
            switched = net
            for d in active:
                if isinstance(d, LoadStep):
                    switched = switched.with_load_delta(d.bus, d.dp, d.dq)
                else:
                    switched = switched.with_scaled_line(d.line_index, d.factor)
        events[step] = (kicks, switched)
    return n_steps, sample_every, events
