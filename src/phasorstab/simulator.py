"""Semi-explicit index-1 DAE transient simulation with streaming diagnostics.

Differential states (the dynamic components' states) advance with classical
four-stage Runge-Kutta; the algebraic unknowns (voltage magnitude and angle
of every passive bus) are re-solved, warm-started from the last solution, at
every stage evaluation, so each accepted state is algebraically consistent.
An implicit trapezoidal integrator is available for stiff parameter sets.

The inner solve takes one of two paths, by the topology of the passive
buses:

* no line joins two passive buses: each passive bus sees its neighbours,
  all dynamic, as one source behind its lines, and is set to its closed-form
  solution (:func:`~phasorstab.network.passive_bus_solution`, on Python
  floats for one passive bus and on arrays for more). One evaluation of the
  kernel then checks the balance and gives the injections; there is no
  iteration and no Jacobian;
* otherwise: a chord (simplified Newton) iteration on the array kernel
  :func:`~phasorstab.network.power_injection`. It keeps the inverse of one
  passive-bus Jacobian (from :func:`~phasorstab.network.injection_partials`)
  across iterations, RK stages and steps, and rebuilds it at the current
  state when there is none yet, when a load or line event changes the
  network, or when a step fails to shrink the largest passive residual by
  the factor ``CHORD_CONTRACTION`` (Hairer & Wanner, *Solving ODEs II*,
  ch. VI).

A solve is accepted when the largest passive residual is at most
``newton_tol``; the chord iteration gets ``newton_max_iter`` steps for it,
and it also takes over from a closed-form solution that misses the
tolerance. The chord iteration converges linearly, so it stops just under
the tolerance, while the closed form is exact up to rounding. The manifest
records the solves, the chord steps and the Jacobian factorizations of the
run; a closed-form solve counts as one solve with neither.

Scenarios perturb component states, step loads, or scale line couplings at
times aligned with the integration grid. Every disturbance is checked
against the network before the run starts. Path integrals are accumulated with
the trapezoid rule at every integration step (second-order in the step
size); the remaining diagnostics are evaluated at output samples only.

A single simulation is a sequential state recurrence with no dependence on
timing: every run performs the same floating-point operations in the same
order (numpy's elementwise operations and ``np.bincount`` scatters included,
and the chord's refresh decisions depend only on the residuals), so repeated
runs on one installation are bitwise identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .components import (
    Anchor,
    CertificateUnavailable,
    Component,
    SupplyConvention,
    supply_rate,
)
from .equilibrium import EquilibriumProblem, EquilibriumSolution, solve_equilibrium
from .network import (
    NetworkModel,
    injection_partials,
    passive_bus_solution,
    power_injection,
    power_injection_scalar,
)
from .potential import BregmanDivergence, eval_vp

__all__ = [
    "SimulationError",
    "ScenarioError",
    "StatePerturbation",
    "LoadStep",
    "LineScale",
    "Scenario",
    "SolverConfig",
    "Trajectory",
    "simulate",
]

GRID_ALIGN_TOL = 1e-9
# a chord step must cut the passive residual at least this much, or the
# passive-bus Jacobian is rebuilt at the current state before the next step
CHORD_CONTRACTION = 0.25


class SimulationError(RuntimeError):
    """Inner Newton failure or voltage collapse, with time and residual."""


class ScenarioError(ValueError):
    """Scenario fields violate their invariants."""


# -- scenario ----------------------------------------------------------------


@dataclass(frozen=True)
class StatePerturbation:
    at: float
    component: str
    delta: dict[str, float]  # state label -> additive increment


@dataclass(frozen=True)
class LoadStep:
    at: float
    bus: str
    dp: float  # consumption-positive deltas
    dq: float
    duration: float | None = None


@dataclass(frozen=True)
class LineScale:
    at: float
    line_index: int
    factor: float
    duration: float | None = None


NetworkDisturbance = LoadStep | LineScale
Disturbance = StatePerturbation | NetworkDisturbance


@dataclass
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
        for d in self.disturbances:
            if not 0.0 <= d.at <= self.horizon:
                raise ScenarioError(
                    f"disturbance time {d.at} outside horizon [0, {self.horizon}]"
                )
            if isinstance(d, LineScale) and d.factor <= 0.0:
                raise ScenarioError(f"line scale factor must be positive, got {d.factor}")
            duration = getattr(d, "duration", None)
            if duration is not None and not 0.0 < duration < math.inf:
                raise ScenarioError("disturbance duration must be positive")

    def network_events(self) -> bool:
        return any(isinstance(d, (LoadStep, LineScale)) for d in self.disturbances)


@dataclass(frozen=True)
class SolverConfig:
    step_size: float = 1e-3
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    integrator: str = "rk4"  # or "trapezoid"
    convention: SupplyConvention = SupplyConvention.NEGATED

    def __post_init__(self) -> None:
        # the comparisons are written to fail for NaN as well
        if not 0.0 < self.step_size < math.inf:
            raise ScenarioError("step size must be positive")
        if not self.newton_tol > 0.0:
            raise ScenarioError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 0:
            raise ScenarioError("newton_max_iter must be nonnegative")
        if self.integrator not in ("rk4", "trapezoid"):
            raise ScenarioError(f"unknown integrator {self.integrator!r}")


# -- trajectory ----------------------------------------------------------------


@dataclass
class Trajectory:
    """Uniformly sampled simulation output with per-sample diagnostics.

    Angle/voltage columns are per non-ground bus in network order; component
    series are keyed by component id. ``vp`` is relative to the trajectory's
    initial point; ``w`` is the divergence anchored at the equilibrium under
    test. ``supply`` is recorded under the run's convention and
    ``integral`` holds the deviation path integrals.
    """

    times: np.ndarray
    bus_ids: list[str]
    V: np.ndarray
    theta: np.ndarray
    comp_states: dict[str, np.ndarray]
    comp_labels: dict[str, tuple[str, ...]]
    P: dict[str, np.ndarray]
    Q: dict[str, np.ndarray]
    vp: np.ndarray
    w: np.ndarray
    storage: dict[str, np.ndarray]
    storage_rate: dict[str, np.ndarray]
    supply: dict[str, np.ndarray]
    integral: dict[str, np.ndarray]
    unshifted_integral: np.ndarray
    convention: SupplyConvention
    anchors: dict[str, Anchor]
    equilibrium: EquilibriumSolution
    network: NetworkModel
    components: dict[str, Component]
    config: SolverConfig
    scenario: Scenario
    network_changed: bool
    # work of the passive-bus solve over the whole run
    inner_solves: int = 0
    inner_iterations: int = 0
    jacobian_factorizations: int = 0

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def component_ids(self) -> list[str]:
        return [s.component_id for s in self.network.dynamic_shunts]

    def columns(self) -> list[str]:
        cols = ["t"]
        for bus in self.bus_ids:
            cols.extend([f"{bus}_V", f"{bus}_theta"])
        for cid in self.component_ids():
            cols.extend(f"{cid}_{label}" for label in self.comp_labels[cid])
            cols.extend([f"{cid}_P", f"{cid}_Q"])
        cols.extend(["Vp", "W"])
        for cid in self.component_ids():
            cols.extend([f"{cid}_storage", f"{cid}_supply", f"{cid}_integral"])
        return cols

    def table(self) -> np.ndarray:
        """The samples as one array, one row per sample, in :meth:`columns`
        order."""
        n = self.n_samples
        # V and theta interleaved per bus
        parts = [self.times[:, None], np.stack([self.V, self.theta], axis=2).reshape(n, -1)]
        for cid in self.component_ids():
            parts.extend(
                [self.comp_states[cid], self.P[cid][:, None], self.Q[cid][:, None]]
            )
        parts.extend([self.vp[:, None], self.w[:, None]])
        for cid in self.component_ids():
            parts.append(
                np.column_stack([self.storage[cid], self.supply[cid], self.integral[cid]])
            )
        return np.hstack(parts)

    def to_csv(self, path: str) -> None:
        """Write the sample table; repr() of each float round-trips exactly."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(",".join(self.columns()) + "\n")
            for row in self.table():
                fh.write(",".join(map(repr, row.tolist())) + "\n")
        os.replace(tmp, path)

    def manifest(self, source: str = "<memory>") -> dict:
        return {
            "source": source,
            "samples": int(self.n_samples),
            "horizon": float(self.scenario.horizon),
            "output_period": float(self.scenario.output_period),
            "step_size": float(self.config.step_size),
            "integrator": self.config.integrator,
            "newton_tol": float(self.config.newton_tol),
            "convention": self.convention.value,
            "columns": self.columns(),
            "network_changed_during_run": self.network_changed,
            "inner_solves": self.inner_solves,
            "inner_iterations": self.inner_iterations,
            "jacobian_factorizations": self.jacobian_factorizations,
            "buses": list(self.bus_ids),
            "components": self.component_ids(),
        }

    def write_manifest(self, path: str, source: str = "<memory>") -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.manifest(source), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)


# -- engine --------------------------------------------------------------------


class _Engine:
    """Flattened, loop-friendly view of the system for the hot stepping path."""

    def __init__(
        self,
        net: NetworkModel,
        components: dict[str, Component],
        config: SolverConfig,
    ) -> None:
        self.base_net = net
        self.config = config
        self.comp_ids = [s.component_id for s in net.dynamic_shunts]
        self.comps = [components[cid] for cid in self.comp_ids]
        self.passive_nodes = net.passive_nodes()
        # Y layout: per component, its states contiguously. Built once for
        # the hot loops, per component: (derivative, state slice, bus node),
        # and its terminal (bus node, theta and v positions in Y, id)
        self.offsets: list[int] = []
        self.comp_table = []
        self.terminals = []
        off = 0
        for shunt, comp in zip(net.dynamic_shunts, self.comps):
            node = net.node_index[shunt.bus]
            labels = comp.state_labels
            self.offsets.append(off)
            self.comp_table.append((comp.derivative, off, off + comp.nstates, node))
            self.terminals.append(
                (node, off + labels.index("theta"), off + labels.index("v"), shunt.component_id)
            )
            off += comp.nstates
        self.ny = off
        self.active_mods: list[NetworkDisturbance] = []
        self.passive = np.array(self.passive_nodes, dtype=np.intp)
        self.passive_block = np.ix_(self.passive, self.passive)
        # a topology property, so load and line events keep it
        position = {node: j for j, node in enumerate(self.passive_nodes)}
        self.passive_position = position
        self.coupled = any(i in position and k in position for i, k, _ in net.edges)
        # counts of the inner solve, reported in the manifest
        self.inner_solves = 0
        self.inner_iterations = 0
        self.factorizations = 0
        self._use_network(net)

    def _use_network(self, net: NetworkModel) -> None:
        """Switch to `net`, dropping the chord Jacobian built on the last one
        and taking the per-network tables the inner solve reads: the passive
        loads and, for the closed form, each passive bus's lines (position,
        neighbour node, B) and coupling sum."""
        self.net = net
        self.passive_p = np.array(net.load_p)[self.passive]
        self.passive_q = np.array(net.load_q)[self.passive]
        self.passive_loads = np.concatenate([self.passive_p, self.passive_q])
        self.jac_inv: np.ndarray | None = None
        if self.coupled:
            return
        position = self.passive_position
        lines = [
            (position[i], k, b) if i in position else (position[k], i, b)
            for i, k, b in net.edges
            if i in position or k in position
        ]
        if len(position) == 1:
            node = self.passive_nodes[0]
            self.scalar_bus = (
                node,
                [(k, b) for _, k, b in lines],
                net.coupling_sum[node],
                net.load_p[node],
                net.load_q[node],
            )
        else:
            self.scalar_bus = None
            self.passive_lines = (
                np.array([j for j, _, _ in lines], dtype=np.intp),
                np.array([k for _, k, _ in lines], dtype=np.intp),
                np.array([b for _, _, b in lines], dtype=float),
            )
            self.passive_coupling = np.array(net.coupling_sum)[self.passive]

    def rebuild_with_mods(self) -> None:
        net = self.base_net
        for mod in self.active_mods:
            if isinstance(mod, LoadStep):
                net = net.with_load_delta(mod.bus, mod.dp, mod.dq)
            else:
                net = net.with_scaled_line(mod.line_index, mod.factor)
        self._use_network(net)

    # evaluation ----------------------------------------------------------------

    def solve_algebraic(
        self, V: list[float], th: list[float], t: float
    ) -> tuple[list[float], list[float]]:
        """Solve passive-bus (theta, V) in place; V/th carry the warm start.
        Returns the bus injections (P, Q) at the solved state."""
        self.inner_solves += 1
        if self.coupled:
            return self._solve_chord(V, th, t, np.array(V), np.array(th))
        if len(self.passive_nodes) > 1:
            return self._solve_closed_array(V, th, t)
        return self._solve_closed_scalar(V, th, t)

    def _collapse(self, node: int, t: float) -> SimulationError:
        return SimulationError(
            f"voltage collapse at bus {self.net.non_ground[node]!r}, t = {t:.6g}"
        )

    def _solve_closed_scalar(
        self, V: list[float], th: list[float], t: float
    ) -> tuple[list[float], list[float]]:
        """Closed form for at most one passive bus, on Python floats."""
        net = self.net
        if self.scalar_bus is None:
            return power_injection_scalar(net, V, th)
        node, lines, coupling, load_p, load_q = self.scalar_bus
        e_re = e_im = 0.0
        for k, b in lines:
            bv = b * V[k]
            e_re += bv * math.cos(th[k])
            e_im += bv * math.sin(th[k])
        try:
            V[node], th[node] = passive_bus_solution(
                e_re, e_im, coupling, load_p, load_q, V[node], th[node],
                math.sqrt, math.atan2,
            )
        except (ValueError, ZeroDivisionError):
            raise self._collapse(node, t) from None
        p, q = power_injection_scalar(net, V, th)
        if max(abs(p[node] + load_p), abs(q[node] + load_q)) <= self.config.newton_tol:
            return p, q
        return self._solve_chord(V, th, t, np.array(V), np.array(th))

    def _solve_closed_array(
        self, V: list[float], th: list[float], t: float
    ) -> tuple[list[float], list[float]]:
        """Closed form for two or more passive buses on arrays, checked (and
        if need be continued) by :meth:`_solve_chord`."""
        pas = self.passive
        position, nbr, b = self.passive_lines
        v = np.array(V)
        a = np.array(th)
        bv = b * v[nbr]
        a_nbr = a[nbr]
        m = len(pas)
        e_re = np.bincount(position, weights=bv * np.cos(a_nbr), minlength=m)
        e_im = np.bincount(position, weights=bv * np.sin(a_nbr), minlength=m)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_pas, a_pas = passive_bus_solution(
                e_re, e_im, self.passive_coupling, self.passive_p, self.passive_q,
                v[pas], a[pas],
            )
        bad = ~(v_pas > 0.0)
        if bad.any():
            raise self._collapse(int(pas[np.argmax(bad)]), t)
        v[pas] = v_pas
        a[pas] = a_pas
        return self._solve_chord(V, th, t, v, a)

    def _solve_chord(
        self, V: list[float], th: list[float], t: float, v: np.ndarray, a: np.ndarray
    ) -> tuple[list[float], list[float]]:
        """Chord iteration on the array kernel from the start (v, a), written
        back to V/th on convergence.

        Steps with the kept inverse of the passive-bus Jacobian; refreshes
        it when there is none (first solve, changed network) or when the
        last step failed to shrink the residual by CHORD_CONTRACTION."""
        net = self.net
        pas = self.passive
        m = len(pas)
        max_iter = self.config.newton_max_iter
        last = math.inf
        for it in range(max_iter + 1):
            p, q = power_injection(net, v, a)
            r = np.concatenate([p[pas], q[pas]]) + self.passive_loads
            worst = float(np.abs(r).max())
            if worst <= self.config.newton_tol:
                V[:] = v.tolist()
                th[:] = a.tolist()
                return p.tolist(), q.tolist()
            if it == max_iter:
                break
            if self.jac_inv is None or worst > CHORD_CONTRACTION * last:
                self._factorize(v, a, (p, q), t)
            last = worst
            step = -(self.jac_inv @ r)
            d_theta = step[:m]
            d_v = step[m:]
            v_pas = v[pas]
            scale = 1.0
            bad = v_pas + d_v <= 0.0
            while bad.any():
                scale *= 0.5
                if scale < 1e-12:
                    raise self._collapse(int(pas[np.argmax(bad)]), t)
                bad = v_pas + scale * d_v <= 0.0
            a[pas] += scale * d_theta
            v[pas] = v_pas + scale * d_v
            self.inner_iterations += 1
        raise SimulationError(
            f"inner Newton failed at t = {t:.6g} (residual {worst:.3e})"
        )

    def _factorize(self, v: np.ndarray, a: np.ndarray, injections, t: float) -> None:
        """Invert the passive-bus Jacobian at (v, a) for the chord iteration."""
        dp_dt, dp_dv, dq_dt, dq_dv = injection_partials(self.net, v, a, injections)
        blk = self.passive_block
        jac = np.block([[dp_dt[blk], dp_dv[blk]], [dq_dt[blk], dq_dv[blk]]])
        try:
            self.jac_inv = np.linalg.inv(jac)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"algebraic Jacobian singular at t = {t:.6g}: {exc}"
            ) from exc
        self.factorizations += 1

    def derivative(
        self, y: list[float], p: list[float], q: list[float]
    ) -> list[float]:
        dy: list[float] = []
        for derivative, lo, hi, node in self.comp_table:
            dy.extend(derivative(y[lo:hi], (p[node], q[node])))
        return dy

    def consistent_eval(
        self, y: list[float], V: list[float], th: list[float], t: float
    ) -> tuple[list[float], list[float], list[float]]:
        """Scatter terminals, solve algebraic in place, return (dy, P, Q)."""
        for node, i_theta, i_v, cid in self.terminals:
            v = y[i_v]
            if v <= 0.0:
                raise SimulationError(
                    f"voltage collapse in component {cid!r} at t = {t:.6g}"
                )
            th[node] = y[i_theta]
            V[node] = v
        p, q = self.solve_algebraic(V, th, t)
        return self.derivative(y, p, q), p, q

    # integrators ---------------------------------------------------------------

    def rk4_step(
        self,
        y: list[float],
        dy0: list[float],
        V: list[float],
        th: list[float],
        h: float,
        t: float,
    ) -> list[float]:
        half = 0.5 * h
        y2 = [a + half * b for a, b in zip(y, dy0)]
        k2, _, _ = self.consistent_eval(y2, V, th, t + half)
        y3 = [a + half * b for a, b in zip(y, k2)]
        k3, _, _ = self.consistent_eval(y3, V, th, t + half)
        y4 = [a + h * b for a, b in zip(y, k3)]
        k4, _, _ = self.consistent_eval(y4, V, th, t + h)
        sixth = h / 6.0
        return [
            a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, dy0, k2, k3, k4)
        ]

    def trapezoid_step(
        self,
        y: list[float],
        dy0: list[float],
        V: list[float],
        th: list[float],
        h: float,
        t: float,
    ) -> list[float]:
        """Implicit trapezoid on the differential states, Newton by finite
        differences on G(y') = y' - y - h/2 (f(y) + f(y')); fallback for
        stiff parameter sets."""
        ny = self.ny
        y_new = list(y)
        for _ in range(self.config.newton_max_iter):
            f_new, _, _ = self.consistent_eval(y_new, V, th, t + h)
            g = [
                y_new[j] - y[j] - 0.5 * h * (dy0[j] + f_new[j]) for j in range(ny)
            ]
            worst = max(abs(v) for v in g)
            if worst <= self.config.newton_tol:
                return y_new
            jac = np.zeros((ny, ny))
            step = 1e-7
            for j in range(ny):
                y_pert = list(y_new)
                y_pert[j] += step
                f_pert, _, _ = self.consistent_eval(y_pert, V, th, t + h)
                for r in range(ny):
                    jac[r, j] = (
                        (1.0 if r == j else 0.0)
                        - 0.5 * h * (f_pert[r] - f_new[r]) / step
                    )
            delta = np.linalg.solve(jac, -np.array(g))
            for j in range(ny):
                y_new[j] += float(delta[j])
        raise SimulationError(f"trapezoid Newton failed at t = {t:.6g}")


# -- driver --------------------------------------------------------------------


def _snap_to_grid(value: float, h: float, what: str) -> int:
    steps = round(value / h)
    if abs(value - steps * h) > GRID_ALIGN_TOL:
        raise ScenarioError(
            f"{what} = {value} does not align with the step grid (h = {h})"
        )
    return steps


@dataclass(frozen=True)
class _Event:
    """A disturbance taking effect, or with ``ends`` a timed one expiring."""

    disturbance: Disturbance
    ends: bool = False


def _schedule(
    net: NetworkModel,
    components: dict[str, Component],
    scenario: Scenario,
    h: float,
) -> dict[int, list[_Event]]:
    """Check every disturbance against the network and map step indices to
    the events due at them, so a bad scenario fails before any work."""
    comp_ids = {s.component_id for s in net.dynamic_shunts}
    events: dict[int, list[_Event]] = {}
    for d in scenario.disturbances:
        if isinstance(d, StatePerturbation):
            if d.component not in comp_ids:
                raise ScenarioError(f"unknown component {d.component!r}")
            labels = components[d.component].state_labels
            for label in d.delta:
                if label not in labels:
                    raise ScenarioError(
                        f"component {d.component!r} has no state {label!r}"
                    )
        elif isinstance(d, LoadStep):
            # the network the event switches to raises what applying it would
            net.with_load_delta(d.bus, d.dp, d.dq)
        else:
            net.with_scaled_line(d.line_index, d.factor)
        idx = _snap_to_grid(d.at, h, "disturbance time")
        events.setdefault(idx, []).append(_Event(d))
        if not isinstance(d, StatePerturbation) and d.duration is not None:
            end_idx = _snap_to_grid(d.at + d.duration, h, "disturbance end time")
            events.setdefault(end_idx, []).append(_Event(d, ends=True))
    return events


def simulate(
    net: NetworkModel,
    components: dict[str, Component],
    scenario: Scenario,
    config: SolverConfig = SolverConfig(),
    equilibrium: EquilibriumSolution | None = None,
) -> Trajectory:
    """Run a scenario and return the sampled trajectory with diagnostics.

    The reference equilibrium (solved here unless supplied) anchors the
    divergence, the component storages, and the deviation integrals; with
    ``initial="equilibrium"`` it is also the pre-disturbance initial state.
    Deterministic for fixed inputs and step size.
    """
    h = config.step_size
    n_steps_total = _snap_to_grid(scenario.horizon, h, "horizon")
    sample_every = _snap_to_grid(scenario.output_period, h, "output period")
    if sample_every <= 0:
        raise ScenarioError("output period shorter than one step")
    if scenario.horizon > 0 and n_steps_total % sample_every != 0:
        raise ScenarioError("horizon must be a whole number of output periods")
    events = _schedule(net, components, scenario, h)
    if equilibrium is None:
        equilibrium = solve_equilibrium(EquilibriumProblem(net, components))

    engine = _Engine(net, components, config)
    comp_ids = engine.comp_ids

    # anchors: solved-equilibrium terminal state and injections per component
    anchors: dict[str, Anchor] = {}
    for cid, comp in zip(comp_ids, engine.comps):
        node = net.node_index[comp.bus]
        anchors[cid] = Anchor(
            P=equilibrium.injections_P[cid],
            Q=equilibrium.injections_Q[cid],
            V=float(equilibrium.state.V[node]),
            theta=float(equilibrium.state.theta[node]),
        )
    bregman = BregmanDivergence(
        net, equilibrium.state.V.copy(), equilibrium.state.theta.copy()
    )
    storage_ok: dict[str, bool] = {}
    for cid, comp in zip(comp_ids, engine.comps):
        try:
            comp.require_stiffness(anchors[cid])
            storage_ok[cid] = True
        except CertificateUnavailable:
            # storage diagnostics degrade to NaN; flows and integrals stay valid
            storage_ok[cid] = False

    # initial differential state
    y: list[float] = [0.0] * engine.ny
    if scenario.initial == "equilibrium":
        for c, cid in enumerate(comp_ids):
            xs = equilibrium.component_states[cid]
            off = engine.offsets[c]
            for j, val in enumerate(xs):
                y[off + j] = float(val)
    else:
        for c, (cid, comp) in enumerate(zip(comp_ids, engine.comps)):
            given = scenario.explicit_states.get(cid)
            if given is None:
                raise ScenarioError(f"explicit initial state missing for {cid!r}")
            off = engine.offsets[c]
            for j, label in enumerate(comp.state_labels):
                if label not in given:
                    raise ScenarioError(
                        f"explicit state for {cid!r} missing field {label!r}"
                    )
                y[off + j] = float(given[label])

    def apply_events(step_idx: int) -> tuple[bool, bool]:
        """Mutates y/engine; returns (anything applied, network modified)."""
        if step_idx not in events:
            return False, False
        network_dirty = False
        for event in events[step_idx]:
            d = event.disturbance
            if isinstance(d, StatePerturbation):
                c = comp_ids.index(d.component)
                labels = engine.comps[c].state_labels
                for label, delta in d.delta.items():
                    y[engine.offsets[c] + labels.index(label)] += delta
                continue
            if event.ends:
                engine.active_mods.remove(d)
            else:
                engine.active_mods.append(d)
            network_dirty = True
        if network_dirty:
            engine.rebuild_with_mods()
        return True, network_dirty

    # working buffers start at the equilibrium bus state
    V = [float(equilibrium.state.V[i]) for i in range(net.n_nodes)]
    th = [float(equilibrium.state.theta[i]) for i in range(net.n_nodes)]

    _, network_changed = apply_events(0)
    dy, p, q = engine.consistent_eval(y, V, th, 0.0)
    vp_ref = eval_vp(net, V, th)  # base-network potential at the initial point

    # accumulators (advanced every integration step), per component
    shifted = [0.0] * len(comp_ids)
    unshifted = 0.0

    n_samples = n_steps_total // sample_every + 1 if n_steps_total else 1
    times = np.zeros(n_samples)
    bus_v = np.zeros((n_samples, net.n_nodes))
    bus_t = np.zeros((n_samples, net.n_nodes))
    comp_states = {
        cid: np.zeros((n_samples, comp.nstates))
        for cid, comp in zip(comp_ids, engine.comps)
    }
    series_p = {cid: np.zeros(n_samples) for cid in comp_ids}
    series_q = {cid: np.zeros(n_samples) for cid in comp_ids}
    vp_series = np.zeros(n_samples)
    w_series = np.zeros(n_samples)
    storage_series = {cid: np.zeros(n_samples) for cid in comp_ids}
    wdot_series = {cid: np.zeros(n_samples) for cid in comp_ids}
    supply_series = {cid: np.zeros(n_samples) for cid in comp_ids}
    integral_series = {cid: np.zeros(n_samples) for cid in comp_ids}
    unshifted_series = np.zeros(n_samples)

    # per component, for record: state slice, bus node, theta and v label
    # indices, anchor, and whether its storage is available
    sampled = [
        (cid, comp, lo, hi, node, comp.state_labels.index("theta"),
         comp.state_labels.index("v"), anchors[cid], storage_ok[cid])
        for cid, comp, (_, lo, hi, node) in zip(comp_ids, engine.comps, engine.comp_table)
    ]
    convention = config.convention

    def record(sample: int, t: float) -> None:
        times[sample] = t
        bus_v[sample] = V
        bus_t[sample] = th
        vp = eval_vp(net, V, th)
        vp_series[sample] = vp - vp_ref
        w_series[sample] = bregman.value(V, th, vp=vp)
        for c, (cid, comp, lo, hi, node, i_theta, i_v, anchor, has_storage) in enumerate(
            sampled
        ):
            x = y[lo:hi]
            u = (p[node], q[node])
            comp_states[cid][sample, :] = x
            series_p[cid][sample] = u[0]
            series_q[cid][sample] = u[1]
            if has_storage:
                storage_series[cid][sample] = comp.storage(x, anchor)
                wdot_series[cid][sample] = comp.storage_rate(x, u, anchor)
            else:
                storage_series[cid][sample] = math.nan
                wdot_series[cid][sample] = math.nan
            f = comp.derivative(x, u)
            supply_series[cid][sample] = supply_rate(
                u[0] - anchor.P,
                u[1] - anchor.Q,
                f[i_theta],
                x[i_v],
                f[i_v],
                convention,
            )
            integral_series[cid][sample] = shifted[c]
        unshifted_series[sample] = unshifted

    record(0, 0.0)

    stepper = engine.rk4_step if config.integrator == "rk4" else engine.trapezoid_step

    # per component, for the accumulation: theta and v positions in y, bus
    # node, and the anchor's (P, Q)
    accumulated = [
        (i_theta, i_v, node, anchors[cid].P, anchors[cid].Q)
        for node, i_theta, i_v, cid in engine.terminals
    ]

    def endpoints() -> list[tuple[float, float, float, float]]:
        """(theta, ln v, P, Q) of every component at the current state."""
        return [
            (y[i_theta], math.log(y[i_v]), p[node], q[node])
            for i_theta, i_v, node, _, _ in accumulated
        ]

    prev = endpoints()
    for step in range(n_steps_total):
        t = step * h
        y = stepper(y, dy, V, th, h, t)
        t_next = (step + 1) * h
        dy, p, q = engine.consistent_eval(y, V, th, t_next)
        # trapezoid accumulation over this step
        for c, (i_theta, i_v, node, anchor_p, anchor_q) in enumerate(accumulated):
            theta0, lnv0, p0, q0 = prev[c]
            theta1 = y[i_theta]
            lnv1 = math.log(y[i_v])
            p1 = p[node]
            q1 = q[node]
            p_mid = 0.5 * (p0 + p1)
            q_mid = 0.5 * (q0 + q1)
            d_theta = theta1 - theta0
            d_lnv = lnv1 - lnv0
            unshifted += p_mid * d_theta + q_mid * d_lnv
            shifted[c] += (p_mid - anchor_p) * d_theta + (q_mid - anchor_q) * d_lnv
            prev[c] = (theta1, lnv1, p1, q1)
        applied, net_dirty = apply_events(step + 1)
        if applied:
            network_changed = network_changed or net_dirty
            dy, p, q = engine.consistent_eval(y, V, th, t_next)
            # refresh accumulator endpoints across the discontinuity
            prev = endpoints()
        if (step + 1) % sample_every == 0:
            record((step + 1) // sample_every, t_next)

    return Trajectory(
        times=times,
        bus_ids=list(net.non_ground),
        V=bus_v,
        theta=bus_t,
        comp_states=comp_states,
        comp_labels={
            cid: comp.state_labels for cid, comp in zip(comp_ids, engine.comps)
        },
        P=series_p,
        Q=series_q,
        vp=vp_series,
        w=w_series,
        storage=storage_series,
        storage_rate=wdot_series,
        supply=supply_series,
        integral=integral_series,
        unshifted_integral=unshifted_series,
        convention=config.convention,
        anchors=anchors,
        equilibrium=equilibrium,
        network=net,
        components=dict(components),
        config=config,
        scenario=scenario,
        network_changed=network_changed,
        inner_solves=engine.inner_solves,
        inner_iterations=engine.inner_iterations,
        jacobian_factorizations=engine.factorizations,
    )
