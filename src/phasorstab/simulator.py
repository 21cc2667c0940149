"""Semi-explicit index-1 DAE transient simulation with sampled diagnostics.

Differential states (the dynamic components' states) advance with classical
four-stage Runge-Kutta; the algebraic unknowns (voltage magnitude and angle
of every passive bus) are re-solved, warm-started from the last solution, at
every stage evaluation, so each accepted state is algebraically consistent.

The step itself, on one of two paths chosen by topology, and the inner
solve are the engine's (:mod:`phasorstab.engine`), which :func:`simulate`
imports when a run starts: a command that never steps never compiles it.

A run steps on a plan (:class:`~phasorstab.scenario.RunPlan`), which its
caller makes with :func:`~phasorstab.scenario.plan_run` before any work:
the network, components, scenario and solver settings it was checked for,
and per event step the state perturbations due there and the network in
force after it, which the engine switches to. Path integrals are
accumulated with the trapezoid rule at every integration step
(second-order in the step size). The step loop records only the raw samples (time, bus state,
injections, component states, the dy the step produced there, and
integrals); the other diagnostics (Vp, W, and each component's storage,
storage rate and negated supply rate, anchored at the run's equilibrium)
are evaluated after the run, in one array pass over all samples, the rates
from the recorded dy's rows, so no model's ``derivative`` is evaluated
again.

A single simulation is a sequential state recurrence with no dependence on
timing: every run performs the same floating-point operations in the same
order (numpy's elementwise operations and ``np.bincount`` scatters included,
and the chord's refresh decisions depend only on the residuals), so repeated
runs on one installation are bitwise identical.
"""

from __future__ import annotations

import json

import numpy as np

from .components import supply_rate
from .equilibrium import EquilibriumSolution, solve_equilibrium
from .netfile import output_file
from .network import NetworkModel
from .potential import BregmanDivergence, eval_vp
from .records import recordclass
from .scenario import RunPlan, Scenario, SolverConfig

__all__ = ["SimulationError", "Trajectory", "simulate"]


class SimulationError(RuntimeError):
    """Inner Newton failure or voltage collapse, with time and residual."""


# -- trajectory ----------------------------------------------------------------


@recordclass
class Trajectory:
    """Uniformly sampled simulation output with per-sample diagnostics.

    Angle/voltage columns are per non-ground bus in network order; component
    series are keyed by component id. ``vp`` is the potential of the base
    network (load and line events do not change it) relative to the
    trajectory's initial point; ``w`` is the divergence anchored at the
    equilibrium under test. ``supply`` is the negated supply rate and
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
    equilibrium: EquilibriumSolution
    network: NetworkModel
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
        with output_file(path) as fh:
            fh.write(",".join(self.columns()) + "\n")
            # a list's repr is its floats' reprs joined by ", "
            for row in self.table().tolist():
                fh.write(repr(row)[1:-1].replace(", ", ",") + "\n")

    def manifest(self, source: str = "<memory>") -> dict:
        return {
            "source": source,
            "samples": int(self.n_samples),
            "horizon": float(self.scenario.horizon),
            "output_period": float(self.scenario.output_period),
            "step_size": float(self.config.step_size),
            "integrator": "rk4",  # the only integrator; the key stays in the layout
            "newton_tol": float(self.config.newton_tol),
            "convention": "negated",  # the only supply sign; the key stays in the layout
            "columns": self.columns(),
            "network_changed_during_run": self.network_changed,
            "inner_solves": self.inner_solves,
            "inner_iterations": self.inner_iterations,
            "jacobian_factorizations": self.jacobian_factorizations,
            "buses": list(self.bus_ids),
            "components": self.component_ids(),
        }

    def write_manifest(self, path: str, source: str = "<memory>") -> None:
        with output_file(path) as fh:
            json.dump(self.manifest(source), fh, indent=2)
            fh.write("\n")


# -- driver --------------------------------------------------------------------


def simulate(plan: RunPlan, equilibrium: EquilibriumSolution | None = None) -> Trajectory:
    """Run a planned scenario and return the sampled trajectory with
    diagnostics.

    The reference equilibrium (solved here unless supplied) anchors the
    divergence, the component storages, and the deviation integrals; with
    ``initial="equilibrium"`` it is also the pre-disturbance initial state.
    Deterministic for fixed inputs and step size.
    """
    net, components, scenario, config = plan.net, plan.components, plan.scenario, plan.config
    events, sample_every, h = plan.events, plan.sample_every, config.step_size
    if equilibrium is None:
        equilibrium = solve_equilibrium(net, components)

    from .engine import _make_engine

    engine = _make_engine(net, components, config)
    comp_ids = engine.comp_ids

    anchors = equilibrium.anchors
    bregman = BregmanDivergence(
        net, equilibrium.state.V.copy(), equilibrium.state.theta.copy()
    )

    # initial differential state
    y: list[float] = []
    for cid, comp in zip(comp_ids, engine.comps):
        if scenario.initial == "equilibrium":
            y.extend(comp.equilibrium_state(anchors[cid].theta, anchors[cid].V))
        else:
            given = scenario.explicit_states[cid]
            y.extend(float(given[label]) for label in comp.state_labels)
    y = engine.buffer(y)

    def apply_events(step_idx: int, y) -> None:
        """Apply the perturbations due at `step_idx` to y (in place) and
        switch the engine to the network the plan has in force after it."""
        kicks, switched = events[step_idx]
        for d in kicks:
            c = comp_ids.index(d.component)
            labels = engine.comps[c].state_labels
            for label, delta in d.delta.items():
                y[engine.offsets[c] + labels.index(label)] += delta
        if switched is not None:
            engine.use_network(switched)

    # working buffers start at the equilibrium bus state
    V = engine.buffer(equilibrium.state.V)
    th = engine.buffer(equilibrium.state.theta)

    if 0 in events:
        apply_events(0, y)
    dy, p, q = engine.stage(y, V, th, 0.0)
    engine.start_integrals(anchors, y, p, q)

    # the raw samples, one entry per sample in each list; V, th and the
    # integrals are copied, since the step writes them in place, while each
    # step returns y, dy, P and Q as new objects
    samples = ([], [], [], [], [], [], [], [], [])
    times, bus_v, bus_t, bus_p, bus_q, states, rates, integrals, unshifted_series = samples

    def record(t: float) -> None:
        """Keep the raw sample and the state's derivative dy there; the
        diagnostics are evaluated from them after the run."""
        times.append(t)
        bus_v.append(V.copy())
        bus_t.append(th.copy())
        bus_p.append(p)
        bus_q.append(q)
        states.append(y)
        rates.append(dy)
        integrals.append(engine.shifted.copy())
        unshifted_series.append(engine.unshifted)

    record(0.0)

    # one engine call per stop: every sample step (the plan puts the last
    # step among them) and every event step
    stops = {*range(sample_every, plan.n_steps + 1, sample_every), *events} - {0}
    first = 0
    for stop in sorted(stops):
        y, dy, p, q = engine.advance(y, dy, V, th, h, first, stop)
        if stop in events:
            apply_events(stop, y)
            dy, p, q = engine.stage(y, V, th, stop * h)
            # restart the integrals' endpoints across the discontinuity
            engine.prev = engine.endpoints(y, p, q)
        if stop % sample_every == 0:
            record(stop * h)
        first = stop

    # each column of samples as one array
    times, bus_v, bus_t, bus_p, bus_q, states, rates, integrals, unshifted_series = map(
        np.array, samples
    )

    # the samples per component, and the diagnostics in one array pass over
    # all samples, on the recorded dy. Vp is the base network's potential
    # relative to the initial point, sample 0
    vp = eval_vp(net, bus_v, bus_t)
    comp_states, series_p, series_q, integral_series = {}, {}, {}, {}
    storage_series, wdot_series, supply_series = {}, {}, {}
    for c, (comp, lo, terminal) in enumerate(zip(engine.comps, engine.offsets, engine.terminals)):
        node, i_theta, i_v, cid = terminal
        comp_states[cid] = states[:, lo : lo + comp.nstates].copy()
        series_p[cid] = bus_p[:, node].copy()
        series_q[cid] = bus_q[:, node].copy()
        integral_series[cid] = integrals[:, c].copy()
        x = comp_states[cid].T  # (nstates, samples)
        anchor = anchors[cid]
        storage_series[cid] = comp.storage(x, anchor)
        wdot_series[cid] = comp.storage_rate(x, rates[:, lo : lo + comp.nstates].T, anchor)
        supply_series[cid] = supply_rate(
            series_p[cid] - anchor.P, series_q[cid] - anchor.Q,
            rates[:, i_theta], states[:, i_v], rates[:, i_v],
        )

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
        vp=vp - vp[0],
        w=bregman.value(bus_v, bus_t, vp=vp),
        storage=storage_series,
        storage_rate=wdot_series,
        supply=supply_series,
        integral=integral_series,
        unshifted_integral=unshifted_series,
        equilibrium=equilibrium,
        network=net,
        config=config,
        scenario=scenario,
        # every network event starts within the horizon
        network_changed=scenario.network_events(),
        inner_solves=engine.inner_solves,
        inner_iterations=engine.inner_iterations,
        jacobian_factorizations=engine.factorizations,
    )
