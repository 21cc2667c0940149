"""Semi-explicit index-1 DAE transient simulation with sampled diagnostics.

Differential states (the dynamic components' states) advance with classical
four-stage Runge-Kutta; the algebraic unknowns (voltage magnitude and angle
of every passive bus) are re-solved, warm-started from the last solution, at
every stage evaluation, so each accepted state is algebraically consistent.

The topology picks one of two paths for the whole run:

* the float path, for at most one passive bus: the state and the bus
  voltages and angles are lists of Python floats. A stage is one closure
  per network: it scatters the terminals, sets the passive bus to its
  closed-form solution (:func:`~phasorstab.network.passive_bus_solution`
  on floats), evaluates the line terms of
  :func:`~phasorstab.network.power_injection` as a loop over the lines,
  checks the balance, and makes one pass over the components' stacked
  affine table, row by row;
* the array path, for two or more passive buses: the state, voltages and
  angles are float arrays for the whole step. A stage scatters the
  component terminals through index arrays, solves the passive buses,
  evaluates :func:`~phasorstab.network.power_injection` once per check, and
  applies every component's affine table at once
  (:class:`~phasorstab.components.AffineStack`: a gather and one
  ``np.bincount``, no matrix product). The RK4 combinations and the
  trapezoid accumulation are array expressions.

Both paths read the same (row, column, value) table and sum each row in
the same order, and each takes one engine call per integration step: the
RK4 stages, the stage at the step's end and the path integrals' step.

The inner solve of the array path takes one of two forms, by the topology
of the passive buses:

* no line joins two passive buses: each passive bus sees its neighbours,
  all dynamic, as one source behind its lines, and is set to its closed-form
  solution. One evaluation of the kernel then checks the balance and gives
  the injections; there is no iteration and no Jacobian;
* otherwise: a chord (simplified Newton) iteration on the array kernel. It
  keeps the inverse of one passive-bus Jacobian (from
  :func:`~phasorstab.network.injection_partials`) across iterations, RK
  stages and steps, and rebuilds it at the current state when there is
  none yet, when a load or line event changes the network, or when a step
  fails to shrink the largest passive residual by the factor
  ``CHORD_CONTRACTION`` (Hairer & Wanner, *Solving ODEs II*, ch. VI). With
  each inverse it keeps the tangent K = -J_pp^-1 J_pd over the dynamic
  buses that have a line to a passive bus, and before each solve moves the
  passive buses by K times the change of those buses' (theta, V) since the
  last converged solve: the first-order continuation predictor (Allgower &
  Georg, *Introduction to Numerical Continuation Methods*, ch. 2). K is
  dropped whenever the inverse is.

A solve is accepted when the largest passive residual is at most
``newton_tol``; the chord iteration gets ``newton_max_iter`` steps for it,
and it also takes over from a closed-form solution that misses the
tolerance. The chord iteration converges linearly, so it stops just under
the tolerance, while the closed form is exact up to rounding. The manifest
records the solves, the chord steps and the Jacobian factorizations of the
run; a closed-form solve counts as one solve with neither.

Scenarios perturb component states, step loads, or scale line couplings at
times aligned with the integration grid. A scenario is checked against the
step grid and the network before any work, by the same function in every
command that runs one. Path integrals are accumulated with
the trapezoid rule at every integration step (second-order in the step
size). The step loop records only the raw samples (time, bus state,
injections, component states and integrals); the other diagnostics (Vp, W,
and each component's storage, storage rate and supply rate) are evaluated
after the run, in one array pass over all samples.

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

import numpy as np

from .components import (
    AffineStack,
    Anchor,
    CertificateUnavailable,
    Component,
    SupplyConvention,
    supply_rate,
)
from .equilibrium import EquilibriumSolution, solve_equilibrium
from .network import (
    NetworkModel,
    injection_partials,
    passive_bus_solution,
    power_injection,
)
from .potential import BregmanDivergence, eval_vp
from .records import field, recordclass

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
            if not 0.0 <= d.at <= self.horizon:
                raise ScenarioError(
                    f"disturbance time {d.at} outside horizon [0, {self.horizon}]"
                )
            if isinstance(d, LineScale) and d.factor <= 0.0:
                raise ScenarioError(f"line scale factor must be positive, got {d.factor}")
            duration = getattr(d, "duration", None)
            if duration is not None and not 0.0 < duration < math.inf:
                raise ScenarioError(
                    f"disturbances[{i}].duration must be positive, got {duration}"
                )

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
        if not self.newton_tol > 0.0:
            raise ScenarioError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 0:
            raise ScenarioError("newton_max_iter must be nonnegative")


# -- trajectory ----------------------------------------------------------------


@recordclass
class Trajectory:
    """Uniformly sampled simulation output with per-sample diagnostics.

    Angle/voltage columns are per non-ground bus in network order; component
    series are keyed by component id. ``vp`` is the potential of the base
    network (load and line events do not change it) relative to the
    trajectory's initial point; ``w`` is the divergence anchored at the
    equilibrium under test. ``supply`` is recorded under the run's
    convention and ``integral`` holds the deviation path integrals.
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
    def anchors(self) -> dict[str, Anchor]:
        """Each component's equilibrium terminal state and injections."""
        return self.equilibrium.anchors

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
            "integrator": "rk4",  # the only integrator; the key stays in the layout
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
    """Flattened, loop-friendly view of the system for the hot stepping path.

    This is the float path, for networks with at most one passive bus: the
    state y and the bus voltages V and angles th are lists of Python floats,
    which at this size cost less per element than numpy costs per call.
    :class:`_ArrayEngine` is the path for more passive buses; use
    :func:`_make_engine` to get the one for a network.
    """

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
        # the hot loops, per component: its first position in Y, and its
        # terminal (bus node, theta and v positions in Y, id)
        self.offsets: list[int] = []
        self.terminals = []
        off = 0
        for shunt, comp in zip(net.dynamic_shunts, self.comps):
            labels = comp.state_labels
            self.offsets.append(off)
            self.terminals.append((
                net.node_index[shunt.bus],
                off + labels.index("theta"),
                off + labels.index("v"),
                shunt.component_id,
            ))
            off += comp.nstates
        self.ny = off
        self.rhs = AffineStack(self.comps, [t[0] for t in self.terminals], net.n_nodes)
        # the same table per row of Y, for the float path:
        # (c, ((column in y + P + Q, value), ...)), terms in the stack's order
        rows: list[list[tuple[int, float]]] = [[] for _ in range(self.ny)]
        stack = self.rhs
        for r, col, val in zip(stack.rows.tolist(), stack.cols.tolist(), stack.vals.tolist()):
            rows[r].append((col, val))
        self.affine_rows = tuple(zip(stack.offset.tolist(), map(tuple, rows)))
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

    @staticmethod
    def buffer(values) -> list[float]:
        """A working copy of `values` in this path's representation."""
        return np.asarray(values, dtype=float).tolist()

    def _passive_lines(self, net: NetworkModel) -> list[tuple[int, int, float]]:
        """(position of the passive end, neighbour node, B) per line at a
        passive bus, for the closed form."""
        position = self.passive_position
        return [
            (position[i], k, b) if i in position else (position[k], i, b)
            for i, k, b in net.edges
            if i in position or k in position
        ]

    def _use_network(self, net: NetworkModel) -> None:
        """Switch to `net`: drop the chord Jacobian built on the last one,
        take the passive loads and build the stage for `net`."""
        self.net = net
        self.passive_p = np.array(net.load_p)[self.passive]
        self.passive_q = np.array(net.load_q)[self.passive]
        self.passive_loads = np.concatenate([self.passive_p, self.passive_q])
        self.jac_inv: np.ndarray | None = None
        self.stage = self._stage_for(net)

    def rebuild_with_mods(self) -> None:
        net = self.base_net
        for mod in self.active_mods:
            if isinstance(mod, LoadStep):
                net = net.with_load_delta(mod.bus, mod.dp, mod.dq)
            else:
                net = net.with_scaled_line(mod.line_index, mod.factor)
        self._use_network(net)

    # evaluation ----------------------------------------------------------------

    def _collapse(self, node: int, t: float) -> SimulationError:
        return SimulationError(
            f"voltage collapse at bus {self.net.non_ground[node]!r}, t = {t:.6g}"
        )

    def _stage_for(self, net: NetworkModel):
        """The stage evaluation on `net`, ``stage(y, V, th, t) -> (dy, P,
        Q)``: scatter the terminals into V/th, set the passive bus (if any)
        to its closed form in place, evaluate the line terms, check the
        passive balance (continuing by :meth:`_solve_chord` if it misses
        ``newton_tol``) and apply the affine table, one pass over its rows.
        Everything it reads is taken here, once per network."""
        engine = self
        terminals = self.terminals
        table = self.affine_rows
        edges = net.edges
        n = net.n_nodes
        tol = self.config.newton_tol
        sin, cos, sqrt, atan2 = math.sin, math.cos, math.sqrt, math.atan2
        bus = self.passive_nodes[0] if self.passive_nodes else None
        if bus is not None:
            lines = [(k, b) for _, k, b in self._passive_lines(net)]
            coupling, load_p, load_q = net.coupling_sum[bus], net.load_p[bus], net.load_q[bus]

        def stage(y, V, th, t):
            engine.inner_solves += 1
            for node, i_theta, i_v, cid in terminals:
                v = y[i_v]
                if v <= 0.0:
                    raise SimulationError(
                        f"voltage collapse in component {cid!r} at t = {t:.6g}"
                    )
                th[node] = y[i_theta]
                V[node] = v
            if bus is not None:
                e_re = e_im = 0.0
                for k, b in lines:
                    bv = b * V[k]
                    e_re += bv * cos(th[k])
                    e_im += bv * sin(th[k])
                try:
                    V[bus], th[bus] = passive_bus_solution(
                        e_re, e_im, coupling, load_p, load_q, V[bus], th[bus], sqrt, atan2
                    )
                except (ValueError, ZeroDivisionError):
                    raise engine._collapse(bus, t) from None
            # the line terms of power_injection, generation-positive
            p = [0.0] * n
            q = p.copy()
            for i, k, b in edges:
                vi = V[i]
                vk = V[k]
                d = th[i] - th[k]
                vv = vi * vk
                flow = b * vv * sin(d)
                cross = vv * cos(d)
                p[i] += flow
                p[k] -= flow
                q[i] += b * (vi * vi - cross)
                q[k] += b * (vk * vk - cross)
            # written to take the chord for NaN as well
            if bus is not None and not (
                abs(p[bus] + load_p) <= tol and abs(q[bus] + load_q) <= tol
            ):
                v = np.array(V)
                a = np.array(th)
                p, q = (x.tolist() for x in engine._solve_chord(v, a, t))
                V[:] = v.tolist()
                th[:] = a.tolist()
            # the rows of AffineStack, summed in its order
            x = y + p + q
            dy = []
            for c, terms in table:
                acc = 0.0
                for col, val in terms:
                    acc += val * x[col]
                dy.append(acc + c)
            return dy, p, q

        return stage

    def _solve_chord(
        self, v: np.ndarray, a: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chord iteration on the array kernel from the start (v, a), in
        place; returns the injections (P, Q) at the accepted state.

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
                return p, q
            if it == max_iter:
                break
            if self.jac_inv is None or worst > CHORD_CONTRACTION * last:
                self._factorize(v, a, (p, q), t)
            last = worst
            step = -(self.jac_inv @ r)
            d_v = step[m:]
            v_pas = v[pas]
            scale = 1.0
            v_new = v_pas + d_v
            bad = v_new <= 0.0
            while bad.any():
                scale *= 0.5
                if scale < 1e-12:
                    raise self._collapse(int(pas[np.argmax(bad)]), t)
                v_new = v_pas + scale * d_v
                bad = v_new <= 0.0
            a[pas] += scale * step[:m]
            v[pas] = v_new
            self.inner_iterations += 1
        raise SimulationError(
            f"inner Newton failed at t = {t:.6g} (residual {worst:.3e})"
        )

    def _factorize(self, v: np.ndarray, a: np.ndarray, injections, t: float):
        """Invert the passive-bus Jacobian at (v, a) for the chord iteration;
        returns the injection partials it was taken from."""
        partials = injection_partials(self.net, v, a, injections)
        dp_dt, dp_dv, dq_dt, dq_dv = partials
        blk = self.passive_block
        jac = np.block([[dp_dt[blk], dp_dv[blk]], [dq_dt[blk], dq_dv[blk]]])
        try:
            self.jac_inv = np.linalg.inv(jac)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"algebraic Jacobian singular at t = {t:.6g}: {exc}"
            ) from exc
        self.factorizations += 1
        return partials

    # integrator -----------------------------------------------------------------

    def start_integrals(self, anchors: dict[str, Anchor], y, p, q) -> None:
        """Start the path integrals at zero from the state (y, P, Q); each
        component's is shifted by its anchor's (P, Q)."""
        self.anchor_p = self.buffer([anchors[cid].P for cid in self.comp_ids])
        self.anchor_q = self.buffer([anchors[cid].Q for cid in self.comp_ids])
        self.shifted = self.buffer([0.0] * len(self.comp_ids))
        self.unshifted = 0.0
        self.prev = self.endpoints(y, p, q)

    def endpoints(self, y, p, q) -> list[tuple[float, float, float, float]]:
        """(theta, ln v, P, Q) of every component at the state (y, P, Q)."""
        return [
            (y[i_theta], math.log(y[i_v]), p[node], q[node])
            for node, i_theta, i_v, _ in self.terminals
        ]

    def advance(self, y, dy, V, th, h: float, step: int):
        """One RK4 step from (y, dy) at t = step h: the three inner stages,
        the stage at the step's end, and the trapezoid step of the path
        integrals between the step's endpoints. Returns (y, dy, P, Q) at the
        end of the step."""
        stage = self.stage
        t = step * h
        half = 0.5 * h
        k2, _, _ = stage([a + half * b for a, b in zip(y, dy)], V, th, t + half)
        k3, _, _ = stage([a + half * b for a, b in zip(y, k2)], V, th, t + half)
        k4, _, _ = stage([a + h * b for a, b in zip(y, k3)], V, th, t + h)
        sixth = h / 6.0
        y = [
            a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, dy, k2, k3, k4)
        ]
        dy, p, q = stage(y, V, th, (step + 1) * h)
        now = self.endpoints(y, p, q)
        shifted = self.shifted
        unshifted = self.unshifted
        for c, ((theta0, lnv0, p0, q0), (theta1, lnv1, p1, q1), ap, aq) in enumerate(
            zip(self.prev, now, self.anchor_p, self.anchor_q)
        ):
            p_mid = 0.5 * (p0 + p1)
            q_mid = 0.5 * (q0 + q1)
            d_theta = theta1 - theta0
            d_lnv = lnv1 - lnv0
            unshifted += p_mid * d_theta + q_mid * d_lnv
            shifted[c] += (p_mid - ap) * d_theta + (q_mid - aq) * d_lnv
        self.unshifted = unshifted
        self.prev = now
        return y, dy, p, q


class _ArrayEngine(_Engine):
    """The array path, for networks with two or more passive buses: y, V
    and th are float arrays for the whole step.

    A stage scatters the terminals through index arrays, solves the passive
    buses in closed form (no line joins two of them) or by the chord
    iteration (coupled), and applies the components' :class:`AffineStack`.
    Before a coupled solve the passive buses are moved by the tangent
    predictor: K = -J_pp^-1 J_pd, kept with each factorization, times the
    change of the boundary buses' (theta, V) since the last converged solve
    (the first-order continuation predictor; Allgower & Georg,
    *Introduction to Numerical Continuation Methods*, ch. 2). The boundary
    buses are the dynamic buses with a line to a passive bus, the only
    columns where J_pd is nonzero.
    """

    def __init__(
        self,
        net: NetworkModel,
        components: dict[str, Component],
        config: SolverConfig,
    ) -> None:
        super().__init__(net, components, config)
        self.term_node = np.array([i for i, _, _, _ in self.terminals], dtype=np.intp)
        self.term_theta = np.array([i for _, i, _, _ in self.terminals], dtype=np.intp)
        self.term_v = np.array([i for _, _, i, _ in self.terminals], dtype=np.intp)
        position = self.passive_position
        boundary = sorted(
            {k for i, k, _ in net.edges if i in position and k not in position}
            | {i for i, k, _ in net.edges if k in position and i not in position}
        )
        self.boundary_nodes = np.array(boundary, dtype=np.intp)
        self.boundary_block = np.ix_(self.passive, self.boundary_nodes)
        # (theta, V) of the boundary buses at the last converged coupled solve
        self.boundary_state: np.ndarray | None = None

    @staticmethod
    def buffer(values) -> np.ndarray:
        return np.array(values, dtype=float)

    def _stage_for(self, net: NetworkModel):
        """:meth:`_stage`, after dropping the predictor's K with the chord
        Jacobian and, for the closed form, taking the incidence arrays
        (passive position, neighbour node, B) and the passive coupling sums
        of `net`."""
        self.tangent: np.ndarray | None = None
        if not self.coupled:
            lines = self._passive_lines(net)
            self.passive_lines = (
                np.array([j for j, _, _ in lines], dtype=np.intp),
                np.array([k for _, k, _ in lines], dtype=np.intp),
                np.array([b for _, _, b in lines], dtype=float),
            )
            self.passive_coupling = np.array(net.coupling_sum)[self.passive]
        return self._stage

    def solve_algebraic(
        self, V: np.ndarray, th: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve passive-bus (theta, V) in place; V/th carry the warm start.
        Returns the bus injections (P, Q) at the solved state."""
        self.inner_solves += 1
        if not self.coupled:
            self._closed_form(V, th, t)
            return self._solve_chord(V, th, t)
        nodes = self.boundary_nodes
        boundary = np.concatenate([th[nodes], V[nodes]])
        if self.tangent is not None:
            shift = self.tangent @ (boundary - self.boundary_state)
            pas = self.passive
            m = len(pas)
            v_pas = V[pas] + shift[m:]
            # a prediction that leaves V > 0 is taken; the chord does the rest
            if (v_pas > 0.0).all():
                th[pas] += shift[:m]
                V[pas] = v_pas
        p, q = self._solve_chord(V, th, t)
        self.boundary_state = boundary
        return p, q

    def _closed_form(self, V: np.ndarray, th: np.ndarray, t: float) -> None:
        """Set the passive buses to their closed form, in place."""
        pas = self.passive
        position, nbr, b = self.passive_lines
        bv = b * V[nbr]
        a_nbr = th[nbr]
        m = len(pas)
        e_re = np.bincount(position, weights=bv * np.cos(a_nbr), minlength=m)
        e_im = np.bincount(position, weights=bv * np.sin(a_nbr), minlength=m)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_pas, a_pas = passive_bus_solution(
                e_re, e_im, self.passive_coupling, self.passive_p, self.passive_q,
                V[pas], th[pas],
            )
        bad = ~(v_pas > 0.0)
        if bad.any():
            raise self._collapse(int(pas[np.argmax(bad)]), t)
        V[pas] = v_pas
        th[pas] = a_pas

    def _factorize(self, v: np.ndarray, a: np.ndarray, injections, t: float):
        """As for the float path; when coupled, also keep the predictor's
        K = -J_pp^-1 J_pd over the boundary buses."""
        dp_dt, dp_dv, dq_dt, dq_dv = partials = super()._factorize(v, a, injections, t)
        if self.coupled:
            blk = self.boundary_block
            j_pd = np.block([[dp_dt[blk], dp_dv[blk]], [dq_dt[blk], dq_dv[blk]]])
            self.tangent = -(self.jac_inv @ j_pd)
        return partials

    def _stage(
        self, y: np.ndarray, V: np.ndarray, th: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scatter terminals, solve algebraic in place, return (dy, P, Q)."""
        v = y[self.term_v]
        bad = v <= 0.0
        if bad.any():
            cid = self.comp_ids[int(np.argmax(bad))]
            raise SimulationError(f"voltage collapse in component {cid!r} at t = {t:.6g}")
        th[self.term_node] = y[self.term_theta]
        V[self.term_node] = v
        p, q = self.solve_algebraic(V, th, t)
        return self.rhs(y, p, q), p, q

    def endpoints(self, y, p, q) -> tuple[np.ndarray, ...]:
        """(theta, ln v, P, Q) of every component, one array each."""
        node = self.term_node
        return y[self.term_theta], np.log(y[self.term_v]), p[node], q[node]

    def advance(self, y, dy, V, th, h: float, step: int):
        """As for the float path, on arrays."""
        t = step * h
        half = 0.5 * h
        k2, _, _ = self._stage(y + half * dy, V, th, t + half)
        k3, _, _ = self._stage(y + half * k2, V, th, t + half)
        k4, _, _ = self._stage(y + h * k3, V, th, t + h)
        y = y + (h / 6.0) * (dy + 2.0 * (k2 + k3) + k4)
        dy, p, q = self._stage(y, V, th, (step + 1) * h)
        now = self.endpoints(y, p, q)
        theta0, lnv0, p0, q0 = self.prev
        theta1, lnv1, p1, q1 = now
        p_mid = 0.5 * (p0 + p1)
        q_mid = 0.5 * (q0 + q1)
        d_theta = theta1 - theta0
        d_lnv = lnv1 - lnv0
        self.shifted += (p_mid - self.anchor_p) * d_theta + (q_mid - self.anchor_q) * d_lnv
        self.unshifted += float(np.sum(p_mid * d_theta + q_mid * d_lnv))
        self.prev = now
        return y, dy, p, q


def _make_engine(
    net: NetworkModel, components: dict[str, Component], config: SolverConfig
) -> _Engine:
    """The engine for `net`: the array path for two or more passive buses,
    otherwise the float path."""
    engine = _ArrayEngine if len(net.passive_nodes()) > 1 else _Engine
    return engine(net, components, config)


# -- driver --------------------------------------------------------------------


def _snap_to_grid(value: float, h: float, what: str) -> int:
    steps = round(value / h)
    if abs(value - steps * h) > GRID_ALIGN_TOL:
        raise ScenarioError(
            f"{what} = {value} does not align with the step grid (h = {h})"
        )
    return steps


@recordclass(frozen=True)
class _Event:
    """A disturbance taking effect, or with ``ends`` a timed one expiring."""

    disturbance: Disturbance
    ends: bool = False


def _schedule(
    net: NetworkModel,
    components: dict[str, Component],
    scenario: Scenario,
    h: float,
) -> tuple[int, int, dict[int, list[_Event]]]:
    """Check a scenario against the step grid and the network, before any
    work: the commands that solve the equilibrium first call it too.
    Returns the step count, the steps per sample, and the events due at
    each step index."""
    n_steps = _snap_to_grid(scenario.horizon, h, "horizon")
    sample_every = _snap_to_grid(scenario.output_period, h, "output period")
    if sample_every <= 0:
        raise ScenarioError("output period shorter than one step")
    if scenario.horizon > 0 and n_steps % sample_every != 0:
        raise ScenarioError("horizon must be a whole number of output periods")
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
    return n_steps, sample_every, events


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
    n_steps_total, sample_every, events = _schedule(net, components, scenario, h)
    if equilibrium is None:
        equilibrium = solve_equilibrium(net, components)

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
            y.extend(map(float, equilibrium.component_states[cid]))
        else:
            given = scenario.explicit_states[cid]
            y.extend(float(given[label]) for label in comp.state_labels)
    y = engine.buffer(y)

    def apply_events(step_idx: int, y) -> bool:
        """Apply the events due at `step_idx` to y (in place) and the engine;
        returns whether the network changed."""
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
        return network_dirty

    # working buffers start at the equilibrium bus state
    V = engine.buffer(equilibrium.state.V)
    th = engine.buffer(equilibrium.state.theta)

    network_changed = 0 in events and apply_events(0, y)
    dy, p, q = engine.stage(y, V, th, 0.0)
    engine.start_integrals(anchors, y, p, q)

    n_samples = n_steps_total // sample_every + 1 if n_steps_total else 1
    times = np.zeros(n_samples)
    bus_v = np.zeros((n_samples, net.n_nodes))
    bus_t = np.zeros((n_samples, net.n_nodes))
    bus_p = np.zeros((n_samples, net.n_nodes))
    bus_q = np.zeros((n_samples, net.n_nodes))
    states = np.zeros((n_samples, engine.ny))
    integrals = np.zeros((n_samples, len(comp_ids)))
    unshifted_series = np.zeros(n_samples)

    def record(sample: int, t: float) -> None:
        """Keep the raw sample, whole rows only; the diagnostics are
        evaluated after the run."""
        times[sample] = t
        bus_v[sample] = V
        bus_t[sample] = th
        bus_p[sample] = p
        bus_q[sample] = q
        states[sample] = y
        integrals[sample] = engine.shifted
        unshifted_series[sample] = engine.unshifted

    record(0, 0.0)

    for step in range(n_steps_total):
        y, dy, p, q = engine.advance(y, dy, V, th, h, step)
        if step + 1 in events:
            network_changed = apply_events(step + 1, y) or network_changed
            dy, p, q = engine.stage(y, V, th, (step + 1) * h)
            # restart the integrals' endpoints across the discontinuity
            engine.prev = engine.endpoints(y, p, q)
        if (step + 1) % sample_every == 0:
            record((step + 1) // sample_every, (step + 1) * h)

    # the samples per component
    comp_states: dict[str, np.ndarray] = {}
    series_p: dict[str, np.ndarray] = {}
    series_q: dict[str, np.ndarray] = {}
    integral_series: dict[str, np.ndarray] = {}
    for c, (cid, comp, lo) in enumerate(zip(comp_ids, engine.comps, engine.offsets)):
        node = engine.terminals[c][0]
        comp_states[cid] = states[:, lo : lo + comp.nstates].copy()
        series_p[cid] = bus_p[:, node].copy()
        series_q[cid] = bus_q[:, node].copy()
        integral_series[cid] = integrals[:, c].copy()

    # the diagnostics, one array pass over all samples. Vp is the base
    # network's potential relative to the initial point, sample 0
    vp = eval_vp(net, bus_v, bus_t)
    storage_series: dict[str, np.ndarray] = {}
    wdot_series: dict[str, np.ndarray] = {}
    supply_series: dict[str, np.ndarray] = {}
    for cid, comp in zip(comp_ids, engine.comps):
        x = comp_states[cid].T  # (nstates, samples)
        u = (series_p[cid], series_q[cid])
        anchor = anchors[cid]
        try:
            storage_series[cid] = comp.storage(x, anchor)
            wdot_series[cid] = comp.storage_rate(x, u, anchor)
        except CertificateUnavailable:
            # storage diagnostics degrade to NaN; flows and integrals stay valid
            storage_series[cid] = np.full(n_samples, math.nan)
            wdot_series[cid] = np.full(n_samples, math.nan)
        f = comp.derivative(x, u)
        i_theta = comp.state_labels.index("theta")
        i_v = comp.state_labels.index("v")
        supply_series[cid] = supply_rate(
            u[0] - anchor.P, u[1] - anchor.Q, f[i_theta], x[i_v], f[i_v], config.convention
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
        convention=config.convention,
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
