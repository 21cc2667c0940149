"""Semi-explicit index-1 DAE transient simulation with sampled diagnostics.

Differential states (the dynamic components' states) advance with classical
four-stage Runge-Kutta; the algebraic unknowns (voltage magnitude and angle
of every passive bus) are re-solved, warm-started from the last solution, at
every stage evaluation, so each accepted state is algebraically consistent.

The topology picks one of two paths for the whole run:

* the float path, for at most one passive bus: the state and the bus
  voltages and angles are lists of Python floats. For each network the
  engine writes the RK4 step as straight-line Python on local names, with
  the network's and the components' numbers as literals, inside a loop over
  steps, and compiles it: per stage it checks the terminals, sets the
  passive bus to its closed-form solution (the operations of
  :func:`~phasorstab.network.passive_bus_solution` on floats, written out
  with the network's constants folded in), evaluates the line terms of
  :func:`~phasorstab.network.power_injection` line by line, checks the
  balance, and evaluates each row of the components' stacked affine table;
* the array path, for two or more passive buses: the state, voltages and
  angles are float arrays for the whole step. A stage scatters the
  component terminals through index arrays, solves the passive buses,
  evaluates :func:`~phasorstab.network.power_injection` once per check, and
  applies every component's affine table at once
  (:class:`~phasorstab.components.AffineStack`: a gather and one
  ``np.bincount``, no matrix product). The RK4 combinations and the
  trapezoid accumulation are array expressions.

Both paths read the same (row, column, value) table and sum each row in
the same order. Each takes one engine call per stop, the next step at which
the run samples or applies an event, and steps to it in its own loop: per
step, the RK4 stages, the stage at the step's end and the path integrals'
step. The generated float step performs the floating-point operations of
the loops it was unrolled from, in their order, so its results are those
loops' bit for bit; the tests keep the loops, and ``passive_bus_solution``,
as its reference.

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
import math

import numpy as np

from .components import (
    AffineStack,
    Anchor,
    Component,
    supply_rate,
)
from .equilibrium import EquilibriumSolution, solve_equilibrium
from .netfile import output_file
from .network import (
    TWO_PI,
    NetworkModel,
    injection_partials,
    passive_bus_solution,
    power_injection,
)
from .potential import BregmanDivergence, eval_vp
from .records import recordclass
from .scenario import RunPlan, Scenario, SolverConfig

__all__ = ["SimulationError", "Trajectory", "simulate"]

# a chord step must cut the passive residual at least this much, or the
# passive-bus Jacobian is rebuilt at the current state before the next step
CHORD_CONTRACTION = 0.25


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


# -- engine --------------------------------------------------------------------


def _literal(value) -> str:
    """The source text of a number in the float path's generated step: an
    int, or a finite float's repr, which reads back as the same float."""
    if type(value) is int:
        return repr(value)
    # float() drops a float subclass's own repr, such as numpy's
    if isinstance(value, float) and math.isfinite(value):
        return repr(float(value))
    raise ValueError(f"not an int or a finite float: {value!r}")


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{j}" for j in range(count)]


def _listed(names) -> str:
    return f"[{', '.join(names)}]"


class _Engine:
    """Flattened, loop-friendly view of the system for the hot stepping path.

    This is the float path, for networks with at most one passive bus: the
    state y and the bus voltages V and angles th are lists of Python floats,
    which at this size cost less per element than numpy costs per call.
    ``stage`` and ``advance`` are generated for each network (see
    :meth:`_steps_for`). :class:`_ArrayEngine` is the path for more passive
    buses; use :func:`_make_engine` to get the one for a network.
    """

    def __init__(
        self,
        net: NetworkModel,
        components: dict[str, Component],
        config: SolverConfig,
    ) -> None:
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
        self.passive = np.array(self.passive_nodes, dtype=np.intp)
        # topology properties, so load and line events keep them
        position = {node: j for j, node in enumerate(self.passive_nodes)}
        self.passive_position = position
        self.coupled = any(i in position and k in position for i, k, _ in net.edges)
        # the dynamic buses with a line to a passive bus, the only columns
        # where J_pd is nonzero
        boundary = {k if i in position else i for i, k, _ in net.edges
                    if (i in position) != (k in position)}
        self.boundary_nodes = bnd = np.array(sorted(boundary), dtype=np.intp)
        # J_pp and J_pd in the injection Jacobian: the passive buses' rows
        # (P, Q) by their own and the boundary buses' columns (theta, V)
        n = net.n_nodes
        rows = np.concatenate([self.passive, n + self.passive])
        self.passive_block = np.ix_(rows, rows)
        self.boundary_block = np.ix_(rows, np.concatenate([bnd, n + bnd]))
        # counts of the inner solve, reported in the manifest
        self.inner_solves = 0
        self.inner_iterations = 0
        self.factorizations = 0
        self.use_network(net)

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

    def use_network(self, net: NetworkModel) -> None:
        """Switch to `net`: drop the chord Jacobian built on the last one,
        take the passive loads and build the stage and the step for `net`."""
        self.net = net
        self.passive_p = np.array(net.load_p)[self.passive]
        self.passive_q = np.array(net.load_q)[self.passive]
        self.passive_loads = np.concatenate([self.passive_p, self.passive_q])
        self.jac_inv: np.ndarray | None = None
        self.stage, self.advance = self._steps_for(net)

    # evaluation ----------------------------------------------------------------

    def _collapse(self, node: int, t: float) -> SimulationError:
        return SimulationError(
            f"voltage collapse at bus {self.net.non_ground[node]!r}, t = {t:.6g}"
        )

    def _component_collapse(self, c: int, t: float) -> SimulationError:
        return SimulationError(
            f"voltage collapse in component {self.comp_ids[c]!r} at t = {t:.6g}"
        )

    def _steps_for(self, net: NetworkModel):
        """The stage, ``stage(y, V, th, t) -> (dy, P, Q)``, and the RK4
        steps, ``advance(y, dy, V, th, h, first, stop) -> (y, dy, P, Q)``, on
        `net`, as straight-line Python generated and compiled here, once per
        network.

        ``advance`` takes the steps ``first`` to ``stop - 1`` (at least one)
        in its own loop, from (y, dy) at t = first h, and returns the state
        at t = stop h. Each step runs the stage body four times (the three
        inner stages and the stage at the step's end) and then takes the
        trapezoid step of the path integrals between the step's endpoints.
        Between steps y, dy, the passive bus's (V, theta), the integrals and
        their endpoints stay local names: they are read before the loop and
        written back after it. Both functions write V and th in place. The
        stage body comes from :meth:`_stage_source`. The source holds the
        network's and the components' numbers as literals and nothing else
        from the input: ids and messages stay in the engine, which the code
        calls to raise a collapse or to continue by the chord."""
        n, ny, m = net.n_nodes, self.ny, len(self.terminals)
        p, q = _names("p", n), _names("q", n)
        y, dy, s = _names("y", ny), _names("dy", ny), _names("s", ny)
        warm = []
        if self.passive_nodes:
            bus = _literal(self.passive_nodes[0])
            warm = [f"vb = V[{bus}]", f"tb = th[{bus}]"]

        def finish(V, th, outputs):
            return [
                f"V[:] = {_listed(V[j] for j in range(n))}",
                f"th[:] = {_listed(th[j] for j in range(n))}",
                f"return {', '.join(map(_listed, outputs))}",
            ]

        stage = [f"{_listed(s)} = y", *warm, "engine.inner_solves += 1"]
        body, V, th = self._stage_source(net, s, "t", "dy")
        stage += body + finish(V, th, (dy, p, q))

        # (theta, ln v, P, Q) of each component at the step's start are
        # t0_, l0_, p0_, q0_, its shifted integral sh
        ends = _listed(f"(t0_{c}, l0_{c}, p0_{c}, q0_{c})" for c in range(m))
        shifted = _listed(_names("sh", m))
        step = [
            f"{_listed(y)} = y",
            f"{_listed(dy)} = dy",
            *warm,
            f"{ends} = engine.prev",
            f"{_listed(_names('a_p', m))} = engine.anchor_p",
            f"{_listed(_names('a_q', m))} = engine.anchor_q",
            f"{shifted} = engine.shifted",
            "u = engine.unshifted",
            "engine.inner_solves += 4 * (stop - first)",
            "half = 0.5 * h",
            "sixth = h / 6.0",
            "for step in range(first, stop):",
        ]
        loop = ["t = step * h"]
        for slope, scale, out, at in (
            ("dy", "half", "k2_", "t + half"),
            ("k2_", "half", "k3_", "t + half"),
            ("k3_", "h", "k4_", "t + h"),
        ):
            loop += [f"s{r} = y{r} + {scale} * {slope}{r}" for r in range(ny)]
            loop += self._stage_source(net, s, at, out)[0]
        loop += [
            f"y{r} = y{r} + sixth * (dy{r} + 2.0 * (k2_{r} + k3_{r}) + k4_{r})"
            for r in range(ny)
        ]
        body, V, th = self._stage_source(net, y, "(step + 1) * h", "dy")
        loop += body
        # the trapezoid step of the path integrals, component by component
        for c, (node, i_theta, i_v, _) in enumerate(self.terminals):
            loop += [
                f"l{c} = log(y{i_v})",
                f"p_mid = 0.5 * (p0_{c} + p{node})",
                f"q_mid = 0.5 * (q0_{c} + q{node})",
                f"d_theta = y{i_theta} - t0_{c}",
                f"d_lnv = l{c} - l0_{c}",
                "u += p_mid * d_theta + q_mid * d_lnv",
                f"sh{c} += (p_mid - a_p{c}) * d_theta + (q_mid - a_q{c}) * d_lnv",
                f"t0_{c}, l0_{c}, p0_{c}, q0_{c} = y{i_theta}, l{c}, p{node}, q{node}",
            ]
        step += ["    " + line for line in loop]
        step += [
            "engine.unshifted = u",
            f"engine.shifted = {shifted}",
            f"engine.prev = {ends}",
        ]
        step += finish(V, th, (y, dy, p, q))

        source = "\n".join([
            "def stage(y, V, th, t):", *("    " + line for line in stage),
            "def advance(y, dy, V, th, h, first, stop):", *("    " + line for line in step),
        ])
        namespace = {
            "engine": self,
            "sin": math.sin,
            "cos": math.cos,
            "sqrt": math.sqrt,
            "atan2": math.atan2,
            "log": math.log,
        }
        exec(compile(source, "<float step>", "exec"), namespace)
        return namespace["stage"], namespace["advance"]

    def _stage_source(self, net: NetworkModel, y: list[str], t: str, out: str):
        """The source lines of one stage on `net` at the state named `y`
        (one name per state) and the time expression `t`: scatter the
        terminals, set the passive bus (if any; its V and theta are the
        names ``vb`` and ``tb``) to its closed form
        (:meth:`_closed_form_source`), evaluate the line terms of
        :func:`~phasorstab.network.power_injection` into ``p0, q0, ...``,
        check the passive balance (continuing by :meth:`_chord_on_floats` if
        it misses ``newton_tol``) and evaluate the rows of the affine table
        into ``{out}0, {out}1, ...``, each summed in its order from 0.0.
        Returns the lines and the names of every bus's V and theta."""
        lines = []
        V: dict[int, str] = {}
        th: dict[int, str] = {}
        for c, (node, i_theta, i_v, _) in enumerate(self.terminals):
            lines += [
                f"if {y[i_v]} <= 0.0:",
                f"    raise engine._component_collapse({_literal(c)}, {t})",
            ]
            V[node], th[node] = y[i_v], y[i_theta]
        bus = self.passive_nodes[0] if self.passive_nodes else None
        if bus is not None:
            V[bus], th[bus] = "vb", "tb"
            e_re = e_im = "0.0"
            for _, k, b in self._passive_lines(net):
                lines += [
                    f"bv = {_literal(b)} * {V[k]}",
                    f"e_re = {e_re} + bv * cos({th[k]})",
                    f"e_im = {e_im} + bv * sin({th[k]})",
                ]
                e_re, e_im = "e_re", "e_im"
            lines += [
                "try:",
                *("    " + line for line in self._closed_form_source(net, bus, e_re, e_im)),
                "except (ValueError, ZeroDivisionError):",
                f"    raise engine._collapse({_literal(bus)}, {t}) from None",
            ]
        # the line terms of power_injection, generation-positive
        n = net.n_nodes
        p, q = _names("p", n), _names("q", n)
        lines.append(" = ".join(p + q + ["0.0"]))
        for i, k, b in net.edges:
            b = _literal(b)
            lines += [
                f"d = {th[i]} - {th[k]}",
                f"vv = {V[i]} * {V[k]}",
                f"flow = {b} * vv * sin(d)",
                "cross = vv * cos(d)",
                f"{p[i]} += flow",
                f"{p[k]} -= flow",
                f"{q[i]} += {b} * ({V[i]} * {V[i]} - cross)",
                f"{q[k]} += {b} * ({V[k]} * {V[k]} - cross)",
            ]
        if bus is not None:
            load_p, load_q = _literal(net.load_p[bus]), _literal(net.load_q[bus])
            tol = _literal(self.config.newton_tol)
            # written to take the chord for NaN as well
            lines += [
                f"if not (abs({p[bus]} + {load_p}) <= {tol} and abs({q[bus]} + {load_q}) <= {tol}):",
                f"    vb, tb, {_listed(p)}, {_listed(q)} = engine._chord_on_floats("
                f"{_listed(V[j] for j in range(n))}, {_listed(th[j] for j in range(n))}, {t})",
            ]
        # the rows of AffineStack over x = (y, P, Q), summed in its order
        x = [*y, *p, *q]
        for r, (c, terms) in enumerate(self.affine_rows):
            row = "".join(f" + {_literal(val)} * {x[col]}" for col, val in terms)
            lines.append(f"{out}{r} = 0.0{row} + {_literal(c)}")
        return lines, V, th

    def _closed_form_source(self, net: NetworkModel, bus: int, e_re: str, e_im: str):
        """The source lines that move the passive bus `bus` from its warm
        start (``vb``, ``tb``) to its closed form on `net` against the
        source E = `e_re` + j `e_im` (names or literals):
        :func:`~phasorstab.network.passive_bus_solution` on floats, its
        floating-point operations in its order, with the network's
        constants folded into literals (S q, S^2, S^2 (p^2 + q^2),
        p^2 + q^2 and -p) and the root choice as an ``if``. They raise
        ValueError or ZeroDivisionError where that function does."""
        s = net.coupling_sum[bus]
        load_p, load_q = net.load_p[bus], net.load_q[bus]
        s2 = s * s
        load2 = load_p * load_p + load_q * load_q
        lines = [
            f"mid = 0.5 * ({e_re} * {e_re} + {e_im} * {e_im}) - {_literal(s * load_q)}",
            f"gap = sqrt(mid * mid - {_literal(s2 * load2)})",
            f"x = {_literal(load2)} / (mid + gap)",
        ]
        # The function adds its bool root choice times 2 gap / S^2. Not
        # chosen, that product is +0.0 wherever mid * mid is finite: S > 0
        # on a bus with a line, as NetworkModel requires x > 0 and a
        # connected graph (a bus without one has E = 0 and S = 0, and the
        # division above raises). The low root is then at least +0.0, since
        # mid > vb^2 S^2 >= 0, so adding +0.0 leaves it as it is.
        high = f"x = x + 2.0 * gap / {_literal(s2)}"
        if load2 == 0.0:
            lines.append(high)
        else:
            lines += [f"if vb * vb * {_literal(s2)} >= mid:", "    " + high]
        two_pi = _literal(TWO_PI)
        return lines + [
            f"ang = atan2({e_im}, {e_re}) + atan2({_literal(-load_p)}, "
            f"{_literal(s)} * x + {_literal(load_q)})",
            f"tb = ang + {two_pi} * (((tb - ang) / {two_pi} + 0.5) // 1.0)",
            "vb = sqrt(x)",
        ]

    def _chord_on_floats(self, V: list[float], th: list[float], t: float):
        """:meth:`_solve_chord` from the float path's bus state; returns the
        passive bus's accepted (V, theta) and the injections (P, Q) as
        lists."""
        v = np.array(V)
        a = np.array(th)
        p, q = self._solve_chord(v, a, t)
        bus = self.passive_nodes[0]
        return float(v[bus]), float(a[bus]), p.tolist(), q.tolist()

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
        j = int(np.argmax(np.abs(r)))
        balance = "Q" if j >= m else "P"
        raise SimulationError(
            f"inner Newton failed at t = {t:.6g} (residual {worst:.3e}, "
            f"{balance} balance at bus {net.non_ground[pas[j % m]]!r})"
        )

    def _factorize(self, v: np.ndarray, a: np.ndarray, injections, t: float) -> None:
        """Invert J_pp, the passive-bus block of the injection Jacobian at
        (v, a), for the chord iteration; when the passive buses are coupled,
        also keep the predictor's K = -J_pp^-1 J_pd over the boundary
        buses."""
        jac = injection_partials(self.net, v, a, injections)
        try:
            self.jac_inv = np.linalg.inv(jac[self.passive_block])
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"algebraic Jacobian singular at t = {t:.6g}: {exc}"
            ) from exc
        self.factorizations += 1
        if self.coupled:
            self.tangent = -(self.jac_inv @ jac[self.boundary_block])

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
        # (theta, V) of the boundary buses at the last converged coupled solve
        self.boundary_state: np.ndarray | None = None

    @staticmethod
    def buffer(values) -> np.ndarray:
        return np.array(values, dtype=float)

    def _steps_for(self, net: NetworkModel):
        """:meth:`_stage` and :meth:`_advance`, after dropping the
        predictor's K with the chord Jacobian and, for the closed form,
        taking the incidence arrays (passive position, neighbour node, B)
        and the passive coupling sums of `net`."""
        self.tangent: np.ndarray | None = None
        if not self.coupled:
            lines = self._passive_lines(net)
            self.passive_lines = (
                np.array([j for j, _, _ in lines], dtype=np.intp),
                np.array([k for _, k, _ in lines], dtype=np.intp),
                np.array([b for _, _, b in lines], dtype=float),
            )
            self.passive_coupling = np.array(net.coupling_sum)[self.passive]
        return self._stage, self._advance

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

    def _stage(
        self, y: np.ndarray, V: np.ndarray, th: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scatter terminals, solve algebraic in place, return (dy, P, Q)."""
        v = y[self.term_v]
        bad = v <= 0.0
        if bad.any():
            raise self._component_collapse(int(np.argmax(bad)), t)
        th[self.term_node] = y[self.term_theta]
        V[self.term_node] = v
        p, q = self.solve_algebraic(V, th, t)
        return self.rhs(y, p, q), p, q

    def endpoints(self, y, p, q) -> tuple[np.ndarray, ...]:
        """(theta, ln v, P, Q) of every component, one array each."""
        node = self.term_node
        return y[self.term_theta], np.log(y[self.term_v]), p[node], q[node]

    def _advance(self, y, dy, V, th, h: float, first: int, stop: int):
        """The RK4 steps ``first`` to ``stop - 1`` from (y, dy) at
        t = first h. Each step runs the three inner stages, the stage at the
        step's end, and the trapezoid step of the path integrals between
        the step's endpoints. Returns (y, dy, P, Q) at t = stop h."""
        for step in range(first, stop):
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
