"""The stepping engine of :func:`~phasorstab.simulator.simulate`: the RK4
step of the semi-explicit index-1 DAE and the inner solve of the passive
buses. Only ``simulate`` imports this module, when a run starts, so a
command that never steps never compiles it.

The topology picks one of two paths for the whole run:

* the float path, for at most one passive bus: the state and the stacked
  bus state x = (theta, V) are lists of Python floats. For each network the
  engine writes the RK4 step as straight-line Python on local names, with
  the network's and the components' numbers as literals, inside a loop over
  steps, and compiles it: per stage it checks the terminals, sets the
  passive bus to its closed-form solution (the operations of
  :func:`~phasorstab.network.passive_bus_solution` on floats, written out
  with the network's constants folded in), evaluates the line terms of
  :func:`~phasorstab.network.power_injection` line by line, checks the
  balance, and evaluates each row of the components' stacked affine table;
* the array path, for two or more passive buses: the state and x are float
  arrays. A stage scatters the component terminals into x with one gather
  and one scatter, solves the passive buses on their rows of x, evaluates
  :func:`~phasorstab.network.power_injection` once per check, and applies
  every component's affine table at once
  (:class:`~phasorstab.components.AffineStack`: a gather and one
  ``np.bincount``, no matrix product). The RK4 combinations and the
  trapezoid accumulation are array expressions on stacked arrays.

Both paths read the same (row, column, value) table and sum each row in
the same order, write the caller's x in place, and return the injections
stacked as x is, (P, Q). Each takes one engine call per stop, the next
step at which the run samples or applies an event, and steps to it in its
own loop: per step, the RK4 stages, the stage at the step's end and the
path integrals' step. The generated float step performs the floating-point operations of
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
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .components import AffineStack, Anchor, Component
from .network import (
    TWO_PI,
    NetworkModel,
    injection_partials,
    passive_bus_constants,
    power_injection,
    solve_passive_bus,
)
from .scenario import SolverConfig
from .simulator import SimulationError

# a chord step must cut the passive residual at least this much, or the
# passive-bus Jacobian is rebuilt at the current state before the next step
CHORD_CONTRACTION = 0.25


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


@functools.lru_cache(maxsize=16)
def _compiled(source: str):
    """The code object of a generated float step's source, compiled once per
    distinct source in a process: the source holds only numbers, so every
    engine on the same network, components and settings (each step of a
    sweep) runs the same code, each in its own namespace."""
    return compile(source, "<float step>", "exec")


class _Engine:
    """Flattened, loop-friendly view of the system for the hot stepping path.

    This is the float path, for networks with at most one passive bus: the
    state y and the stacked bus state x = (theta, V) are lists of Python
    floats, which at this size cost less per element than numpy costs per
    call.
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
        self.passive = pas = np.array(self.passive_nodes, dtype=np.intp)
        # topology properties, so load and line events keep them
        position = {node: j for j, node in enumerate(self.passive_nodes)}
        self.passive_position = position
        self.coupled = any(i in position and k in position for i, k, _ in net.edges)
        # the dynamic buses with a line to a passive bus, the only columns
        # where J_pd is nonzero
        boundary = {k if i in position else i for i, k, _ in net.edges
                    if (i in position) != (k in position)}
        self.boundary_nodes = bnd = np.array(sorted(boundary), dtype=np.intp)
        # the passive and the boundary buses' rows in the stacked bus state
        # (theta, V) and injections (P, Q); J_pp and J_pd in the injection
        # Jacobian are the passive rows by the passive and the boundary ones
        n = net.n_nodes
        self.passive_rows = rows = np.concatenate([pas, n + pas])
        self.boundary_rows = np.concatenate([bnd, n + bnd])
        self.passive_block = np.ix_(rows, rows)
        self.boundary_block = np.ix_(rows, self.boundary_rows)
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
        """The stage, ``stage(y, x, t) -> (dy, PQ)``, and the RK4 steps,
        ``advance(y, dy, x, h, first, stop) -> (y, dy, PQ)``, on `net`, as
        straight-line Python generated and compiled here, once per network;
        PQ is the stacked injections (P, Q).

        ``advance`` takes the steps ``first`` to ``stop - 1`` (at least one)
        in its own loop, from (y, dy) at t = first h, and returns the state
        at t = stop h. Each step runs the stage body four times (the three
        inner stages and the stage at the step's end) and then takes the
        trapezoid step of the path integrals between the step's endpoints.
        Between steps y, dy, the passive bus's (V, theta), the integrals and
        their endpoints stay local names: they are read before the loop and
        written back after it. Both functions write x in place, once. The
        stage body comes from :meth:`_stage_source`. The source holds the
        network's and the components' numbers as literals and nothing else
        from the input: ids and messages stay in the engine, which the code
        calls to raise a collapse or to continue by the chord."""
        n, ny, m = net.n_nodes, self.ny, len(self.terminals)
        p, q = _names("p", n), _names("q", n)
        y, dy, s = _names("y", ny), _names("dy", ny), _names("s", ny)
        warm = []
        if self.passive_nodes:
            bus = self.passive_nodes[0]
            warm = [f"tb = x[{_literal(bus)}]", f"vb = x[{_literal(n + bus)}]"]

        def finish(state, outputs):
            return [f"x[:] = {_listed(state)}", f"return {', '.join(map(_listed, outputs))}"]

        stage = [f"{_listed(s)} = y", *warm, "engine.inner_solves += 1"]
        body, state = self._stage_source(net, s, "t", "dy")
        stage += body + finish(state, (dy, p + q))

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
        body, state = self._stage_source(net, y, "(step + 1) * h", "dy")
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
        step += finish(state, (y, dy, p + q))

        source = "\n".join([
            "def stage(y, x, t):", *("    " + line for line in stage),
            "def advance(y, dy, x, h, first, stop):", *("    " + line for line in step),
        ])
        namespace = {
            "engine": self,
            "sin": math.sin,
            "cos": math.cos,
            "sqrt": math.sqrt,
            "atan2": math.atan2,
            "log": math.log,
        }
        exec(_compiled(source), namespace)
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
        Returns the lines and the names of the stacked bus state's entries."""
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
        state = [th[j] for j in range(n)] + [V[j] for j in range(n)]
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
                f"    vb, tb, {_listed(p + q)} = engine._chord_on_floats({_listed(state)}, {t})",
            ]
        # the rows of AffineStack over x = (y, P, Q), summed in its order
        x = [*y, *p, *q]
        for r, (c, terms) in enumerate(self.affine_rows):
            row = "".join(f" + {_literal(val)} * {x[col]}" for col, val in terms)
            lines.append(f"{out}{r} = 0.0{row} + {_literal(c)}")
        return lines, state

    def _closed_form_source(self, net: NetworkModel, bus: int, e_re: str, e_im: str):
        """The source lines that move the passive bus `bus` from its warm
        start (``vb``, ``tb``) to its closed form on `net` against the
        source E = `e_re` + j `e_im` (names or literals):
        :func:`~phasorstab.network.passive_bus_solution` on floats, its
        floating-point operations in its order, with the network's
        constants from :func:`~phasorstab.network.passive_bus_constants`
        folded into literals and the root choice as an ``if``. They raise
        ValueError or ZeroDivisionError where that function does."""
        s, load_q, neg_p, s2, s_q, load2, s2_load2, no_load = passive_bus_constants(
            net.coupling_sum[bus], net.load_p[bus], net.load_q[bus]
        )
        lines = [
            f"mid = 0.5 * ({e_re} * {e_re} + {e_im} * {e_im}) - {_literal(s_q)}",
            f"gap = sqrt(mid * mid - {_literal(s2_load2)})",
            f"vb2 = {_literal(load2)} / (mid + gap)",
        ]
        # The function adds its bool root choice times 2 gap / S^2. Not
        # chosen, that product is +0.0 wherever mid * mid is finite: S > 0
        # on a bus with a line, as NetworkModel requires x > 0 and a
        # connected graph (a bus without one has E = 0 and S = 0, and the
        # division above raises). The low root is then at least +0.0, since
        # mid > vb^2 S^2 >= 0, so adding +0.0 leaves it as it is.
        high = f"vb2 = vb2 + 2.0 * gap / {_literal(s2)}"
        if no_load:
            lines.append(high)
        else:
            lines += [f"if vb * vb * {_literal(s2)} >= mid:", "    " + high]
        two_pi = _literal(TWO_PI)
        return lines + [
            f"ang = atan2({e_im}, {e_re}) + atan2({_literal(neg_p)}, "
            f"{_literal(s)} * vb2 + {_literal(load_q)})",
            f"tb = ang + {two_pi} * (((tb - ang) / {two_pi} + 0.5) // 1.0)",
            "vb = sqrt(vb2)",
        ]

    def _chord_on_floats(self, state: list[float], t: float):
        """:meth:`_solve_chord` from the float path's stacked bus state;
        returns the passive bus's accepted (V, theta) and the stacked
        injections (P, Q) as a list."""
        x = np.array(state)
        pq = self._solve_chord(x, t)
        bus = self.passive_nodes[0]
        return float(x[len(x) // 2 + bus]), float(x[bus]), pq.tolist()

    def _solve_chord(self, x: np.ndarray, t: float) -> np.ndarray:
        """Chord iteration on the array kernel from the stacked bus state
        x = (theta, V), in place; returns the injections (P, Q), stacked, at
        the accepted state.

        Steps with the kept inverse of the passive-bus Jacobian; refreshes
        it when there is none (first solve, changed network) or when the
        last step failed to shrink the residual by CHORD_CONTRACTION. A step
        that would leave a passive V <= 0 is halved until it does not."""
        net = self.net
        rows = self.passive_rows
        m = len(self.passive)
        max_iter = self.config.newton_max_iter
        last = math.inf
        for it in range(max_iter + 1):
            pq = power_injection(net, x)
            r = pq[rows] + self.passive_loads
            worst = float(np.abs(r).max())
            if worst <= self.config.newton_tol:
                return pq
            if it == max_iter:
                break
            if self.jac_inv is None or worst > CHORD_CONTRACTION * last:
                self._factorize(x, pq, t)
            last = worst
            # x - J_pp^-1 r, the same numbers as x + (-J_pp^-1 r)
            step = self.jac_inv @ r
            start = x[rows]
            moved = start - step
            scale = 1.0
            while np.count_nonzero(moved[m:] <= 0.0):
                scale *= 0.5
                if scale < 1e-12:
                    raise self._collapse(int(self.passive[np.argmax(moved[m:] <= 0.0)]), t)
                moved = start - scale * step
            x[rows] = moved
            self.inner_iterations += 1
        j = int(np.argmax(np.abs(r)))
        balance = "Q" if j >= m else "P"
        raise SimulationError(
            f"inner Newton failed at t = {t:.6g} (residual {worst:.3e}, "
            f"{balance} balance at bus {net.non_ground[self.passive[j % m]]!r})"
        )

    def _factorize(self, x: np.ndarray, pq: np.ndarray, t: float) -> None:
        """Invert J_pp, the passive-bus block of the injection Jacobian at
        the stacked bus state x with injections pq, for the chord iteration;
        when the passive buses are coupled, also keep the predictor's
        K = -J_pp^-1 J_pd over the boundary buses."""
        jac = injection_partials(self.net, x, pq)
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

    def start_integrals(self, anchors: dict[str, Anchor], y, pq) -> None:
        """Start the path integrals at zero from the state y with the stacked
        injections pq; each component's is shifted by its anchor's (P, Q)."""
        self.anchor_p = self.buffer([anchors[cid].P for cid in self.comp_ids])
        self.anchor_q = self.buffer([anchors[cid].Q for cid in self.comp_ids])
        self.shifted = self.buffer([0.0] * len(self.comp_ids))
        self.unshifted = 0.0
        self.prev = self.endpoints(y, pq)

    def endpoints(self, y, pq) -> list[tuple[float, float, float, float]]:
        """(theta, ln v, P, Q) of every component at the state y with the
        stacked injections pq."""
        n = len(pq) // 2
        return [
            (y[i_theta], math.log(y[i_v]), pq[node], pq[n + node])
            for node, i_theta, i_v, _ in self.terminals
        ]


class _ArrayEngine(_Engine):
    """The array path, for networks with two or more passive buses: y and the
    stacked bus state x = (theta, V) are float arrays.

    A stage scatters the terminals into x (one gather from y, one scatter),
    solves the passive buses on their rows of x in closed form (no line
    joins two of them) or by the chord iteration (coupled), and applies the
    components' :class:`AffineStack`. Before a coupled solve the passive
    buses are moved by the tangent predictor: K = -J_pp^-1 J_pd, kept with
    each factorization, times the change of the boundary buses' (theta, V)
    since the last converged solve (the first-order continuation predictor;
    Allgower & Georg, *Introduction to Numerical Continuation Methods*,
    ch. 2). The boundary buses are the dynamic buses with a line to a
    passive bus, the only columns where J_pd is nonzero.
    """

    def __init__(
        self,
        net: NetworkModel,
        components: dict[str, Component],
        config: SolverConfig,
    ) -> None:
        super().__init__(net, components, config)
        n = net.n_nodes
        node = np.array([i for i, _, _, _ in self.terminals], dtype=np.intp)
        # the terminals' (theta, v) positions in y, and their rows in the
        # stacked bus state and injections
        self.term_states = np.array(
            [i for _, i, _, _ in self.terminals] + [i for _, _, i, _ in self.terminals],
            dtype=np.intp,
        )
        self.term_rows = np.concatenate([node, n + node])
        # (theta, V) of the boundary buses at the last converged coupled solve
        self.boundary_state: np.ndarray | None = None

    @staticmethod
    def buffer(values) -> np.ndarray:
        return np.array(values, dtype=float)

    def _steps_for(self, net: NetworkModel):
        """:meth:`_stage` and :meth:`_advance`, after dropping the
        predictor's K with the chord Jacobian and, for the closed form,
        folding the passive buses' constants on `net` and taking its
        incidence: per line at a passive bus, that bus's position and the
        neighbour's theta and V rows in the stacked bus state, and B."""
        self.tangent: np.ndarray | None = None
        if not self.coupled:
            n = net.n_nodes
            lines = self._passive_lines(net)
            position = np.array([j for j, _, _ in lines], dtype=np.intp)
            nbr = np.array([k for _, k, _ in lines], dtype=np.intp)
            b = np.array([b for _, _, b in lines], dtype=float)
            m = len(self.passive)
            # E's real parts go to bins 0 .. m - 1, its imaginary parts to m .. 2m - 1
            self.source_bins = np.concatenate([position, m + position])
            # the neighbours' theta, their V twice, then the passive rows
            self.closed_form_rows = np.concatenate([nbr, n + nbr, n + nbr, self.passive_rows])
            self.source_coupling = np.concatenate([b, b])
            self.closed_form_constants = passive_bus_constants(
                np.array(net.coupling_sum)[self.passive], self.passive_p, self.passive_q
            )
        return self._stage, self._advance

    def solve_algebraic(self, x: np.ndarray, t: float) -> np.ndarray:
        """Solve the passive buses' (theta, V) in the stacked bus state x, in
        place; x carries the warm start. Returns the stacked injections
        (P, Q) at the solved state."""
        self.inner_solves += 1
        if not self.coupled:
            self._closed_form(x, t)
            return self._solve_chord(x, t)
        boundary = x[self.boundary_rows]
        if self.tangent is not None:
            rows = self.passive_rows
            predicted = x[rows] + self.tangent @ (boundary - self.boundary_state)
            # a prediction that leaves V > 0 is taken; the chord does the rest
            if np.count_nonzero(predicted[len(self.passive):] > 0.0) == len(self.passive):
                x[rows] = predicted
        pq = self._solve_chord(x, t)
        self.boundary_state = boundary
        return pq

    def _closed_form(self, x: np.ndarray, t: float) -> None:
        """Set the passive buses to their closed form, in place in x."""
        lines = len(self.source_coupling) // 2
        m = len(self.passive)
        ends = x[self.closed_form_rows]
        a_nbr = ends[:lines]
        trig = np.empty(2 * lines)
        np.cos(a_nbr, out=trig[:lines])
        np.sin(a_nbr, out=trig[lines:])
        weights = self.source_coupling * ends[lines : 3 * lines] * trig
        e = np.bincount(self.source_bins, weights=weights, minlength=2 * m)
        warm = ends[3 * lines:]
        with np.errstate(divide="ignore", invalid="ignore"):
            v_pas, a_pas = solve_passive_bus(
                e[:m], e[m:], self.closed_form_constants, warm[m:], warm[:m]
            )
        ok = v_pas > 0.0
        if np.count_nonzero(ok) < m:
            raise self._collapse(int(self.passive[np.argmin(ok)]), t)
        x[self.passive_rows] = np.concatenate([a_pas, v_pas])

    def _stage(self, y: np.ndarray, x: np.ndarray, t: float):
        """Scatter the terminals into x, solve the passive buses in place,
        and return (dy, stacked P and Q)."""
        terminal = y[self.term_states]
        bad = terminal[len(self.terminals):] <= 0.0
        if np.count_nonzero(bad):
            raise self._component_collapse(int(np.argmax(bad)), t)
        x[self.term_rows] = terminal
        pq = self.solve_algebraic(x, t)
        return self.rhs(y, pq), pq

    def endpoints(self, y, pq) -> tuple[np.ndarray, np.ndarray]:
        """(theta, ln v) and (P, Q) of every component, each one stacked
        array."""
        terminal = y[self.term_states]
        m = len(self.terminals)
        np.log(terminal[m:], out=terminal[m:])
        return terminal, pq[self.term_rows]

    def start_integrals(self, anchors: dict[str, Anchor], y, pq) -> None:
        super().start_integrals(anchors, y, pq)
        self.anchor_pq = np.concatenate([self.anchor_p, self.anchor_q])

    def _advance(self, y, dy, x, h: float, first: int, stop: int):
        """The RK4 steps ``first`` to ``stop - 1`` from (y, dy) at
        t = first h. Each step runs the three inner stages, the stage at the
        step's end, and the trapezoid step of the path integrals between
        the step's endpoints. Returns (y, dy, stacked P and Q) at
        t = stop h."""
        stage = self._stage
        m = len(self.terminals)
        for step in range(first, stop):
            t = step * h
            half = 0.5 * h
            k2, _ = stage(y + half * dy, x, t + half)
            k3, _ = stage(y + half * k2, x, t + half)
            k4, _ = stage(y + h * k3, x, t + h)
            y = y + (h / 6.0) * (dy + 2.0 * (k2 + k3) + k4)
            dy, pq = stage(y, x, (step + 1) * h)
            now = self.endpoints(y, pq)
            (angle0, power0), (angle1, power1) = self.prev, now
            # (P, Q) at the midpoint and the steps of (theta, ln v)
            mid = 0.5 * (power0 + power1)
            delta = angle1 - angle0
            shifted = (mid - self.anchor_pq) * delta
            self.shifted += shifted[:m] + shifted[m:]
            unshifted = mid * delta
            self.unshifted += float(np.add.reduce(unshifted[:m] + unshifted[m:]))
            self.prev = now
        return y, dy, pq


def _make_engine(
    net: NetworkModel, components: dict[str, Component], config: SolverConfig
) -> _Engine:
    """The engine for `net`: the array path for two or more passive buses,
    otherwise the float path."""
    engine = _ArrayEngine if len(net.passive_nodes()) > 1 else _Engine
    return engine(net, components, config)
