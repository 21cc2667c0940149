"""Finite-difference, alternative-coordinate, complex-arithmetic and loop
references used only by tests."""

from __future__ import annotations

import math

import numpy as np

from phasorstab import network, simulator
from phasorstab.components import Anchor, Component, SupplyConvention, supply_rate
from phasorstab.engine import CHORD_CONTRACTION, _ArrayEngine, _Engine
from phasorstab.equilibrium import steady_state_residual
from phasorstab.network import NetworkModel, injection_partials, power_injection


def fd_jacobian(
    net: NetworkModel,
    components: dict[str, Component],
    x,
    step: float = 1e-7,
) -> np.ndarray:
    """Central finite-difference Jacobian of the steady-state residual at the
    stacked bus state x, columns theta then V as in x; an oracle for the
    analytic one."""
    x = np.array(x, dtype=float)
    jac = np.zeros((len(x), len(x)))
    for col in range(len(x)):
        xx = x.copy()
        xx[col] += step
        r_plus = steady_state_residual(net, components, xx)
        xx = x.copy()
        xx[col] -= step
        r_minus = steady_state_residual(net, components, xx)
        jac[:, col] = (r_plus - r_minus) / (2.0 * step)
    return jac


def hessian_vp_polar(net: NetworkModel, x) -> np.ndarray:
    """Hessian of Vp in (theta, V) coordinates, 2n x 2n.

    This is the curvature of the divergence anchored linearly in V rather
    than ln V. The two anchorings are different functions, so their
    Hessians at the same state are not congruent in general: loads
    contribute -q0/V^2 here and nothing in (theta, ln V).

    The V gradient is (Q_i + q0_i) / V_i, so the rows of the Q partials are
    divided by V_i and its diagonal loses (Q_i + q0_i) / V_i^2.
    """
    n = net.n_nodes
    x = np.asarray(x, dtype=float)
    pq = power_injection(net, x)
    h = injection_partials(net, x, pq)
    v = x[n:]
    h[n:] /= v[:, None]
    h[n:, n:] -= np.diag((pq[n:] + net.load_q) / v**2)
    return h


def stencil_certificate_matrix(
    comp: Component,
    anchor: Anchor,
    convention: SupplyConvention,
    step: float = 1e-4,
) -> np.ndarray:
    """Hessian of storage_rate - supply_rate at the anchor by central second
    differences in (component states, dP, dQ); an oracle for the closed form
    of :func:`~phasorstab.components.local_certificate`."""
    n = comp.nstates
    x_e = comp.equilibrium_state(anchor.theta, anchor.V)
    i_theta = comp.state_labels.index("theta")
    i_v = comp.state_labels.index("v")

    def rate_minus_supply(delta: np.ndarray) -> float:
        x = [a + d for a, d in zip(x_e, delta[:n])]
        dp, dq = delta[n], delta[n + 1]
        u = (anchor.P + dp, anchor.Q + dq)
        f = comp.derivative(x, u)
        s = supply_rate(dp, dq, f[i_theta], x[i_v], f[i_v])
        if convention is SupplyConvention.PRINTED:
            s = -s
        return comp.storage_rate(x, f, anchor) - s

    m = n + 2
    h = np.zeros((m, m))
    f_0 = rate_minus_supply(np.zeros(m))
    for a in range(m):
        d = np.zeros(m)
        d[a] = step
        h[a, a] = (rate_minus_supply(d) - 2.0 * f_0 + rate_minus_supply(-d)) / step**2
        for b in range(a + 1, m):
            d[b] = step
            f_pp, f_mm = rate_minus_supply(d), rate_minus_supply(-d)
            d[b] = -step
            f_pm, f_mp = rate_minus_supply(d), rate_minus_supply(-d)
            d[b] = 0.0
            h[a, b] = h[b, a] = (f_pp - f_pm - f_mp + f_mm) / (4.0 * step**2)
    return h


def kcl_residual(
    net: NetworkModel,
    x,
    dynamic_injections: dict[str, tuple[float, float]] | None = None,
) -> list[complex]:
    """Complex nodal current-balance residual per non-ground bus at the
    stacked bus state x.

    Shunt components contribute injected current conj((P + jQ)/Vbar) with
    generation-positive (P, Q); constant-power branches contribute
    conj(-(p0 + j q0)/Vbar); line currents are subtracted. A solved state
    has residual ~0 everywhere.
    """
    dynamic_injections = dynamic_injections or {}
    n = net.n_nodes
    vbar = x[n:] * np.exp(1j * x[:n])
    res = [0j] * net.n_nodes
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        gp, gq = dynamic_injections.get(shunt.component_id, (0.0, 0.0))
        res[i] += (complex(gp, gq) / vbar[i]).conjugate()
    for cp in net.constant_power:
        i = net.node_index[cp.bus]
        # the states tested here have V > 0, so the 1/Vbar cannot be singular
        res[i] += (complex(-cp.p0, -cp.q0) / vbar[i]).conjugate()
    for line in net.lines:
        i = net.node_index[line.from_bus]
        k = net.node_index[line.to_bus]
        cur = line.admittance * (vbar[i] - vbar[k])
        res[i] -= cur
        res[k] += cur
    return res


def float_injection_loop(net: NetworkModel, x) -> list[float]:
    """:func:`~phasorstab.network.power_injection` as a Python loop over
    ``net.edges`` on the stacked state x, line by line, returning the
    stacked (P, Q) as a list of floats; a reference for the array kernel and
    for the simulator's float stage."""
    n = len(x) // 2
    pq = [0.0] * (2 * n)
    for i, k, b in net.edges:
        vi = x[n + i]
        vk = x[n + k]
        d = x[i] - x[k]
        vv = vi * vk
        flow = b * vv * math.sin(d)
        cross = vv * math.cos(d)
        pq[i] += flow
        pq[k] -= flow
        pq[n + i] += b * (vi * vi - cross)
        pq[n + k] += b * (vk * vk - cross)
    return pq


def reference_stage(engine, net: NetworkModel):
    """The float path's stage on `net` as a closure over loops, ``stage(y,
    x, t) -> (dy, PQ)``: scatter the terminals into x, set the
    passive bus (if any) to its closed form in place, evaluate the line
    terms, check the passive balance (continuing by the engine's chord
    iteration if it misses ``newton_tol``) and apply the affine table, one
    pass over its rows. The reference for the generated stage, which must
    perform the same floating-point operations in the same order."""
    terminals = engine.terminals
    table = engine.affine_rows
    edges = net.edges
    n = net.n_nodes
    tol = engine.config.newton_tol
    sin, cos, sqrt, atan2 = math.sin, math.cos, math.sqrt, math.atan2
    solution = network.passive_bus_solution
    bus = engine.passive_nodes[0] if engine.passive_nodes else None
    if bus is not None:
        lines = [(k, b) for _, k, b in engine._passive_lines(net)]
        coupling, load_p, load_q = net.coupling_sum[bus], net.load_p[bus], net.load_q[bus]

    def stage(y, x, t):
        engine.inner_solves += 1
        for node, i_theta, i_v, cid in terminals:
            v = y[i_v]
            if v <= 0.0:
                raise simulator.SimulationError(
                    f"voltage collapse in component {cid!r} at t = {t:.6g}"
                )
            x[node] = y[i_theta]
            x[n + node] = v
        if bus is not None:
            e_re = e_im = 0.0
            for k, b in lines:
                bv = b * x[n + k]
                e_re += bv * cos(x[k])
                e_im += bv * sin(x[k])
            try:
                x[n + bus], x[bus] = solution(
                    e_re, e_im, coupling, load_p, load_q, x[n + bus], x[bus], sqrt, atan2
                )
            except (ValueError, ZeroDivisionError):
                raise simulator.SimulationError(
                    f"voltage collapse at bus {net.non_ground[bus]!r}, t = {t:.6g}"
                ) from None
        pq = float_injection_loop(net, x)
        # written to take the chord for NaN as well
        if bus is not None and not (
            abs(pq[bus] + load_p) <= tol and abs(pq[n + bus] + load_q) <= tol
        ):
            solved = np.array(x)
            pq = engine._solve_chord(solved, t).tolist()
            x[:] = solved.tolist()
        # the rows of AffineStack, summed in its order
        columns = y + pq
        dy = []
        for c, terms in table:
            acc = 0.0
            for col, val in terms:
                acc += val * columns[col]
            dy.append(acc + c)
        return dy, pq

    return stage


def reference_advance(engine, stage):
    """The float path's RK4 steps on `stage` as loops over lists, ``advance(y,
    dy, x, h, first, stop) -> (y, dy, PQ)``: per step from ``first`` to
    ``stop - 1``, the three inner stages, the stage at the step's end, and
    the trapezoid step of the engine's path integrals between the step's
    endpoints."""

    def advance(y, dy, x, h, first, stop):
        for step in range(first, stop):
            t = step * h
            half = 0.5 * h
            k2, _ = stage([a + half * b for a, b in zip(y, dy)], x, t + half)
            k3, _ = stage([a + half * b for a, b in zip(y, k2)], x, t + half)
            k4, _ = stage([a + h * b for a, b in zip(y, k3)], x, t + h)
            sixth = h / 6.0
            y = [
                a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, dy, k2, k3, k4)
            ]
            dy, pq = stage(y, x, (step + 1) * h)
            now = engine.endpoints(y, pq)
            shifted = list(engine.shifted)
            unshifted = engine.unshifted
            for c, ((theta0, lnv0, p0, q0), (theta1, lnv1, p1, q1), ap, aq) in enumerate(
                zip(engine.prev, now, engine.anchor_p, engine.anchor_q)
            ):
                p_mid = 0.5 * (p0 + p1)
                q_mid = 0.5 * (q0 + q1)
                d_theta = theta1 - theta0
                d_lnv = lnv1 - lnv0
                unshifted += p_mid * d_theta + q_mid * d_lnv
                shifted[c] += (p_mid - ap) * d_theta + (q_mid - aq) * d_lnv
            engine.shifted = shifted
            engine.unshifted = unshifted
            engine.prev = now
        return y, dy, pq

    return advance


class ReferenceEngine(_Engine):
    """A float-path engine whose stage and step are the loop references
    above, rebuilt on every network switch like the generated ones; takes
    the arguments of ``phasorstab.engine._make_engine``."""

    def _steps_for(self, net):
        stage = reference_stage(self, net)
        return stage, reference_advance(self, stage)


def power_injection_loop(net: NetworkModel, x) -> list[float]:
    """:func:`~phasorstab.network.power_injection` as a Python loop over
    ``net.edges`` on the stacked state x = (theta, V), returning the stacked
    (P, Q) as a list of floats. The sines and cosines come from numpy over
    all lines, as in the kernel, and each bus sums its terms from 0.0 in the
    kernel's order: every line's from end, then every line's to end, P
    before Q. So it is the kernel's bit for bit."""
    n = len(x) // 2
    i, k, _ = net.edge_arrays
    d = np.asarray(x)[i] - np.asarray(x)[k]
    sines, cosines = np.sin(d).tolist(), np.cos(d).tolist()
    terms = [[], [], [], []]  # P at the from and to ends, then Q
    for (a, c, b), sin_d, cos_d in zip(net.edges, sines, cosines):
        va, vc = x[n + a], x[n + c]
        bvv = b * va * vc
        flow = bvv * sin_d
        cross = bvv * cos_d
        terms[0].append((a, flow))
        terms[1].append((c, -flow))
        terms[2].append((n + a, b * va * va - cross))
        terms[3].append((n + c, b * vc * vc - cross))
    pq = [0.0] * (2 * n)
    for group in terms:
        for slot, term in group:
            pq[slot] += term
    return pq


def array_reference_stage(engine, net: NetworkModel):
    """The array path's stage on `net` as a closure over loops and the
    kernel :func:`power_injection`, ``stage(y, x, t) -> (dy, PQ)``, written
    in place on x by its angle and voltage rows: check and scatter the
    terminals; solve the passive buses, in closed form through
    :func:`~phasorstab.network.passive_bus_solution` (E summed line by line
    from the numpy sines and cosines) or, coupled, by the tangent predictor
    and the chord iteration; apply the affine table, one pass over its rows. The reference for :class:`~phasorstab.engine._ArrayEngine`,
    which must perform the same floating-point operations in the same
    order."""
    terminals = engine.terminals
    table = engine.affine_rows
    config = engine.config
    pas = engine.passive
    m = len(pas)
    n = net.n_nodes
    loads = np.concatenate([np.array(net.load_p)[pas], np.array(net.load_q)[pas]])
    lines = engine._passive_lines(net)

    def factorize(x, injections, t):
        jac = injection_partials(net, x, injections)
        try:
            engine.jac_inv = np.linalg.inv(jac[engine.passive_block])
        except np.linalg.LinAlgError as exc:
            raise simulator.SimulationError(
                f"algebraic Jacobian singular at t = {t:.6g}: {exc}"
            ) from exc
        engine.factorizations += 1
        if engine.coupled:
            engine.tangent = -(engine.jac_inv @ jac[engine.boundary_block])

    def collapse(node, t):
        return simulator.SimulationError(
            f"voltage collapse at bus {net.non_ground[node]!r}, t = {t:.6g}"
        )

    def chord(x, t):
        last = math.inf
        for it in range(config.newton_max_iter + 1):
            pq = power_injection(net, x)
            r = np.concatenate([pq[pas], pq[n + pas]]) + loads
            worst = float(np.abs(r).max())
            if worst <= config.newton_tol:
                return pq
            if it == config.newton_max_iter:
                break
            if engine.jac_inv is None or worst > CHORD_CONTRACTION * last:
                factorize(x, pq, t)
            last = worst
            step = -(engine.jac_inv @ r)
            scale = 1.0
            v_new = x[n + pas] + step[m:]
            while any(v <= 0.0 for v in v_new.tolist()):
                scale *= 0.5
                if scale < 1e-12:
                    raise collapse(next(node for node, v in zip(pas, v_new) if v <= 0.0), t)
                v_new = x[n + pas] + scale * step[m:]
            x[pas] += scale * step[:m]
            x[n + pas] = v_new
            engine.inner_iterations += 1
        j = int(np.argmax(np.abs(r)))
        raise simulator.SimulationError(
            f"inner Newton failed at t = {t:.6g} (residual {worst:.3e}, "
            f"{'Q' if j >= m else 'P'} balance at bus {net.non_ground[pas[j % m]]!r})"
        )

    def closed_form(x, t):
        nbr = np.array([k for _, k, _ in lines], dtype=np.intp)
        bv = np.array([b for _, _, b in lines]) * x[n + nbr]
        e_re, e_im = np.zeros(m), np.zeros(m)
        for (j, _, _), w_re, w_im in zip(lines, (bv * np.cos(x[nbr])).tolist(),
                                         (bv * np.sin(x[nbr])).tolist()):
            e_re[j] += w_re
            e_im[j] += w_im
        with np.errstate(divide="ignore", invalid="ignore"):
            v_pas, a_pas = network.passive_bus_solution(
                e_re, e_im, np.array(net.coupling_sum)[pas], loads[:m], loads[m:],
                x[n + pas], x[pas],
            )
        for node, v in zip(pas, v_pas.tolist()):
            if not v > 0.0:
                raise collapse(node, t)
        x[n + pas] = v_pas
        x[pas] = a_pas

    def stage(y, x, t):
        for node, i_theta, i_v, cid in terminals:
            if y[i_v] <= 0.0:
                raise simulator.SimulationError(
                    f"voltage collapse in component {cid!r} at t = {t:.6g}"
                )
            x[node] = y[i_theta]
            x[n + node] = y[i_v]
        engine.inner_solves += 1
        if not engine.coupled:
            closed_form(x, t)
            pq = chord(x, t)
        else:
            nodes = engine.boundary_nodes
            boundary = np.concatenate([x[nodes], x[n + nodes]])
            if engine.tangent is not None:
                shift = engine.tangent @ (boundary - engine.boundary_state)
                v_pas = x[n + pas] + shift[m:]
                if all(v > 0.0 for v in v_pas.tolist()):
                    x[pas] += shift[:m]
                    x[n + pas] = v_pas
            pq = chord(x, t)
            engine.boundary_state = boundary
        # the rows of AffineStack, summed in its order
        columns = y.tolist() + pq.tolist()
        dy = []
        for c, terms in table:
            acc = 0.0
            for col, val in terms:
                acc += val * columns[col]
            dy.append(acc + c)
        return np.array(dy), pq

    return stage


def array_reference_advance(engine, stage):
    """The array path's RK4 steps on `stage`, ``advance(y, dy, x, h, first,
    stop) -> (y, dy, PQ)``: the stages and the combination as
    array expressions, the trapezoid step of the path integrals component
    by component (ln v from numpy, the unshifted step summed with
    ``np.sum``)."""

    def advance(y, dy, x, h, first, stop):
        for step in range(first, stop):
            t = step * h
            half = 0.5 * h
            k2, _ = stage(y + half * dy, x, t + half)
            k3, _ = stage(y + half * k2, x, t + half)
            k4, _ = stage(y + h * k3, x, t + h)
            y = y + (h / 6.0) * (dy + 2.0 * (k2 + k3) + k4)
            dy, pq = stage(y, x, (step + 1) * h)
            now = engine.endpoints(y, pq)
            steps = []
            for c, (before, after, ap, aq) in enumerate(
                zip(engine.prev, now, engine.anchor_p, engine.anchor_q)
            ):
                (theta0, lnv0, p0, q0), (theta1, lnv1, p1, q1) = before, after
                p_mid = 0.5 * (p0 + p1)
                q_mid = 0.5 * (q0 + q1)
                d_theta = theta1 - theta0
                d_lnv = lnv1 - lnv0
                steps.append(p_mid * d_theta + q_mid * d_lnv)
                engine.shifted[c] += (p_mid - ap) * d_theta + (q_mid - aq) * d_lnv
            engine.unshifted += float(np.sum(steps))
            engine.prev = now
        return y, dy, pq

    return advance


class ArrayReferenceEngine(_ArrayEngine):
    """An array-path engine whose stage and step are the references above,
    with the integrals' endpoints as (theta, ln v, P, Q) per component;
    takes the arguments of ``phasorstab.engine._make_engine``."""

    def _steps_for(self, net):
        self.tangent = None
        stage = array_reference_stage(self, net)
        return stage, array_reference_advance(self, stage)

    def endpoints(self, y, pq):
        n = len(pq) // 2
        lnv = np.log(y[[i_v for _, _, i_v, _ in self.terminals]]).tolist()
        return [
            (float(y[i_theta]), ln, float(pq[node]), float(pq[n + node]))
            for (node, i_theta, _, _), ln in zip(self.terminals, lnv)
        ]
