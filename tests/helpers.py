"""Finite-difference, alternative-coordinate and complex-arithmetic references
used only by tests."""

from __future__ import annotations

import math

import numpy as np

from phasorstab.components import Anchor, Component, SupplyConvention, supply_rate
from phasorstab.equilibrium import steady_state_residual
from phasorstab.network import BusState, NetworkModel, injection_partials, power_injection


def fd_jacobian(
    net: NetworkModel,
    components: dict[str, Component],
    V,
    theta,
    step: float = 1e-7,
) -> np.ndarray:
    """Central finite-difference Jacobian of the steady-state residual; an
    oracle for the analytic one."""
    n = net.n_nodes
    jac = np.zeros((2 * n, 2 * n))
    v = np.array(V, dtype=float)
    t = np.array(theta, dtype=float)
    for k in range(n):
        for sel, col in ((0, 2 * k), (1, 2 * k + 1)):
            tv, vv = t.copy(), v.copy()
            if sel == 0:
                tv[k] += step
            else:
                vv[k] += step
            r_plus = steady_state_residual(net, components, vv, tv)
            tv, vv = t.copy(), v.copy()
            if sel == 0:
                tv[k] -= step
            else:
                vv[k] -= step
            r_minus = steady_state_residual(net, components, vv, tv)
            jac[:, col] = (r_plus - r_minus) / (2.0 * step)
    return jac


def hessian_vp_polar(net: NetworkModel, V, theta) -> np.ndarray:
    """Hessian of Vp in (theta, V) coordinates, 2n x 2n.

    This is the curvature of the divergence anchored linearly in V rather
    than ln V. The two anchorings are different functions, so their
    Hessians at the same state are not congruent in general: loads
    contribute -q0/V^2 here and nothing in (theta, ln V).

    The V gradient is (Q_i + q0_i) / V_i, so the rows of the Q partials are
    divided by V_i and its diagonal loses (Q_i + q0_i) / V_i^2.
    """
    p, q = power_injection(net, V, theta)
    dp_dt, dp_dv, dq_dt, dq_dv = injection_partials(net, V, theta, (p, q))
    v = np.asarray(V, dtype=float)
    rows = v[:, None]
    curvature = np.diag((q + net.load_q) / v**2)
    return np.block([[dp_dt, dp_dv], [dq_dt / rows, dq_dv / rows - curvature]])


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
        s = supply_rate(dp, dq, f[i_theta], x[i_v], f[i_v], convention)
        return comp.storage_rate(x, u, anchor) - s

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
    state: BusState,
    dynamic_injections: dict[str, tuple[float, float]] | None = None,
) -> list[complex]:
    """Complex nodal current-balance residual per non-ground bus.

    Shunt components contribute injected current conj((P + jQ)/Vbar) with
    generation-positive (P, Q); constant-power branches contribute
    conj(-(p0 + j q0)/Vbar); line currents are subtracted. A solved state
    has residual ~0 everywhere.
    """
    dynamic_injections = dynamic_injections or {}
    vbar = state.phasors()
    res = [0j] * net.n_nodes
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        gp, gq = dynamic_injections.get(shunt.component_id, (0.0, 0.0))
        res[i] += (complex(gp, gq) / vbar[i]).conjugate()
    for cp in net.constant_power:
        i = net.node_index[cp.bus]
        # BusState enforces V > 0, so the 1/Vbar here cannot be singular
        res[i] += (complex(-cp.p0, -cp.q0) / vbar[i]).conjugate()
    for line in net.lines:
        i = net.node_index[line.from_bus]
        k = net.node_index[line.to_bus]
        cur = line.admittance * (vbar[i] - vbar[k])
        res[i] -= cur
        res[k] += cur
    return res


def power_injection_loop(net: NetworkModel, V, theta) -> tuple[list[float], list[float]]:
    """:func:`~phasorstab.network.power_injection` as a Python loop over
    ``net.edges``, returning lists of floats; a reference for the array
    kernel and for the simulator's float stage."""
    p = [0.0] * len(V)
    q = p.copy()
    for i, k, b in net.edges:
        vi = V[i]
        vk = V[k]
        d = theta[i] - theta[k]
        vv = vi * vk
        flow = b * vv * math.sin(d)
        cross = vv * math.cos(d)
        p[i] += flow
        p[k] -= flow
        q[i] += b * (vi * vi - cross)
        q[k] += b * (vk * vk - cross)
    return p, q
