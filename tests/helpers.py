"""Finite-difference and alternative-coordinate references used only by tests."""

from __future__ import annotations

import numpy as np

from phasorstab.components import Component
from phasorstab.equilibrium import steady_state_residual
from phasorstab.network import NetworkModel, injection_partials, power_injection


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
