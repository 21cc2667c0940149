"""Damped-Newton steady-state solver and setpoint back-solver.

The steady-state system stacks, per non-ground bus, either the component's
equilibrium relations (dynamic bus) or the constant-power balance (passive
bus), over unknowns (theta_i, V_i). When no component anchors the absolute
angle the system is invariant under uniform angle shifts; in that case the
reference bus's angle-type row is replaced by a pin to its setpoint and the
replaced relation is checked after convergence, so inconsistent setpoints
are reported rather than silently absorbed.

The Jacobian is assembled from the same closed-form injection partials used
by the power-flow map. Solves are deterministic and independent of each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .components import Component, Setpoints
from .network import (
    BusKind,
    BusState,
    NetworkModel,
    injection_partials,
    power_injection,
)

__all__ = [
    "EquilibriumError",
    "InconsistentInput",
    "EquilibriumProblem",
    "EquilibriumSolution",
    "SetpointSolution",
    "solve_equilibrium",
    "solve_setpoints",
    "steady_state_residual",
]

CONSISTENCY_TOL = 1e-8       # tolerance on a pinned-out steady-state relation
LOAD_MATCH_TOL = 1e-2        # declared vs implied load when back-solving


class EquilibriumError(RuntimeError):
    """Newton failure: non-convergence or singular Jacobian."""


class InconsistentInput(ValueError):
    """Setpoints or operating point incompatible with the network."""


@dataclass
class EquilibriumProblem:
    net: NetworkModel
    components: dict[str, Component]  # keyed by component id
    reference_bus: str | None = None  # defaults to the first dynamic bus
    initial_V: np.ndarray | None = None
    initial_theta: np.ndarray | None = None
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self) -> None:
        for shunt in self.net.dynamic_shunts:
            if shunt.component_id not in self.components:
                raise InconsistentInput(
                    f"no component supplied for id {shunt.component_id!r}"
                )
        if self.reference_bus is None:
            dyn = [b.id for b in self.net.buses if b.kind is BusKind.DYNAMIC]
            self.reference_bus = dyn[0] if dyn else self.net.non_ground[0]
        if self.reference_bus not in self.net.node_index:
            raise InconsistentInput(
                f"reference bus {self.reference_bus!r} is not a non-ground bus"
            )


@dataclass
class EquilibriumSolution:
    state: BusState
    component_states: dict[str, tuple[float, ...]]
    injections_P: dict[str, float]  # generation-positive, keyed by component id
    injections_Q: dict[str, float]
    residual_norm: float
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    pinned_reference: bool = False
    pin_consistency_residual: float = 0.0


@dataclass
class SetpointSolution:
    setpoints: dict[str, Setpoints]            # keyed by component id
    implied_loads: dict[str, tuple[float, float]]  # consumption-positive, by bus
    load_mismatch: dict[str, tuple[float, float]]  # declared minus implied


def steady_state_residual(
    net: NetworkModel,
    components: dict[str, Component],
    V,
    theta,
) -> np.ndarray:
    """Stacked steady-state residual, two rows per non-ground bus.

    Dynamic bus: the component's equilibrium relations evaluated at the bus
    injections. Passive bus: generation balance P_i + p0 = 0, Q_i + q0 = 0
    (loads consumption-positive, so an empty bus balances at zero flow).
    """
    return _residual(net, components, V, theta, power_injection(net, V, theta))


def _residual(
    net: NetworkModel,
    components: dict[str, Component],
    V,
    theta,
    injections,
) -> np.ndarray:
    """:func:`steady_state_residual` given the injections (P, Q) at the state."""
    p, q = injections
    res = np.empty(2 * net.n_nodes)
    res[0::2] = p + net.load_p
    res[1::2] = q + net.load_q
    for i in net.dynamic_nodes():
        comp = components[net.shunt_at[i].component_id]
        res[2 * i : 2 * i + 2] = comp.steady_state_residual(theta[i], V[i], p[i], q[i])
    return res


def _jacobian(
    net: NetworkModel,
    components: dict[str, Component],
    V,
    theta,
    injections=None,
) -> np.ndarray:
    """Analytic Jacobian of the steady-state residual w.r.t. (theta_i, V_i).

    A passive bus's rows are its injection partials; a dynamic bus's rows
    combine them with the component's partials by P and Q, plus its direct
    dependence on the bus's own (theta, V). ``injections`` is the (P, Q) at
    the state, if the caller holds it.
    """
    n = net.n_nodes
    dp_dt, dp_dv, dq_dt, dq_dv = injection_partials(net, V, theta, injections)
    # rows (P_0..P_n-1, Q_0..Q_n-1), columns (theta_0.., V_0..)
    jac = np.block([[dp_dt, dp_dv], [dq_dt, dq_dv]])
    for i in net.dynamic_nodes():
        comp = components[net.shunt_at[i].component_id]
        p_row = jac[i].copy()
        q_row = jac[n + i].copy()
        for row, (d_theta, d_v, d_p, d_q) in zip((i, n + i), comp.steady_state_partials()):
            jac[row] = d_p * p_row + d_q * q_row
            jac[row, i] += d_theta
            jac[row, n + i] += d_v
    interleave = np.arange(2 * n).reshape(2, n).T.ravel()
    return jac[np.ix_(interleave, interleave)]


def _rotation_symmetric(net: NetworkModel, components: dict[str, Component]) -> bool:
    """True when no component's steady state depends on absolute angle."""
    return not any(
        components[s.component_id].anchors_angle for s in net.dynamic_shunts
    )


def solve_equilibrium(problem: EquilibriumProblem) -> EquilibriumSolution:
    """Newton solve of the whole-system steady state.

    Starts from the supplied guess (flat V = 1, theta = 0 by default), damps
    by halving on residual increase, and stops at max-norm residual <= tol.
    For rotation-symmetric systems the reference angle row is pinned; its
    displaced relation is then verified against CONSISTENCY_TOL.
    """
    net = problem.net
    comps = problem.components
    n = net.n_nodes
    v = (
        np.array(problem.initial_V, dtype=float)
        if problem.initial_V is not None
        else np.ones(n)
    )
    t = (
        np.array(problem.initial_theta, dtype=float)
        if problem.initial_theta is not None
        else np.zeros(n)
    )
    if v.shape != (n,) or t.shape != (n,):
        raise InconsistentInput("initial guess has wrong length")

    pin = _rotation_symmetric(net, comps)
    ref = net.node_index[problem.reference_bus]
    ref_row = 2 * ref  # the angle-type relation of the reference bus
    ref_shunt = net.shunt_at[ref]
    if pin:
        if ref_shunt is not None:
            theta_pin = comps[ref_shunt.component_id].setpoints.theta_e
        else:
            theta_pin = 0.0
        t[ref] = theta_pin

    def residual(vv, tt):
        """Residual with the reference row pinned, and the injections (P, Q)."""
        inj = power_injection(net, vv, tt)
        res = _residual(net, comps, vv, tt, inj)
        if pin:
            res[ref_row] = tt[ref] - theta_pin
        return res, inj

    res, inj = residual(v, t)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    iterations = 0
    while norm > problem.tol:
        if iterations >= problem.max_iter:
            raise EquilibriumError(
                f"Newton did not converge in {problem.max_iter} iterations "
                f"(residual {norm:.3e})"
            )
        jac = _jacobian(net, comps, v, t, inj)
        if pin:
            jac[ref_row, :] = 0.0
            jac[ref_row, 2 * ref] = 1.0
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumError(
                f"Jacobian singular at iteration {iterations}: {exc}"
            ) from exc
        scale = 1.0
        for _ in range(30):
            t_new = t + scale * step[0::2]
            v_new = v + scale * step[1::2]
            if np.any(v_new <= 0.0):
                scale *= 0.5
                continue
            res_new, inj_new = residual(v_new, t_new)
            norm_new = float(np.max(np.abs(res_new)))
            if norm_new < norm or norm_new <= problem.tol:
                break
            scale *= 0.5
        else:
            raise EquilibriumError(
                f"Newton stalled at iteration {iterations} (residual {norm:.3e})"
            )
        v, t, res, inj, norm = v_new, t_new, res_new, inj_new, norm_new
        history.append(norm)
        iterations += 1

    pin_resid = 0.0
    if pin:
        full = _residual(net, comps, v, t, inj)
        pin_resid = float(abs(full[ref_row]))
        if pin_resid > CONSISTENCY_TOL:
            raise InconsistentInput(
                f"setpoints inconsistent: pinned relation at bus "
                f"{problem.reference_bus!r} has residual {pin_resid:.3e}"
            )

    state = BusState(V=v, theta=t)
    p, q = inj[0].tolist(), inj[1].tolist()
    comp_states: dict[str, tuple[float, ...]] = {}
    inj_p: dict[str, float] = {}
    inj_q: dict[str, float] = {}
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        comp = comps[shunt.component_id]
        comp_states[shunt.component_id] = comp.equilibrium_state(t[i], v[i])
        inj_p[shunt.component_id] = p[i]
        inj_q[shunt.component_id] = q[i]
    return EquilibriumSolution(
        state=state,
        component_states=comp_states,
        injections_P=inj_p,
        injections_Q=inj_q,
        residual_norm=norm,
        iterations=iterations,
        residual_history=history,
        pinned_reference=pin,
        pin_consistency_residual=pin_resid,
    )


def solve_setpoints(
    net: NetworkModel,
    components: dict[str, Component],
    V,
    theta,
    load_tol: float = LOAD_MATCH_TOL,
) -> SetpointSolution:
    """Back-solve component setpoints from a target operating point.

    Given bus voltages and angles, the natural setpoint choice
    (P_e, Q_e, V_e, theta_e) = (P_i, Q_i, V_i, theta_i) makes every
    steady-state relation vanish identically. Declared constant-power loads
    are compared against the implied ones; a mismatch beyond `load_tol`
    (for example a target voltage that violates the load balance) is
    reported as inconsistent input.
    """
    n = net.n_nodes
    if len(V) != n or len(theta) != n:
        raise InconsistentInput("operating point has wrong length")
    if any(val <= 0.0 for val in V):
        raise InconsistentInput("operating point voltages must be positive")
    p, q = (x.tolist() for x in power_injection(net, V, theta))
    setpoints: dict[str, Setpoints] = {}
    implied: dict[str, tuple[float, float]] = {}
    mismatch: dict[str, tuple[float, float]] = {}
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        setpoints[shunt.component_id] = Setpoints(
            P_e=p[i], Q_e=q[i], V_e=V[i], theta_e=theta[i]
        )
    bad: list[str] = []
    for i in net.passive_nodes():
        bus = net.non_ground[i]
        implied[bus] = (-p[i], -q[i])  # consumption-positive
        declared_p = net.load_p[i]
        declared_q = net.load_q[i]
        dp = declared_p - implied[bus][0]
        dq = declared_q - implied[bus][1]
        mismatch[bus] = (dp, dq)
        if abs(dp) > load_tol or abs(dq) > load_tol:
            bad.append(
                f"{bus}: declared ({declared_p:.6g}, {declared_q:.6g}) vs "
                f"implied ({implied[bus][0]:.6g}, {implied[bus][1]:.6g})"
            )
    if bad:
        raise InconsistentInput(
            "operating point violates constant-power balance: " + "; ".join(bad)
        )
    return SetpointSolution(
        setpoints=setpoints, implied_loads=implied, load_mismatch=mismatch
    )
