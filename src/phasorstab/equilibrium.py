"""Damped-Newton steady-state solver and setpoint back-solver.

The steady-state system stacks, per non-ground bus, either the component's
equilibrium relations (dynamic bus) or the constant-power balance (passive
bus), over unknowns (theta_i, V_i) interleaved per bus; the iterate is the
stacked bus state x = (theta, V) of :mod:`phasorstab.network`. The
relations are each component's ``steady_state_partials`` times its
deviations from the setpoints, evaluated for all dynamic buses at once.
When no relation has a theta coefficient the system is invariant under
uniform angle shifts; in that case the reference bus's angle-type row is
replaced by a pin to its setpoint and the replaced relation is checked
after convergence, so inconsistent setpoints are reported rather than
silently absorbed.

The Jacobian is assembled from the same closed-form injection partials used
by the power-flow map. Solves are deterministic and independent of each
other.
"""

from __future__ import annotations

import math

import numpy as np

from .components import Anchor, Component, Setpoints
from .network import (
    BusState,
    NetworkModel,
    injection_partials,
    power_injection,
)
from .records import field, recordclass

__all__ = [
    "EquilibriumError",
    "InconsistentInput",
    "EquilibriumSolution",
    "SetpointSolution",
    "solve_equilibrium",
    "solve_setpoints",
    "steady_state_residual",
]

TOL = 1e-10                  # max-norm residual at which Newton stops
MAX_ITER = 50                # Newton iterations before giving up
CONSISTENCY_TOL = 1e-8       # tolerance on a pinned-out steady-state relation
LOAD_MATCH_TOL = 1e-2        # declared vs implied load when back-solving


class EquilibriumError(RuntimeError):
    """Newton failure: non-convergence or singular Jacobian."""


class InconsistentInput(ValueError):
    """Setpoints or operating point incompatible with the network."""


@recordclass
class EquilibriumSolution:
    state: BusState  # the solved stacked bus state x = (theta, V)
    # each component's terminal (P, Q, V, theta), P and Q generation-positive
    anchors: dict[str, Anchor]
    residual_norm: float
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    pinned_reference: bool = False


@recordclass
class SetpointSolution:
    setpoints: dict[str, Setpoints]            # keyed by component id
    implied_loads: dict[str, tuple[float, float]]  # consumption-positive, by bus


def steady_state_residual(
    net: NetworkModel, components: dict[str, Component], x
) -> np.ndarray:
    """Steady-state residual at the stacked bus state x, two rows per
    non-ground bus.

    Dynamic bus: the component's equilibrium relations evaluated at the bus
    injections. Passive bus: generation balance P_i + p0 = 0, Q_i + q0 = 0
    (loads consumption-positive, so an empty bus balances at zero flow).
    """
    x = np.asarray(x, dtype=float)
    return _residual(net, _steady_rows(net, components), x, power_injection(net, x))


def _residual(net: NetworkModel, steady_rows, x, pq) -> np.ndarray:
    """:func:`steady_state_residual` given :func:`_steady_rows` and the
    stacked injections (P, Q) at the state."""
    _, dyn, rows, setpoints = steady_rows
    n = net.n_nodes
    res = np.empty(2 * n)
    res[0::2] = pq[:n] + net.load_p
    res[1::2] = pq[n:] + net.load_q
    # coefficient times deviation, by relation, column and node
    terms = rows * (np.array([x[dyn], x[n + dyn], pq[dyn], pq[n + dyn]]) - setpoints)
    res.reshape(-1, 2)[dyn] = (((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3]).T
    return res


def _steady_rows(net: NetworkModel, components: dict[str, Component]):
    """What the residual and :func:`_jacobian` need of the components, read
    once per solve: the index that interleaves the injection Jacobian's
    rows (P then Q) and columns (theta then V) per bus, the dynamic nodes,
    their components' ``steady_state_partials`` as one array by relation,
    column (theta, V, P, Q) and node, and their setpoints (theta_e, V_e,
    P_e, Q_e) by node."""
    # (P_0, Q_0, P_1, ...) and (theta_0, V_0, theta_1, ...)
    order = np.arange(2 * net.n_nodes).reshape(2, -1).T.ravel()
    dyn = np.array(net.dynamic_nodes(), dtype=np.intp)
    comps = [components[net.shunt_at[i].component_id] for i in dyn]
    rows = np.array([c.steady_state_partials() for c in comps]).reshape(len(dyn), 2, 4)
    setpoints = np.array(
        [(sp.theta_e, sp.V_e, sp.P_e, sp.Q_e) for sp in (c._sp() for c in comps)]
    ).reshape(len(dyn), 4)
    return np.ix_(order, order), dyn, rows.transpose(1, 2, 0), setpoints.T


def _jacobian(net: NetworkModel, steady_rows, x, injections=None) -> np.ndarray:
    """Analytic Jacobian of the steady-state residual w.r.t. (theta_i, V_i).

    A passive bus's rows are its injection partials; a dynamic bus's rows
    combine them with the component's partials by P and Q, plus its direct
    dependence on the bus's own (theta, V), for all dynamic buses at once.
    ``steady_rows`` is :func:`_steady_rows`; ``injections`` is the stacked
    (P, Q) at the state, if the caller holds it.
    """
    interleave, dyn, rows, _ = steady_rows
    # rows (P_0, Q_0, P_1, ...), columns (theta_0, V_0, theta_1, ...)
    jac = injection_partials(net, x, injections)[interleave]
    at = 2 * dyn  # each dynamic bus's P row and theta column
    p_rows = jac[at]
    q_rows = jac[at + 1]
    for row, (d_theta, d_v, d_p, d_q) in zip((at, at + 1), rows):
        jac[row] = d_p[:, None] * p_rows + d_q[:, None] * q_rows
        jac[row, at] += d_theta
        jac[row, at + 1] += d_v
    return jac


def _worst_row(net: NetworkModel, res: np.ndarray) -> str:
    """The largest entry of a steady-state residual (the first that is not
    finite, if any) and where it sits: the P or Q balance of a passive bus,
    or the first or second relation of a dynamic bus's component."""
    row = int(np.argmax(np.abs(res)))  # argmax stops at the first NaN
    i, second = divmod(row, 2)
    shunt = net.shunt_at[i]
    if shunt is None:
        what = "Q balance" if second else "P balance"
    else:
        what = f"relation {second + 1} of {shunt.component_id!r}"
    return f"residual {abs(res[row]):.3e}, {what} at bus {net.non_ground[i]!r}"


def solve_equilibrium(
    net: NetworkModel,
    components: dict[str, Component],
    initial=None,
) -> EquilibriumSolution:
    """Newton solve of the whole-system steady state.

    ``components`` is keyed by component id. Starts from the stacked bus
    state ``initial`` (flat theta = 0, V = 1 by default), damps by halving
    on residual increase, and stops at max-norm residual <= TOL. For
    rotation-symmetric systems the angle row of the reference bus (the
    first dynamic bus, otherwise the first non-ground bus) is pinned; its
    displaced relation is then verified against CONSISTENCY_TOL.
    """
    for shunt in net.dynamic_shunts:
        if shunt.component_id not in components:
            raise InconsistentInput(
                f"no component supplied for id {shunt.component_id!r}"
            )
    n = net.n_nodes
    x = np.array([0.0] * n + [1.0] * n if initial is None else initial, dtype=float)
    if x.shape != (2 * n,):
        raise InconsistentInput("initial guess has wrong length")

    steady_rows = _steady_rows(net, components)
    _, dyn, rows, setpoints = steady_rows
    pin = not rows[:, 0].any()
    ref = dyn[0] if len(dyn) else 0
    ref_row = 2 * ref  # the angle-type relation of the reference bus
    if pin:
        theta_pin = setpoints[0, 0] if len(dyn) else 0.0
        x[ref] = theta_pin

    def residual(xx):
        """Residual with the reference row pinned, and the injections (P, Q)."""
        inj = power_injection(net, xx)
        res = _residual(net, steady_rows, xx, inj)
        if pin:
            res[ref_row] = xx[ref] - theta_pin
        return res, inj

    res, inj = residual(x)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    iterations = 0
    # the comparisons are written to fail for NaN as well
    while not norm <= TOL:
        if not math.isfinite(norm):
            raise EquilibriumError(
                f"residual not finite at iteration {iterations} "
                f"({_worst_row(net, res)})"
            )
        if iterations >= MAX_ITER:
            raise EquilibriumError(
                f"Newton did not converge in {MAX_ITER} iterations "
                f"({_worst_row(net, res)})"
            )
        jac = _jacobian(net, steady_rows, x, inj)
        if pin:
            jac[ref_row, :] = 0.0
            jac[ref_row, 2 * ref] = 1.0
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumError(
                f"Jacobian singular at iteration {iterations}: {exc}"
            ) from exc
        # the step's theta entries, then its V entries, as in x
        step = np.concatenate([step[0::2], step[1::2]])
        scale = 1.0
        for _ in range(30):
            x_new = x + scale * step
            if np.any(x_new[n:] <= 0.0):
                scale *= 0.5
                continue
            res_new, inj_new = residual(x_new)
            norm_new = float(np.max(np.abs(res_new)))
            if norm_new < norm or norm_new <= TOL:
                break
            scale *= 0.5
        else:
            raise EquilibriumError(
                f"Newton stalled at iteration {iterations} ({_worst_row(net, res)})"
            )
        x, res, inj, norm = x_new, res_new, inj_new, norm_new
        history.append(norm)
        iterations += 1

    if pin:
        pin_resid = float(abs(_residual(net, steady_rows, x, inj)[ref_row]))
        if not pin_resid <= CONSISTENCY_TOL:
            raise InconsistentInput(
                f"setpoints inconsistent: pinned relation at bus "
                f"{net.non_ground[ref]!r} has residual {pin_resid:.3e}"
            )

    pq, xs = inj.tolist(), x.tolist()
    anchors: dict[str, Anchor] = {}
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        anchors[shunt.component_id] = Anchor(
            P=pq[i], Q=pq[n + i], V=xs[n + i], theta=xs[i]
        )
    return EquilibriumSolution(
        state=BusState(x),
        anchors=anchors,
        residual_norm=norm,
        iterations=iterations,
        residual_history=history,
        pinned_reference=pin,
    )


def solve_setpoints(
    net: NetworkModel,
    components: dict[str, Component],
    x,
) -> SetpointSolution:
    """Back-solve component setpoints from a target operating point, the
    stacked bus state x.

    Given bus voltages and angles, the natural setpoint choice
    (P_e, Q_e, V_e, theta_e) = (P_i, Q_i, V_i, theta_i) makes every
    steady-state relation vanish identically. Declared constant-power loads
    are compared against the implied ones; a mismatch beyond LOAD_MATCH_TOL
    (for example a target voltage that violates the load balance) is
    reported as inconsistent input.
    """
    n = net.n_nodes
    if len(x) != 2 * n:
        raise InconsistentInput("operating point has wrong length")
    op = BusState(x)  # raises for V <= 0
    pq, xs = power_injection(net, op.x).tolist(), op.x.tolist()
    setpoints: dict[str, Setpoints] = {}
    implied: dict[str, tuple[float, float]] = {}
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        setpoints[shunt.component_id] = Setpoints(
            P_e=pq[i], Q_e=pq[n + i], V_e=xs[n + i], theta_e=xs[i]
        )
    bad: list[str] = []
    for i in net.passive_nodes():
        bus = net.non_ground[i]
        implied[bus] = (-pq[i], -pq[n + i])  # consumption-positive
        declared_p = net.load_p[i]
        declared_q = net.load_q[i]
        dp = declared_p - implied[bus][0]
        dq = declared_q - implied[bus][1]
        if abs(dp) > LOAD_MATCH_TOL or abs(dq) > LOAD_MATCH_TOL:
            bad.append(
                f"{bus}: declared ({declared_p:.6g}, {declared_q:.6g}) vs "
                f"implied ({implied[bus][0]:.6g}, {implied[bus][1]:.6g})"
            )
    if bad:
        raise InconsistentInput(
            "operating point violates constant-power balance: " + "; ".join(bad)
        )
    return SetpointSolution(setpoints=setpoints, implied_loads=implied)
