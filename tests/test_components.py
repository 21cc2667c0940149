"""Dynamic component models, storages, supply rates, local certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstab.components import (
    EIG_TOL,
    AffineStack,
    Anchor,
    DroopComponent,
    Setpoints,
    SupplyConvention,
    VsgComponent,
    local_certificate,
    supply_rate,
)
from phasorstab.equilibrium import steady_state_residual
from phasorstab.network import power_injection

from conftest import float_path_cases, stacked
from helpers import stencil_certificate_matrix

SP = Setpoints(P_e=0.2, Q_e=0.1, V_e=1.0, theta_e=0.05)


def rest_at(sp):
    """The anchor at which a component with setpoints `sp` rests."""
    return Anchor(P=sp.P_e, Q=sp.Q_e, V=sp.V_e, theta=sp.theta_e)


REST = rest_at(SP)


def vsg(**overrides):
    params = dict(id="v1", bus="a", M=0.16, Dp=0.076, Dq=0.03, tau_q=0.3, setpoints=SP)
    params.update(overrides)
    return VsgComponent(**params)


def droop(**overrides):
    params = dict(
        id="d1", bus="b", tau_p=6.56, tau_q=8.0, Dp=0.02, Dq=0.02, setpoints=SP
    )
    params.update(overrides)
    return DroopComponent(**params)


# -- derivatives --------------------------------------------------------------


def test_vsg_is_stationary_at_setpoints():
    c = vsg()
    x = (SP.theta_e, 0.0, SP.V_e)
    assert c.derivative(x, (SP.P_e, SP.Q_e)) == (0.0, 0.0, 0.0)


def test_vsg_frequency_damping_rate():
    c = vsg()
    _, omega_dot, _ = c.derivative((SP.theta_e, 0.1, SP.V_e), (SP.P_e, SP.Q_e))
    assert omega_dot == pytest.approx(-0.076 * 0.1 / 0.16, rel=1e-12)
    assert omega_dot == pytest.approx(-0.0475, abs=1e-12)


def test_vsg_voltage_relaxation_rate():
    c = vsg()
    _, _, v_dot = c.derivative((SP.theta_e, 0.0, SP.V_e + 0.01), (SP.P_e, SP.Q_e))
    assert v_dot == pytest.approx(-0.01 / 0.3, rel=1e-12)


def test_droop_is_stationary_at_setpoints():
    c = droop()
    assert c.derivative((SP.theta_e, SP.V_e), (SP.P_e, SP.Q_e)) == (0.0, 0.0)


def test_droop_angle_response_to_power_excess():
    c = droop()
    theta_dot, _ = c.derivative((SP.theta_e, SP.V_e), (SP.P_e + 1.0, SP.Q_e))
    assert theta_dot == pytest.approx(-0.02 / 6.56, rel=1e-12)


def test_droop_voltage_response_to_reactive_excess():
    c = droop()
    _, v_dot = c.derivative((SP.theta_e, SP.V_e), (SP.P_e, SP.Q_e + 1.0))
    assert v_dot == pytest.approx(-0.0025, abs=1e-15)


def test_parameter_positivity_enforced():
    with pytest.raises(ValueError, match="M must be positive"):
        vsg(M=0.0)
    with pytest.raises(ValueError, match="tau_p must be positive"):
        droop(tau_p=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(value):
    with pytest.raises(ValueError, match="M must be positive and finite"):
        vsg(M=value)
    with pytest.raises(ValueError, match="Dq must be positive and finite"):
        droop(Dq=value)


def test_derivative_is_smooth_near_equilibrium():
    # finite-difference Jacobians at shrinking steps agree: C1 in a
    # neighborhood of the setpoint state
    c = vsg()
    x0 = np.array([SP.theta_e, 0.0, SP.V_e])
    u = (SP.P_e, SP.Q_e)

    def jac(step):
        j = np.zeros((3, 3))
        for k in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += step
            xm[k] -= step
            fp = c.derivative(tuple(xp), u)
            fm = c.derivative(tuple(xm), u)
            j[:, k] = [(a - b) / (2 * step) for a, b in zip(fp, fm)]
        return j

    assert np.allclose(jac(1e-5), jac(1e-6), rtol=1e-5, atol=1e-8)


# -- the stacked affine map ----------------------------------------------------


positive = st.floats(0.01, 10.0)


@st.composite
def component_sets(draw):
    """Between one and six components of either model, with random
    parameters and setpoints, on distinct buses of a larger network."""
    comps = []
    for j in range(draw(st.integers(1, 6))):
        sp = Setpoints(*draw(st.tuples(
            st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.5, 1.5), st.floats(-1.0, 1.0)
        )))
        if draw(st.booleans()):
            comps.append(VsgComponent(f"c{j}", f"b{j}", *draw(st.tuples(*[positive] * 4)), sp))
        else:
            comps.append(DroopComponent(f"c{j}", f"b{j}", *draw(st.tuples(*[positive] * 4)), sp))
    n_buses = len(comps) + draw(st.integers(0, 3))
    buses = draw(st.permutations(range(n_buses)))[: len(comps)]
    return comps, buses, n_buses


@settings(max_examples=80, deadline=None)
@given(case=component_sets(), seed=st.integers(0, 2**32 - 1))
def test_stacked_map_is_every_components_derivative(case, seed):
    comps, buses, n_buses = case
    stack = AffineStack(comps, buses, n_buses)
    rng = np.random.default_rng(seed)
    ny = sum(c.nstates for c in comps)
    y = rng.uniform(-1.0, 1.0, ny)
    P, Q = rng.uniform(-2.0, 2.0, (2, n_buses))
    dy = stack(y, np.concatenate([P, Q]))
    assert dy.shape == (ny,) and dy.dtype == np.float64
    dense = np.zeros((ny, ny + 2 * n_buses))
    dense[stack.rows, stack.cols] = stack.vals
    lo = 0
    for comp, bus in zip(comps, buses):
        hi = lo + comp.nstates
        f = np.array(comp.derivative(y[lo:hi], (P[bus], Q[bus])))
        d_f = comp.affine_matrix()
        z = np.concatenate([y[lo:hi], [P[bus], Q[bus]]])
        # rounding is relative to the terms summed, which may cancel
        scale = np.abs(d_f) @ np.abs(z) + np.abs(comp.affine_offset())
        assert np.all(np.abs(dy[lo:hi] - f) <= 1e-14 * scale)
        # the stack holds the table at the component's states and bus
        cols = [*range(lo, hi), ny + bus, ny + n_buses + bus]
        assert np.array_equal(dense[lo:hi][:, cols], d_f)
        lo = hi
    # nothing outside the components' own blocks
    assert np.count_nonzero(dense) == sum(np.count_nonzero(c.affine_matrix()) for c in comps)


# -- members the base derives, against the formulas the models once wrote ------


def written_table(c):
    """(D_f, c) as each model wrote them out."""
    sp = c.setpoints
    if isinstance(c, VsgComponent):
        return (
            np.array([
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [0.0, -c.Dp / c.M, 0.0, -1.0 / c.M, 0.0],
                [0.0, 0.0, -1.0 / c.tau_q, 0.0, -c.Dq / c.tau_q],
            ]),
            np.array([0.0, sp.P_e / c.M, (sp.V_e + c.Dq * sp.Q_e) / c.tau_q]),
        )
    return (
        np.array([
            [-1.0 / c.tau_p, 0.0, -c.Dp / c.tau_p, 0.0],
            [0.0, -1.0 / c.tau_q, 0.0, -c.Dq / c.tau_q],
        ]),
        np.array([
            (sp.theta_e + c.Dp * sp.P_e) / c.tau_p,
            (sp.V_e + c.Dq * sp.Q_e) / c.tau_q,
        ]),
    )


def written_relations(c):
    """The equilibrium relations' partials by (theta, V, P, Q), as each
    model wrote them out."""
    if isinstance(c, VsgComponent):
        return np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, c.Dq]])
    return np.array([[1.0, 0.0, c.Dp, 0.0], [0.0, 1.0, 0.0, c.Dq]])


def written_residual(c, theta, V, P, Q):
    sp = c.setpoints
    if isinstance(c, VsgComponent):
        return (P - sp.P_e, (V - sp.V_e) + c.Dq * (Q - sp.Q_e))
    return (
        (theta - sp.theta_e) + c.Dp * (P - sp.P_e),
        (V - sp.V_e) + c.Dq * (Q - sp.Q_e),
    )


setpoint_value = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(
    is_vsg=st.booleans(),
    params=st.tuples(*[positive] * 4),
    sp=st.builds(Setpoints, *[setpoint_value] * 4),
)
def test_derived_members_match_the_written_formulas(is_vsg, params, sp):
    cls = VsgComponent if is_vsg else DroopComponent
    c = cls("c", "b", *params, sp)
    d_f, offset = written_table(c)
    assert c.affine_matrix().tobytes() == d_f.tobytes()
    # a setpoint of -0.0 gives an offset entry 0.0 where the written form
    # gave -0.0; "+ 0.0" on the reference changes only that
    assert c.affine_offset().tobytes() == (offset + 0.0).tobytes()
    x_e = c.equilibrium_state(sp.theta_e, sp.V_e)
    assert all(f == 0.0 for f in c.derivative(x_e, (sp.P_e, sp.Q_e)))
    # the relations are table rows over their leading entry: the unit and
    # zero coefficients come out exact, Dp and Dq from a quotient of two
    # rounded quotients (within 2 ulp)
    derived, written = c.steady_state_partials(), written_relations(c)
    exact = (written == 0.0) | (written == 1.0)
    assert derived[exact].tobytes() == written[exact].tobytes()
    assert np.all(np.abs(derived - written) <= 4.5e-16 * np.abs(written))


@settings(max_examples=100, deadline=None)
@given(case=float_path_cases())
def test_steady_state_residual_is_the_written_relations(case):
    # on generated networks at drawn states: each dynamic bus's rows are its
    # model's written relations at the bus injections, up to the rounding of
    # Dp and Dq (see above); each passive bus's rows are its balance
    net, comps, _, v, th = case
    n = net.n_nodes
    res = steady_state_residual(net, comps, stacked(v, th))
    p, q = np.split(power_injection(net, stacked(v, th)), 2)
    for i in net.passive_nodes():
        assert (res[i], res[n + i]) == (p[i] + net.load_p[i], q[i] + net.load_q[i])
    for i in net.dynamic_nodes():
        c = comps[net.shunt_at[i].component_id]
        sp = c.setpoints
        deviation = np.array([th[i] - sp.theta_e, v[i] - sp.V_e, p[i] - sp.P_e, q[i] - sp.Q_e])
        scale = np.abs(written_relations(c)) @ np.abs(deviation)
        written = written_residual(c, th[i], v[i], p[i], q[i])
        assert np.all(np.abs(res[[i, n + i]] - written) <= 1e-15 * scale)


# -- storage -------------------------------------------------------------------


def test_storage_vanishes_at_anchor():
    assert vsg().storage((SP.theta_e, 0.0, SP.V_e), REST) == pytest.approx(0.0, abs=1e-15)
    assert droop().storage((SP.theta_e, SP.V_e), REST) == pytest.approx(0.0, abs=1e-15)


def test_vsg_kinetic_term():
    c = vsg()
    w = c.storage((SP.theta_e, 0.2, SP.V_e), REST)
    assert w == pytest.approx(0.5 * 0.16 * 0.04, rel=1e-12)


def test_vsg_voltage_well_value():
    sp = Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0)
    w = vsg(setpoints=sp).storage((0.0, 0.0, 1.1), rest_at(sp))
    assert w == pytest.approx((1.0 / 0.03) * (0.1 - math.log(1.1)), rel=1e-9)
    assert w == pytest.approx(0.15632733985583805, rel=1e-9)


@pytest.mark.parametrize("v", np.linspace(0.5, 2.0, 13))
def test_voltage_well_positive_away_from_anchor(v):
    sp = Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0)
    w = vsg(setpoints=sp).storage((0.0, 0.0, v), rest_at(sp))
    if abs(v - 1.0) < 1e-12:
        assert w == pytest.approx(0.0, abs=1e-14)
    else:
        assert w > 0.0


@pytest.mark.parametrize("make", [vsg, droop])
def test_storage_gradient_vanishes_at_anchor(make):
    c = make()
    x_e = c.equilibrium_state(SP.theta_e, SP.V_e)
    grads = c.storage_gradient(x_e, REST)
    assert max(abs(g) for g in grads) <= 1e-12

    # finite-difference gradient agrees and the Hessian is positive
    # semidefinite with strict curvature in the stored directions
    eps = 1e-6
    n = c.nstates
    h = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            xpp = list(x_e); xpp[a] += eps; xpp[b] += eps
            xpm = list(x_e); xpm[a] += eps; xpm[b] -= eps
            xmp = list(x_e); xmp[a] -= eps; xmp[b] += eps
            xmm = list(x_e); xmm[a] -= eps; xmm[b] -= eps
            h[a, b] = (
                c.storage(tuple(xpp), REST)
                - c.storage(tuple(xpm), REST)
                - c.storage(tuple(xmp), REST)
                + c.storage(tuple(xmm), REST)
            ) / (4 * eps * eps)
    eigs = np.linalg.eigvalsh(h)
    stored_dims = n - (1 if isinstance(c, VsgComponent) else 0)
    assert eigs[-stored_dims] > 0.0
    assert eigs[0] >= -1e-4  # theta direction is flat for the swing source


@settings(max_examples=60, deadline=None)
@given(
    d_theta=st.floats(min_value=-0.3, max_value=0.3),
    d_omega=st.floats(min_value=-0.3, max_value=0.3),
    d_v=st.floats(min_value=-0.2, max_value=0.2),
    dp=st.floats(min_value=-0.5, max_value=0.5),
    dq=st.floats(min_value=-0.5, max_value=0.5),
)
def test_storage_rate_matches_directional_difference(d_theta, d_omega, d_v, dp, dq):
    c = vsg()
    x = (SP.theta_e + d_theta, d_omega, SP.V_e + d_v)
    u = (SP.P_e + dp, SP.Q_e + dq)
    f = c.derivative(x, u)
    rate = c.storage_rate(x, f, REST)
    eps = 1e-5
    x_plus = tuple(a + eps * b for a, b in zip(x, f))
    x_minus = tuple(a - eps * b for a, b in zip(x, f))
    fd = (c.storage(x_plus, REST) - c.storage(x_minus, REST)) / (2 * eps)
    assert rate == pytest.approx(fd, rel=1e-6, abs=1e-8)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(["vsg", "droop"]),
    params=st.tuples(*[st.floats(0.01, 5.0)] * 4),
    setpoints=st.tuples(st.floats(-1, 1), st.floats(0.8, 1.2), st.floats(-0.5, 0.5)),
    V_a=st.floats(0.5, 1.5),
    # the anchor's Q in units of V_a / Dq: below -1 is Q_a < -V_a / Dq
    q_ratio=st.floats(-3.0, 3.0),
    P_a=st.floats(-1, 1),
    theta_a=st.floats(-0.5, 0.5),
    x=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.3, 2.0)),
    u=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
)
def test_storage_balances_the_negated_supply_exactly(
    model, params, setpoints, V_a, q_ratio, P_a, theta_a, x, u
):
    # anchored at one of its own rest points, a source's storage rate minus
    # the negated supply is its dissipation and nothing else, at any state
    # with V > 0: -Dp w^2 - tq v_dot^2/(Dq V) for the swing model and
    # -tp theta_dot^2/Dp - tq v_dot^2/(Dq V) for droop
    first, second, Dp, Dq = params
    P_e, V_e, theta_e = setpoints
    Q_a = q_ratio * V_a / Dq
    # the rest point's voltage relation: -(V_a - V_e) - Dq (Q_a - Q_e) = 0
    Q_e = Q_a + (V_a - V_e) / Dq
    if model == "vsg":
        # a swing source rests only at P_a = P_e, at any angle
        P_a = P_e
        sp = Setpoints(P_e=P_e, Q_e=Q_e, V_e=V_e, theta_e=theta_e)
        c = VsgComponent("v", "a", M=first, Dp=Dp, Dq=Dq, tau_q=second, setpoints=sp)
        state = x
    else:
        # the angle relation: -(theta_a - theta_e) - Dp (P_a - P_e) = 0
        sp = Setpoints(P_e=P_e, Q_e=Q_e, V_e=V_e, theta_e=theta_a + Dp * (P_a - P_e))
        c = DroopComponent("d", "a", tau_p=first, tau_q=second, Dp=Dp, Dq=Dq, setpoints=sp)
        state = (x[0], x[2])
    anchor = Anchor(P=P_a, Q=Q_a, V=V_a, theta=theta_a)
    rest = c.derivative(c.equilibrium_state(theta_a, V_a), (P_a, Q_a))
    assert max(map(abs, rest)) <= 1e-12 * (1.0 + abs(Q_a) * Dq)
    dx = c.derivative(state, u)
    V, theta_dot, v_dot = state[-1], dx[0], dx[-1]
    rate = c.storage_rate(state, dx, anchor)
    supply = supply_rate(u[0] - P_a, u[1] - Q_a, theta_dot, V, v_dot)
    voltage = -c.tau_q * v_dot * v_dot / (Dq * V)
    if model == "vsg":
        dissipation = -Dp * state[1] * state[1] + voltage
    else:
        dissipation = -c.tau_p * theta_dot * theta_dot / Dp + voltage
    grad = c.storage_gradient(state, anchor)
    scale = sum(abs(g * d) for g, d in zip(grad, dx)) + abs(supply) + abs(dissipation)
    assert abs(rate - supply - dissipation) <= 1e-12 * scale


# -- supply rate --------------------------------------------------------------


def test_supply_rate_zero_for_zero_deviation():
    assert supply_rate(0.0, 0.0, 0.3, 1.0, -0.1) == 0.0


def test_supply_rate_printed_sign_example():
    # the printed supply dP theta_dot is 0.1 * 0.05; supply_rate negates it
    assert supply_rate(0.1, 0.0, 0.05, 1.0, 0.0) == pytest.approx(-0.005, abs=1e-15)


@given(
    dp=st.floats(min_value=-1, max_value=1),
    dq=st.floats(min_value=-1, max_value=1),
    td=st.floats(min_value=-1, max_value=1),
    vd=st.floats(min_value=-1, max_value=1),
    scale=st.floats(min_value=-3, max_value=3),
)
def test_supply_rate_bilinear(dp, dq, td, vd, scale):
    base = supply_rate(dp, dq, td, 1.2, vd)
    assert supply_rate(scale * dp, scale * dq, td, 1.2, vd) == pytest.approx(
        scale * base, rel=1e-9, abs=1e-12
    )
    assert supply_rate(dp, dq, scale * td, 1.2, scale * vd) == pytest.approx(
        scale * base, rel=1e-9, abs=1e-12
    )


def test_supply_rate_requires_positive_voltage():
    with pytest.raises(ValueError):
        supply_rate(0.1, 0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="got -0.5"):
        supply_rate(np.zeros(3), np.zeros(3), np.zeros(3), np.array([1.0, -0.5, 0.9]), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(
    make=st.sampled_from([vsg, droop]),
    samples=st.lists(
        st.tuples(
            st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(0.7, 1.3),
            st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_diagnostics_over_a_sample_axis_match_per_sample(make, samples):
    c = make()
    anchor = Anchor(P=0.15, Q=0.05, V=0.98, theta=0.02)
    rows = np.array(samples)  # (theta, omega, v, P, Q) per sample
    x = rows[:, :3].T if c.nstates == 3 else rows[:, [0, 2]].T
    u = (rows[:, 3], rows[:, 4])
    i_theta, i_v = c.state_labels.index("theta"), c.state_labels.index("v")
    f = c.derivative(x, u)
    arrays = {
        "storage": c.storage(x, anchor),
        "storage_rate": c.storage_rate(x, f, anchor),
        **{f"derivative[{j}]": f[j] for j in range(c.nstates)},
        "supply": supply_rate(u[0] - anchor.P, u[1] - anchor.Q, f[i_theta], x[i_v], f[i_v]),
    }
    for s in range(len(samples)):
        xs = x[:, s].tolist()
        us = (float(u[0][s]), float(u[1][s]))
        fs = c.derivative(xs, us)
        scalars = {
            "storage": c.storage(xs, anchor),
            "storage_rate": c.storage_rate(xs, fs, anchor),
            **{f"derivative[{j}]": fs[j] for j in range(c.nstates)},
            "supply": supply_rate(
                us[0] - anchor.P, us[1] - anchor.Q, fs[i_theta], xs[i_v], fs[i_v]
            ),
        }
        for name, value in scalars.items():
            assert arrays[name].shape == (len(samples),), name
            assert arrays[name][s] == pytest.approx(value, rel=1e-12, abs=1e-15), name


# -- local quadratic forms ------------------------------------------------------


def test_vsg_zero_reactive_certificate_matches_closed_form():
    sp = Setpoints(P_e=0.15, Q_e=0.0, V_e=1.0, theta_e=0.0)
    c = vsg(setpoints=sp)
    cert = local_certificate(c, rest_at(sp))
    rep = cert.reports[SupplyConvention.NEGATED]
    assert rep.verdict == "holds"
    # rate-minus-supply expands to -Dp w^2 in the frequency pair and
    # -(1/(tq V)) (u + Dq q)(k u/(Dq Ve) + q) in the voltage pair; the
    # report matrix is the full second-derivative (twice the form)
    k = sp.V_e + c.Dq * sp.Q_e
    expected = np.zeros((5, 5))
    idx = {"theta": 0, "omega": 1, "v": 2, "dP": 3, "dQ": 4}
    expected[idx["omega"], idx["omega"]] = -2.0 * c.Dp
    scale = 1.0 / (c.tau_q * sp.V_e)
    expected[idx["v"], idx["v"]] = -2.0 * scale * k / (c.Dq * sp.V_e)
    expected[idx["v"], idx["dQ"]] = expected[idx["dQ"], idx["v"]] = -scale * (
        1.0 + k / sp.V_e
    )
    expected[idx["dQ"], idx["dQ"]] = -2.0 * scale * c.Dq
    assert np.allclose(rep.matrix, expected, atol=1e-12)
    # with k = V_e the voltage block discriminant closes exactly; the top
    # eigenvalue is zero up to rounding on a form of norm ~2e2
    assert rep.eigenvalues[-1] <= 1e-12


def test_vsg_printed_convention_fails():
    sp = Setpoints(P_e=0.15, Q_e=0.0, V_e=1.0, theta_e=0.0)
    cert = local_certificate(vsg(setpoints=sp), rest_at(sp))
    rep = cert.reports[SupplyConvention.PRINTED]
    assert rep.verdict == "fails"
    assert rep.eigenvalues[-1] > 1e-6


def test_droop_zero_reactive_certificate():
    sp = Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0)
    c = droop(setpoints=sp)
    cert = local_certificate(c, rest_at(sp))
    rep = cert.reports[SupplyConvention.NEGATED]
    assert rep.verdict == "holds"
    # angle pair contributes -(1/(tp Dp)) (p + Dp dP)^2
    expected_angle = -(2.0 / (c.tau_p * c.Dp)) * np.array(
        [[1.0, c.Dp], [c.Dp, c.Dp * c.Dp]]
    )
    idx = {"theta": 0, "v": 1, "dP": 2, "dQ": 3}
    block = rep.matrix[np.ix_([idx["theta"], idx["dP"]], [idx["theta"], idx["dP"]])]
    assert np.allclose(block, expected_angle, atol=1e-12)


def test_nonzero_reactive_anchor_keeps_exact_semidefiniteness():
    # the voltage pair is -(1/(tq V Dq)) (u + Dq q)^2 whatever the anchor's
    # Q, so its discriminant is zero and the form stays semidefinite, with
    # Q below -V/Dq (here -1/0.03) too
    for Q_e in (0.4, -60.0):
        sp = Setpoints(P_e=0.1, Q_e=Q_e, V_e=1.0, theta_e=0.0)
        rep = local_certificate(vsg(setpoints=sp), rest_at(sp)).reports[SupplyConvention.NEGATED]
        assert rep.verdict == "holds"
        assert rep.eigenvalues[-1] <= EIG_TOL * np.max(np.abs(rep.eigenvalues))


def _classify(eigs: np.ndarray) -> str:
    tol = EIG_TOL * max(1.0, float(np.max(np.abs(eigs))))
    if eigs[-1] > tol:
        return "fails"
    return "holds" if eigs[0] < -tol else "holds-marginally"


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(["vsg", "droop"]),
    inertia_or_tau_p=st.floats(min_value=0.05, max_value=10.0),
    tau_q=st.floats(min_value=0.05, max_value=10.0),
    Dp=st.floats(min_value=0.01, max_value=1.0),
    Dq=st.floats(min_value=0.01, max_value=0.3),
    P=st.floats(min_value=-1.0, max_value=1.0),
    Q=st.floats(min_value=-0.5, max_value=0.5),
    V=st.floats(min_value=0.8, max_value=1.2),
    theta=st.floats(min_value=-0.5, max_value=0.5),
)
def test_closed_form_certificate_matches_stencil(
    model, inertia_or_tau_p, tau_q, Dp, Dq, P, Q, V, theta
):
    sp = Setpoints(P_e=P, Q_e=Q, V_e=V, theta_e=theta)
    anchor = rest_at(sp)
    if model == "vsg":
        c = vsg(M=inertia_or_tau_p, Dp=Dp, Dq=Dq, tau_q=tau_q, setpoints=sp)
    else:
        c = droop(tau_p=inertia_or_tau_p, Dp=Dp, Dq=Dq, tau_q=tau_q, setpoints=sp)
    cert = local_certificate(c, anchor)
    for convention, rep in cert.reports.items():
        ref = stencil_certificate_matrix(c, anchor, convention)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(rep.matrix - ref)) <= 1e-6 * scale
        # the stencil's error (~1e-8 of the scale) exceeds EIG_TOL, so it can
        # only decide a verdict whose eigenvalues are clear of that band
        stencil_eigs = np.linalg.eigvalsh(ref)
        eig_scale = max(1.0, float(np.max(np.abs(stencil_eigs))))
        if all(
            abs(e) <= 1e-12 * eig_scale or abs(e) >= 1e-6 * eig_scale
            for e in np.concatenate([rep.eigenvalues, stencil_eigs])
        ):
            assert rep.verdict == _classify(stencil_eigs)
