"""Steady-state solver and setpoint back-solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from phasorstab import equilibrium
from phasorstab.components import Setpoints, VsgComponent
from phasorstab.equilibrium import (
    EquilibriumError,
    InconsistentInput,
    solve_equilibrium,
    solve_setpoints,
    steady_state_residual,
    _jacobian,
    _steady_rows,
)
from phasorstab.network import (
    Bus,
    BusKind,
    ConstantPowerBranch,
    DynamicShunt,
    NetworkModel,
    power_injection,
)

from conftest import float_path_cases
from helpers import fd_jacobian


def test_vsg_pair_reproduces_closed_form_angle(vsg_pair):
    net, comps = vsg_pair
    sol = solve_equilibrium(net, comps)
    assert sol.pinned_reference
    expected = math.asin(0.1)  # P x / (V1 V2) with x = 1 and unit voltages
    assert sol.state.theta[0] - sol.state.theta[1] == pytest.approx(
        expected, abs=1e-10
    )
    assert sol.state.theta[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.state.V[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.residual_norm <= 1e-10


def test_flat_no_load_case_needs_no_correction():
    net = NetworkModel(
        buses=[Bus("a", BusKind.DYNAMIC), Bus("gnd", BusKind.GROUND)],
        lines=[],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "c")],
    )
    comps = {
        "c": VsgComponent(
            id="c", bus="a", M=0.1, Dp=0.1, Dq=0.1, tau_q=0.1,
            setpoints=Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0),
        )
    }
    sol = solve_equilibrium(net, comps)
    assert sol.iterations == 0
    assert sol.state.V[0] == 1.0
    assert sol.state.theta[0] == 0.0


def test_case_equilibrium_matches_operating_point(case3bus, case3bus_solution):
    sol = case3bus_solution
    op = case3bus.operating_point
    assert sol.state.V == pytest.approx(op.V, abs=5e-3)
    assert sol.state.theta == pytest.approx(op.theta, abs=5e-4)
    assert sol.residual_norm <= 1e-10
    assert not sol.pinned_reference  # the droop anchors the angle frame


def test_round_trip_with_implied_loads(case3bus):
    # swapping the declared load for the implied one makes the operating
    # point an exact equilibrium, so the round trip reproduces it
    net = case3bus.net
    op = case3bus.operating_point
    sp = solve_setpoints(net, case3bus.components, op.V, op.theta)
    p_imp, q_imp = sp.implied_loads["bus3"]
    consistent = NetworkModel(
        buses=list(net.buses),
        lines=list(net.lines),
        constant_power=[ConstantPowerBranch("bus3", p_imp, q_imp)],
        dynamic_shunts=list(net.dynamic_shunts),
    )
    comps = {
        cid: case3bus.components[cid].with_setpoints(sp.setpoints[cid])
        for cid in case3bus.components
    }
    sol = solve_equilibrium(consistent, comps)
    assert sol.state.V == pytest.approx(op.V, abs=1e-9)
    assert sol.state.theta == pytest.approx(op.theta, abs=1e-9)
    assert sol.residual_norm <= 1e-10


def test_back_solved_setpoints_frozen_values(case3bus):
    # values recorded from the closed-form injection oracle at the shipped
    # operating point, frozen as regression anchors
    op = case3bus.operating_point
    sp = solve_setpoints(case3bus.net, case3bus.components, op.V, op.theta)
    vsg = sp.setpoints["vsg1"]
    assert vsg.P_e == pytest.approx(0.0118749955468755, abs=1e-12)
    assert vsg.Q_e == pytest.approx(0.41667557291499757, abs=1e-12)
    assert (vsg.V_e, vsg.theta_e) == (1.0, 0.0)
    dro = sp.setpoints["droop2"]
    assert dro.P_e == pytest.approx(0.019197896668843056, abs=1e-12)
    assert dro.Q_e == pytest.approx(0.16169066405000154, abs=1e-12)
    assert (dro.V_e, dro.theta_e) == (0.97, 0.001)
    assert sp.implied_loads["bus3"][0] == pytest.approx(0.03107289221571856, abs=1e-12)
    assert sp.implied_loads["bus3"][1] == pytest.approx(0.5541337630350012, abs=1e-12)


def test_setpoints_of_flat_unloaded_network(vsg_pair):
    net, comps = vsg_pair
    sp = solve_setpoints(net, comps, [1.0, 1.0], [0.0, 0.0])
    for cid in comps:
        s = sp.setpoints[cid]
        assert (s.P_e, s.Q_e, s.V_e, s.theta_e) == (0.0, 0.0, 1.0, 0.0)


def test_setpoints_reject_infeasible_operating_point(case3bus):
    op = case3bus.operating_point
    v = op.V.copy()
    v[2] += 0.1  # violates the declared load balance by ~1.6 pu
    with pytest.raises(InconsistentInput, match="constant-power balance"):
        solve_setpoints(case3bus.net, case3bus.components, v, op.theta)


def test_inconsistent_power_setpoints_reported(vsg_pair):
    net, comps = vsg_pair
    bad = dict(comps)
    bad["vsg_a"] = comps["vsg_a"].with_setpoints(
        Setpoints(P_e=0.3, Q_e=comps["vsg_a"].setpoints.Q_e, V_e=1.0, theta_e=0.0)
    )
    # total power setpoint no longer sums to zero in a lossless network
    with pytest.raises(InconsistentInput, match="pinned relation"):
        solve_equilibrium(net, bad)


def test_analytic_jacobian_matches_fd(case3bus):
    v = np.array([1.03, 0.94, 0.98])
    th = np.array([0.04, -0.03, 0.01])
    j = _jacobian(case3bus.net, _steady_rows(case3bus.net, case3bus.components), v, th)
    j_fd = fd_jacobian(case3bus.net, case3bus.components, v, th)
    assert np.allclose(j, j_fd, rtol=1e-5, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(case=float_path_cases())
def test_analytic_jacobian_matches_fd_on_generated_networks(case):
    net, comps, _, v, th = case
    j = _jacobian(net, _steady_rows(net, comps), v, th)
    np.testing.assert_allclose(j, fd_jacobian(net, comps, v, th), rtol=1e-5, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(case=float_path_cases())
def test_angle_is_pinned_when_no_relation_reads_it(case):
    # with loads and setpoints taken from the drawn state, that state is the
    # equilibrium; the reference angle is pinned exactly when every source
    # is swing-type, whose relations have no theta coefficient
    net, comps, _, v, th = case
    p, q = power_injection(net, v, th)
    loads = [ConstantPowerBranch(net.non_ground[i], -p[i], -q[i]) for i in net.passive_nodes()]
    net = NetworkModel(net.buses, net.lines, loads, net.dynamic_shunts)
    setpoints = solve_setpoints(net, comps, v, th).setpoints
    comps = {cid: c.with_setpoints(setpoints[cid]) for cid, c in comps.items()}
    sol = solve_equilibrium(net, comps, v, th)
    assert sol.iterations == 0 and sol.residual_norm == 0.0
    assert sol.pinned_reference == all(isinstance(c, VsgComponent) for c in comps.values())


def test_newton_quadratic_tail(case3bus):
    # flat start exercises a few genuine iterations; the last two residuals
    # obey the quadratic contraction bound with a generous constant
    sol = solve_equilibrium(case3bus.net, case3bus.components)
    hist = sol.residual_history
    assert len(hist) >= 3
    assert hist[-1] <= 1e6 * hist[-2] ** 2


def test_solution_invariant_to_uniform_guess_rotation(vsg_pair):
    net, comps = vsg_pair
    base = solve_equilibrium(net, comps)
    shifted = solve_equilibrium(
        net, comps, initial_V=np.array([1.0, 1.0]), initial_theta=np.array([0.7, 0.7])
    )
    assert np.allclose(base.state.theta, shifted.state.theta, atol=1e-9)
    assert np.allclose(base.state.V, shifted.state.V, atol=1e-9)


def test_nonconvergence_reports_residual(case3bus, monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ITER", 1)
    with pytest.raises(EquilibriumError, match="did not converge"):
        solve_equilibrium(case3bus.net, case3bus.components)


def test_inputs_checked_before_the_solve(case3bus):
    comps = dict(case3bus.components)
    del comps["droop2"]
    with pytest.raises(InconsistentInput, match="no component supplied for id 'droop2'"):
        solve_equilibrium(case3bus.net, comps)
    with pytest.raises(InconsistentInput, match="initial guess has wrong length"):
        solve_equilibrium(case3bus.net, case3bus.components, initial_V=np.ones(2))


def test_nan_initial_guess_is_not_accepted(case3bus):
    theta = np.zeros(case3bus.net.n_nodes)
    theta[-1] = math.nan
    with pytest.raises(EquilibriumError, match="residual nan"):
        solve_equilibrium(case3bus.net, case3bus.components, initial_theta=theta)


def test_residual_stacks_component_and_balance_rows(case3bus, case3bus_solution):
    res = steady_state_residual(
        case3bus.net,
        case3bus.components,
        case3bus_solution.state.V,
        case3bus_solution.state.theta,
    )
    assert np.max(np.abs(res)) <= 1e-10


def test_injections_consistent_with_solution(case3bus, case3bus_solution):
    p, q = power_injection(
        case3bus.net, case3bus_solution.state.V, case3bus_solution.state.theta
    )
    i1 = case3bus.net.node_index["bus1"]
    assert case3bus_solution.anchors["vsg1"].P == pytest.approx(p[i1], abs=1e-14)
    assert case3bus_solution.anchors["vsg1"].Q == pytest.approx(q[i1], abs=1e-14)
    # every anchor is its bus's solved state and the kernel's injections there
    assert list(case3bus_solution.anchors) == ["vsg1", "droop2"]
    for shunt in case3bus.net.dynamic_shunts:
        i = case3bus.net.node_index[shunt.bus]
        anchor = case3bus_solution.anchors[shunt.component_id]
        assert anchor.V == case3bus_solution.state.V[i]
        assert anchor.theta == case3bus_solution.state.theta[i]
        assert (anchor.P, anchor.Q) == (p[i], q[i])
    # swing source holds its power setpoint exactly at steady state
    assert p[i1] == pytest.approx(
        case3bus.components["vsg1"].setpoints.P_e, abs=1e-10
    )
