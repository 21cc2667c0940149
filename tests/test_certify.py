"""Certificate engine: criteria verdicts, consistency lens, report assembly."""

import json

import numpy as np
import pytest

from phasorstab.certify import (
    certify,
    check_integral_criterion,
    check_storage_criterion,
    check_w_consistency,
    identity_residuals,
    render_report,
)
from phasorstab.components import Anchor, SupplyConvention, VsgComponent, Setpoints
from phasorstab.equilibrium import solve_equilibrium
from phasorstab.simulator import (
    LoadStep,
    Scenario,
    SolverConfig,
    StatePerturbation,
    Trajectory,
    simulate,
)


def synthetic_trajectory(integral_series, w_series=None, network_changed=False):
    """Minimal hand-built trajectory for criterion-logic tests."""
    n = len(integral_series)
    times = np.linspace(0.0, 1.0, n)
    comp = VsgComponent(
        id="c", bus="a", M=0.1, Dp=0.1, Dq=0.1, tau_q=0.1,
        setpoints=Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0),
    )
    from phasorstab.network import Bus, BusKind, DynamicShunt, NetworkModel

    net = NetworkModel(
        buses=[Bus("a", BusKind.DYNAMIC), Bus("gnd", BusKind.GROUND)],
        lines=[],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "c")],
    )
    sol = solve_equilibrium(net, {"c": comp})
    zeros = np.zeros(n)
    return Trajectory(
        times=times,
        bus_ids=["a"],
        V=np.ones((n, 1)),
        theta=np.zeros((n, 1)),
        comp_states={"c": np.zeros((n, 3))},
        comp_labels={"c": ("theta", "omega", "v")},
        P={"c": zeros.copy()},
        Q={"c": zeros.copy()},
        vp=zeros.copy(),
        w=np.array(w_series) if w_series is not None else zeros.copy(),
        storage={"c": zeros.copy()},
        storage_rate={"c": zeros.copy()},
        supply={"c": zeros.copy()},
        integral={"c": np.array(integral_series, dtype=float)},
        unshifted_integral=zeros.copy(),
        convention=SupplyConvention.NEGATED,
        equilibrium=sol,
        network=net,
        components={"c": comp},
        config=SolverConfig(),
        scenario=Scenario(horizon=1.0, output_period=1.0),
        network_changed=network_changed,
    )


def test_zero_integrals_satisfy_criterion():
    traj = synthetic_trajectory([0.0] * 8)
    verdicts = check_integral_criterion(traj, tol=1e-6)
    assert verdicts["c"].satisfied
    assert verdicts["c"].max_value == 0.0


def test_energy_injecting_component_violates_immediately():
    # a source holding dP = theta_dot = +0.1 accumulates 0.01 per unit time
    series = 0.01 * np.linspace(0.0, 1.0, 11)
    traj = synthetic_trajectory(series)
    verdicts = check_integral_criterion(traj, tol=1e-6)
    assert not verdicts["c"].satisfied
    assert verdicts["c"].max_value == pytest.approx(0.01)
    assert verdicts["c"].time_of_max == pytest.approx(1.0)


def test_loosening_tolerance_never_flips_to_violated():
    series = [0.0, 2e-7, -1e-5, -2e-5]
    traj = synthetic_trajectory(series)
    tight = check_integral_criterion(traj, tol=1e-7)
    loose = check_integral_criterion(traj, tol=1e-5)
    assert not tight["c"].satisfied
    assert loose["c"].satisfied


def test_equilibrium_trajectory_storage_margin_zero(case3bus, case3bus_solution):
    traj = simulate(
        case3bus.net, case3bus.components,
        Scenario(horizon=0.2, output_period=0.05),
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    for conv in SupplyConvention:
        verdicts = check_storage_criterion(traj, case3bus.components, conv, 1e-6)
        for v in verdicts.values():
            assert v.satisfied
            assert abs(v.worst_margin) <= 1e-9


def test_default_run_storage_verdicts(traj_default, case3bus):
    negated = check_storage_criterion(
        traj_default, case3bus.components, SupplyConvention.NEGATED, 1e-6
    )
    assert negated["vsg1"].satisfied
    assert negated["droop2"].satisfied
    printed = check_storage_criterion(
        traj_default, case3bus.components, SupplyConvention.PRINTED, 1e-6
    )
    # the swing source fails the printed sign along this transient
    assert not printed["vsg1"].satisfied
    assert printed["vsg1"].worst_margin < -1e-3


def test_default_run_integral_verdicts(traj_default):
    verdicts = check_integral_criterion(traj_default, 1e-6)
    # the directly-kicked swing source exports its stored energy early
    assert not verdicts["vsg1"].satisfied
    assert verdicts["droop2"].satisfied


def test_w_consistency_lens():
    ok = synthetic_trajectory([0.0, -1e-4, -2e-4], w_series=[1e-3, 9e-4, 8e-4])
    verdicts = check_integral_criterion(ok, 1e-6)
    note = check_w_consistency(ok, verdicts, divergence_residual=1e-7)
    assert note.startswith("consistent")

    rising = synthetic_trajectory([0.0, -1e-4, -2e-4], w_series=[1e-3, 9e-4, 2e-3])
    note = check_w_consistency(rising, check_integral_criterion(rising, 1e-6), 1e-7)
    assert note.startswith("VIOLATED")

    gated = synthetic_trajectory([0.0, 1e-3], network_changed=True)
    note = check_w_consistency(gated, check_integral_criterion(gated, 1e-6), None)
    assert "not applicable" in note

    violated = synthetic_trajectory([0.0, 1e-3])
    note = check_w_consistency(violated, check_integral_criterion(violated, 1e-6), 1e-7)
    assert "not evaluated" in note


def test_compensated_load_case_goes_green_on_trajectory_criteria(compensated_load_case):
    net, comps = compensated_load_case
    sol = solve_equilibrium(net, comps)
    scen = Scenario(
        horizon=20.0,
        output_period=0.02,
        disturbances=[LoadStep(at=0.5, bus="load", dp=0.05, dq=0.0, duration=1.0)],
    )
    traj = simulate(net, comps, scen, SolverConfig(step_size=1e-3), sol)
    report = certify(net, comps, sol, traj, tol=1e-6)
    assert report.integral["vsg1"].satisfied
    assert report.storage[SupplyConvention.NEGATED]["vsg1"].satisfied
    # zero reactive anchor makes the local form exactly semidefinite
    assert report.local_forms["vsg1"].reports[SupplyConvention.NEGATED].verdict == "holds"
    # trajectory-identity lenses are gated off for network-event runs
    assert report.identity_residual_potential is None
    assert "not applicable" in report.w_consistency


def test_case_report_records_both_conventions(case3bus, case3bus_solution, traj_default):
    report = certify(
        case3bus.net, case3bus.components, case3bus_solution, traj_default, tol=1e-6
    )
    for conv in SupplyConvention:
        assert set(report.storage[conv]) == {"vsg1", "droop2"}
        for verdict in report.storage[conv].values():
            assert verdict.satisfied is not None
            assert verdict.worst_margin is not None
    assert not report.convexity.member
    assert report.identity_residual_potential is not None
    assert report.identity_residual_potential <= 1e-6
    assert report.identity_residual_divergence <= 1e-6
    assert "not certified" in report.conclusion
    doc = report.to_dict()
    assert set(doc["storage_criterion"]) == {"printed", "negated"}


def test_report_without_trajectory(case3bus, case3bus_solution):
    report = certify(case3bus.net, case3bus.components, case3bus_solution, None)
    assert report.integral == {}
    assert not report.trajectory_evaluated
    text = render_report(report)
    assert "not evaluated" in text
    assert "convexity" in text


def test_unavailable_certificate_surfaces(vsg_empty_bus):
    net, comps = vsg_empty_bus
    sol = solve_equilibrium(net, comps)
    traj = simulate(
        net, comps, Scenario(horizon=0.1, output_period=0.1),
        SolverConfig(step_size=1e-3), sol,
    )
    # no feasible equilibrium has k <= 0 for this toy, so force the anchor
    sol.anchors["vsg1"] = Anchor(P=0.0, Q=-60.0, V=1.0, theta=0.0)
    report = certify(net, comps, sol, traj)
    verdict = report.storage[SupplyConvention.NEGATED]["vsg1"]
    assert verdict.satisfied is None
    assert "k = V + Dq*Q" in verdict.unavailable_reason
    assert "unavailable" in render_report(report)
    assert "vsg1" not in report.local_forms


def test_report_determinism(case3bus, case3bus_solution, traj_default):
    reports = [
        certify(case3bus.net, case3bus.components, case3bus_solution, traj_default)
        for _ in range(2)
    ]
    assert reports[0].to_json() == reports[1].to_json()
    json.loads(reports[0].to_json())  # well-formed


def test_identity_residuals_scale(case3bus, case3bus_solution):
    scen = Scenario(
        horizon=2.0,
        output_period=0.1,
        disturbances=[
            StatePerturbation(at=0.0, component="vsg1", delta={"omega": 0.1})
        ],
    )
    res = {}
    for h in (4e-3, 1e-3):
        traj = simulate(
            case3bus.net, case3bus.components, scen,
            SolverConfig(step_size=h), case3bus_solution,
        )
        res[h] = identity_residuals(traj)
    assert res[4e-3][0] > res[1e-3][0]
    assert res[4e-3][1] > res[1e-3][1]
