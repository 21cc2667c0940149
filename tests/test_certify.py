"""Certificate engine: criteria verdicts, consistency lens, report assembly."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from phasorstab.certify import (
    certify,
    check_integral_criterion,
    check_storage_criterion,
    check_w_consistency,
    identity_residuals,
    render_report,
)
from phasorstab.cli import solve_case_equilibrium
from phasorstab.components import SupplyConvention, VsgComponent, Setpoints
from phasorstab.equilibrium import solve_equilibrium
from phasorstab.scenario import LoadStep, Scenario, SolverConfig, StatePerturbation, plan_run
from phasorstab.simulator import Trajectory, simulate

from conftest import (
    at_rest, float_path_cases, make_load_ladder, make_mesh, make_soft_anchor_case, stacked,
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
        x=np.column_stack([np.zeros(n), np.ones(n)]),  # theta = 0, V = 1
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
        equilibrium=sol,
        network=net,
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
        plan_run(
            case3bus.net, case3bus.components, Scenario(horizon=0.2, output_period=0.05),
            SolverConfig(step_size=1e-3),
        ),
        case3bus_solution,
    )
    for conv in SupplyConvention:
        verdicts = check_storage_criterion(traj, conv, 1e-6)
        for v in verdicts.values():
            assert v.satisfied
            assert abs(v.worst_margin) <= 1e-9


def test_storage_margins_zero_up_to_rounding_tie_at_the_first_sample():
    # supply and storage rates that cancel to within an ulp or two of the
    # larger term: every margin counts as 0.0, so the first sample is the
    # worst, with the margin 0.0 (not -0.0, nor a rounding's sign)
    traj = synthetic_trajectory([0.0] * 4)
    rate = np.array([0.0, 1e-20, 3e-20, 2e-20])
    ulps = np.array([0.0, -1.0, 1.0, -2.0]) * np.spacing(rate)
    traj.storage_rate["c"] = rate
    traj.supply["c"] = np.where(rate == 0.0, -0.0, rate + ulps)
    assert (traj.supply["c"] - rate)[3] < 0.0
    verdict = check_storage_criterion(traj)["c"]
    assert (verdict.worst_margin, verdict.time_of_worst) == (0.0, 0.0)
    assert np.copysign(1.0, verdict.worst_margin) == 1.0
    # a margin beyond the rounding of its terms is kept as it is
    traj.supply["c"] = rate - np.array([0.0, 0.0, 1e-30, 0.0])
    margin = traj.supply["c"][2] - rate[2]
    assert -1.01e-30 < margin < -0.99e-30
    verdict = check_storage_criterion(traj)["c"]
    assert (verdict.worst_margin, verdict.time_of_worst) == (margin, traj.times[2])


def test_default_run_storage_verdicts(traj_default):
    negated = check_storage_criterion(traj_default, SupplyConvention.NEGATED, 1e-6)
    assert negated["vsg1"].satisfied
    assert negated["droop2"].satisfied
    printed = check_storage_criterion(traj_default, SupplyConvention.PRINTED, 1e-6)
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
    traj = simulate(plan_run(net, comps, scen, SolverConfig(step_size=1e-3)), sol)
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


def test_soft_anchor_certificate_exists():
    # the soft-anchor source rests at Q below -V/Dq; its storage, its storage
    # verdicts and its local form exist all the same, and the storage
    # balances the negated supply to its dissipation along the run
    case = make_soft_anchor_case()
    sol = solve_case_equilibrium(case)
    anchor = sol.anchors["vsg1"]
    assert anchor.Q < -anchor.V / case.components["vsg1"].Dq
    traj = simulate(plan_run(case.net, case.components, case.scenario, case.solver), sol)
    assert np.all(np.isfinite(traj.storage["vsg1"]))
    report = certify(case.net, case.components, sol, traj)
    verdict = report.storage[SupplyConvention.NEGATED]["vsg1"]
    assert verdict.satisfied and np.isfinite(verdict.worst_margin)
    assert report.local_forms["vsg1"].reports[SupplyConvention.NEGATED].verdict == "holds"
    assert "storage criterion (negated) [vsg1]: satisfied" in render_report(report)


def negated_local_verdicts(net, comps, sol):
    report = certify(net, comps, sol)
    return {cid: cert.reports[SupplyConvention.NEGATED].verdict
            for cid, cert in report.local_forms.items()}


@pytest.mark.parametrize("name", ["ladder", "mesh", "soft-anchor"])
def test_negated_local_forms_hold_at_network_equilibria(name):
    if name == "soft-anchor":
        case = make_soft_anchor_case()
        net, comps, sol = case.net, case.components, solve_case_equilibrium(case)
    else:
        net, comps = make_load_ladder() if name == "ladder" else make_mesh()
        sol = solve_equilibrium(net, comps)
    verdicts = negated_local_verdicts(net, comps, sol)
    assert verdicts.keys() == comps.keys()
    assert set(verdicts.values()) == {"holds"}


@settings(max_examples=60, deadline=None)
@given(case=float_path_cases())
def test_negated_local_forms_hold_at_drawn_equilibria(case):
    net, comps, _, v, th = case
    net, comps = at_rest(net, comps, v, th)
    verdicts = negated_local_verdicts(net, comps, solve_equilibrium(net, comps, stacked(v, th)))
    assert set(verdicts.values()) == {"holds"}


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
            plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=h)),
            case3bus_solution,
        )
        res[h] = identity_residuals(traj)
    assert res[4e-3][0] > res[1e-3][0]
    assert res[4e-3][1] > res[1e-3][1]
    # the array path, with the passive buses in closed form (ladder) and by
    # the chord (mesh): each halving of h cuts both residuals fourfold
    for net, comps in (make_load_ladder(), make_mesh()):
        kick = StatePerturbation(at=0.0, component=next(iter(comps)), delta={"v": -0.02})
        scen = Scenario(horizon=0.4, output_period=0.04, disturbances=[kick])
        sol = solve_equilibrium(net, comps)
        res = np.array([
            identity_residuals(simulate(plan_run(net, comps, scen, SolverConfig(step_size=h)), sol))
            for h in (8e-3, 4e-3, 2e-3)
        ])
        orders = np.log2(res[:-1] / res[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.1), orders
