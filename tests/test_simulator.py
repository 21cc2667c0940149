"""Transient simulation: integrator order, consistency, events, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from phasorstab import simulator
from phasorstab.components import VsgComponent
from phasorstab.equilibrium import EquilibriumProblem, solve_equilibrium
from phasorstab.network import BusState, NetworkError, kcl_residual, power_injection
from phasorstab.simulator import (
    LineScale,
    LoadStep,
    Scenario,
    ScenarioError,
    SimulationError,
    SolverConfig,
    StatePerturbation,
    simulate,
)

from conftest import (
    equilibrium_near_operating_point,
    make_load_ladder,
    make_soft_anchor_case,
    make_two_load_chain,
    thevenin_networks,
)


def quiet(horizon, period=0.01, **kw):
    return Scenario(horizon=horizon, output_period=period, **kw)


def kicked(horizon, period=0.01):
    return Scenario(
        horizon=horizon,
        output_period=period,
        disturbances=[
            StatePerturbation(at=0.0, component="vsg1", delta={"omega": 0.1}),
            StatePerturbation(at=0.0, component="droop2", delta={"v": -0.02}),
        ],
    )


def test_undisturbed_equilibrium_stays_put(case3bus, case3bus_solution):
    traj = simulate(
        case3bus.net, case3bus.components, quiet(10.0, 0.1),
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    dev_v = np.abs(traj.V - case3bus_solution.state.V[None, :])
    dev_t = np.abs(traj.theta - case3bus_solution.state.theta[None, :])
    assert dev_v.max() <= 1e-9
    assert dev_t.max() <= 1e-9


def test_zero_horizon_gives_single_sample(case3bus, case3bus_solution):
    traj = simulate(
        case3bus.net, case3bus.components, quiet(0.0),
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    assert traj.n_samples == 1
    assert traj.times[0] == 0.0


def test_rk4_one_step_error_drops_sixteenfold(mixed_pair):
    # no passive buses: a pure ODE; integrating a fixed interval with one
    # step versus two half steps shows the fourth-order ratio
    net, comps = mixed_pair
    sol = solve_equilibrium(EquilibriumProblem(net, comps))

    def end_state(h, steps):
        scen = Scenario(
            horizon=h * steps,
            output_period=h * steps,
            disturbances=[
                StatePerturbation(at=0.0, component="vsg_a", delta={"omega": 0.3})
            ],
        )
        traj = simulate(net, comps, scen, SolverConfig(step_size=h), sol)
        return np.concatenate(
            [traj.comp_states["vsg_a"][-1], traj.comp_states["droop_b"][-1]]
        )

    h = 0.08
    reference = end_state(h / 64, 64)
    err_full = np.linalg.norm(end_state(h, 1) - reference)
    err_half = np.linalg.norm(end_state(h / 2, 2) - reference)
    assert err_full / err_half == pytest.approx(16.0, rel=0.35)


def test_algebraic_residual_stays_within_tolerance(case3bus, case3bus_solution):
    traj = simulate(
        case3bus.net, case3bus.components, kicked(1.0),
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    load = case3bus.net.node_index["bus3"]
    for s in range(0, traj.n_samples, 10):
        state = BusState(traj.V[s].copy(), traj.theta[s].copy())
        inj = {
            cid: (traj.P[cid][s], traj.Q[cid][s]) for cid in traj.component_ids()
        }
        res = kcl_residual(case3bus.net, state, inj)
        assert abs(res[load]) <= 1e-9


def test_bitwise_determinism(tmp_path, case3bus, case3bus_solution):
    paths = []
    for run in range(2):
        traj = simulate(
            case3bus.net, case3bus.components, kicked(0.5),
            SolverConfig(step_size=1e-3), case3bus_solution,
        )
        out = tmp_path / f"run{run}.csv"
        traj.to_csv(str(out))
        manifest = tmp_path / f"run{run}.json"
        traj.write_manifest(str(manifest), source="case3bus")
        paths.append((out, manifest))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_step_halving_changes_little(case3bus, case3bus_solution):
    runs = {}
    for h in (1e-3, 5e-4):
        runs[h] = simulate(
            case3bus.net, case3bus.components, kicked(10.0, 0.1),
            SolverConfig(step_size=h), case3bus_solution,
        )
    diff = max(
        np.max(np.abs(runs[1e-3].V - runs[5e-4].V)),
        np.max(np.abs(runs[1e-3].theta - runs[5e-4].theta)),
    )
    assert diff <= 1e-6


def test_trapezoid_integrator_agrees_with_rk4(case3bus, case3bus_solution):
    rk = simulate(
        case3bus.net, case3bus.components, kicked(0.5, 0.1),
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    tr = simulate(
        case3bus.net, case3bus.components, kicked(0.5, 0.1),
        SolverConfig(step_size=1e-3, integrator="trapezoid"), case3bus_solution,
    )
    assert np.max(np.abs(rk.V - tr.V)) <= 1e-5
    assert np.max(np.abs(rk.theta - tr.theta)) <= 1e-5


def test_load_pulse_returns_to_equilibrium(compensated_load_case):
    net, comps = compensated_load_case
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    scen = Scenario(
        horizon=30.0,
        output_period=0.05,
        disturbances=[LoadStep(at=0.5, bus="load", dp=0.05, dq=0.0, duration=1.0)],
    )
    traj = simulate(net, comps, scen, SolverConfig(step_size=1e-3), sol)
    assert traj.network_changed
    dev = np.abs(traj.V - sol.state.V[None, :]).max(axis=1)
    assert dev.max() > 1e-4  # the pulse visibly moves the system
    assert dev[-1] <= 1e-6
    assert abs(traj.w[-1]) <= 1e-9


def test_line_scale_pulse_runs(case3bus, case3bus_solution):
    scen = Scenario(
        horizon=2.0,
        output_period=0.05,
        disturbances=[LineScale(at=0.2, line_index=0, factor=0.5, duration=0.5)],
    )
    traj = simulate(
        case3bus.net, case3bus.components, scen,
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    assert traj.network_changed
    # coupling is restored afterwards, so the system heads back
    assert np.abs(traj.V[-1] - case3bus_solution.state.V).max() < 0.05


def test_event_time_must_sit_on_the_grid(case3bus, case3bus_solution):
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        disturbances=[
            StatePerturbation(at=0.00055, component="vsg1", delta={"omega": 0.1})
        ],
    )
    with pytest.raises(ScenarioError, match="align"):
        simulate(
            case3bus.net, case3bus.components, scen,
            SolverConfig(step_size=1e-3), case3bus_solution,
        )


def test_unknown_component_in_disturbance(case3bus, case3bus_solution):
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        disturbances=[StatePerturbation(at=0.0, component="nope", delta={"omega": 1.0})],
    )
    with pytest.raises(ScenarioError, match="unknown component"):
        simulate(
            case3bus.net, case3bus.components, scen,
            SolverConfig(step_size=1e-3), case3bus_solution,
        )


def test_unknown_state_label_in_disturbance(case3bus, case3bus_solution):
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        disturbances=[StatePerturbation(at=0.0, component="vsg1", delta={"psi": 1.0})],
    )
    with pytest.raises(ScenarioError, match="no state"):
        simulate(
            case3bus.net, case3bus.components, scen,
            SolverConfig(step_size=1e-3), case3bus_solution,
        )


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (StatePerturbation(at=1.0, component="nope", delta={"omega": 1.0}),
         ScenarioError, "unknown component 'nope'"),
        (StatePerturbation(at=1.0, component="vsg1", delta={"psi": 1.0}),
         ScenarioError, "component 'vsg1' has no state 'psi'"),
        (LoadStep(at=1.0, bus="bus1", dp=0.1, dq=0.0),
         NetworkError, "load step at bus 'bus1' with no constant-power branch"),
        (LineScale(at=1.0, line_index=5, factor=0.5),
         NetworkError, "line index 5 out of range"),
    ],
    ids=["unknown-component", "unknown-state", "load-step-without-load", "line-index"],
)
def test_bad_disturbance_rejected_before_any_work(monkeypatch, case3bus, bad, error, message):
    # the bad event sits at the last step; it must be rejected before the
    # equilibrium solve and before the first integration step
    def must_not_run(*args, **kwargs):
        pytest.fail("simulate did work before rejecting the scenario")

    monkeypatch.setattr(simulator, "solve_equilibrium", must_not_run)
    monkeypatch.setattr(simulator._Engine, "rk4_step", must_not_run)
    scen = Scenario(horizon=1.0, output_period=0.1, disturbances=[bad])
    with pytest.raises(error, match=message):
        simulate(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3))


def test_coupled_passive_buses_stay_balanced(tmp_path):
    # two load buses: the inner solve is the coupled (m > 1) Newton system
    net, comps = make_two_load_chain()
    assert len(net.passive_nodes()) == 2
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    scen = Scenario(
        horizon=1.0,
        output_period=0.01,
        disturbances=[
            StatePerturbation(at=0.0, component="vsg1", delta={"omega": 0.1}),
            LoadStep(at=0.3, bus="l2", dp=0.05, dq=0.02, duration=0.3),
        ],
    )
    config = SolverConfig(step_size=1e-3)
    outputs = []
    for run in range(2):
        traj = simulate(net, comps, scen, config, sol)
        out = tmp_path / f"run{run}.csv"
        traj.to_csv(str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # the step is applied at t = 0.3 and reverted at t = 0.6, before sampling
    stepped = net.with_load_delta("l2", 0.05, 0.02)
    moved = 0.0
    for s, t in enumerate(traj.times):
        active = stepped if 0.3 - 1e-9 < t < 0.6 - 1e-9 else net
        p, q = power_injection(net, traj.V[s], traj.theta[s])
        for node in net.passive_nodes():
            assert abs(p[node] + active.load_p[node]) <= config.newton_tol
            assert abs(q[node] + active.load_q[node]) <= config.newton_tol
        moved = max(moved, float(np.max(np.abs(traj.V[s] - sol.state.V))))
    assert moved > 1e-4


def test_chord_jacobian_refreshed_after_line_scale(tmp_path):
    # two load buses take the chord path; the scaled line changes the
    # passive-bus Jacobian, so the kept inverse must be rebuilt
    net, comps = make_two_load_chain()
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    kick = StatePerturbation(at=0.0, component="vsg1", delta={"omega": 0.1})
    config = SolverConfig(step_size=1e-3)
    quiet_run = simulate(net, comps, Scenario(1.0, 0.01, disturbances=[kick]), config, sol)
    assert quiet_run.jacobian_factorizations * 100 <= quiet_run.inner_solves
    scen = Scenario(
        horizon=1.0,
        output_period=0.01,
        disturbances=[kick, LineScale(at=0.3, line_index=1, factor=0.5, duration=0.3)],
    )
    manifests = []
    for run in range(2):
        traj = simulate(net, comps, scen, config, sol)
        path = tmp_path / f"run{run}.json"
        traj.write_manifest(str(path))
        manifests.append(path.read_bytes())
    assert manifests[0] == manifests[1]
    manifest = traj.manifest()
    # one factorization at the start, one at the event, one at its revert
    assert manifest["jacobian_factorizations"] >= quiet_run.jacobian_factorizations + 2
    assert manifest["inner_solves"] == traj.inner_solves > 0
    assert manifest["inner_iterations"] == traj.inner_iterations > 0
    scaled = net.with_scaled_line(1, 0.5)
    for s, t in enumerate(traj.times):
        active = scaled if 0.3 - 1e-9 < t < 0.6 - 1e-9 else net
        p, q = power_injection(active, traj.V[s], traj.theta[s])
        for node in net.passive_nodes():
            assert abs(p[node] + net.load_p[node]) <= config.newton_tol
            assert abs(q[node] + net.load_q[node]) <= config.newton_tol


def engine_for(net):
    """An inner-solve engine on `net`, with a swing source on every dynamic bus."""
    comps = {
        s.component_id: VsgComponent(id=s.component_id, bus=s.bus, M=0.2, Dp=0.1, Dq=0.05, tau_q=0.5)
        for s in net.dynamic_shunts
    }
    return simulator._Engine(net, comps, SolverConfig())


@settings(max_examples=60, deadline=None)
@given(case=thevenin_networks())
def test_uncoupled_passive_buses_solve_without_iteration(case):
    # one passive bus takes the float closed form, more take the array one
    net, v, th = case
    engine = engine_for(net)
    V, T = v.tolist(), th.tolist()
    p, q = engine.solve_algebraic(V, T, 0.0)
    p_ref, q_ref = power_injection(net, V, T)
    assert np.allclose(p, p_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(q, q_ref, rtol=0.0, atol=1e-12)
    for node in net.passive_nodes():
        assert abs(p[node] + net.load_p[node]) <= engine.config.newton_tol
        assert abs(q[node] + net.load_q[node]) <= engine.config.newton_tol
    assert (engine.inner_solves, engine.inner_iterations, engine.factorizations) == (1, 0, 0)


@settings(max_examples=30, deadline=None)
@given(case=thevenin_networks(load_factor=(1.05, 3.0)))
def test_load_beyond_transfer_limit_is_voltage_collapse(case):
    # every load is beyond its limit; the first passive bus is named
    net, v, th = case
    with pytest.raises(SimulationError, match=r"^voltage collapse at bus 'b1', t = 0\.25$"):
        engine_for(net).solve_algebraic(v.tolist(), th.tolist(), 0.25)


def passive_residuals(traj, active_at):
    """Largest passive balance residual of each sample, against the network
    `active_at(t)` returns."""
    out = []
    for s, t in enumerate(traj.times):
        active = active_at(t)
        p, q = power_injection(active, traj.V[s], traj.theta[s])
        out.append(max(
            max(abs(p[n] + active.load_p[n]), abs(q[n] + active.load_q[n]))
            for n in active.passive_nodes()
        ))
    return np.array(out)


def closed_form_case(name, case3bus):
    if name == "case3bus":
        scen = Scenario(2.0, 0.01, disturbances=case3bus.scenario.disturbances)
        return case3bus.net, case3bus.components, scen
    net, comps = make_load_ladder()
    return net, comps, kicked_sources(comps, 0.5)


def kicked_sources(comps, horizon):
    kicks = [
        StatePerturbation(at=0.0, component=cid, delta={"omega": 0.05} if j % 2 == 0 else {"v": -0.01})
        for j, cid in enumerate(comps)
    ]
    return Scenario(horizon, 0.01, disturbances=kicks)


@pytest.mark.parametrize("name", ["case3bus", "ladder"])
def test_closed_form_runs_balanced_without_iterations(tmp_path, case3bus, name):
    net, comps, scen = closed_form_case(name, case3bus)
    config = SolverConfig(step_size=1e-3)
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    outputs = []
    for run in range(2):
        traj = simulate(net, comps, scen, config, sol)
        out = tmp_path / f"run{run}.csv"
        traj.to_csv(str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert np.all(passive_residuals(traj, lambda t: net) <= config.newton_tol)
    assert float(np.max(np.abs(traj.V - sol.state.V))) > 1e-4
    manifest = traj.manifest()
    assert manifest["inner_solves"] == round(scen.horizon / config.step_size) * 4 + 1
    assert manifest["inner_iterations"] == 0
    assert manifest["jacobian_factorizations"] == 0


def test_closed_form_tables_follow_a_load_step():
    # a load step with a duration swaps the passive loads twice mid-run
    net, comps = make_load_ladder()
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    scen = kicked_sources(comps, 0.5)
    scen.disturbances.append(LoadStep(at=0.1, bus="b3", dp=0.2, dq=0.1, duration=0.2))
    config = SolverConfig(step_size=1e-3)
    traj = simulate(net, comps, scen, config, sol)
    stepped = net.with_load_delta("b3", 0.2, 0.1)
    residuals = passive_residuals(
        traj, lambda t: stepped if 0.1 - 1e-9 < t < 0.3 - 1e-9 else net
    )
    assert np.all(residuals <= config.newton_tol)
    # against the unchanged loads the stepped samples are far off balance
    during = (traj.times > 0.1 + 1e-9) & (traj.times < 0.3 - 1e-9)
    assert np.all(passive_residuals(traj, lambda t: net)[during] >= 0.1)
    assert (traj.inner_iterations, traj.jacobian_factorizations) == (0, 0)


def test_chord_failure_reports_time_and_residual():
    net, comps = make_two_load_chain()
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    scen = Scenario(
        horizon=0.1,
        output_period=0.01,
        disturbances=[StatePerturbation(at=0.0, component="vsg1", delta={"v": 0.01})],
    )
    with pytest.raises(
        SimulationError, match=r"inner Newton failed at t = 0 \(residual \d\.\d{3}e-\d+\)"
    ):
        simulate(net, comps, scen, SolverConfig(newton_max_iter=0), sol)


def test_scenario_validation():
    with pytest.raises(ScenarioError, match="horizon"):
        Scenario(horizon=-1.0)
    with pytest.raises(ScenarioError, match="outside horizon"):
        Scenario(
            horizon=1.0,
            disturbances=[StatePerturbation(at=2.0, component="x", delta={"v": 0.1})],
        )
    with pytest.raises(ScenarioError, match="factor"):
        Scenario(
            horizon=1.0,
            disturbances=[LineScale(at=0.0, line_index=0, factor=-2.0)],
        )
    with pytest.raises(ScenarioError, match="explicit"):
        Scenario(horizon=1.0, initial="explicit")
    with pytest.raises(ScenarioError, match="newton_max_iter"):
        SolverConfig(newton_max_iter=-1)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ScenarioError, match="newton_tol"):
            SolverConfig(newton_tol=tol)
    for bad in (math.nan, math.inf):
        with pytest.raises(ScenarioError, match="step size"):
            SolverConfig(step_size=bad)
        with pytest.raises(ScenarioError, match="horizon must be"):
            Scenario(horizon=bad)
        with pytest.raises(ScenarioError, match="output period"):
            Scenario(horizon=1.0, output_period=bad)
        with pytest.raises(ScenarioError, match="duration"):
            Scenario(horizon=1.0, disturbances=[LoadStep(0.0, "b", 0.1, 0.0, duration=bad)])
    with pytest.raises(ScenarioError, match="outside horizon"):
        Scenario(
            horizon=1.0,
            disturbances=[StatePerturbation(at=math.nan, component="x", delta={})],
        )


def test_explicit_initial_condition(vsg_empty_bus):
    net, comps = vsg_empty_bus
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        initial="explicit",
        explicit_states={"vsg1": {"theta": 0.0, "omega": 0.2, "v": 1.0}},
    )
    traj = simulate(net, comps, scen, SolverConfig(step_size=1e-3))
    assert traj.comp_states["vsg1"][0, 1] == 0.2
    # flows stay identically zero: the far bus simply tracks the source
    assert np.max(np.abs(traj.P["vsg1"])) <= 1e-9
    assert np.max(np.abs(traj.V[:, 1] - traj.V[:, 0])) <= 1e-9


def test_voltage_collapse_is_reported(compensated_load_case):
    net, comps = compensated_load_case
    sol = solve_equilibrium(EquilibriumProblem(net, comps))
    scen = Scenario(
        horizon=5.0,
        output_period=0.1,
        disturbances=[LoadStep(at=0.1, bus="load", dp=0.0, dq=30.0)],
    )
    with pytest.raises(SimulationError):
        simulate(net, comps, scen, SolverConfig(step_size=1e-3), sol)


def test_component_voltage_collapse_names_component_and_time(
    case3bus, case3bus_solution
):
    scen = Scenario(
        horizon=1.0,
        output_period=0.01,
        disturbances=[StatePerturbation(at=0.5, component="vsg1", delta={"v": -2.0})],
    )
    with pytest.raises(
        SimulationError, match=r"^voltage collapse in component 'vsg1' at t = 0\.5$"
    ):
        simulate(
            case3bus.net, case3bus.components, scen,
            SolverConfig(step_size=1e-3), case3bus_solution,
        )


def csv_values_by_column(traj):
    """Every CSV column's expected values, taken from the trajectory's fields."""
    cols = {"t": traj.times, "Vp": traj.vp, "W": traj.w}
    for b, bus in enumerate(traj.bus_ids):
        cols[f"{bus}_V"] = traj.V[:, b]
        cols[f"{bus}_theta"] = traj.theta[:, b]
    for cid in traj.component_ids():
        for j, label in enumerate(traj.comp_labels[cid]):
            cols[f"{cid}_{label}"] = traj.comp_states[cid][:, j]
        cols[f"{cid}_P"] = traj.P[cid]
        cols[f"{cid}_Q"] = traj.Q[cid]
        cols[f"{cid}_storage"] = traj.storage[cid]
        cols[f"{cid}_supply"] = traj.supply[cid]
        cols[f"{cid}_integral"] = traj.integral[cid]
    return cols


def test_csv_round_trips_every_value(tmp_path, case3bus, case3bus_solution):
    soft = make_soft_anchor_case()
    runs = {
        "case3bus": simulate(
            case3bus.net, case3bus.components, kicked(0.1),
            SolverConfig(step_size=1e-3), case3bus_solution,
        ),
        # storage unavailable at the anchor: its column holds NaN
        "softanchor": simulate(
            soft.net, soft.components, soft.scenario, soft.solver,
            equilibrium_near_operating_point(soft),
        ),
    }
    assert np.isnan(runs["softanchor"].storage["vsg1"]).all()
    for name, traj in runs.items():
        out = tmp_path / f"{name}.csv"
        traj.to_csv(str(out))
        header, *lines = out.read_text().splitlines()
        header = header.split(",")
        expected = csv_values_by_column(traj)
        assert sorted(header) == sorted(expected)
        assert len(lines) == traj.n_samples
        cells = [line.split(",") for line in lines]
        for j, column in enumerate(header):
            parsed = np.array([float(row[j]) for row in cells])
            assert np.array_equal(parsed, expected[column], equal_nan=True), column
        if name == "softanchor":
            storage_col = header.index("vsg1_storage")
            assert all(row[storage_col] == "nan" for row in cells)


def test_csv_layout_and_manifest(tmp_path, case3bus, case3bus_solution):
    traj = simulate(
        case3bus.net, case3bus.components, kicked(0.1),
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    out = tmp_path / "traj.csv"
    traj.to_csv(str(out))
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert header[1:7] == [
        "bus1_V", "bus1_theta", "bus2_V", "bus2_theta", "bus3_V", "bus3_theta",
    ]
    assert "vsg1_theta" in header and "vsg1_omega" in header and "vsg1_v" in header
    assert "vsg1_P" in header and "droop2_Q" in header
    assert "Vp" in header and "W" in header
    for cid in ("vsg1", "droop2"):
        for suffix in ("storage", "supply", "integral"):
            assert f"{cid}_{suffix}" in header
    manifest = traj.manifest("case3bus")
    assert manifest["columns"] == traj.columns()
    assert manifest["samples"] == traj.n_samples


def test_default_run_divergence_stays_nonnegative(traj_default):
    # this transient never enters the indefinite direction of the divergence
    assert traj_default.w.min() >= -1e-12
    assert traj_default.w[0] > 0.0


def test_mid_run_state_perturbation(case3bus, case3bus_solution):
    scen = Scenario(
        horizon=1.0,
        output_period=0.01,
        disturbances=[
            StatePerturbation(at=0.5, component="vsg1", delta={"omega": 0.05})
        ],
    )
    traj = simulate(
        case3bus.net, case3bus.components, scen,
        SolverConfig(step_size=1e-3), case3bus_solution,
    )
    omega = traj.comp_states["vsg1"][:, 1]
    before = np.abs(omega[traj.times < 0.5]).max()
    assert before <= 1e-12
    at_event = omega[np.searchsorted(traj.times, 0.5)]
    assert at_event == pytest.approx(0.05, abs=1e-6)
