"""Transient simulation: integrator order, consistency, events, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasorstab import network
from phasorstab.components import Anchor, DroopComponent, Setpoints, VsgComponent, supply_rate
from phasorstab.cli import solve_case_equilibrium
from phasorstab.engine import _ArrayEngine, _Engine, _literal, _make_engine
from phasorstab.equilibrium import solve_equilibrium
from phasorstab.network import (
    TWO_PI,
    Bus,
    BusKind,
    ConstantPowerBranch,
    DynamicShunt,
    LosslessLine,
    NetworkModel,
    passive_bus_solution,
    power_injection,
)
from phasorstab.potential import eval_vp
from phasorstab.records import replace
from phasorstab.scenario import (
    LineScale,
    LoadStep,
    Scenario,
    ScenarioError,
    SolverConfig,
    StatePerturbation,
    plan_run,
)
from phasorstab.simulator import SimulationError, simulate

from conftest import (
    at_rest,
    float_path_cases,
    make_compensated_load_case,
    make_load_ladder,
    make_mesh,
    make_soft_anchor_case,
    make_two_load_chain,
    ring_networks,
    stacked,
    thevenin_networks,
)
from helpers import ArrayReferenceEngine, ReferenceEngine, kcl_residual


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
        plan_run(
            case3bus.net, case3bus.components, quiet(10.0, 0.1),
            SolverConfig(step_size=1e-3),
        ),
        case3bus_solution,
    )
    dev_v = np.abs(traj.V - case3bus_solution.state.V[None, :])
    dev_t = np.abs(traj.theta - case3bus_solution.state.theta[None, :])
    assert dev_v.max() <= 1e-9
    assert dev_t.max() <= 1e-9


def test_zero_horizon_gives_single_sample(case3bus, case3bus_solution):
    traj = simulate(
        plan_run(case3bus.net, case3bus.components, quiet(0.0), SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    assert traj.n_samples == 1
    assert traj.times[0] == 0.0


def test_rk4_one_step_error_drops_sixteenfold(mixed_pair):
    # no passive buses: a pure ODE; integrating a fixed interval with one
    # step versus two half steps shows the fourth-order ratio
    net, comps = mixed_pair
    sol = solve_equilibrium(net, comps)

    def end_state(h, steps):
        scen = Scenario(
            horizon=h * steps,
            output_period=h * steps,
            disturbances=[
                StatePerturbation(at=0.0, component="vsg_a", delta={"omega": 0.3})
            ],
        )
        traj = simulate(plan_run(net, comps, scen, SolverConfig(step_size=h)), sol)
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
        plan_run(case3bus.net, case3bus.components, kicked(1.0), SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    load = case3bus.net.node_index["bus3"]
    for s in range(0, traj.n_samples, 10):
        inj = {
            cid: (traj.P[cid][s], traj.Q[cid][s]) for cid in traj.component_ids()
        }
        res = kcl_residual(case3bus.net, traj.x[s], inj)
        assert abs(res[load]) <= 1e-9


def test_bitwise_determinism(tmp_path, case3bus, case3bus_solution):
    paths = []
    for run in range(2):
        traj = simulate(
            plan_run(case3bus.net, case3bus.components, kicked(0.5), SolverConfig(step_size=1e-3)),
            case3bus_solution,
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
            plan_run(
                case3bus.net, case3bus.components, kicked(10.0, 0.1),
                SolverConfig(step_size=h),
            ),
            case3bus_solution,
        )
    diff = max(
        np.max(np.abs(runs[1e-3].V - runs[5e-4].V)),
        np.max(np.abs(runs[1e-3].theta - runs[5e-4].theta)),
    )
    assert diff <= 1e-6


def test_load_pulse_returns_to_equilibrium(compensated_load_case):
    net, comps = compensated_load_case
    sol = solve_equilibrium(net, comps)
    scen = Scenario(
        horizon=30.0,
        output_period=0.05,
        disturbances=[LoadStep(at=0.5, bus="load", dp=0.05, dq=0.0, duration=1.0)],
    )
    traj = simulate(plan_run(net, comps, scen, SolverConfig(step_size=1e-3)), sol)
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
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    assert traj.network_changed
    # coupling is restored afterwards, so the system heads back
    assert np.abs(traj.V[-1] - case3bus_solution.state.V).max() < 0.05


def test_vp_stays_on_the_base_network_during_a_load_step(case3bus, case3bus_solution):
    # Vp is the base network's potential relative to sample 0, also while a
    # load step is active; the stepped network's potential differs
    step = LoadStep(at=0.1, bus="bus3", dp=0.05, dq=0.02)
    scen = Scenario(horizon=0.5, output_period=0.01, disturbances=[step])
    traj = simulate(
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    assert traj.network_changed

    def per_sample_vp(net):
        return np.array([eval_vp(net, traj.x[s]) for s in range(traj.n_samples)])

    base = per_sample_vp(case3bus.net)
    assert np.all(np.abs(traj.vp - (base - base[0])) <= 1e-12 * np.maximum(1.0, np.abs(base)))
    stepped = per_sample_vp(case3bus.net.with_load_delta("bus3", 0.05, 0.02))
    assert abs(traj.vp[-1] - (stepped[-1] - stepped[0])) > 1e-4


def test_event_time_must_sit_on_the_grid(case3bus):
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        disturbances=[
            StatePerturbation(at=0.00055, component="vsg1", delta={"omega": 0.1})
        ],
    )
    with pytest.raises(ScenarioError, match="align"):
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3))


def test_unknown_component_in_disturbance(case3bus):
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        disturbances=[StatePerturbation(at=0.0, component="nope", delta={"omega": 1.0})],
    )
    with pytest.raises(ScenarioError, match="unknown component"):
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3))


def test_unknown_state_label_in_disturbance(case3bus):
    scen = Scenario(
        horizon=1.0,
        output_period=0.1,
        disturbances=[StatePerturbation(at=0.0, component="vsg1", delta={"psi": 1.0})],
    )
    with pytest.raises(ScenarioError, match="no state"):
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3))


@pytest.mark.parametrize(
    "bad, message",
    [
        (StatePerturbation(at=1.0, component="nope", delta={"omega": 1.0}),
         "unknown component 'nope'"),
        (StatePerturbation(at=1.0, component="vsg1", delta={"psi": 1.0}),
         "component 'vsg1' has no state 'psi'"),
        (LoadStep(at=1.0, bus="ghost", dp=0.1, dq=0.0),
         "disturbances[0]: load step at unknown bus 'ghost'"),
        (LoadStep(at=1.0, bus="bus1", dp=0.1, dq=0.0),
         "disturbances[0]: load step at bus 'bus1' with no constant-power branch"),
        (LineScale(at=1.0, line_index=5, factor=0.5),
         "disturbances[0]: line index 5 out of range"),
    ],
    ids=["unknown-component", "unknown-state", "unknown-load-bus", "load-step-without-load",
         "line-index"],
)
def test_bad_disturbance_rejected_before_any_work(case3bus, bad, message):
    # the bad event sits at the last step; the plan, which a run steps on,
    # refuses it, so no run can start
    scen = Scenario(horizon=1.0, output_period=0.1, disturbances=[bad])
    with pytest.raises(ScenarioError, match=re.escape(message)):
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3))


def test_coupled_passive_buses_stay_balanced(tmp_path):
    # two load buses: the inner solve is the coupled (m > 1) Newton system
    net, comps = make_two_load_chain()
    assert len(net.passive_nodes()) == 2
    sol = solve_equilibrium(net, comps)
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
        traj = simulate(plan_run(net, comps, scen, config), sol)
        out = tmp_path / f"run{run}.csv"
        traj.to_csv(str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # the step is applied at t = 0.3 and reverted at t = 0.6, before sampling
    stepped = net.with_load_delta("l2", 0.05, 0.02)
    moved = 0.0
    for s, t in enumerate(traj.times):
        active = stepped if 0.3 - 1e-9 < t < 0.6 - 1e-9 else net
        p, q = np.split(power_injection(net, traj.x[s]), 2)
        for node in net.passive_nodes():
            assert abs(p[node] + active.load_p[node]) <= config.newton_tol
            assert abs(q[node] + active.load_q[node]) <= config.newton_tol
        moved = max(moved, float(np.max(np.abs(traj.V[s] - sol.state.V))))
    assert moved > 1e-4


def test_chord_jacobian_refreshed_after_line_scale(tmp_path):
    # two load buses take the chord path; the scaled line changes the
    # passive-bus Jacobian, so the kept inverse must be rebuilt
    net, comps = make_two_load_chain()
    sol = solve_equilibrium(net, comps)
    kick = StatePerturbation(at=0.0, component="vsg1", delta={"omega": 0.1})
    config = SolverConfig(step_size=1e-3)
    quiet_run = simulate(
        plan_run(net, comps, Scenario(1.0, 0.01, disturbances=[kick]), config),
        sol,
    )
    assert quiet_run.jacobian_factorizations * 100 <= quiet_run.inner_solves
    scen = Scenario(
        horizon=1.0,
        output_period=0.01,
        disturbances=[kick, LineScale(at=0.3, line_index=1, factor=0.5, duration=0.3)],
    )
    manifests = []
    for run in range(2):
        traj = simulate(plan_run(net, comps, scen, config), sol)
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
        p, q = np.split(power_injection(active, traj.x[s]), 2)
        for node in net.passive_nodes():
            assert abs(p[node] + net.load_p[node]) <= config.newton_tol
            assert abs(q[node] + net.load_q[node]) <= config.newton_tol


def engine_for(net, config=SolverConfig()):
    """An inner-solve engine on `net`, with a swing source on every dynamic
    bus (the setpoints only fill the array path's affine table)."""
    sp = Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0)
    comps = {
        s.component_id: VsgComponent(
            id=s.component_id, bus=s.bus, M=0.2, Dp=0.1, Dq=0.05, tau_q=0.5, setpoints=sp
        )
        for s in net.dynamic_shunts
    }
    return _make_engine(net, comps, config)


def rest_state(engine, x):
    """The sources' states (theta, omega, v) at rest at their buses' theta
    and V in the stacked bus state x, so a stage scatters x back unchanged."""
    n = len(x) // 2
    return engine.buffer([s for node, _, _, _ in engine.terminals for s in (x[node], 0.0, x[n + node])])


def equilibrium_states(engine, sol):
    """The components' states, back to back, at rest at the equilibrium `sol`."""
    anchors = [sol.anchors[cid] for cid in engine.comp_ids]
    return [x for c, a in zip(engine.comps, anchors) for x in c.equilibrium_state(a.theta, a.V)]


@settings(max_examples=60, deadline=None)
@given(case=thevenin_networks())
def test_uncoupled_passive_buses_solve_without_iteration(case):
    # one passive bus takes the float closed form on lists, more take the
    # array one on arrays
    net, v, th = case
    engine = engine_for(net)
    x = engine.buffer(stacked(v, th))
    assert isinstance(x, list) == (len(net.passive_nodes()) == 1)
    _, pq = engine.stage(rest_state(engine, x), x, 0.0)
    p, q = np.split(np.array(pq), 2)
    p_ref, q_ref = np.split(power_injection(net, np.array(x)), 2)
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
    engine = engine_for(net)
    with pytest.raises(SimulationError, match=r"^voltage collapse at bus 'b1', t = 0\.25$"):
        engine.stage(rest_state(engine, stacked(v, th)), engine.buffer(stacked(v, th)), 0.25)


@settings(max_examples=40, deadline=None)
@given(case=ring_networks())
def test_tangent_is_the_derivative_of_the_passive_solution(case):
    # K = -J_pp^-1 J_pd, kept with the factorization, against central
    # differences of the chord's solutions as each boundary coordinate moves
    net, v, th = case
    # near the flat state, far from the loadability limit, where the
    # passive solution's curvature keeps the central difference accurate
    v, th = 1.0 + 0.125 * (v - 1.0), 0.05 * th / math.pi
    x = stacked(v, th)
    p, q = np.split(power_injection(net, x), 2)
    # loads that balance the passive buses at the drawn state
    loads = [ConstantPowerBranch(net.non_ground[i], -p[i], -q[i]) for i in net.passive_nodes()]
    net = NetworkModel(net.buses, net.lines, loads, net.dynamic_shunts)
    engine = engine_for(net, SolverConfig(newton_tol=1e-12))
    assert isinstance(engine, _ArrayEngine) and engine.coupled
    engine._factorize(x, power_injection(net, x), 0.0)
    tangent = engine.tangent.copy()
    pas, nodes = engine.passive, engine.boundary_nodes
    assert tangent.shape == (2 * len(pas), 2 * len(nodes))
    eps = 1e-7
    # the boundary buses' theta rows, then their V rows, in x = (theta, V)
    for j, row in enumerate(engine.boundary_rows):
        solved = []
        for sign in (1.0, -1.0):
            moved = x.copy()
            moved[row] += sign * eps
            engine._solve_chord(moved, 0.0)
            solved.append(moved[engine.passive_rows])
        fd = (solved[0] - solved[1]) / (2.0 * eps)
        np.testing.assert_allclose(tangent[:, j], fd, rtol=1e-5, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(case=float_path_cases())
def test_float_stage_is_every_derivative_on_the_kernel(case):
    # the stage's (dy, P, Q) against each component's written derivative at
    # the array kernel's injections of the solved bus state
    net, comps, y, v, th = case
    engine = _make_engine(net, comps, SolverConfig())
    assert type(engine) is _Engine
    n = net.n_nodes
    x = engine.buffer(stacked(v, th))
    dy, pq = engine.stage(list(y), x, 0.0)
    p, q = pq[:n], pq[n:]
    p_ref, q_ref = np.split(power_injection(net, np.array(x)), 2)
    dy_ref = []
    for (node, _, _, cid), lo in zip(engine.terminals, engine.offsets):
        comp = comps[cid]
        dy_ref += comp.derivative(y[lo : lo + comp.nstates], (p_ref[node], q_ref[node]))
    np.testing.assert_allclose(dy, dy_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q, q_ref, rtol=0.0, atol=1e-12)
    for node in net.passive_nodes():
        assert abs(p[node] + net.load_p[node]) <= engine.config.newton_tol
        assert abs(q[node] + net.load_q[node]) <= engine.config.newton_tol
    for node, i_theta, i_v, _ in engine.terminals:
        assert (x[n + node], x[node]) == (y[i_v], y[i_theta])
    # the closed form balanced the passive bus; the chord did not run
    assert (engine.inner_solves, engine.inner_iterations, engine.factorizations) == (1, 0, 0)


def force_chord(monkeypatch):
    """Make the closed form miss the balance, V -> 1.01 V and theta ->
    theta + 0.01 from the warm start, in the generated step (through the
    source it writes) and in the loop reference (through the function)."""
    monkeypatch.setattr(
        _Engine, "_closed_form_source",
        lambda *args: ["vb = 1.01 * vb", "tb = tb + 0.01"],
    )
    monkeypatch.setattr(
        network, "passive_bus_solution", lambda *args: (1.01 * args[5], args[6] + 0.01)
    )


def test_float_stage_continues_by_the_chord(monkeypatch, case3bus, case3bus_solution):
    # a closed form that misses the balance: the chord iteration takes over
    # and the stage returns, and leaves in x, the state it accepted
    force_chord(monkeypatch)
    net = case3bus.net
    engine = _make_engine(net, case3bus.components, case3bus.solver)
    y = equilibrium_states(engine, case3bus_solution)
    x = engine.buffer(case3bus_solution.state.x)
    _, pq = engine.stage(y, x, 0.0)
    assert pq == power_injection(net, np.array(x)).tolist()
    p, q = np.split(np.array(pq), 2)
    for node in net.passive_nodes():
        assert abs(p[node] + net.load_p[node]) <= engine.config.newton_tol
        assert abs(q[node] + net.load_q[node]) <= engine.config.newton_tol
    assert engine.inner_iterations > 0 and engine.factorizations == 1


def bits(values):
    """Each float's bit pattern, so that -0.0 and NaN compare as themselves."""
    return [float.hex(float(x)) for x in values]


def run_steps(make, net, comps, y, v, th, h, stops, switched=None, switch_at=1):
    """RK4 steps, on the engine `make` builds, from the state y and the bus
    state (v, th): one ``advance`` call up to each step in `stops`,
    switching the engine to the network `switched` at the stop `switch_at`.
    Returns the (y, dy, stacked P and Q, stacked bus state, integrals) of
    every stop as bit patterns and then the inner-solve counters, or then
    the message of the collapse that stopped the run."""
    engine = make(net, comps, SolverConfig())
    assert isinstance(engine, _ArrayEngine) == (len(net.passive_nodes()) > 1)
    y, x = engine.buffer(y), engine.buffer(stacked(v, th))
    sps = {cid: comp.setpoints for cid, comp in comps.items()}
    anchors = {cid: Anchor(sp.P_e, sp.Q_e, sp.V_e, sp.theta_e) for cid, sp in sps.items()}
    out = []
    try:
        dy, pq = engine.stage(y, x, 0.0)
        engine.start_integrals(anchors, y, pq)
        first = 0
        for stop in stops:
            y, dy, pq = engine.advance(y, dy, x, h, first, stop)
            if switched is not None and stop == switch_at:
                engine.use_network(switched)
                dy, pq = engine.stage(y, x, stop * h)
                engine.prev = engine.endpoints(y, pq)
            out.append([bits(a) for a in (y, dy, pq, x, engine.shifted, [engine.unshifted])])
            first = stop
    except SimulationError as exc:
        # the counters of a stopped run are not reported anywhere
        return out, str(exc)
    return out, (engine.inner_solves, engine.inner_iterations, engine.factorizations)


@settings(max_examples=60, deadline=None)
@given(case=float_path_cases(), h=st.sampled_from([1e-3, 1e-2]), data=st.data())
def test_generated_step_is_the_loop_reference_bitwise(case, h, data):
    # the generated stage and step against the loops they replace, with no
    # event, a line scale or (at the passive bus) a load step after step 1
    net, comps, y, v, th = case
    networks = [None]
    if net.lines:
        networks.append(net.with_scaled_line(data.draw(st.integers(0, len(net.lines) - 1)),
                                             data.draw(st.floats(0.5, 2.0))))
    if net.constant_power:
        networks.append(net.with_load_delta(net.constant_power[0].bus,
                                            data.draw(st.floats(-0.2, 0.2)),
                                            data.draw(st.floats(-0.2, 0.2))))
    switched = data.draw(st.sampled_from(networks))
    steps = range(1, 21)
    generated = run_steps(_make_engine, net, comps, y, v, th, h, steps, switched)
    assert generated == run_steps(ReferenceEngine, net, comps, y, v, th, h, steps, switched)


def array_path_case(name, data):
    """A network of the array path with its components and a state near its
    equilibrium: the load ladder (closed form), the mesh (coupled chord) or
    a drawn ring (coupled chord, every bus but one passive), with drawn
    nonzero kicks to the sources' states."""
    if name == "ring":
        net, v, th = data.draw(ring_networks())
        # near the flat state, where the chord converges
        v, th = 1.0 + 0.125 * (v - 1.0), 0.05 * th / math.pi
        sp = Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0)
        comps = {s.component_id: VsgComponent(s.component_id, s.bus, 0.2, 0.1, 0.05, 0.5, sp)
                 for s in net.dynamic_shunts}
        net, comps = at_rest(net, comps, v, th)
    else:
        net, comps = make_load_ladder() if name == "ladder" else make_mesh()
        sol = solve_equilibrium(net, comps)
        v, th = sol.state.V, sol.state.theta
    y = []
    for shunt in net.dynamic_shunts:
        comp = comps[shunt.component_id]
        node = net.node_index[shunt.bus]
        rest = dict(zip(comp.state_labels, comp.equilibrium_state(th[node], v[node])))
        label = data.draw(st.sampled_from(comp.state_labels))
        rest[label] += data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(0.01, 0.05))
        y += [rest[label] for label in comp.state_labels]
    return net, comps, y, v, th


@pytest.mark.parametrize("name", ["ladder", "mesh", "ring"])
@settings(max_examples=15, deadline=None)
@given(h=st.sampled_from([1e-3, 1e-2]), data=st.data())
def test_array_step_is_the_loop_reference_bitwise(name, h, data):
    # the array path's stage and step against the loops on the kernel's
    # kernel power_injection, passive_bus_solution and the chord on the angle
    # and voltage rows of x, with no event, a line scale or a load step at a
    # drawn stop
    net, comps, y, v, th = array_path_case(name, data)
    assert len(net.passive_nodes()) > 1
    networks = [None, net.with_scaled_line(data.draw(st.integers(0, len(net.lines) - 1)),
                                           data.draw(st.floats(0.5, 2.0)))]
    networks.append(net.with_load_delta(data.draw(st.sampled_from(net.constant_power)).bus,
                                        data.draw(st.floats(-0.05, 0.05)),
                                        data.draw(st.floats(-0.05, 0.05))))
    switched = data.draw(st.sampled_from(networks))
    stops = sorted(data.draw(st.sets(st.integers(1, 9), max_size=4)) | {10})
    switch_at = data.draw(st.sampled_from(stops))
    args = (net, comps, y, v, th, h, stops, switched, switch_at)
    stepped = run_steps(_make_engine, *args)
    assert stepped == run_steps(ArrayReferenceEngine, *args)
    # the run went through every stop, and the coupled cases iterated
    assert len(stepped[0]) == len(stops)
    assert (stepped[1][1] > 0) == (name != "ladder")


@settings(max_examples=30, deadline=None)
@given(case=float_path_cases(), data=st.data())
def test_one_advance_over_several_steps_is_the_single_steps_bitwise(case, data):
    # one advance(first, stop) call per drawn stop, with a line scale at one
    # of them, against one call per step and against the loop reference
    net, comps, y, v, th = case
    stops = sorted(data.draw(st.sets(st.integers(1, 19), max_size=5)) | {20})
    switch_at = data.draw(st.sampled_from(stops))
    switched = net.with_scaled_line(0, 0.5) if net.lines else None
    args = (net, comps, y, v, th, 1e-2)
    several = run_steps(_make_engine, *args, stops, switched, switch_at)
    assert several == run_steps(ReferenceEngine, *args, stops, switched, switch_at)
    single = run_steps(_make_engine, *args, range(1, 21), switched, switch_at)
    # a collapse stops both runs at the same step
    assert several[0] == [single[0][stop - 1] for stop in stops if stop <= len(single[0])]
    assert several[1] == single[1]


def generated_closed_form(engine, net):
    """The closed form the generated stage writes for `net`'s passive bus,
    compiled alone: ``solve(e_re, e_im, v0, theta0) -> (V, theta)``."""
    body = engine._closed_form_source(net, engine.passive_nodes[0], "e_re", "e_im")
    source = "\n".join(
        ["def solve(e_re, e_im, vb, tb):", *("    " + line for line in body), "    return vb, tb"]
    )
    namespace = {"sqrt": math.sqrt, "atan2": math.atan2}
    exec(source, namespace)
    return namespace["solve"]


def outcome(fn, *args):
    """What fn returns, as bit patterns, or the type of the error it raises."""
    try:
        return bits(fn(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


HIGH_ROOT = dict(xs=[0.3, 0.6], sources=[(1.0, 0.1), (0.95, -0.2)], psi=0.2, load=0.6,
                 v0=1.0, angle=0.0, turns=0)


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    sources=st.lists(st.tuples(st.floats(0.9, 1.1), st.floats(-0.3, 0.3)), min_size=3,
                     max_size=3),
    psi=st.floats(-0.5, 0.5),
    load=st.floats(-0.5, 1.5),
    v0=st.floats(1e-3, 1.5),
    angle=st.floats(-math.pi, math.pi),
    turns=st.integers(-5, 5),
)
@example(**HIGH_ROOT)
@example(**{**HIGH_ROOT, "v0": 0.05})  # the low root
@example(**{**HIGH_ROOT, "load": 0.0})  # no load: the high root, whatever v0
@example(**{**HIGH_ROOT, "load": 0.0, "v0": 0.05})
@example(**{**HIGH_ROOT, "turns": 4, "angle": 3.0})  # warm start turns away
@example(**{**HIGH_ROOT, "turns": -3, "angle": -3.1})
@example(**{**HIGH_ROOT, "load": 1.2})  # beyond the transfer limit
def test_generated_closed_form_is_the_function_bitwise(xs, sources, psi, load, v0, angle, turns):
    # a passive bus fed by len(xs) sources at (V, theta) = sources, with a
    # load taking the fraction `load` of its transfer limit there, and the
    # warm start (v0, angle + turns 2 pi)
    ids = [f"b{j}" for j in range(len(xs))]
    buses = [Bus(bid, BusKind.DYNAMIC) for bid in ids]
    buses += [Bus("pb", BusKind.PASSIVE), Bus("gnd", BusKind.GROUND)]
    lines = [LosslessLine("pb", bid, x) for bid, x in zip(ids, xs)]
    shunts = [DynamicShunt(bid, f"c{j}") for j, bid in enumerate(ids)]
    sp = Setpoints(0.0, 0.0, 1.0, 0.0)
    comps = {s.component_id: DroopComponent(s.component_id, s.bus, 0.5, 0.5, 0.5, 0.5, sp)
             for s in shunts}
    probe = NetworkModel(buses, lines, [], shunts)
    bus = len(xs)
    v = [sv for sv, _ in sources[:bus]] + [v0]
    th = [sa for _, sa in sources[:bus]] + [angle + turns * TWO_PI]
    # E as the stage forms it
    e_re = e_im = 0.0
    for i, k, b in probe.edges:
        bv = b * v[k]
        e_re = e_re + bv * math.cos(th[k])
        e_im = e_im + bv * math.sin(th[k])
    s = probe.coupling_sum[bus]
    p = load * (e_re * e_re + e_im * e_im) / (2.0 * s * (math.tan(psi) + 1.0 / math.cos(psi)))
    net = NetworkModel(buses, lines, [ConstantPowerBranch("pb", p, p * math.tan(psi))], shunts)
    engine = _make_engine(net, comps, SolverConfig())
    want = outcome(passive_bus_solution, e_re, e_im, s, net.load_p[bus], net.load_q[bus],
                   v[bus], th[bus], math.sqrt, math.atan2)
    assert outcome(generated_closed_form(engine, net), e_re, e_im, v[bus], th[bus]) == want
    if isinstance(want, list):
        return
    # no solution: the generated stage and the loop reference collapse alike
    messages = []
    for make in (_make_engine, ReferenceEngine):
        engine = make(net, comps, SolverConfig())
        y = [0.0] * engine.ny
        for node, i_theta, i_v, _ in engine.terminals:
            y[i_theta], y[i_v] = th[node], v[node]
        with pytest.raises(SimulationError) as exc:
            engine.stage(y, engine.buffer(stacked(v, th)), 0.25)
        messages.append(str(exc.value))
    assert messages == ["voltage collapse at bus 'pb', t = 0.25"] * 2


def test_generated_step_reads_only_the_engine_and_math(case3bus):
    # the generated code reaches the input only through the engine and its
    # literals, and calls nothing but math's functions and the builtins
    engine = _make_engine(case3bus.net, case3bus.components, case3bus.solver)
    functions = ("sin", "cos", "sqrt", "atan2", "log")
    for fn in (engine.stage, engine.advance):
        names = fn.__globals__
        assert set(names) - {"__builtins__", "stage", "advance"} == {"engine", *functions}
        assert names["engine"] is engine
        assert all(names[f] is getattr(math, f) for f in functions)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0", None, np.int64(1)])
def test_generated_source_takes_only_ints_and_finite_floats(value):
    with pytest.raises(ValueError, match="not an int or a finite float"):
        _literal(value)


def test_generated_source_spells_floats_exactly():
    for value in (-0.0, 5e-324, 0.1, -1.7976931348623157e308, np.float64(1 / 3)):
        text = _literal(value)
        assert text == repr(float(value)) and float.hex(eval(text)) == float.hex(float(value))
    assert _literal(7) == "7"


def trajectory_bits(traj):
    return (
        [bits(row) for row in traj.table()],
        bits(traj.unshifted_integral),
        (traj.inner_solves, traj.inner_iterations, traj.jacobian_factorizations),
    )


@pytest.mark.parametrize("chord", [False, True], ids=["closed-form", "chord"])
def test_generated_step_runs_case3bus_as_the_reference(monkeypatch, case3bus, case3bus_solution, chord):
    # the packaged kicks, a load step and a line scale: the step is built
    # again at each of the four network switches. With a closed form that
    # misses the balance, every stage continues by the chord iteration
    if chord:
        force_chord(monkeypatch)
    events = [
        LoadStep(at=0.1, bus="bus3", dp=0.05, dq=0.02, duration=0.1),
        LineScale(at=0.15, line_index=1, factor=0.5, duration=0.1),
    ]
    scen = Scenario(0.4, 0.01, disturbances=[*case3bus.scenario.disturbances, *events])
    args = (
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    generated = simulate(*args)
    monkeypatch.setattr("phasorstab.engine._make_engine", ReferenceEngine)
    assert trajectory_bits(generated) == trajectory_bits(simulate(*args))
    assert generated.network_changed
    assert (generated.inner_iterations > 0) == chord


@pytest.mark.parametrize(
    "fault, message",
    [("slope", "voltage collapse in component 'droop2' at t = 0.0075"),
     ("load", "voltage collapse at bus 'bus3', t = 0.0075")],
)
def test_generated_step_collapses_as_the_reference(case3bus, case3bus_solution, fault, message):
    # inside a step, at its first inner stage: droop2's v crosses zero along
    # its slope, or a load beyond the transfer limit leaves no closed form
    raised = []
    for make in (_make_engine, ReferenceEngine):
        engine = make(case3bus.net, case3bus.components, case3bus.solver)
        y = engine.buffer(equilibrium_states(engine, case3bus_solution))
        x = engine.buffer(case3bus_solution.state.x)
        dy, pq = engine.stage(y, x, 0.0)
        engine.start_integrals(case3bus_solution.anchors, y, pq)
        if fault == "slope":
            dy[engine.terminals[1][2]] = -4000.0
        else:
            engine.use_network(case3bus.net.with_load_delta("bus3", 50.0, 50.0))
        with pytest.raises(SimulationError) as exc:
            engine.advance(y, dy, x, 1e-3, 7, 8)
        raised.append(str(exc.value))
    assert raised == [message, message]


def test_any_component_id_runs_and_is_named_in_a_collapse():
    # ids reach the generated step only through the engine, never its source:
    # a quote, a backslash and braces would break a literal or an f-string
    # there (a double quote or a line break is not a valid id)
    cid = "v'1\\{x}}"
    net, comps = make_compensated_load_case(cid)
    sol = solve_equilibrium(net, comps)
    kick = StatePerturbation(at=0.0, component=cid, delta={"omega": 0.05})
    traj = simulate(
        plan_run(net, comps, Scenario(0.1, 0.01, disturbances=[kick]), SolverConfig()),
        sol,
    )
    assert traj.component_ids() == [cid]
    assert np.isfinite(traj.comp_states[cid]).all() and traj.comp_states[cid][-1, 1] != 0.0
    fall = StatePerturbation(at=0.05, component=cid, delta={"v": -2.0})
    with pytest.raises(SimulationError) as exc:
        simulate(
            plan_run(net, comps, Scenario(0.1, 0.01, disturbances=[fall]), SolverConfig()),
            sol,
        )
    assert str(exc.value) == f"voltage collapse in component {cid!r} at t = 0.05"


def test_float_and_array_paths_agree_on_case3bus(monkeypatch, case3bus, case3bus_solution):
    # the packaged kicks plus a load step, through the float path and through
    # the array path forced on the same one-passive-bus case
    step = LoadStep(at=0.5, bus="bus3", dp=0.05, dq=0.02, duration=0.5)
    scen = Scenario(2.0, 0.01, disturbances=[*case3bus.scenario.disturbances, step])
    config = SolverConfig(step_size=1e-3)
    args = (plan_run(case3bus.net, case3bus.components, scen, config), case3bus_solution)
    assert type(_make_engine(case3bus.net, case3bus.components, config)) is _Engine
    on_floats = simulate(*args)
    monkeypatch.setattr("phasorstab.engine._make_engine", _ArrayEngine)
    on_arrays = simulate(*args)
    assert on_floats.columns() == on_arrays.columns()
    np.testing.assert_allclose(on_arrays.table(), on_floats.table(), rtol=0.0, atol=1e-12)
    assert on_arrays.manifest() == on_floats.manifest()
    assert on_floats.network_changed


def dynamics_case(name, case3bus):
    """case3bus with its kicks (the float path), or the mesh with a kick and
    a load step (the array path, coupled chord, a network rebuilt twice)."""
    if name == "case3bus":
        scen = Scenario(1.0, 0.01, disturbances=case3bus.scenario.disturbances)
        return case3bus.net, case3bus.components, scen
    net, comps = make_mesh()
    load_bus = net.non_ground[net.passive_nodes()[-1]]
    step = LoadStep(at=0.1, bus=load_bus, dp=0.05, dq=0.02, duration=0.1)
    return net, comps, Scenario(0.3, 0.01, disturbances=[*kicked_pair(comps), step])


@pytest.mark.parametrize("name", ["case3bus", "mesh"])
def test_dynamics_are_evaluated_only_by_the_table_builds(monkeypatch, case3bus, name):
    # the step and the diagnostics read the affine table's dy: a model's
    # derivative runs once for affine_matrix and once for affine_offset.
    # The run takes fresh instances, whose tables the solve has not built
    net, comps, scen = dynamics_case(name, case3bus)
    sol = solve_equilibrium(net, comps)
    comps = {cid: replace(comp) for cid, comp in comps.items()}
    calls = []
    for model in (VsgComponent, DroopComponent):
        def counted(self, x, u, derivative=model.derivative):
            calls.append(self.id)
            return derivative(self, x, u)

        monkeypatch.setattr(model, "derivative", counted)
    traj = simulate(plan_run(net, comps, scen, SolverConfig()), sol)
    assert traj.n_samples > 1
    assert sorted(calls) == sorted(list(comps) * 2)


@pytest.mark.parametrize("name", ["case3bus", "mesh"])
def test_diagnostics_from_dy_match_the_model_derivative(case3bus, name):
    # the storage and supply rates from the recorded dy against the same
    # rates from each model's derivative at the samples; they differ only
    # by the rounding of the table's row sums, bounded by the magnitude of
    # the terms each row sums
    net, comps, scen = dynamics_case(name, case3bus)
    traj = simulate(plan_run(net, comps, scen, SolverConfig()), solve_equilibrium(net, comps))
    for cid, comp in comps.items():
        x = traj.comp_states[cid].T
        P, Q = traj.P[cid], traj.Q[cid]
        anchor = traj.equilibrium.anchors[cid]
        f = comp.derivative(x, (P, Q))
        i_theta, i_v = comp.state_labels.index("theta"), comp.state_labels.index("v")
        dp, dq = P - anchor.P, Q - anchor.Q
        terms = np.abs(comp.affine_matrix()) @ np.abs(np.vstack([x, P, Q]))
        terms += np.abs(comp.affine_offset())[:, None]
        gradient = np.broadcast_arrays(*comp.storage_gradient(x, anchor))
        expected = {
            "storage_rate": (
                comp.storage_rate(x, f, anchor),
                sum(np.abs(g) * row for g, row in zip(gradient, terms)),
            ),
            "supply": (
                supply_rate(dp, dq, f[i_theta], x[i_v], f[i_v]),
                np.abs(dp) * terms[i_theta] + np.abs(dq) * terms[i_v] / x[i_v],
            ),
        }
        for series, (want, scale) in expected.items():
            got = getattr(traj, series)[cid]
            assert np.all(np.abs(got - want) <= 1e-15 * scale), (cid, series)
        assert np.abs(traj.supply[cid]).max() > 1e-6


def passive_residuals(traj, active_at):
    """Largest passive balance residual of each sample, against the network
    `active_at(t)` returns."""
    out = []
    for s, t in enumerate(traj.times):
        active = active_at(t)
        p, q = np.split(power_injection(active, traj.x[s]), 2)
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
    sol = solve_equilibrium(net, comps)
    outputs = []
    for run in range(2):
        traj = simulate(plan_run(net, comps, scen, config), sol)
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
    sol = solve_equilibrium(net, comps)
    scen = kicked_sources(comps, 0.5)
    scen.disturbances.append(LoadStep(at=0.1, bus="b3", dp=0.2, dq=0.1, duration=0.2))
    config = SolverConfig(step_size=1e-3)
    traj = simulate(plan_run(net, comps, scen, config), sol)
    stepped = net.with_load_delta("b3", 0.2, 0.1)
    residuals = passive_residuals(
        traj, lambda t: stepped if 0.1 - 1e-9 < t < 0.3 - 1e-9 else net
    )
    assert np.all(residuals <= config.newton_tol)
    # against the unchanged loads the stepped samples are far off balance
    during = (traj.times > 0.1 + 1e-9) & (traj.times < 0.3 - 1e-9)
    assert np.all(passive_residuals(traj, lambda t: net)[during] >= 0.1)
    assert (traj.inner_iterations, traj.jacobian_factorizations) == (0, 0)


def kicked_pair(comps):
    """A kick to the first two sources: omega of a swing source, v of a droop."""
    return [
        StatePerturbation(
            at=0.0, component=cid,
            delta={"omega": 0.1} if "omega" in comps[cid].state_labels else {"v": -0.02},
        )
        for cid in list(comps)[:2]
    ]


# (kicked run's chord steps, factorizations of the run with events) of the
# chord iteration without the tangent predictor, on the scenarios below
WITHOUT_PREDICTOR = {"two-load-chain": (5566, 5), "mesh": (4661, 5)}


@pytest.mark.parametrize("name", ["two-load-chain", "mesh"])
def test_array_path_with_events_stays_balanced(tmp_path, name):
    net, comps = make_two_load_chain() if name == "two-load-chain" else make_mesh()
    passive = net.passive_nodes()
    assert len(passive) >= 2
    assert any(i in passive and k in passive for i, k, _ in net.edges)
    sol = solve_equilibrium(net, comps)
    config = SolverConfig(step_size=1e-3)
    load_bus = net.non_ground[passive[-1]]
    events = [
        LoadStep(at=0.1, bus=load_bus, dp=0.05, dq=0.02, duration=0.2),
        LineScale(at=0.15, line_index=1, factor=0.5, duration=0.2),
    ]
    scen = Scenario(0.5, 0.01, disturbances=kicked_pair(comps) + events)
    outputs = []
    for run in range(2):
        traj = simulate(plan_run(net, comps, scen, config), sol)
        out = tmp_path / f"run{run}.csv"
        traj.to_csv(str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    stepped = net.with_load_delta(load_bus, 0.05, 0.02)

    def active_at(t):
        active = stepped if 0.1 - 1e-9 < t < 0.3 - 1e-9 else net
        return active.with_scaled_line(1, 0.5) if 0.15 - 1e-9 < t < 0.35 - 1e-9 else active

    assert np.all(passive_residuals(traj, active_at) <= config.newton_tol)
    # the events visibly move the passive buses: against the unchanged
    # network the samples while they are active are off balance
    during = (traj.times > 0.1 + 1e-9) & (traj.times < 0.35 - 1e-9)
    assert np.all(passive_residuals(traj, lambda t: net)[during] > 1e-3)
    chord_steps, factorizations = WITHOUT_PREDICTOR[name]
    # one at the start, and one after each of the four network switches
    assert traj.jacobian_factorizations <= factorizations
    kicked_run = simulate(
        plan_run(net, comps, Scenario(0.5, 0.01, disturbances=kicked_pair(comps)), config),
        sol,
    )
    assert kicked_run.jacobian_factorizations == 1
    assert kicked_run.inner_iterations < chord_steps
    assert np.all(passive_residuals(kicked_run, lambda t: net) <= config.newton_tol)


def test_chord_failure_reports_time_and_residual():
    net, comps = make_two_load_chain()
    sol = solve_equilibrium(net, comps)
    scen = Scenario(
        horizon=0.1,
        output_period=0.01,
        disturbances=[StatePerturbation(at=0.0, component="vsg1", delta={"v": 0.01})],
    )
    with pytest.raises(
        SimulationError,
        match=r"inner Newton failed at t = 0 \(residual \d\.\d{3}e-\d+, [PQ] balance at bus 'l[12]'\)",
    ):
        simulate(plan_run(net, comps, scen, SolverConfig(newton_max_iter=0)), sol)


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
    traj = simulate(plan_run(net, comps, scen, SolverConfig(step_size=1e-3)))
    assert traj.comp_states["vsg1"][0, 1] == 0.2
    # flows stay identically zero: the far bus simply tracks the source
    assert np.max(np.abs(traj.P["vsg1"])) <= 1e-9
    assert np.max(np.abs(traj.V[:, 1] - traj.V[:, 0])) <= 1e-9


def test_voltage_collapse_is_reported(compensated_load_case):
    net, comps = compensated_load_case
    sol = solve_equilibrium(net, comps)
    scen = Scenario(
        horizon=5.0,
        output_period=0.1,
        disturbances=[LoadStep(at=0.1, bus="load", dp=0.0, dq=30.0)],
    )
    with pytest.raises(SimulationError):
        simulate(plan_run(net, comps, scen, SolverConfig(step_size=1e-3)), sol)


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
            plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3)),
            case3bus_solution,
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
            plan_run(case3bus.net, case3bus.components, kicked(0.1), SolverConfig(step_size=1e-3)),
            case3bus_solution,
        ),
        # a source anchored at Q below -V/Dq
        "softanchor": simulate(
            plan_run(soft.net, soft.components, soft.scenario, soft.solver),
            solve_case_equilibrium(soft),
        ),
    }
    assert np.isfinite(runs["softanchor"].storage["vsg1"]).all()
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
            assert np.array_equal(parsed, expected[column]), column


def test_csv_writer_is_the_per_value_writer(tmp_path, case3bus, case3bus_solution):
    # one repr per row is each value's repr, for the values repr spells out
    traj = simulate(
        plan_run(case3bus.net, case3bus.components, kicked(0.1), SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e300, 0.1]
    traj.vp[1 : 1 + len(special)] = special
    traj.w[: len(special)] = special[::-1]
    out = tmp_path / "traj.csv"
    traj.to_csv(str(out))
    rows = "".join(",".join(map(repr, row)) + "\n" for row in traj.table().tolist())
    assert out.read_text() == ",".join(traj.columns()) + "\n" + rows


def test_csv_layout_and_manifest(tmp_path, case3bus, case3bus_solution):
    traj = simulate(
        plan_run(case3bus.net, case3bus.components, kicked(0.1), SolverConfig(step_size=1e-3)),
        case3bus_solution,
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
        plan_run(case3bus.net, case3bus.components, scen, SolverConfig(step_size=1e-3)),
        case3bus_solution,
    )
    omega = traj.comp_states["vsg1"][:, 1]
    before = np.abs(omega[traj.times < 0.5]).max()
    assert before <= 1e-12
    at_event = omega[np.searchsorted(traj.times, 0.5)]
    assert at_event == pytest.approx(0.05, abs=1e-6)
