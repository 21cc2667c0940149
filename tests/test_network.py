"""Network model: validation, injections, oracle equivalence, orthogonality."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstab.network import (
    Bus,
    BusKind,
    BusState,
    ConstantPowerBranch,
    DynamicShunt,
    LosslessLine,
    NetworkError,
    NetworkModel,
    branch_currents_oracle,
    injection_partials,
    passive_bus_solution,
    power_injection,
    tellegen_sum,
)

from conftest import ring_network_samples, ring_networks, thevenin_networks, thevenin_sources
from helpers import kcl_residual, power_injection_loop


def two_bus(x=1.0):
    return NetworkModel(
        buses=[
            Bus("a", BusKind.DYNAMIC, "ca"),
            Bus("b", BusKind.DYNAMIC, "cb"),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("a", "b", x)],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "ca"), DynamicShunt("b", "cb")],
    )


def loaded_bus():
    return NetworkModel(
        buses=[
            Bus("a", BusKind.DYNAMIC, "ca"),
            Bus("b", BusKind.PASSIVE),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("a", "b", 0.5)],
        constant_power=[ConstantPowerBranch("b", 0.4, 0.1)],
        dynamic_shunts=[DynamicShunt("a", "ca")],
    )


# -- construction ----------------------------------------------------------------


def test_case_file_coupling_values(case3bus):
    net = case3bus.net
    expected = 1.0 / 0.12
    assert [(i, k) for i, k, _ in net.edges] == [(0, 2), (1, 2)]
    for _, _, b in net.edges:
        assert b == pytest.approx(expected, rel=1e-12)
    assert net.coupling_sum == pytest.approx([expected, expected, 2 * expected], rel=1e-12)


def test_trivial_shunt_only_network_is_valid():
    net = NetworkModel(
        buses=[Bus("a", BusKind.DYNAMIC, "c"), Bus("gnd", BusKind.GROUND)],
        lines=[],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "c")],
    )
    assert net.n_nodes == 1
    assert net.dynamic_nodes() == [0]


@pytest.mark.parametrize(
    "x, message",
    [
        (0.0, "zero reactance"),
        (-0.2, "negative reactance"),
        (math.nan, "non-finite reactance"),
        (math.inf, "non-finite reactance"),
    ],
)
def test_bad_reactance_rejected(x, message):
    with pytest.raises(NetworkError, match=message):
        two_bus(x=x)


def test_duplicate_bus_ids_rejected():
    with pytest.raises(NetworkError, match="duplicate bus id"):
        NetworkModel(
            buses=[Bus("a", BusKind.PASSIVE), Bus("a", BusKind.GROUND)],
            lines=[],
            constant_power=[ConstantPowerBranch("a", 0.1, 0.0)],
            dynamic_shunts=[],
        )


def test_disconnected_graph_rejected():
    with pytest.raises(NetworkError, match="not connected"):
        NetworkModel(
            buses=[
                Bus("a", BusKind.DYNAMIC, "c"),
                Bus("island", BusKind.PASSIVE),
                Bus("gnd", BusKind.GROUND),
            ],
            lines=[],
            constant_power=[],
            dynamic_shunts=[DynamicShunt("a", "c")],
        )


def test_exactly_one_ground_required():
    with pytest.raises(NetworkError, match="exactly one ground"):
        NetworkModel(
            buses=[Bus("a", BusKind.PASSIVE)],
            lines=[],
            constant_power=[],
            dynamic_shunts=[],
        )


def test_line_to_ground_rejected():
    with pytest.raises(NetworkError, match="may not touch ground"):
        NetworkModel(
            buses=[Bus("a", BusKind.PASSIVE), Bus("gnd", BusKind.GROUND)],
            lines=[LosslessLine("a", "gnd", 0.1)],
            constant_power=[ConstantPowerBranch("a", 0.0, 0.0)],
            dynamic_shunts=[],
        )


# -- injections --------------------------------------------------------------------


def test_quarter_turn_two_bus_flows():
    net = two_bus(x=1.0)
    p, q = power_injection(net, [1.0, 1.0], [math.pi / 2, 0.0])
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert q[0] == pytest.approx(1.0, abs=1e-12)
    assert p[1] == pytest.approx(-1.0, abs=1e-12)
    assert q[1] == pytest.approx(1.0, abs=1e-12)


def test_uniform_state_has_zero_injection(case3bus):
    p, q = power_injection(case3bus.net, [1.0] * 3, [0.3] * 3)
    assert np.max(np.abs(np.concatenate([p, q]))) <= 1e-14


def test_case_operating_point_load_bus_injection(case3bus):
    v = [case3bus.operating_point[b][0] for b in case3bus.net.non_ground]
    th = [case3bus.operating_point[b][1] for b in case3bus.net.non_ground]
    p, q = power_injection(case3bus.net, v, th)
    # the declared consumption (0.03, 0.55) is reproduced to print rounding
    assert p[2] == pytest.approx(-0.03, abs=0.01)
    assert q[2] == pytest.approx(-0.55, abs=0.01)
    assert p[2] == pytest.approx(-0.0310728922157, abs=1e-10)
    assert q[2] == pytest.approx(-0.5541337630350, abs=1e-10)


state_strategy = st.tuples(
    st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-math.pi, max_value=math.pi), min_size=3, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(state=state_strategy)
def test_closed_form_matches_complex_oracle(case3bus, state):
    v, th = state
    net = case3bus.net
    p, q = power_injection(net, v, th)
    vbar = [v[i] * cmath.exp(1j * th[i]) for i in range(3)]
    currents = branch_currents_oracle(net, BusState(np.array(v), np.array(th)))
    nodal = [0j] * 3
    for idx, line in enumerate(net.lines):
        cur = currents[f"line:{line.from_bus}-{line.to_bus}:{idx}"]
        nodal[net.node_index[line.from_bus]] += cur
        nodal[net.node_index[line.to_bus]] -= cur
    for i in range(3):
        s = vbar[i] * nodal[i].conjugate()
        assert p[i] == pytest.approx(s.real, rel=1e-12, abs=1e-12)
        assert q[i] == pytest.approx(s.imag, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(state=state_strategy, shift=st.floats(min_value=-10, max_value=10))
def test_active_power_balance_and_rotation_symmetry(case3bus, state, shift):
    v, th = state
    p, q = power_injection(case3bus.net, v, th)
    assert sum(p) == pytest.approx(0.0, abs=1e-10)
    p2, q2 = power_injection(case3bus.net, v, [t + shift for t in th])
    for a, b in zip(np.concatenate([p, q]), np.concatenate([p2, q2])):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(case=ring_networks())
def test_array_kernel_scalar_loop_and_oracle_agree(case):
    net, v, th = case
    p, q = power_injection(net, v, th)
    p_loop, q_loop = power_injection_loop(net, v.tolist(), th.tolist())
    currents = branch_currents_oracle(net, BusState(v, th))
    nodal = np.zeros(net.n_nodes, dtype=complex)
    for idx, line in enumerate(net.lines):
        cur = currents[f"line:{line.from_bus}-{line.to_bus}:{idx}"]
        nodal[net.node_index[line.from_bus]] += cur
        nodal[net.node_index[line.to_bus]] -= cur
    s = v * np.exp(1j * th) * nodal.conj()
    for got_p, got_q in ((p, q), (p_loop, q_loop)):
        np.testing.assert_allclose(got_p, s.real, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_q, s.imag, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(p, p_loop, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(q, q_loop, rtol=1e-12, atol=1e-12)


def passive_balance(net, v, th):
    """Per passive bus: the balance residual and the load size |p| + |q|."""
    p, q = power_injection(net, v, th)
    return [
        (max(abs(p[n] + net.load_p[n]), abs(q[n] + net.load_q[n])),
         abs(net.load_p[n]) + abs(net.load_q[n]))
        for n in net.passive_nodes()
    ]


@settings(max_examples=100, deadline=None)
@given(case=thevenin_networks(), turns=st.integers(-3, 3))
def test_passive_bus_solution_balances_and_keeps_branch(case, turns):
    net, v, th = case
    pas = np.array(net.passive_nodes())
    e = thevenin_sources(net, v, th)[pas]
    tables = (
        e.real, e.imag, np.array(net.coupling_sum)[pas],
        np.array(net.load_p)[pas], np.array(net.load_q)[pas],
    )

    def on_floats(v0, theta0):
        out = [
            passive_bus_solution(*(col[j] for col in tables), v0[j], theta0[j], math.sqrt, math.atan2)
            for j in range(len(pas))
        ]
        return np.array([a for a, _ in out]), np.array([b for _, b in out])

    def balanced(sol_v, sol_th):
        vv, tt = v.copy(), th.copy()
        vv[pas] = sol_v
        tt[pas] = sol_th
        for residual, size in passive_balance(net, vv, tt):
            assert residual <= 1e-12 * size

    # a warm start above both roots takes the high-voltage branch, on floats
    # and on arrays. Near 1 pu is not enough: the root on the side of v0^2 is
    # taken, and a capacitive load can put the high root near 1.14 pu and the
    # roots' midpoint above 0.97^2
    v_high = 2.0 * v[pas]
    high_v, high_th = passive_bus_solution(*tables, v_high, th[pas])
    balanced(high_v, high_th)
    float_v, float_th = on_floats(v_high, th[pas])
    balanced(float_v, float_th)
    assert np.allclose(float_v, high_v, rtol=1e-14) and np.allclose(float_th, high_th, atol=1e-14)
    # a warm start on the low-voltage branch stays on it
    low_v, low_th = passive_bus_solution(*tables, 1e-3 * v[pas], th[pas])
    balanced(low_v, low_th)
    assert np.all(low_v < high_v)
    for start in (low_v, 0.5 * low_v):
        again_v, _ = passive_bus_solution(*tables, start, th[pas])
        assert np.array_equal(again_v, low_v)
    # an angle warm start offset by whole turns moves the solution with it
    theta0 = th[pas] + 2.0 * math.pi * turns
    _, turned_th = passive_bus_solution(*tables, v_high, theta0)
    assert np.all(np.abs(turned_th - theta0) <= math.pi)
    assert np.allclose(turned_th, high_th + 2.0 * math.pi * turns, rtol=0.0, atol=1e-12)


def test_injection_partials_match_finite_differences(case3bus):
    v = np.array([1.02, 0.95, 0.99])
    th = np.array([0.1, -0.05, 0.02])
    jac = injection_partials(case3bus.net, v, th)
    assert jac.shape == (6, 6)
    eps = 1e-7
    for k in range(3):
        # the P rows by the theta columns, then by the V columns
        for block, sel in ((jac[:3, :3], "t"), (jac[:3, 3:], "v")):
            vp, tp = v.copy(), th.copy()
            vm, tm = v.copy(), th.copy()
            if sel == "t":
                tp[k] += eps
                tm[k] -= eps
            else:
                vp[k] += eps
                vm[k] -= eps
            p_plus, _ = power_injection(case3bus.net, vp, tp)
            p_minus, _ = power_injection(case3bus.net, vm, tm)
            for i in range(3):
                fd = (p_plus[i] - p_minus[i]) / (2 * eps)
                assert block[i, k] == pytest.approx(fd, rel=1e-6, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(case=ring_networks())
def test_all_partial_blocks_match_finite_differences(case):
    net, v, th = case
    n = net.n_nodes
    jac = injection_partials(net, v, th)
    eps = 1e-6
    for k in range(n):
        for col, coord in ((0, th), (1, v)):
            plus, minus = coord.copy(), coord.copy()
            plus[k] += eps
            minus[k] -= eps
            args_plus = (v, plus) if col == 0 else (plus, th)
            args_minus = (v, minus) if col == 0 else (minus, th)
            p_plus, q_plus = power_injection(net, *args_plus)
            p_minus, q_minus = power_injection(net, *args_minus)
            fd_p = (np.array(p_plus) - np.array(p_minus)) / (2 * eps)
            fd_q = (np.array(q_plus) - np.array(q_minus)) / (2 * eps)
            # rows P then Q, columns theta then V
            assert np.allclose(jac[:n, col * n + k], fd_p, rtol=1e-6, atol=1e-6)
            assert np.allclose(jac[n:, col * n + k], fd_q, rtol=1e-6, atol=1e-6)


# -- oracle branch laws ------------------------------------------------------------


def test_line_current_from_unit_branch_voltage():
    net = two_bus(x=1.0)
    # branch phasor voltage j gives current -j * j = 1
    state = BusState(np.array([2.0, 1.0]), np.array([math.pi / 2, math.pi / 2]))
    cur = branch_currents_oracle(net, state)["line:a-b:0"]
    assert cur.real == pytest.approx(1.0, abs=1e-12)
    assert cur.imag == pytest.approx(0.0, abs=1e-12)


def test_zero_branch_voltage_zero_current():
    net = two_bus()
    state = BusState(np.array([1.0, 1.0]), np.array([0.4, 0.4]))
    cur = branch_currents_oracle(net, state)["line:a-b:0"]
    assert abs(cur) == 0.0


# -- KCL residual -------------------------------------------------------------------


def test_flat_start_residual_equals_load_magnitude():
    net = loaded_bus()
    state = BusState(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    res = kcl_residual(net, state, {"ca": (0.0, 0.0)})
    load_node = net.node_index["b"]
    assert abs(res[load_node]) == pytest.approx(abs(complex(0.4, 0.1)), rel=1e-12)


def test_solved_equilibrium_residual_small(case3bus, case3bus_solution):
    inj = {cid: (a.P, a.Q) for cid, a in case3bus_solution.anchors.items()}
    res = kcl_residual(case3bus.net, case3bus_solution.state, inj)
    assert max(abs(r) for r in res) <= 1e-10


def test_residual_scales_linearly_with_perturbation(case3bus, case3bus_solution):
    inj = {cid: (a.P, a.Q) for cid, a in case3bus_solution.anchors.items()}
    rng = np.random.default_rng(7)
    direction = rng.normal(size=3)
    norms = []
    for delta in (1e-4, 5e-5):
        state = BusState(
            case3bus_solution.state.V + delta * direction,
            case3bus_solution.state.theta + delta * direction[::-1],
        )
        res = kcl_residual(case3bus.net, state, inj)
        norms.append(max(abs(r) for r in res))
    assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.2)


# -- orthogonality -----------------------------------------------------------------


state_strategy_2 = st.tuples(
    st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=2, max_size=2),
    st.lists(st.floats(min_value=-math.pi, max_value=math.pi), min_size=2, max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(state=state_strategy_2)
def test_branch_voltage_current_orthogonality(state):
    # every bus carries a balancing shunt here, so balance-derived currents
    # satisfy both circuit laws at any state and the inner product vanishes;
    # states with fixed-law branches are orthogonal only once their bus
    # algebra is satisfied (covered by the trajectory-sample checks)
    v, th = state
    net = two_bus(x=0.7)
    total = tellegen_sum(net, BusState(np.array(v), np.array(th)))
    assert abs(total) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(case=ring_network_samples())
def test_tellegen_over_a_sample_axis_matches_per_sample(case):
    net, V, TH, P, Q = case
    # every branch power is at most 4 B Vmax^2 on a line, about 1 elsewhere
    scale = 1.0 + 4.0 * float(V.max()) ** 2 * sum(b for _, _, b in net.edges)
    states = BusState(V, TH)
    for inj in (None, {"src": (P, Q)}):
        batch = tellegen_sum(net, states, inj)
        assert batch.shape == (len(V),)
        for s in range(len(V)):
            one = None if inj is None else {"src": (float(P[s]), float(Q[s]))}
            ref = tellegen_sum(net, BusState(V[s], TH[s]), one)
            assert abs(batch[s] - ref) <= 1e-12 * max(abs(ref), scale)


def test_orthogonality_needs_balanced_injections(case3bus, case3bus_solution):
    inj = {cid: (a.P, a.Q) for cid, a in case3bus_solution.anchors.items()}
    balanced = tellegen_sum(case3bus.net, case3bus_solution.state, inj)
    assert abs(balanced) <= 1e-10
    inj["vsg1"] = (inj["vsg1"][0] + 0.05, inj["vsg1"][1])
    unbalanced = tellegen_sum(case3bus.net, case3bus_solution.state, inj)
    assert abs(unbalanced) == pytest.approx(0.05, rel=1e-9)


def test_constant_power_branch_current_reproduces_consumption(case3bus):
    # the power generated in the branch, -Vbar conj(I) in the associated
    # reference direction of the oracle's current, is the declared
    # consumption as negative generation, exactly
    v = [case3bus.operating_point[b][0] for b in case3bus.net.non_ground]
    th = [case3bus.operating_point[b][1] for b in case3bus.net.non_ground]
    state = BusState(np.array(v), np.array(th))
    cur = branch_currents_oracle(case3bus.net, state)["cp:bus3:0"]
    load = case3bus.net.node_index["bus3"]
    s = -state.phasors()[load] * cur.conjugate()
    assert s.real == pytest.approx(-0.03, abs=1e-12)
    assert s.imag == pytest.approx(-0.55, abs=1e-12)


# -- copy-with-modification helpers ---------------------------------------------


def test_load_delta_requires_existing_branch():
    net = two_bus()
    with pytest.raises(NetworkError, match="no constant-power branch"):
        net.with_load_delta("a", 0.1, 0.0)


def test_line_scale_divides_reactance():
    net = loaded_bus()
    scaled = net.with_scaled_line(0, 2.0)
    assert scaled.lines[0].x == pytest.approx(0.25)
    assert net.lines[0].x == 0.5  # original untouched
    with pytest.raises(NetworkError, match="positive"):
        net.with_scaled_line(0, 0.0)
