"""Shared fixtures: the packaged 3-bus case and small constructed networks."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from phasorstab.cli import back_solve_setpoints, resolve_case_path, solve_case_equilibrium
from phasorstab.components import DroopComponent, Setpoints, VsgComponent
from phasorstab.equilibrium import solve_setpoints
from phasorstab.netfile import load_case, parse_case
from phasorstab.network import (
    Bus,
    BusKind,
    ConstantPowerBranch,
    DynamicShunt,
    LosslessLine,
    NetworkModel,
    power_injection,
)
from phasorstab.scenario import plan_run
from phasorstab.simulator import simulate


@pytest.fixture(scope="session")
def case3bus():
    """Packaged 3-bus case with setpoints back-solved from its operating point."""
    return back_solve_setpoints(load_case(resolve_case_path("case3bus")))


@pytest.fixture(scope="session")
def case3bus_solution(case3bus):
    return solve_case_equilibrium(case3bus)


@pytest.fixture(scope="session")
def traj_default(case3bus, case3bus_solution):
    """The shipped default scenario (state perturbation, 40 s)."""
    return simulate(
        plan_run(case3bus.net, case3bus.components, case3bus.scenario, case3bus.solver),
        case3bus_solution,
    )


def make_vsg_pair():
    """Two swing sources over one line; rotation-symmetric, closed-form angle."""
    net = NetworkModel(
        buses=[
            Bus("a", BusKind.DYNAMIC),
            Bus("b", BusKind.DYNAMIC),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("a", "b", 1.0)],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "vsg_a"), DynamicShunt("b", "vsg_b")],
    )
    q_c = 1.0 - math.sqrt(0.99)  # reactive flow consistent with the 0.1 pu transfer
    comps = {
        "vsg_a": VsgComponent(
            id="vsg_a", bus="a", M=0.2, Dp=0.1, Dq=0.05, tau_q=0.5,
            setpoints=Setpoints(P_e=0.1, Q_e=q_c, V_e=1.0, theta_e=0.0),
        ),
        "vsg_b": VsgComponent(
            id="vsg_b", bus="b", M=0.3, Dp=0.12, Dq=0.04, tau_q=0.4,
            setpoints=Setpoints(P_e=-0.1, Q_e=q_c, V_e=1.0, theta_e=0.0),
        ),
    }
    return net, comps


def make_vsg_with_empty_bus():
    """Swing source feeding an unloaded bus: zero flow at all times."""
    net = NetworkModel(
        buses=[
            Bus("gen", BusKind.DYNAMIC),
            Bus("far", BusKind.PASSIVE),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("gen", "far", 0.5)],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("gen", "vsg1")],
    )
    comps = {
        "vsg1": VsgComponent(
            id="vsg1", bus="gen", M=0.16, Dp=0.076, Dq=0.03, tau_q=0.3,
            setpoints=Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0),
        )
    }
    return net, comps


def make_compensated_load_case(cid="vsg1"):
    """Swing source with zero reactive setpoint feeding a compensated load.

    The load bus voltage is 1/cos(alpha), which puts the source exactly at
    zero reactive output, so its storage certificate is exact.
    """
    alpha, x = 0.1, 0.5
    v2 = 1.0 / math.cos(alpha)
    p_load = math.tan(alpha) / x
    q_load = -(v2 * v2 - v2 * math.cos(alpha)) / x  # injects reactive power
    net = NetworkModel(
        buses=[
            Bus("gen", BusKind.DYNAMIC),
            Bus("load", BusKind.PASSIVE),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("gen", "load", x)],
        constant_power=[ConstantPowerBranch("load", p_load, q_load)],
        dynamic_shunts=[DynamicShunt("gen", cid)],
    )
    comps = {cid: VsgComponent(id=cid, bus="gen", M=0.2, Dp=0.1, Dq=0.05, tau_q=0.5)}
    sp = solve_setpoints(net, comps, [1.0, v2], [0.0, -alpha])
    comps[cid] = comps[cid].with_setpoints(sp.setpoints[cid])
    return net, comps


def make_mixed_pair():
    """Swing source and droop source over one line, no passive buses."""
    net = NetworkModel(
        buses=[
            Bus("a", BusKind.DYNAMIC),
            Bus("b", BusKind.DYNAMIC),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("a", "b", 0.8)],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "vsg_a"), DynamicShunt("b", "droop_b")],
    )
    comps = {
        "vsg_a": VsgComponent(
            id="vsg_a", bus="a", M=0.2, Dp=0.1, Dq=0.05, tau_q=0.5,
            setpoints=Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0),
        ),
        "droop_b": DroopComponent(
            id="droop_b", bus="b", tau_p=2.0, tau_q=3.0, Dp=0.04, Dq=0.02,
            setpoints=Setpoints(P_e=0.0, Q_e=0.0, V_e=1.0, theta_e=0.0),
        ),
    }
    return net, comps


@pytest.fixture()
def vsg_pair():
    return make_vsg_pair()


@pytest.fixture()
def vsg_empty_bus():
    return make_vsg_with_empty_bus()


@pytest.fixture()
def compensated_load_case():
    return make_compensated_load_case()


@pytest.fixture()
def mixed_pair():
    return make_mixed_pair()


@st.composite
def ring_networks(draw, min_buses=3, max_buses=12):
    """Connected network (ring plus chords, parallel lines allowed) with a
    state (V, theta) on it. Bus 0 carries a source, the rest loads."""
    n = draw(st.integers(min_buses, max_buses))
    pairs = [(j, (j + 1) % n) for j in range(n)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=n))
    pairs += [(a, (a + off) % n) for a, off in chords]
    xs = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pairs), max_size=len(pairs)))
    ids = [f"b{j}" for j in range(n)]
    net = NetworkModel(
        buses=[Bus(ids[0], BusKind.DYNAMIC)]
        + [Bus(bid, BusKind.PASSIVE) for bid in ids[1:]]
        + [Bus("gnd", BusKind.GROUND)],
        lines=[LosslessLine(ids[a], ids[b], x) for (a, b), x in zip(pairs, xs)],
        constant_power=[ConstantPowerBranch(bid, 0.1, 0.05) for bid in ids[1:]],
        dynamic_shunts=[DynamicShunt(ids[0], "src")],
    )
    v = draw(st.lists(st.floats(0.6, 1.4), min_size=n, max_size=n))
    th = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    return net, np.array(v), np.array(th)


@st.composite
def ring_network_samples(draw, max_samples=6):
    """A :func:`ring_networks` network with S states on a leading sample
    axis, V and theta of shape (S, n), and a generation pair (P, Q) of the
    source per sample, each of shape (S,)."""
    net, v, th = draw(ring_networks())
    s = draw(st.integers(1, max_samples))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = v * rng.uniform(0.9, 1.1, (s, len(v)))
    theta = th + rng.uniform(-0.5, 0.5, (s, len(v)))
    P, Q = rng.uniform(-1.0, 1.0, (2, s))
    return net, V, theta, P, Q


def thevenin_sources(net, V, theta):
    """E = sum_k B_nk V_k e^(j theta_k) over each bus's lines, by complex
    arithmetic, one entry per node."""
    e = np.zeros(net.n_nodes, dtype=complex)
    for line in net.lines:
        i = net.node_index[line.from_bus]
        k = net.node_index[line.to_bus]
        e[i] += line.coupling * V[k] * cmath.exp(1j * theta[k])
        e[k] += line.coupling * V[i] * cmath.exp(1j * theta[i])
    return e


@st.composite
def thevenin_networks(draw, load_factor=(0.1, 0.9), max_buses=12):
    """Ring of an even number of buses, sources ("c<j>" at even "b<j>") and
    loads alternating, with chords only from a load to a source, so no line
    joins two passive buses. Returns the network and a state near 1 pu.

    Each load has a power-factor angle psi and takes the fraction
    `load_factor` of the largest load at that angle its bus can draw with
    the sources held at the state, |E|^2 / (2 S (tan psi + sec psi)); a
    fraction above 1 is beyond the transfer limit."""
    n = 2 * draw(st.integers(1, max_buses // 2))
    half = n // 2 - 1
    pairs = [(j, (j + 1) % n) for j in range(n)]
    chords = draw(st.lists(st.tuples(st.integers(0, half), st.integers(0, half)), max_size=n // 2))
    pairs += [(2 * a + 1, 2 * b) for a, b in chords]
    xs = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pairs), max_size=len(pairs)))
    ids = [f"b{j}" for j in range(n)]
    v = np.array(draw(st.lists(st.floats(0.95, 1.05), min_size=n, max_size=n)))
    th = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    lines = [LosslessLine(ids[a], ids[b], x) for (a, b), x in zip(pairs, xs)]
    buses = [
        Bus(bid, BusKind.DYNAMIC) if j % 2 == 0 else Bus(bid, BusKind.PASSIVE)
        for j, bid in enumerate(ids)
    ]
    shunts = [DynamicShunt(ids[j], f"c{j}") for j in range(0, n, 2)]
    probe = NetworkModel(buses + [Bus("gnd", BusKind.GROUND)], lines, [], shunts)
    e = thevenin_sources(probe, v, th)
    loads = []
    for j in range(1, n, 2):
        psi = draw(st.floats(-0.5, 0.5))
        f = draw(st.floats(*load_factor))
        p = f * abs(e[j]) ** 2 / (2.0 * probe.coupling_sum[j] * (math.tan(psi) + 1.0 / math.cos(psi)))
        loads.append(ConstantPowerBranch(ids[j], p, p * math.tan(psi)))
    net = NetworkModel(probe.buses, lines, loads, shunts)
    return net, v, th


@st.composite
def float_path_cases(draw):
    """One to five sources of either model with drawn parameters, setpoints
    and states, on a ring plus chords, and at most one passive bus with a
    line to one or more of them and a load within its transfer limit."""
    n_src = draw(st.integers(1, 5))
    passive = draw(st.booleans())
    ids = [f"b{j}" for j in range(n_src + passive)]
    pairs = [(j, (j + 1) % n_src) for j in range(n_src)] if n_src > 2 else [(0, 1)] * (n_src - 1)
    pairs += draw(st.lists(st.tuples(st.integers(0, n_src - 1), st.integers(0, n_src - 1))
                           .filter(lambda ab: ab[0] != ab[1]), max_size=n_src))
    if passive:
        feeds = draw(st.lists(st.integers(0, n_src - 1), min_size=1, max_size=n_src, unique=True))
        pairs += [(n_src, j) for j in feeds]
    xs = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pairs), max_size=len(pairs)))
    lines = [LosslessLine(ids[a], ids[b], x) for (a, b), x in zip(pairs, xs)]
    buses = [Bus(ids[j], BusKind.DYNAMIC) for j in range(n_src)]
    buses += [Bus(bid, BusKind.PASSIVE) for bid in ids[n_src:]] + [Bus("gnd", BusKind.GROUND)]
    shunts = [DynamicShunt(ids[j], f"c{j}") for j in range(n_src)]
    v = np.array(draw(st.lists(st.floats(0.9, 1.1), min_size=len(ids), max_size=len(ids))))
    th = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=len(ids), max_size=len(ids))))
    loads = []
    if passive:
        # a drawn fraction of the largest load at a drawn power-factor angle
        probe = NetworkModel(buses, lines, [], shunts)
        e = thevenin_sources(probe, v, th)[n_src]
        psi, f = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.1, 0.9))
        p = f * abs(e) ** 2 / (2.0 * probe.coupling_sum[n_src] * (math.tan(psi) + 1.0 / math.cos(psi)))
        loads = [ConstantPowerBranch(ids[n_src], p, p * math.tan(psi))]
    net = NetworkModel(buses, lines, loads, shunts)
    param = st.floats(0.05, 2.0)
    comps, y = {}, []
    for j, shunt in enumerate(shunts):
        sp = Setpoints(*draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.9, 1.1),
                                       st.floats(-0.3, 0.3))))
        if draw(st.booleans()):
            comp = VsgComponent(shunt.component_id, shunt.bus, *draw(st.tuples(*[param] * 4)), sp)
            y += [th[j], draw(st.floats(-0.5, 0.5)), v[j]]
        else:
            comp = DroopComponent(shunt.component_id, shunt.bus, *draw(st.tuples(*[param] * 4)), sp)
            y += [th[j], v[j]]
        comps[shunt.component_id] = comp
    return net, comps, [float(x) for x in y], v, th


def at_rest(net, comps, v, th):
    """`net` and `comps` with the loads and setpoints that make the bus
    state (v, th) their equilibrium."""
    p, q = power_injection(net, v, th)
    loads = [ConstantPowerBranch(net.non_ground[i], -p[i], -q[i]) for i in net.passive_nodes()]
    net = NetworkModel(net.buses, net.lines, loads, net.dynamic_shunts)
    setpoints = solve_setpoints(net, comps, v, th).setpoints
    return net, {cid: c.with_setpoints(setpoints[cid]) for cid, c in comps.items()}


def make_load_ladder(rungs=4):
    """Two rails of `rungs` buses joined at every position, sources (swing
    and droop alternating) and loads in a checkerboard, so every load bus
    sits between sources. Loads are the ones implied by a chosen operating
    point, so setpoints back-solve exactly."""
    n = 2 * rungs
    is_load = [((j // rungs) + (j % rungs)) % 2 == 1 for j in range(n)]
    ids = [f"b{j}" for j in range(n)]
    edges = [(rail * rungs + j, rail * rungs + j + 1) for rail in (0, 1) for j in range(rungs - 1)]
    edges += [(j, rungs + j) for j in range(rungs)]
    lines = [LosslessLine(ids[i], ids[k], 0.1 + 0.01 * (e % 5)) for e, (i, k) in enumerate(edges)]
    buses = [
        Bus(bid, BusKind.PASSIVE) if is_load[j] else Bus(bid, BusKind.DYNAMIC)
        for j, bid in enumerate(ids)
    ] + [Bus("gnd", BusKind.GROUND)]
    shunts = [DynamicShunt(ids[j], f"c{j}") for j in range(n) if not is_load[j]]
    v = [0.97 - 0.002 * (j % 3) if is_load[j] else 1.0 + 0.005 * (j % 2) for j in range(n)]
    th = [0.004 * ((3 * j) % 5) - (0.03 if is_load[j] else 0.0) for j in range(n)]
    probe = NetworkModel(buses, lines, [ConstantPowerBranch(ids[j], 0.0, 0.0) for j in range(n) if is_load[j]], shunts)
    p, q = power_injection(probe, v, th)
    loads = [ConstantPowerBranch(ids[j], -p[j], -q[j]) for j in range(n) if is_load[j]]
    net = NetworkModel(buses, lines, loads, shunts)
    comps = {}
    for c, shunt in enumerate(shunts):
        if c % 2 == 0:
            comps[shunt.component_id] = VsgComponent(
                id=shunt.component_id, bus=shunt.bus, M=0.16, Dp=0.076, Dq=0.03, tau_q=0.3
            )
        else:
            comps[shunt.component_id] = DroopComponent(
                id=shunt.component_id, bus=shunt.bus, tau_p=0.5, tau_q=0.3, Dp=0.05, Dq=0.03
            )
    sp = solve_setpoints(net, comps, v, th)
    for cid in comps:
        comps[cid] = comps[cid].with_setpoints(sp.setpoints[cid])
    return net, comps


def make_two_load_chain():
    """Swing and droop sources around two load buses (a ring of four, so the
    passive-bus algebra is a coupled 4 x 4 system). Loads are the ones
    implied by a chosen operating point, so setpoints back-solve exactly."""
    ids = ["g1", "l1", "l2", "g2"]
    lines = [
        LosslessLine("g1", "l1", 0.2),
        LosslessLine("l1", "l2", 0.15),
        LosslessLine("l2", "g2", 0.25),
        LosslessLine("g2", "g1", 0.4),
    ]
    buses = [
        Bus("g1", BusKind.DYNAMIC),
        Bus("l1", BusKind.PASSIVE),
        Bus("l2", BusKind.PASSIVE),
        Bus("g2", BusKind.DYNAMIC),
        Bus("gnd", BusKind.GROUND),
    ]
    shunts = [DynamicShunt("g1", "vsg1"), DynamicShunt("g2", "droop2")]
    v = [1.0, 0.97, 0.96, 1.0]
    th = [0.0, -0.04, -0.06, -0.01]
    probe = NetworkModel(buses, lines, [ConstantPowerBranch(b, 0.0, 0.0) for b in ids[1:3]], shunts)
    p, q = power_injection(probe, v, th)
    loads = [ConstantPowerBranch(b, -p[i], -q[i]) for i, b in enumerate(ids) if b in ("l1", "l2")]
    net = NetworkModel(buses, lines, loads, shunts)
    comps = {
        "vsg1": VsgComponent(id="vsg1", bus="g1", M=0.16, Dp=0.076, Dq=0.03, tau_q=0.3),
        "droop2": DroopComponent(id="droop2", bus="g2", tau_p=0.5, tau_q=0.3, Dp=0.05, Dq=0.03),
    }
    sp = solve_setpoints(net, comps, v, th)
    for cid in comps:
        comps[cid] = comps[cid].with_setpoints(sp.setpoints[cid])
    return net, comps


def make_mesh(n=12, chords=4, seed=3):
    """A ring of `n` buses plus seeded chords between non-neighbours, one
    bus in three a load and the rest swing and droop sources alternating.
    A chord from b1 to b4 joins two loads, so the passive-bus algebra is
    coupled. Loads are the ones implied by a chosen operating point, so
    setpoints back-solve exactly."""
    rng = np.random.default_rng(seed)
    is_load = [j % 3 == 1 for j in range(n)]
    ids = [f"b{j}" for j in range(n)]
    edges = [(j, (j + 1) % n) for j in range(n)] + [(1, 4)]
    have = {frozenset(e) for e in edges}
    while len(edges) < n + 1 + chords:
        i, k = (int(v) for v in rng.choice(n, size=2, replace=False))
        if frozenset((i, k)) in have or min(abs(i - k), n - abs(i - k)) < 2:
            continue
        have.add(frozenset((i, k)))
        edges.append((min(i, k), max(i, k)))
    lines = [LosslessLine(ids[i], ids[k], 0.1 + 0.02 * (e % 4)) for e, (i, k) in enumerate(edges)]
    buses = [
        Bus(bid, BusKind.PASSIVE) if is_load[j] else Bus(bid, BusKind.DYNAMIC)
        for j, bid in enumerate(ids)
    ] + [Bus("gnd", BusKind.GROUND)]
    shunts = [DynamicShunt(ids[j], f"c{j}") for j in range(n) if not is_load[j]]
    v = [0.97 - 0.003 * (j % 2) if is_load[j] else 1.0 + 0.004 * (j % 3) for j in range(n)]
    th = [0.005 * ((5 * j) % 7) - (0.04 if is_load[j] else 0.0) for j in range(n)]
    probe = NetworkModel(buses, lines, [ConstantPowerBranch(ids[j], 0.0, 0.0) for j in range(n) if is_load[j]], shunts)
    p, q = power_injection(probe, v, th)
    loads = [ConstantPowerBranch(ids[j], -p[j], -q[j]) for j in range(n) if is_load[j]]
    net = NetworkModel(buses, lines, loads, shunts)
    comps = {}
    for c, shunt in enumerate(shunts):
        if c % 2 == 0:
            comps[shunt.component_id] = VsgComponent(
                id=shunt.component_id, bus=shunt.bus, M=0.16, Dp=0.076, Dq=0.03, tau_q=0.3
            )
        else:
            comps[shunt.component_id] = DroopComponent(
                id=shunt.component_id, bus=shunt.bus, tau_p=0.5, tau_q=0.3, Dp=0.05, Dq=0.03
            )
    sp = solve_setpoints(net, comps, v, th)
    for cid in comps:
        comps[cid] = comps[cid].with_setpoints(sp.setpoints[cid])
    return net, comps


def soft_anchor_doc():
    """Case file of a swing source anchored at Q below -V/Dq.

    A large voltage-droop gain with a capacitive load puts the anchor there
    at a perfectly solvable equilibrium.
    """
    x = 0.5
    v2, th2 = 1.16, -math.acos(1.15 / 1.16)
    p1 = v2 * math.sin(-th2) / x
    q2 = (v2 * v2 - 1.15) / x
    return {
        "name": "softanchor",
        "buses": [
            {"id": "gen", "kind": "dynamic"},
            {"id": "load", "kind": "passive"},
            {"id": "gnd", "kind": "ground"},
        ],
        "branches": [
            {"from": "gen", "to": "load", "kind": "line", "x": x},
            {"from": "load", "to": "gnd", "kind": "constant_power",
             "p0": p1, "q0": -q2},
        ],
        "components": [
            {"id": "vsg1", "bus": "gen", "model": "vsg",
             "params": {"M": 0.2, "Dp": 0.1, "Dq": 5.0, "tau_q": 0.5}}
        ],
        "operating_point": {
            "gen": {"V": 1.0, "theta": 0.0},
            "load": {"V": v2, "theta": th2},
        },
        "scenario": {"horizon": 0.5, "output_period": 0.1},
    }


def make_soft_anchor_case():
    """:func:`soft_anchor_doc` parsed, with its setpoints back-solved."""
    return back_solve_setpoints(parse_case(soft_anchor_doc()))
