"""Voltage potential, divergence, convexity, contour experiment."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstab.network import (
    Bus,
    BusKind,
    DynamicShunt,
    LosslessLine,
    NetworkModel,
)
from phasorstab.potential import (
    BregmanDivergence,
    contour_integral,
    convexity_check,
    enclosed_area,
    eval_vp,
    grad_vp,
    hessian_vp,
    path_dependence_experiment,
    rectangle_contour_pair,
    uniform_angle_mode,
)

from conftest import ring_network_samples, ring_networks
from helpers import hessian_vp_polar


def line_only_pair(x=1.0):
    return NetworkModel(
        buses=[
            Bus("a", BusKind.DYNAMIC),
            Bus("b", BusKind.DYNAMIC),
            Bus("gnd", BusKind.GROUND),
        ],
        lines=[LosslessLine("a", "b", x)],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "ca"), DynamicShunt("b", "cb")],
    )


# -- potential values ---------------------------------------------------------


def test_antiphase_line_energy():
    net = line_only_pair(x=1.0)
    assert eval_vp(net, [1.0, 1.0], [0.0, math.pi]) == pytest.approx(2.0, rel=1e-12)


def test_flat_unloaded_state_is_zero(case3bus):
    net = line_only_pair()
    assert eval_vp(net, [1.0, 1.0], [0.0, 0.0]) == 0.0


def test_case_potential_matches_branch_phasor_sum(case3bus):
    net = case3bus.net
    v, th = case3bus.operating_point.V, case3bus.operating_point.theta
    vbar = [v[i] * cmath.exp(1j * th[i]) for i in range(3)]
    expected = 0.0
    for line in net.lines:
        i = net.node_index[line.from_bus]
        k = net.node_index[line.to_bus]
        expected += 0.5 * line.coupling * abs(vbar[i] - vbar[k]) ** 2
    for cp in net.constant_power:
        i = net.node_index[cp.bus]
        expected += cp.p0 * th[i] + cp.q0 * math.log(v[i])
    assert eval_vp(net, v, th) == pytest.approx(expected, rel=1e-12)


def vp_loop(net, V, theta):
    """Vp as a Python loop over the lines and loads, the reference for the
    array form; returns the value and the sum of the terms' magnitudes."""
    total = scale = 0.0
    for i, k, b in net.edges:
        term = 0.5 * b * (V[i] ** 2 + V[k] ** 2 - 2.0 * V[i] * V[k] * math.cos(theta[i] - theta[k]))
        total += term
        scale += abs(term)
    for i, (p0, q0) in enumerate(zip(net.load_p, net.load_q)):
        term = p0 * theta[i] + q0 * math.log(V[i])
        total += term
        scale += abs(term)
    return total, scale


@settings(max_examples=60, deadline=None)
@given(case=ring_network_samples())
def test_vp_and_divergence_over_a_sample_axis_match_per_state(case):
    net, V, TH, _, _ = case
    bre = BregmanDivergence(net, V[0], TH[0])
    vp = eval_vp(net, V, TH)
    w = bre.value(V, TH, vp=vp)
    assert vp.shape == w.shape == (len(V),)
    assert np.array_equal(bre.value(V, TH), w)
    for s in range(len(V)):
        ref, scale = vp_loop(net, V[s].tolist(), TH[s].tolist())
        assert eval_vp(net, V[s], TH[s]) == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)
        assert vp[s] == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)
        w_scale = scale + abs(bre.vp0) + float(np.abs(bre.grad0).sum())
        assert w[s] == pytest.approx(bre.value(V[s], TH[s]), rel=1e-12, abs=1e-12 * w_scale)


# -- gradient ------------------------------------------------------------------


def test_gradient_equals_injections_at_equilibrium(case3bus, case3bus_solution):
    sol = case3bus_solution
    g = grad_vp(case3bus.net, sol.state.V, sol.state.theta)
    n = case3bus.net.n_nodes
    for cid in ("vsg1", "droop2"):
        i = case3bus.net.node_index[case3bus.components[cid].bus]
        assert g[i] == pytest.approx(sol.anchors[cid].P, abs=1e-10)
        assert g[n + i] == pytest.approx(sol.anchors[cid].Q, abs=1e-10)
    # constant-power bus entries vanish when its balance holds
    load = case3bus.net.node_index["bus3"]
    assert abs(g[load]) <= 1e-10
    assert abs(g[n + load]) <= 1e-10


def test_gradient_of_no_flow_state_is_load_only(case3bus):
    g = grad_vp(case3bus.net, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    n = case3bus.net.n_nodes
    load = case3bus.net.node_index["bus3"]
    expected = np.zeros(2 * n)
    expected[load] = 0.03
    expected[n + load] = 0.55
    assert np.allclose(g, expected, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    v=st.lists(st.floats(min_value=0.6, max_value=1.4), min_size=3, max_size=3),
    th=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=3, max_size=3),
)
def test_gradient_matches_finite_differences(case3bus, v, th):
    net = case3bus.net
    n = net.n_nodes
    g = grad_vp(net, v, th)
    z = np.concatenate([th, np.log(v)])
    eps = 1e-6

    def vp_of(zz):
        return eval_vp(net, np.exp(zz[n:]), zz[:n])

    for j in range(2 * n):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        fd = (vp_of(zp) - vp_of(zm)) / (2 * eps)
        assert g[j] == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_uniform_angle_shift_changes_only_load_terms(case3bus):
    net = case3bus.net
    v = [1.01, 0.96, 0.93]
    th = [0.02, -0.01, 0.004]
    base = eval_vp(net, v, th)
    c = 0.37
    shifted = eval_vp(net, v, [t + c for t in th])
    total_load = sum(cp.p0 for cp in net.constant_power)
    assert shifted - base == pytest.approx(total_load * c, rel=1e-12)


# -- Hessian -------------------------------------------------------------------


def test_two_bus_equal_voltage_theta_block():
    net = line_only_pair(x=0.5)  # B = 2
    v = 1.1
    h = hessian_vp(net, [v, v], [0.0, 0.0])
    theta_block = h[:2, :2]
    eigs = np.linalg.eigvalsh(theta_block)
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert eigs[1] == pytest.approx(2 * 2.0 * v * v, rel=1e-12)


def test_no_branch_hessian_is_zero():
    net = NetworkModel(
        buses=[Bus("a", BusKind.DYNAMIC), Bus("gnd", BusKind.GROUND)],
        lines=[],
        constant_power=[],
        dynamic_shunts=[DynamicShunt("a", "c")],
    )
    assert np.all(hessian_vp(net, [1.0], [0.0]) == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    v=st.lists(st.floats(min_value=0.7, max_value=1.3), min_size=3, max_size=3),
    th=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
)
def test_hessian_matches_finite_differences(case3bus, v, th):
    net = case3bus.net
    n = net.n_nodes
    h = hessian_vp(net, v, th)
    z = np.concatenate([th, np.log(v)])
    eps = 1e-4

    def vp_of(zz):
        return eval_vp(net, np.exp(zz[n:]), zz[:n])

    for a in range(2 * n):
        for b in range(a, 2 * n):
            zpp = z.copy(); zpp[a] += eps; zpp[b] += eps
            zpm = z.copy(); zpm[a] += eps; zpm[b] -= eps
            zmp = z.copy(); zmp[a] -= eps; zmp[b] += eps
            zmm = z.copy(); zmm[a] -= eps; zmm[b] -= eps
            fd = (vp_of(zpp) - vp_of(zpm) - vp_of(zmp) + vp_of(zmm)) / (4 * eps * eps)
            assert h[a, b] == pytest.approx(fd, rel=1e-4, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    v=st.lists(st.floats(min_value=0.6, max_value=1.4), min_size=3, max_size=3),
    th=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
)
def test_uniform_angle_mode_always_in_kernel(case3bus, v, th):
    h = hessian_vp(case3bus.net, v, th)
    mode = uniform_angle_mode(case3bus.net.n_nodes)
    assert np.linalg.norm(h @ mode) <= 1e-10 * max(1.0, np.linalg.norm(h))


@settings(max_examples=40, deadline=None)
@given(case=ring_networks())
def test_hessian_is_symmetric_gradient_jacobian(case):
    net, v, th = case
    n = net.n_nodes
    h = hessian_vp(net, v, th)
    scale = max(1.0, float(np.max(np.abs(h))))
    assert np.allclose(h, h.T, rtol=0.0, atol=1e-13 * scale)
    z = np.concatenate([th, np.log(v)])
    eps = 1e-6
    for j in range(2 * n):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        fd = (
            grad_vp(net, np.exp(zp[n:]), zp[:n]) - grad_vp(net, np.exp(zm[n:]), zm[:n])
        ) / (2 * eps)
        assert np.allclose(h[:, j], fd, rtol=1e-6, atol=1e-6 * scale)


# -- divergence -----------------------------------------------------------------


def test_divergence_vanishes_at_reference(case3bus, case3bus_solution):
    sol = case3bus_solution
    bre = BregmanDivergence(case3bus.net, sol.state.V.copy(), sol.state.theta.copy())
    assert bre.value(sol.state.V, sol.state.theta) == pytest.approx(0.0, abs=1e-14)
    grad = grad_vp(case3bus.net, sol.state.V, sol.state.theta) - bre.grad0
    assert np.linalg.norm(grad) <= 1e-12


def test_divergence_matches_quadratic_expansion(case3bus, case3bus_solution):
    sol = case3bus_solution
    bre = BregmanDivergence(case3bus.net, sol.state.V.copy(), sol.state.theta.copy())
    h = hessian_vp(case3bus.net, bre.V0, bre.theta0)
    rng = np.random.default_rng(3)
    n = case3bus.net.n_nodes
    for _ in range(10):
        dz = rng.normal(size=2 * n) * 1e-4
        v = sol.state.V * np.exp(dz[n:])
        th = sol.state.theta + dz[:n]
        quad = 0.5 * dz @ h @ dz
        assert bre.value(v, th) == pytest.approx(quad, rel=5e-3, abs=1e-14)


# -- convexity verdicts -----------------------------------------------------------


def member_matrix(n=3):
    """Constructed PSD matrix whose only kernel is the uniform angle shift."""
    mode = uniform_angle_mode(n)
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(
        np.column_stack([mode] + [rng.normal(size=2 * n) for _ in range(2 * n - 1)])
    )[0]
    eigs = np.concatenate([[0.0], np.linspace(0.5, 4.0, 2 * n - 1)])
    return basis @ np.diag(eigs) @ basis.T


def test_constructed_member_matrix_passes():
    rep = convexity_check(member_matrix())
    assert rep.member
    assert not rep.degenerate
    assert rep.zero_mode_cosine >= 0.999
    assert abs(rep.zero_eigenvalue) <= 1e-8 * 4.0


def test_extra_zero_mode_is_degenerate():
    h = member_matrix()
    eigvals, eigvecs = np.linalg.eigh(h)
    eigvals[1] = 0.0  # second kernel direction
    rep = convexity_check(eigvecs @ np.diag(eigvals) @ eigvecs.T)
    assert not rep.member
    assert rep.degenerate
    assert "near-zero" in rep.detail


def test_negative_direction_blocks_membership():
    h = member_matrix()
    eigvals, eigvecs = np.linalg.eigh(h)
    eigvals[1] = -0.3
    rep = convexity_check(eigvecs @ np.diag(eigvals) @ eigvecs.T)
    assert not rep.member
    assert "non-positive" in rep.detail


def test_misaligned_zero_mode_blocks_membership():
    rng = np.random.default_rng(5)
    vec = rng.normal(size=6)
    vec /= np.linalg.norm(vec)
    basis = np.linalg.qr(
        np.column_stack([vec] + [rng.normal(size=6) for _ in range(5)])
    )[0]
    h = basis @ np.diag([0.0, 1, 2, 3, 4, 5.0]) @ basis.T
    rep = convexity_check(h)
    assert not rep.member
    assert "misaligned" in rep.detail


def test_zero_matrix_is_degenerate():
    rep = convexity_check(np.zeros((2, 2)))
    assert rep.degenerate and not rep.member


def test_case_equilibrium_is_not_a_member(case3bus, case3bus_solution):
    # the line energy in these coordinates is indefinite between buses of
    # unequal magnitude, so the loaded flat-profile equilibrium fails
    sol = case3bus_solution
    h = hessian_vp(case3bus.net, sol.state.V, sol.state.theta)
    rep = convexity_check(h)
    assert not rep.member
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] == pytest.approx(-0.0159, abs=2e-3)
    assert "non-positive" in rep.detail


def test_divergence_anchor_coordinates_change_the_signature(case3bus, case3bus_solution):
    # the (theta, V)-anchored divergence is a different function from the
    # (theta, ln V) one, so the inertia of their Hessians can differ: here
    # the load's -q0/V^2 makes the polar form strictly worse
    sol = case3bus_solution
    h_log = hessian_vp(case3bus.net, sol.state.V, sol.state.theta)
    h_polar = hessian_vp_polar(case3bus.net, sol.state.V, sol.state.theta)
    neg_log = int(np.sum(np.linalg.eigvalsh(h_log) < -1e-9))
    neg_polar = int(np.sum(np.linalg.eigvalsh(h_polar) < -1e-9))
    assert neg_log == 1
    assert neg_polar == 1
    assert np.linalg.eigvalsh(h_polar)[0] < np.linalg.eigvalsh(h_log)[0]


def test_nonmember_verdict_is_operational(case3bus, case3bus_solution):
    # the negative eigendirection really does take the divergence below
    # zero, so the non-member verdict reflects the function, not a tolerance
    sol = case3bus_solution
    bre = BregmanDivergence(case3bus.net, sol.state.V.copy(), sol.state.theta.copy())
    h = hessian_vp(case3bus.net, bre.V0, bre.theta0)
    eigvals, eigvecs = np.linalg.eigh(h)
    direction = eigvecs[:, 0]
    assert eigvals[0] < -1e-3
    n = case3bus.net.n_nodes
    values = []
    for t in (1e-3, 3e-3, 1e-2):
        dz = t * direction
        v = sol.state.V * np.exp(dz[n:])
        th = sol.state.theta + dz[:n]
        values.append(bre.value(v, th))
    assert min(values) < 0.0


def test_divergence_nonnegative_when_member(case3bus, case3bus_solution):
    sol = case3bus_solution
    h = hessian_vp(case3bus.net, sol.state.V, sol.state.theta)
    rep = convexity_check(h)
    if not rep.member:
        pytest.skip(
            "equilibrium is not in the convexity set; the operational "
            "non-member check above covers this case"
        )
    bre = BregmanDivergence(case3bus.net, sol.state.V.copy(), sol.state.theta.copy())
    n = case3bus.net.n_nodes
    mode = uniform_angle_mode(n)
    rng = np.random.default_rng(17)
    for _ in range(50):
        dz = rng.normal(size=2 * n)
        dz -= (dz @ mode) * mode
        dz *= 1e-2 / np.linalg.norm(dz)
        v = sol.state.V * np.exp(dz[n:])
        th = sol.state.theta + dz[:n]
        assert bre.value(v, th) >= -1e-12


def test_load_scaling_sweep_records_verdicts(case3bus, case3bus_solution):
    # scaling the reactive load only moves the equilibrium; the verdict is
    # recorded at whatever state results (no membership asserted); a x10
    # scaling exceeds what two 0.12 pu lines can deliver, so x3 is used
    from phasorstab.equilibrium import solve_equilibrium

    net = case3bus.net.with_load_delta("bus3", 0.0, 2 * 0.55)
    sol = solve_equilibrium(
        net,
        case3bus.components,
        case3bus_solution.state.V.copy(),
        case3bus_solution.state.theta.copy(),
    )
    rep = convexity_check(hessian_vp(net, sol.state.V, sol.state.theta))
    assert rep.eigenvalues is not None
    assert not rep.member


def test_polar_hessian_matches_finite_differences(case3bus):
    net = case3bus.net
    n = net.n_nodes
    v = np.array([1.02, 0.95, 0.9])
    th = np.array([0.05, -0.02, 0.01])
    h = hessian_vp_polar(net, v, th)
    eps = 1e-4

    def vp_of(vv, tt):
        return eval_vp(net, vv, tt)

    for a in range(2 * n):
        for b in range(a, 2 * n):
            args = []
            for sa, sb in ((eps, eps), (eps, -eps), (-eps, eps), (-eps, -eps)):
                vv, tt = v.copy(), th.copy()
                for idx, step in ((a, sa), (b, sb)):
                    if idx < n:
                        tt[idx % n] += step
                    else:
                        vv[idx % n] += step
                args.append(vp_of(vv, tt))
            fd = (args[0] - args[1] - args[2] + args[3]) / (4 * eps * eps)
            assert h[a, b] == pytest.approx(fd, rel=1e-4, abs=1e-6)


# -- contour experiment ---------------------------------------------------------------


def test_lossless_branch_imaginary_part_path_independent():
    a, b = rectangle_contour_pair(1.0, 1.0)
    res = path_dependence_experiment(0.0, -2.5, a, b)
    assert abs(res.im_diff) <= 1e-8
    assert abs(res.re_diff) == pytest.approx(2 * 2.5 * 1.0, rel=1e-9)


def test_susceptance_free_branch_real_part_path_independent():
    a, b = rectangle_contour_pair(2.0, 0.5)
    res = path_dependence_experiment(1.7, 0.0, a, b)
    assert abs(res.re_diff) <= 1e-8
    assert res.im_diff == pytest.approx(2 * 1.7 * 1.0, rel=1e-9)


def test_unit_conductance_unit_area_gives_two():
    a, b = rectangle_contour_pair(1.0, 1.0)
    res = path_dependence_experiment(1.0, 0.0, a, b)
    assert res.im_diff == pytest.approx(2.0, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    g=st.floats(min_value=-2, max_value=2),
    b=st.floats(min_value=-2, max_value=2),
    pts=st.lists(
        st.tuples(
            st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1)
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_contour_difference_obeys_area_rule(g, b, pts):
    start, end = 0j, complex(1.0, 1.0)
    contour_a = [start] + [complex(x, y) for x, y in pts] + [end]
    contour_b = [start, complex(1.0, 0.0), end]
    res = path_dependence_experiment(g, b, contour_a, contour_b)
    area = enclosed_area(contour_a, contour_b)
    assert res.im_diff == pytest.approx(2 * g * area, rel=1e-9, abs=1e-9)
    assert res.re_diff == pytest.approx(2 * b * area, rel=1e-9, abs=1e-9)


def test_contours_must_share_endpoints():
    with pytest.raises(ValueError, match="share both endpoints"):
        path_dependence_experiment(1.0, 0.0, [0j, 1j], [0j, 2j])


def test_contour_integral_closed_form_on_segment():
    # along 0 -> 1+1j with y = g + jb, integral of conj(y) conj(z) dz is
    # conj(y) * conj(d) * d / 2 for the straight segment d
    d = complex(1.0, 1.0)
    for g, b in ((1.0, 0.0), (0.3, -1.2)):
        val = contour_integral(g, b, [0j, d])
        expected = complex(g, -b) * d.conjugate() * d / 2.0
        assert val.real == pytest.approx(expected.real, abs=1e-12)
        assert val.imag == pytest.approx(expected.imag, abs=1e-12)
