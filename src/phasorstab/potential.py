"""Voltage potential of a lossless phasor network and its Bregman divergence.

The potential in bus coordinates is

    Vp(theta, V) = sum_lines  (1/2) B_ik (V_i^2 + V_k^2 - 2 V_i V_k cos th_ik)
                 + sum_loads  (p0 * theta_i + q0 * ln V_i)

with loads consumption-positive (equivalently minus the generation-positive
load constants). Vp is defined up to the start point of the underlying line
integral; callers report it relative to a reference of their choosing.

Working coordinates are z = (theta, ln V): the trajectory identities pair
power deviations with d(theta) and d(ln V), and they are exact only in these
coordinates. In them the gradient of Vp is the bus injections plus the load
constants, and its Hessian is the injection Jacobian with the V columns
scaled by V, so both come from the network kernel
(:func:`~phasorstab.network.power_injection`,
:func:`~phasorstab.network.injection_partials`). Convexity verdicts depend on
the coordinates: a divergence anchored linearly in V is a different function,
and its Hessian can have a different signature.
"""

from __future__ import annotations

import math

import numpy as np

from .network import NetworkModel, injection_partials, power_injection
from .records import field, recordclass

__all__ = [
    "eval_vp",
    "grad_vp",
    "hessian_vp",
    "BregmanDivergence",
    "ConvexityReport",
    "convexity_check",
    "ContourIntegralResult",
    "contour_integral",
    "shared_endpoints",
    "path_dependence_experiment",
    "rectangle_contour_pair",
    "enclosed_area",
]


def eval_vp(net: NetworkModel, V, theta):
    """Voltage potential at a bus state (absolute; see module docstring).

    ``V`` and ``theta`` have the buses on their last axis and may carry a
    leading sample axis: one state of shape (n,) gives a scalar, S states
    of shape (S, n) give S values. Elementwise operations over
    ``net.edge_arrays`` and sums over the last axis only, so each sample's
    value does not depend on the others."""
    i, k, b = net.edge_arrays
    v = np.asarray(V, dtype=float)
    t = np.asarray(theta, dtype=float)
    vi = v[..., i]
    vk = v[..., k]
    lines = 0.5 * b * (vi * vi + vk * vk - 2.0 * vi * vk * np.cos(t[..., i] - t[..., k]))
    loads = np.asarray(net.load_p) * t + np.asarray(net.load_q) * np.log(v)
    return lines.sum(axis=-1) + loads.sum(axis=-1)


def grad_vp(net: NetworkModel, V, theta) -> np.ndarray:
    """Gradient of Vp in (theta, ln V) coordinates, length 2n.

    Entry layout: all theta partials first, then all ln V partials. The
    theta partial at bus i is the line injection P_i plus the load constant
    p0_i; the ln V partial is Q_i plus q0_i. Both vanish at load buses of a
    solved state and equal the component injections at dynamic buses.
    """
    p, q = power_injection(net, V, theta)
    return np.concatenate([p + net.load_p, q + net.load_q])


def hessian_vp(net: NetworkModel, V, theta) -> np.ndarray:
    """Analytic Hessian of Vp in (theta, ln V) coordinates, 2n x 2n.

    Load terms are linear in these coordinates, so only lines contribute:
    the Hessian is the injection Jacobian with its V columns scaled by V.
    The uniform angle-shift vector is in the kernel for every state.
    """
    dp_dt, dp_dv, dq_dt, dq_dv = injection_partials(net, V, theta)
    v = np.asarray(V, dtype=float)
    return np.block([[dp_dt, dp_dv * v], [dq_dt, dq_dv * v]])


@recordclass
class BregmanDivergence:
    """Divergence W(z) = Vp(z) - Vp(z0) - grad Vp(z0) . (z - z0).

    z0 is the equilibrium under test, in (theta, ln V) coordinates. W and
    its gradient vanish at z0 and the Hessian equals the potential's.
    """

    net: NetworkModel
    V0: np.ndarray
    theta0: np.ndarray
    vp0: float = field(init=False)
    grad0: np.ndarray = field(init=False)
    z0: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.V0 = np.asarray(self.V0, dtype=float)
        self.theta0 = np.asarray(self.theta0, dtype=float)
        if np.any(self.V0 <= 0.0):
            raise ValueError("reference state must have positive voltages")
        self.vp0 = eval_vp(self.net, self.V0, self.theta0)
        self.grad0 = grad_vp(self.net, self.V0, self.theta0)
        self.z0 = np.concatenate([self.theta0, np.log(self.V0)])

    def value(self, V, theta, vp=None):
        """W at (V, theta); ``vp`` is :func:`eval_vp` at the same state, for
        callers that hold it already. It is computed when omitted.

        Like :func:`eval_vp`, takes one state of shape (n,) for a scalar or
        S states of shape (S, n) for S values, with ``vp`` of shape (S,)."""
        if vp is None:
            vp = eval_vp(self.net, V, theta)
        z = np.concatenate(
            [np.asarray(theta, dtype=float), np.log(np.asarray(V, dtype=float))], axis=-1
        )
        return vp - self.vp0 - (self.grad0 * (z - self.z0)).sum(axis=-1)


@recordclass(frozen=True)
class ConvexityReport:
    member: bool
    degenerate: bool
    eigenvalues: np.ndarray
    zero_eigenvalue: float | None
    zero_mode_cosine: float | None
    detail: str


def uniform_angle_mode(n: int) -> np.ndarray:
    """Unit vector of the uniform angle shift in (theta, ln V) coordinates."""
    v = np.zeros(2 * n)
    v[:n] = 1.0 / math.sqrt(n)
    return v


ZERO_TOL = 1e-8   # |eigenvalue| / largest |eigenvalue| that counts as zero
POS_TOL = 1e-10   # smallest eigenvalue that counts as positive


def convexity_check(
    hessian: np.ndarray,
    zero_tol: float = ZERO_TOL,
    pos_tol: float = POS_TOL,
    cosine_min: float = 0.999,
) -> ConvexityReport:
    """Membership test for the convexity set of an equilibrium.

    Member iff exactly one eigenvalue is zero to tolerance
    (|lam| <= zero_tol * lam_max), its eigenvector aligns with the uniform
    angle-shift direction, and every other eigenvalue is >= pos_tol.
    """
    n2 = hessian.shape[0]
    n = n2 // 2
    eigvals, eigvecs = np.linalg.eigh(hessian)
    lam_max = float(np.max(np.abs(eigvals))) if n2 else 0.0
    if lam_max <= pos_tol:
        return ConvexityReport(
            member=False,
            degenerate=True,
            eigenvalues=eigvals,
            zero_eigenvalue=None,
            zero_mode_cosine=None,
            detail="degenerate, not a member: Hessian vanishes to tolerance",
        )
    zero_idx = [j for j in range(n2) if abs(float(eigvals[j])) <= zero_tol * lam_max]
    if len(zero_idx) != 1:
        return ConvexityReport(
            member=False,
            degenerate=len(zero_idx) > 1,
            eigenvalues=eigvals,
            zero_eigenvalue=None,
            zero_mode_cosine=None,
            detail=(
                f"degenerate, not a member: {len(zero_idx)} near-zero eigenvalues "
                f"{[float(eigvals[j]) for j in zero_idx]}"
                if len(zero_idx) > 1
                else "not a member: no zero eigenvalue found"
            ),
        )
    j0 = zero_idx[0]
    cosine = abs(float(eigvecs[:, j0] @ uniform_angle_mode(n)))
    others_ok = all(
        float(eigvals[j]) >= pos_tol for j in range(n2) if j != j0
    )
    member = cosine >= cosine_min and others_ok
    if member:
        detail = "member: single zero mode is the uniform angle shift"
    elif not others_ok:
        neg = [float(v) for v in eigvals if v < pos_tol and abs(v) > zero_tol * lam_max]
        detail = f"not a member: non-positive eigenvalues {neg}"
    else:
        detail = f"not a member: zero mode misaligned (cosine {cosine:.6f})"
    return ConvexityReport(
        member=member,
        degenerate=False,
        eigenvalues=eigvals,
        zero_eigenvalue=float(eigvals[j0]),
        zero_mode_cosine=cosine,
        detail=detail,
    )


# -- path-(in)dependence experiment ------------------------------------------


@recordclass(frozen=True)
class ContourIntegralResult:
    integral_a: complex
    integral_b: complex

    @property
    def re_diff(self) -> float:
        return (self.integral_a - self.integral_b).real

    @property
    def im_diff(self) -> float:
        return (self.integral_a - self.integral_b).imag


def contour_integral(g: float, b: float, contour: list[complex]) -> complex:
    """Line integral of conj(I) dV = conj(y) conj(V) dV along a polyline,
    for admittance y = g + jb.

    The integrand is linear along a straight segment, so one trapezoid per
    segment is the exact integral.
    """
    if len(contour) < 2:
        raise ValueError("contour needs at least two points")
    y_conj = complex(g, -b)
    total = 0j
    for a, c in zip(contour[:-1], contour[1:]):
        total += 0.5 * y_conj * (a + c).conjugate() * (c - a)
    return total


def shared_endpoints(contour_a: list[complex], contour_b: list[complex]) -> bool:
    """Whether two contours start at one point and end at one point, to 1e-12."""
    return (
        abs(contour_a[0] - contour_b[0]) <= 1e-12
        and abs(contour_a[-1] - contour_b[-1]) <= 1e-12
    )


def path_dependence_experiment(
    g: float,
    b: float,
    contour_a: list[complex],
    contour_b: list[complex],
) -> ContourIntegralResult:
    """Compare the branch line integral along two contours sharing endpoints.

    By Green's theorem, the imaginary part differs by 2*g*(enclosed area)
    and the real part by 2*b*(enclosed area), the areas signed by the loop
    contour_a followed by reversed contour_b. Either part is
    path-independent exactly when its coefficient vanishes.
    """
    if not shared_endpoints(contour_a, contour_b):
        raise ValueError("contours must share both endpoints")
    return ContourIntegralResult(
        integral_a=contour_integral(g, b, contour_a),
        integral_b=contour_integral(g, b, contour_b),
    )


def rectangle_contour_pair(width: float = 1.0, height: float = 1.0) -> tuple[
    list[complex], list[complex]
]:
    """Two polylines from 0 to width + j*height around a rectangle.

    Contour A runs along the real axis first, contour B along the imaginary
    axis first; the loop A + reversed(B) is counterclockwise and encloses
    area width*height.
    """
    corner = complex(width, height)
    a = [0j, complex(width, 0.0), corner]
    b = [0j, complex(0.0, height), corner]
    return a, b


def enclosed_area(contour_a: list[complex], contour_b: list[complex]) -> float:
    """Signed area enclosed by contour_a followed by reversed contour_b
    (shoelace formula); positive for counterclockwise loops."""
    loop = list(contour_a) + list(reversed(contour_b))[1:]
    area = 0.0
    for z0, z1 in zip(loop[:-1], loop[1:]):
        area += z0.real * z1.imag - z1.real * z0.imag
    return 0.5 * area
