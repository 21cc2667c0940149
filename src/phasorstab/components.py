"""Dynamic components: swing-type and first-order droop voltage sources.

Each component is an immutable value object exposing

* ``derivative(x, u)``        -- state derivative for input u = (P, Q),
* ``terminal(x)``             -- terminal voltage magnitude and angle,
* ``steady_state_residual``   -- the relations that vanish at equilibrium,
* ``storage`` / ``storage_rate`` -- a candidate storage function and its
  analytic time derivative (chain rule, never numeric differencing).

Inputs are generation-positive branch powers. Storage functions are
normalized so they evaluate to zero at their anchor point; the anchor
defaults to the component's setpoints and can be rebound to a solved
equilibrium for certification (the two coincide whenever the setpoints are
consistent with an equilibrium).

The supply-rate inequality is evaluated under two sign conventions, since
the sign that makes the swing component verify exactly (dissipation
-Dp*omega^2) is the negated one; both are always reported downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "SupplyConvention",
    "Setpoints",
    "Anchor",
    "CertificateUnavailable",
    "VsgComponent",
    "DroopComponent",
    "supply_rate",
    "local_certificate",
    "LocalCertificate",
    "QuadraticFormReport",
]


class CertificateUnavailable(RuntimeError):
    """Raised when a storage-based certificate cannot be formed (k <= 0)."""


class SupplyConvention(Enum):
    """Sign of the supply rate s = dP*theta_dot + dQ*V_dot/V."""

    PRINTED = "printed"   # s as written above
    NEGATED = "negated"   # -s; the convention the shipped storages verify

    def apply(self, s: float) -> float:
        return s if self is SupplyConvention.PRINTED else -s


@dataclass(frozen=True)
class Setpoints:
    P_e: float
    Q_e: float
    V_e: float
    theta_e: float


@dataclass(frozen=True)
class Anchor:
    """Equilibrium point a storage function is anchored at."""

    P: float
    Q: float
    V: float
    theta: float

    @staticmethod
    def from_setpoints(sp: Setpoints) -> "Anchor":
        return Anchor(sp.P_e, sp.Q_e, sp.V_e, sp.theta_e)


def supply_rate(
    dP: float,
    dQ: float,
    theta_dot: float,
    V: float,
    V_dot: float,
    convention: SupplyConvention = SupplyConvention.NEGATED,
) -> float:
    """Supply rate pairing power deviations with terminal-coordinate rates.

    Bilinear in (dP, dQ) against (theta_dot, V_dot/V); the convention flag
    selects the sign.
    """
    if V <= 0.0:
        raise ValueError(f"terminal voltage must be positive, got {V}")
    return convention.apply(dP * theta_dot + dQ * V_dot / V)


def _voltage_store(k: float, Dq: float, V: float, V_anchor: float) -> float:
    """Normalized voltage well (k/Dq)*(V/Va - ln V) - value at V = Va."""
    g = V / V_anchor - math.log(V)
    g0 = 1.0 - math.log(V_anchor)
    return (k / Dq) * (g - g0)


def _voltage_store_grad(k: float, Dq: float, V: float, V_anchor: float) -> float:
    return (k / Dq) * (1.0 / V_anchor - 1.0 / V)


@dataclass(frozen=True)
class VsgComponent:
    """Inverter source with virtual inertia and frequency/voltage droop.

    State x = (theta, omega, v):
        theta_dot = omega
        M * omega_dot = -Dp * omega + P_e - P
        tau_q * v_dot = -(v - V_e) - Dq * (Q - Q_e)

    omega is the angle-rate deviation in the common rotating frame.
    """

    id: str
    bus: str
    M: float
    Dp: float
    Dq: float
    tau_q: float
    setpoints: Setpoints | None = None

    state_labels = ("theta", "omega", "v")
    anchors_angle = False  # dynamics depend on angles only through P

    def __post_init__(self) -> None:
        for name in ("M", "Dp", "Dq", "tau_q"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{self.id}: parameter {name} must be positive")

    @property
    def nstates(self) -> int:
        return 3

    def with_setpoints(self, sp: Setpoints) -> "VsgComponent":
        return replace(self, setpoints=sp)

    def terminal(self, x) -> tuple[float, float]:
        return (x[2], x[0])

    def derivative(self, x, u) -> tuple[float, ...]:
        sp = self._sp()
        p, q = u
        theta_dot = x[1]
        omega_dot = (-self.Dp * x[1] + sp.P_e - p) / self.M
        v_dot = (-(x[2] - sp.V_e) - self.Dq * (q - sp.Q_e)) / self.tau_q
        return (theta_dot, omega_dot, v_dot)

    # -- storage -----------------------------------------------------------

    def storage(self, x, anchor: Anchor | None = None) -> float:
        a = anchor or Anchor.from_setpoints(self._sp())
        k = self.require_stiffness(a)
        return 0.5 * self.M * x[1] * x[1] + _voltage_store(k, self.Dq, x[2], a.V)

    def storage_gradient(self, x, anchor: Anchor | None = None) -> tuple[float, ...]:
        a = anchor or Anchor.from_setpoints(self._sp())
        k = self.require_stiffness(a)
        return (0.0, self.M * x[1], _voltage_store_grad(k, self.Dq, x[2], a.V))

    def storage_rate(self, x, u, anchor: Anchor | None = None) -> float:
        g = self.storage_gradient(x, anchor)
        f = self.derivative(x, u)
        return g[0] * f[0] + g[1] * f[1] + g[2] * f[2]

    def require_stiffness(self, a: Anchor) -> float:
        k = a.V + self.Dq * a.Q
        if k <= 0.0:
            raise CertificateUnavailable(
                f"{self.id}: voltage stiffness k = V + Dq*Q = {k:.6g} <= 0 at anchor"
            )
        return k

    def _sp(self) -> Setpoints:
        if self.setpoints is None:
            raise ValueError(f"{self.id}: setpoints not set")
        return self.setpoints

    # -- equilibrium interface ----------------------------------------------

    def steady_state_residual(
        self, theta: float, V: float, P: float, Q: float
    ) -> tuple[float, float]:
        sp = self._sp()
        return (P - sp.P_e, (V - sp.V_e) + self.Dq * (Q - sp.Q_e))

    def steady_state_partials(self) -> tuple[tuple[float, float, float, float], ...]:
        """Rows of d(residual)/d(theta, V, P, Q)."""
        return (
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 1.0, 0.0, self.Dq),
        )

    def equilibrium_state(self, theta: float, V: float) -> tuple[float, ...]:
        return (theta, 0.0, V)


@dataclass(frozen=True)
class DroopComponent:
    """Inverter source with proportional angle and voltage droop.

    State x = (theta, v):
        tau_p * theta_dot = -(theta - theta_e) - Dp * (P - P_e)
        tau_q * v_dot     = -(v - V_e) - Dq * (Q - Q_e)
    """

    id: str
    bus: str
    tau_p: float
    tau_q: float
    Dp: float
    Dq: float
    setpoints: Setpoints | None = None

    state_labels = ("theta", "v")
    anchors_angle = True  # theta enters the dynamics directly

    def __post_init__(self) -> None:
        for name in ("tau_p", "tau_q", "Dp", "Dq"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{self.id}: parameter {name} must be positive")

    @property
    def nstates(self) -> int:
        return 2

    def with_setpoints(self, sp: Setpoints) -> "DroopComponent":
        return replace(self, setpoints=sp)

    def terminal(self, x) -> tuple[float, float]:
        return (x[1], x[0])

    def derivative(self, x, u) -> tuple[float, ...]:
        sp = self._sp()
        p, q = u
        theta_dot = (-(x[0] - sp.theta_e) - self.Dp * (p - sp.P_e)) / self.tau_p
        v_dot = (-(x[1] - sp.V_e) - self.Dq * (q - sp.Q_e)) / self.tau_q
        return (theta_dot, v_dot)

    # -- storage -----------------------------------------------------------

    def storage(self, x, anchor: Anchor | None = None) -> float:
        a = anchor or Anchor.from_setpoints(self._sp())
        k = self.require_stiffness(a)
        d_theta = x[0] - a.theta
        return d_theta * d_theta / (2.0 * self.Dp) + _voltage_store(
            k, self.Dq, x[1], a.V
        )

    def storage_gradient(self, x, anchor: Anchor | None = None) -> tuple[float, ...]:
        a = anchor or Anchor.from_setpoints(self._sp())
        k = self.require_stiffness(a)
        return (
            (x[0] - a.theta) / self.Dp,
            _voltage_store_grad(k, self.Dq, x[1], a.V),
        )

    def storage_rate(self, x, u, anchor: Anchor | None = None) -> float:
        g = self.storage_gradient(x, anchor)
        f = self.derivative(x, u)
        return g[0] * f[0] + g[1] * f[1]

    def require_stiffness(self, a: Anchor) -> float:
        k = a.V + self.Dq * a.Q
        if k <= 0.0:
            raise CertificateUnavailable(
                f"{self.id}: voltage stiffness k = V + Dq*Q = {k:.6g} <= 0 at anchor"
            )
        return k

    def _sp(self) -> Setpoints:
        if self.setpoints is None:
            raise ValueError(f"{self.id}: setpoints not set")
        return self.setpoints

    # -- equilibrium interface ----------------------------------------------

    def steady_state_residual(
        self, theta: float, V: float, P: float, Q: float
    ) -> tuple[float, float]:
        sp = self._sp()
        return (
            (theta - sp.theta_e) + self.Dp * (P - sp.P_e),
            (V - sp.V_e) + self.Dq * (Q - sp.Q_e),
        )

    def steady_state_partials(self) -> tuple[tuple[float, float, float, float], ...]:
        return (
            (1.0, 0.0, self.Dp, 0.0),
            (0.0, 1.0, 0.0, self.Dq),
        )

    def equilibrium_state(self, theta: float, V: float) -> tuple[float, ...]:
        return (theta, V)


Component = VsgComponent | DroopComponent


# -- local quadratic-form certificate ---------------------------------------


@dataclass(frozen=True)
class QuadraticFormReport:
    convention: SupplyConvention
    variables: tuple[str, ...]
    matrix: np.ndarray
    eigenvalues: np.ndarray
    verdict: str  # "holds" | "holds-marginally" | "fails"


@dataclass(frozen=True)
class LocalCertificate:
    component_id: str
    reports: dict[SupplyConvention, QuadraticFormReport]


def _rate_minus_supply(
    comp: Component,
    anchor: Anchor,
    delta: np.ndarray,
    convention: SupplyConvention,
) -> float:
    """storage_rate - supply_rate at the anchor displaced by `delta`.

    delta spans the component states followed by (dP, dQ).
    """
    n = comp.nstates
    x_e = list(comp.equilibrium_state(anchor.theta, anchor.V))
    x = [x_e[j] + delta[j] for j in range(n)]
    dp = delta[n]
    dq = delta[n + 1]
    u = (anchor.P + dp, anchor.Q + dq)
    wdot = comp.storage_rate(x, u, anchor)
    v, _ = comp.terminal(x)
    f = comp.derivative(x, u)
    theta_dot = f[comp.state_labels.index("theta")]
    v_dot = f[comp.state_labels.index("v")]
    s = supply_rate(dp, dq, theta_dot, v, v_dot, convention)
    return wdot - s


def local_certificate(
    comp: Component,
    anchor: Anchor | None = None,
    fd_step: float = 1e-4,
    eig_tol: float = 1e-9,
) -> LocalCertificate:
    """Definiteness analysis of storage_rate - supply_rate near equilibrium.

    Both the rate and the supply vanish to first order at the anchor, so
    their difference is locally a quadratic form in the deviations
    (component states, dP, dQ). The form's symmetric matrix is extracted by
    central second differences and classified per convention:

    * "holds"            -- no positive eigenvalue and at least one strictly
                            negative one (dissipation in some direction),
    * "holds-marginally" -- the form vanishes to tolerance,
    * "fails"            -- some eigenvalue is positive (the inequality can
                            be violated arbitrarily close to equilibrium).
    """
    if anchor is None:
        if comp.setpoints is None:
            raise ValueError(f"{comp.id}: no anchor and no setpoints")
        anchor = Anchor.from_setpoints(comp.setpoints)
    comp.require_stiffness(anchor)  # fail fast with CertificateUnavailable
    n = comp.nstates + 2
    labels = comp.state_labels + ("dP", "dQ")
    reports: dict[SupplyConvention, QuadraticFormReport] = {}
    for convention in SupplyConvention:
        h = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                d = np.zeros(n)
                if a == b:
                    d[a] = fd_step
                    f_plus = _rate_minus_supply(comp, anchor, d, convention)
                    f_minus = _rate_minus_supply(comp, anchor, -d, convention)
                    f_0 = _rate_minus_supply(comp, anchor, d * 0.0, convention)
                    h[a, a] = (f_plus - 2.0 * f_0 + f_minus) / fd_step**2
                else:
                    d[a] = fd_step
                    d[b] = fd_step
                    f_pp = _rate_minus_supply(comp, anchor, d, convention)
                    f_mm = _rate_minus_supply(comp, anchor, -d, convention)
                    d[b] = -fd_step
                    f_pm = _rate_minus_supply(comp, anchor, d, convention)
                    f_mp = _rate_minus_supply(comp, anchor, -d, convention)
                    h[a, b] = h[b, a] = (f_pp - f_pm - f_mp + f_mm) / (
                        4.0 * fd_step**2
                    )
        # the quadratic form is (1/2) delta' H delta; the factor does not
        # change the signature so H is reported as-is
        eigs = np.linalg.eigvalsh(h)
        tol = eig_tol * max(1.0, float(np.max(np.abs(eigs))) if len(eigs) else 1.0)
        if float(eigs[-1]) > tol:
            verdict = "fails"
        elif float(eigs[0]) < -tol:
            verdict = "holds"
        else:
            verdict = "holds-marginally"
        reports[convention] = QuadraticFormReport(
            convention=convention,
            variables=labels,
            matrix=h,
            eigenvalues=eigs,
            verdict=verdict,
        )
    return LocalCertificate(component_id=comp.id, reports=reports)
