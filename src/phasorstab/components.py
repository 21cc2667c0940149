"""Dynamic components: swing-type and first-order droop voltage sources.

Each component is an immutable value object. A model states its physics
once, in five members:

* ``derivative(x, u)``        -- state derivative for input u = (P, Q); it
  must be affine in (x, P, Q),
* ``steady_state_partials()`` -- the rows of its equilibrium relations, as
  constant partials by (theta, V, P, Q),
* ``storage`` / ``storage_gradient`` -- a candidate storage function and its
  analytic gradient,
* ``linearization(anchor)``   -- the table D_f and the Hessian of ``storage``
  at the anchor, in closed form; the local certificate is built from these
  two matrices.

The :class:`Component` base derives the rest from them: the one table of
coefficients ``affine_matrix()`` / ``affine_offset()`` (f = D_f (x, P, Q) + c,
D_f from the parameters and c from the setpoints, both read off
``derivative``), ``steady_state_residual``, ``equilibrium_state``,
``anchors_angle`` and ``storage_rate(x, dx)`` (the chain rule on a given
derivative dx, never numeric differencing), along with the setpoint
binding, the stiffness guard and the parameter check. A run calls
``derivative`` only to build the table: it steps on the table and hands
the dy it produced to ``storage_rate`` and :func:`supply_rate`.

``derivative``, ``storage``, ``storage_rate`` and :func:`supply_rate` are
elementwise arithmetic, so a state x, its derivative dx and input u may be
floats or arrays over samples: x of shape (nstates, S) with P and Q of
shape (S,) gives one value per sample.

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
from enum import Enum

import numpy as np

from .records import recordclass, replace

__all__ = [
    "SupplyConvention",
    "Setpoints",
    "Anchor",
    "CertificateUnavailable",
    "VsgComponent",
    "DroopComponent",
    "supply_rate",
    "AffineStack",
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


@recordclass(frozen=True)
class Setpoints:
    P_e: float
    Q_e: float
    V_e: float
    theta_e: float


@recordclass(frozen=True)
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
    selects the sign. Elementwise: floats, or arrays over samples.
    """
    if np.any(V <= 0.0):
        raise ValueError(f"terminal voltage must be positive, got {np.min(V)}")
    return convention.apply(dP * theta_dot + dQ * V_dot / V)


def _voltage_store(k: float, Dq: float, V, V_anchor: float):
    """Normalized voltage well (k/Dq)*(V/Va - ln V) - value at V = Va."""
    g = V / V_anchor - np.log(V)
    g0 = 1.0 - math.log(V_anchor)
    return (k / Dq) * (g - g0)


def _voltage_store_grad(k: float, Dq: float, V: float, V_anchor: float) -> float:
    return (k / Dq) * (1.0 / V_anchor - 1.0 / V)


def _voltage_store_curvature(k: float, Dq: float, V_anchor: float) -> float:
    """Second derivative of the voltage well at its anchor."""
    return k / (Dq * V_anchor * V_anchor)


class Component:
    """What every model shares. A model declares ``state_labels`` (with
    ``"theta"`` and ``"v"`` among them; any other state is an internal
    deviation that rests at zero) and ``positive_params``, and defines
    ``derivative``, ``steady_state_partials``, ``storage``,
    ``storage_gradient`` and ``linearization``. The members below derive
    everything else from those."""

    positive_params: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self.positive_params:
            value = getattr(self, name)
            # written to fail for NaN as well
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{self.id}: parameter {name} must be positive and finite, got {value}"
                )

    @property
    def nstates(self) -> int:
        return len(self.state_labels)

    def with_setpoints(self, sp: Setpoints):
        return replace(self, setpoints=sp)

    def storage_rate(self, x, dx, anchor: Anchor | None = None) -> float:
        """Chain rule: sum over states of storage gradient times the given
        state derivative ``dx`` at x."""
        g = self.storage_gradient(x, anchor)
        rate = g[0] * dx[0]
        for j in range(1, len(g)):
            rate += g[j] * dx[j]
        return rate

    def affine_matrix(self) -> np.ndarray:
        """D_f, the partials of ``derivative`` by (x, P, Q): ``derivative`` of
        the unit columns with zero setpoints. ``+ 0.0`` turns the -0.0 that
        the zero terms leave into 0.0."""
        unit = np.eye(self.nstates + 2)
        at_zero = self.with_setpoints(Setpoints(0.0, 0.0, 0.0, 0.0))
        return np.array(at_zero.derivative(unit[:-2], (unit[-2], unit[-1]))) + 0.0

    def affine_offset(self) -> np.ndarray:
        """c = ``derivative`` - D_f (x, P, Q): ``derivative`` at x = 0 and
        P = Q = 0, from the setpoints."""
        return np.array(self.derivative((0.0,) * self.nstates, (0.0, 0.0))) + 0.0

    def steady_state_residual(
        self, theta: float, V: float, P: float, Q: float
    ) -> tuple[float, ...]:
        """The relations that vanish at equilibrium: each row of
        ``steady_state_partials`` times the deviations from the setpoints."""
        sp = self._sp()
        deviation = (theta - sp.theta_e, V - sp.V_e, P - sp.P_e, Q - sp.Q_e)
        residual = []
        for row in self.steady_state_partials():
            total = 0.0
            for coeff, d in zip(row, deviation):
                if coeff:
                    total += coeff * d
            residual.append(total)
        return tuple(residual)

    @property
    def anchors_angle(self) -> bool:
        """True when the steady state depends on the absolute angle."""
        return any(row[0] for row in self.steady_state_partials())

    def equilibrium_state(self, theta: float, V: float) -> tuple[float, ...]:
        """The state at rest at terminal angle theta and voltage V."""
        terminal = {"theta": theta, "v": V}
        return tuple(terminal.get(label, 0.0) for label in self.state_labels)

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


@recordclass(frozen=True)
class VsgComponent(Component):
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
    positive_params = ("M", "Dp", "Dq", "tau_q")

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

    def linearization(self, anchor: Anchor) -> tuple[np.ndarray, np.ndarray]:
        """D_f by (theta, omega, v, P, Q), and the storage Hessian at anchor."""
        k = self.require_stiffness(anchor)
        hess = np.diag([0.0, self.M, _voltage_store_curvature(k, self.Dq, anchor.V)])
        return self.affine_matrix(), hess

    # -- equilibrium interface ----------------------------------------------

    def steady_state_partials(self) -> tuple[tuple[float, float, float, float], ...]:
        """Rows of d(residual)/d(theta, V, P, Q)."""
        return (
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 1.0, 0.0, self.Dq),
        )


@recordclass(frozen=True)
class DroopComponent(Component):
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
    positive_params = ("tau_p", "tau_q", "Dp", "Dq")

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

    def linearization(self, anchor: Anchor) -> tuple[np.ndarray, np.ndarray]:
        """D_f by (theta, v, P, Q), and the storage Hessian at anchor."""
        k = self.require_stiffness(anchor)
        hess = np.diag([1.0 / self.Dp, _voltage_store_curvature(k, self.Dq, anchor.V)])
        return self.affine_matrix(), hess

    # -- equilibrium interface ----------------------------------------------

    def steady_state_partials(self) -> tuple[tuple[float, float, float, float], ...]:
        return (
            (1.0, 0.0, self.Dp, 0.0),
            (0.0, 1.0, 0.0, self.Dq),
        )


class AffineStack:
    """Every component's affine table as one sparse map over the stacked
    states: dy = D (y, P, Q) + c.

    y holds the components' states back to back, in the order given, and P
    and Q are bus-indexed injections, of which component j reads the entry
    at ``buses[j]``. The nonzero entries of each D_f are kept as (row,
    column, value) triples; a call gathers the inputs they read, multiplies,
    sums each row with one ``np.bincount`` in a fixed order and adds c. No
    matrix product is formed, so no BLAS call (nor thread) is made.
    """

    def __init__(self, components: list[Component], buses: list[int], n_buses: int) -> None:
        self.nstates = sum(comp.nstates for comp in components)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        offsets = []
        lo = 0
        for comp, bus in zip(components, buses):
            d_f = comp.affine_matrix()
            n = comp.nstates
            # column j of D_f in the stacked input (y, P, Q)
            col_of = [*range(lo, lo + n), self.nstates + bus, self.nstates + n_buses + bus]
            for r, k in zip(*np.nonzero(d_f)):
                rows.append(lo + int(r))
                cols.append(col_of[k])
                vals.append(float(d_f[r, k]))
            offsets.append(comp.affine_offset())
            lo += n
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        self.vals = np.array(vals)
        self.offset = np.concatenate(offsets) if offsets else np.zeros(0)

    def __call__(self, y: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        terms = self.vals * np.concatenate([y, P, Q])[self.cols]
        return np.bincount(self.rows, weights=terms, minlength=self.nstates) + self.offset


# -- local quadratic-form certificate ---------------------------------------


@recordclass(frozen=True)
class QuadraticFormReport:
    convention: SupplyConvention
    variables: tuple[str, ...]
    matrix: np.ndarray
    eigenvalues: np.ndarray
    verdict: str  # "holds" | "holds-marginally" | "fails"


@recordclass(frozen=True)
class LocalCertificate:
    component_id: str
    reports: dict[SupplyConvention, QuadraticFormReport]


# eigenvalues within this fraction of the largest |eigenvalue| count as zero
EIG_TOL = 1e-9


def local_certificate(comp: Component, anchor: Anchor | None = None) -> LocalCertificate:
    """Definiteness analysis of storage_rate - supply_rate near equilibrium.

    Both the rate and the supply vanish to first order at the anchor, so
    their difference is locally a quadratic form in the deviations
    (component states, dP, dQ). Its symmetric matrix is the Hessian of the
    difference, which is exact from :meth:`linearization`: the storage
    gradient, f, dP and dQ all vanish at the anchor, so the storage rate
    contributes A + A' with A = (padded storage Hessian) * D_f, and the
    supply the symmetrized products of (dP, dQ) with the rows of D_f for
    theta_dot and v_dot / V. The form is classified per convention:

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
    d_f, hess = comp.linearization(anchor)  # CertificateUnavailable if k <= 0
    n = comp.nstates
    labels = comp.state_labels + ("dP", "dQ")
    rate = np.zeros((n + 2, n + 2))
    rate[:n] = hess @ d_f
    rate += rate.T
    supply = np.zeros((n + 2, n + 2))
    supply[n] = d_f[labels.index("theta")]
    supply[n + 1] = d_f[labels.index("v")] / anchor.V
    supply += supply.T
    reports: dict[SupplyConvention, QuadraticFormReport] = {}
    for convention in SupplyConvention:
        h = rate - convention.apply(supply)
        # the quadratic form is (1/2) delta' H delta; the factor does not
        # change the signature so H is reported as-is
        eigs = np.linalg.eigvalsh(h)
        tol = EIG_TOL * max(1.0, float(np.max(np.abs(eigs))))
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
