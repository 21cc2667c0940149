"""Dynamic components: swing-type and first-order droop voltage sources.

Each component is an immutable value object. A model states its dynamics
and its storage once, in four members:

* ``derivative(x, u)``   -- state derivative for input u = (P, Q); it must
  be affine in (x, P, Q) and written in deviations from the setpoints, so
  that the model rests at them,
* ``storage`` / ``storage_gradient`` -- a candidate storage function and its
  analytic gradient, anchored at a given equilibrium,
* ``storage_hessian(anchor)`` -- the Hessian of ``storage`` at the anchor,
  in closed form.

The :class:`Component` base derives the rest from them: the one table of
coefficients ``affine_matrix()`` / ``affine_offset()`` (f = D_f (x, P, Q) + c,
D_f from the parameters and c from the setpoints, both read off
``derivative``), the equilibrium relations ``steady_state_partials()`` (the
rows of D_f on the terminal columns), ``equilibrium_state`` and
``storage_rate(x, dx, anchor)`` (the chain rule on a given derivative dx,
never numeric differencing), along with the setpoint binding and the
parameter check. A run calls ``derivative`` only to build the table: it
steps on the table and hands the dy it produced to ``storage_rate`` and
:func:`supply_rate`; the local certificate reads D_f from the same table.

``derivative``, ``storage``, ``storage_rate`` and :func:`supply_rate` are
elementwise arithmetic, so a state x, its derivative dx and input u may be
floats or arrays over samples: x of shape (nstates, S) with P and Q of
shape (S,) gives one value per sample.

Inputs are generation-positive branch powers. Every storage, and every
local form, is anchored at the solved equilibrium of the network: the
:class:`Anchor` each component's terminal has there. A storage evaluates to
zero at its anchor.

:func:`supply_rate` is the negated supply, the one the shipped storages
verify exactly: at every state with V > 0, storage_rate minus the negated
supply is -Dp omega^2 - tau_q v_dot^2 / (Dq V) for the swing model and
-tau_p theta_dot^2 / Dp - tau_q v_dot^2 / (Dq V) for droop, with the anchor
at a rest point of the component. The local certificate reports the form
under both sign conventions.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

import numpy as np

from .records import recordclass, replace

__all__ = [
    "SupplyConvention",
    "Setpoints",
    "Anchor",
    "VsgComponent",
    "DroopComponent",
    "supply_rate",
    "AffineStack",
    "local_certificate",
    "LocalCertificate",
    "QuadraticFormReport",
]


class SupplyConvention(Enum):
    """Sign of the supply rate s = dP*theta_dot + dQ*V_dot/V."""

    PRINTED = "printed"   # s as written above
    NEGATED = "negated"   # -s; what supply_rate returns and the shipped storages verify

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


def supply_rate(
    dP: float,
    dQ: float,
    theta_dot: float,
    V: float,
    V_dot: float,
) -> float:
    """The negated supply rate, -(dP theta_dot + dQ V_dot / V): power
    deviations paired with terminal-coordinate rates. Elementwise: floats,
    or arrays over samples.
    """
    if np.any(V <= 0.0):
        raise ValueError(f"terminal voltage must be positive, got {np.min(V)}")
    return -(dP * theta_dot + dQ * V_dot / V)


def _voltage_store(Dq: float, V, V_anchor: float):
    """Voltage well (V - Va - Va ln(V/Va)) / Dq, zero at its anchor V = Va.

    Its gradient (V - Va) / (Dq V) is what matches the supply: with a rest
    point as anchor, tau_q v_dot = -(V - Va) - Dq dQ, so the well's rate is
    -tau_q v_dot^2 / (Dq V) - dQ v_dot / V, the negated supply's voltage
    term plus a dissipation, exactly, at every V > 0."""
    return (V - V_anchor - V_anchor * np.log(V / V_anchor)) / Dq


def _voltage_store_grad(Dq: float, V, V_anchor: float):
    return (V - V_anchor) / (Dq * V)


def _voltage_store_curvature(Dq: float, V_anchor: float) -> float:
    """Second derivative of the voltage well at its anchor."""
    return 1.0 / (Dq * V_anchor)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Component:
    """What every model shares. A model declares ``state_labels`` (with
    ``"theta"`` and ``"v"`` among them; any other state is an internal
    deviation that rests at zero) and ``positive_params``, and defines
    ``derivative``, ``storage``, ``storage_gradient`` and
    ``storage_hessian``. The members below derive everything else from
    those."""

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

    def storage_rate(self, x, dx, anchor: Anchor) -> float:
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
        the zero terms leave into 0.0. Built once per instance, as the
        record is frozen; the array is read-only."""
        return self._affine_matrix

    def affine_offset(self) -> np.ndarray:
        """c = ``derivative`` - D_f (x, P, Q): ``derivative`` at x = 0 and
        P = Q = 0, from the setpoints. Built once per instance, as the
        record is frozen; the array is read-only."""
        return self._affine_offset

    @cached_property
    def _affine_matrix(self) -> np.ndarray:
        unit = np.eye(self.nstates + 2)
        at_zero = self.with_setpoints(Setpoints(0.0, 0.0, 0.0, 0.0))
        return _read_only(np.array(at_zero.derivative(unit[:-2], (unit[-2], unit[-1]))) + 0.0)

    @cached_property
    def _affine_offset(self) -> np.ndarray:
        return _read_only(np.array(self.derivative((0.0,) * self.nstates, (0.0, 0.0))) + 0.0)

    def steady_state_partials(self) -> np.ndarray:
        """The equilibrium relations as constant partials by (theta, V, P,
        Q), one row each: D_f on those columns, keeping the rows that are
        nonzero there. Internal states rest at zero and ``derivative`` rests
        at the setpoints, so each row times the deviations from the
        setpoints vanishes at equilibrium. Each row is divided by its first
        nonzero entry, so that a relation has the scale of the deviation it
        leads with; ``+ 0.0`` turns the -0.0 of a zero over a negative entry
        into 0.0."""
        n = self.nstates
        cols = [self.state_labels.index("theta"), self.state_labels.index("v"), n, n + 1]
        relations = []
        for row in self.affine_matrix()[:, cols].tolist():
            lead = next((c for c in row if c), 0.0)
            if lead:
                relations.append([c / lead + 0.0 for c in row])
        return np.array(relations)

    def equilibrium_state(self, theta: float, V: float) -> tuple[float, ...]:
        """The state at rest at terminal angle theta and voltage V."""
        terminal = {"theta": theta, "v": V}
        return tuple(terminal.get(label, 0.0) for label in self.state_labels)

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

    def storage(self, x, anchor: Anchor) -> float:
        return 0.5 * self.M * x[1] * x[1] + _voltage_store(self.Dq, x[2], anchor.V)

    def storage_gradient(self, x, anchor: Anchor) -> tuple[float, ...]:
        return (0.0, self.M * x[1], _voltage_store_grad(self.Dq, x[2], anchor.V))

    def storage_hessian(self, anchor: Anchor) -> np.ndarray:
        return np.diag([0.0, self.M, _voltage_store_curvature(self.Dq, anchor.V)])


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

    def storage(self, x, anchor: Anchor) -> float:
        d_theta = x[0] - anchor.theta
        return d_theta * d_theta / (2.0 * self.Dp) + _voltage_store(self.Dq, x[1], anchor.V)

    def storage_gradient(self, x, anchor: Anchor) -> tuple[float, ...]:
        return ((x[0] - anchor.theta) / self.Dp, _voltage_store_grad(self.Dq, x[1], anchor.V))

    def storage_hessian(self, anchor: Anchor) -> np.ndarray:
        return np.diag([1.0 / self.Dp, _voltage_store_curvature(self.Dq, anchor.V)])


class AffineStack:
    """Every component's affine table as one sparse map over the stacked
    states: dy = D (y, P, Q) + c.

    y holds the components' states back to back, in the order given, and
    (P, Q) are the bus-indexed injections stacked in one array, P first, of
    which component j reads the entries at ``buses[j]``. The nonzero
    entries of each D_f are kept as (row, column, value) triples; a call
    gathers the inputs they read, multiplies, sums each row with one
    ``np.bincount`` in a fixed order and adds c. No matrix product is
    formed, so no BLAS call (nor thread) is made.
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

    def __call__(self, y: np.ndarray, pq: np.ndarray) -> np.ndarray:
        terms = self.vals * np.concatenate([y, pq])[self.cols]
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


def local_certificate(comp: Component, anchor: Anchor) -> LocalCertificate:
    """Definiteness analysis of storage_rate - supply_rate near equilibrium.

    Both the rate and the supply vanish to first order at the anchor, so
    their difference is locally a quadratic form in the deviations
    (component states, dP, dQ). Its symmetric matrix is the Hessian of the
    difference, which is exact from the storage Hessian at the anchor and
    the table D_f (``affine_matrix``): the storage gradient, f, dP and dQ all vanish at the anchor, so the storage rate
    contributes A + A' with A = (padded storage Hessian) * D_f, and the
    supply the symmetrized products of (dP, dQ) with the rows of D_f for
    theta_dot and v_dot / V. The form is classified per convention:

    * "holds"            -- no positive eigenvalue and at least one strictly
                            negative one (dissipation in some direction),
    * "holds-marginally" -- the form vanishes to tolerance,
    * "fails"            -- some eigenvalue is positive (the inequality can
                            be violated arbitrarily close to equilibrium).
    """
    hess = comp.storage_hessian(anchor)
    d_f = comp.affine_matrix()
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
