"""Circuit-graph model of a phasor network and its power-flow maps.

A network is a connected graph of buses with exactly one ground bus. Lossless
lines (reactance x > 0, coupling B = 1/x) join non-ground buses; constant-power
branches and dynamic shunts run from a bus to ground. Loads are declared
consumption-positive in input files, and ``NetworkModel.load_p`` and
``load_q`` keep that sign. Every injection computed here is
generation-positive (power injected from the shunt side into the network),
so a passive bus balances at P_i + load_p_i = 0 and Q_i + load_q_i = 0.

Every bus state in the package is the stacked state x = (theta, V), a float
array of length 2n: the angles of the n non-ground buses in node order, then
their voltage magnitudes (:class:`BusState` holds one and checks V > 0).
This module is the network kernel: :func:`power_injection` evaluates the
line power-flow terms on x (one gather of both line ends, one sin and one
cos over all lines, one scatter onto the buses) and returns the injections
stacked the same way, (P, Q), and :func:`injection_partials` is the only
source of their partials, as one 2n x 2n matrix (rows P then Q, columns
theta then V). The equilibrium
solver, the transient simulator and the potential's gradient and Hessian
are all built on these functions, and each indexes that one matrix rather
than reassembling it. The simulator's float path, for at most one passive
bus, evaluates the same line terms as a loop over ``edges`` inside its
stage, where per-call numpy overhead would outweigh the work.
:func:`passive_bus_solution` solves the balance of a passive bus whose line
neighbours are held fixed in closed form; the simulator uses it when no
line joins two passive buses (on floats or on arrays), through
:func:`solve_passive_bus` on the constants of :func:`passive_bus_constants`,
folded once per network. The
complex-arithmetic oracles at the end of the module
(:func:`branch_currents_oracle`, :func:`tellegen_sum`) recompute the same
physics independently, for checking.

The model is immutable after construction and all evaluation functions are
pure, so they are thread-safe. Branch reductions run in declaration order
(the array kernel's scatter too), so repeated runs are bitwise reproducible.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .records import field, recordclass

__all__ = [
    "BusKind",
    "Bus",
    "LosslessLine",
    "ConstantPowerBranch",
    "DynamicShunt",
    "NetworkModel",
    "NetworkError",
    "BusState",
    "power_injection",
    "injection_partials",
    "passive_bus_constants",
    "passive_bus_solution",
    "solve_passive_bus",
    "branch_currents_oracle",
    "tellegen_sum",
]

TWO_PI = 2.0 * math.pi


class NetworkError(ValueError):
    """Raised when a network description violates a structural invariant.

    ``record`` is the input record at fault (a bus, line, constant-power
    branch or dynamic shunt; the first one where several are), or None when
    the fault is not one record's."""

    def __init__(self, message: str, record=None) -> None:
        super().__init__(message)
        self.record = record


class BusKind(Enum):
    GROUND = "ground"
    DYNAMIC = "dynamic"
    PASSIVE = "passive"


@recordclass(frozen=True)
class Bus:
    id: str
    kind: BusKind


@recordclass(frozen=True)
class LosslessLine:
    """Series branch with admittance y = -j/x (susceptance b = -1/x).

    The coupling value used throughout is B = 1/x = -b. A conductance field
    is accepted by the file format for the standalone path-dependence
    experiment but must be zero here.
    """

    from_bus: str
    to_bus: str
    x: float

    @property
    def coupling(self) -> float:
        return 1.0 / self.x

    @property
    def susceptance(self) -> float:
        return -1.0 / self.x

    @property
    def admittance(self) -> complex:
        return complex(0.0, self.susceptance)


@recordclass(frozen=True)
class ConstantPowerBranch:
    """Constant-power shunt; p0/q0 are declared consumption-positive."""

    bus: str
    p0: float
    q0: float


@recordclass(frozen=True)
class DynamicShunt:
    """Shunt slot occupied by a dynamic component; always runs to ground."""

    bus: str
    component_id: str


@recordclass
class NetworkModel:
    """Validated bus/branch graph with derived per-edge and per-bus arrays.

    Derived, in network node order: ``edges`` holds one (i, k, B) triple per
    line in declaration order, and ``edge_arrays`` the same as three numpy
    arrays (from, to, B); ``injection_slots`` are the rows of both line ends
    in the stacked state (theta, V), which :func:`power_injection` reads
    and then adds its terms into, and ``stacked_coupling`` is B twice, once
    per end; ``partials_slots`` place the terms of
    :func:`injection_partials`;
    ``load_p`` and ``load_q`` are the summed consumption-positive
    constant-power loads per bus; ``coupling_sum`` is the summed line
    coupling B per bus.
    """

    buses: list[Bus]
    lines: list[LosslessLine]
    constant_power: list[ConstantPowerBranch]
    dynamic_shunts: list[DynamicShunt]

    # derived, filled by __post_init__
    non_ground: list[str] = field(default_factory=list, repr=False)
    node_index: dict[str, int] = field(default_factory=dict, repr=False)
    edges: list[tuple[int, int, float]] = field(default_factory=list, repr=False)
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    injection_slots: np.ndarray = field(init=False, repr=False)
    stacked_coupling: np.ndarray = field(init=False, repr=False)
    partials_slots: np.ndarray = field(init=False, repr=False)
    load_p: list[float] = field(default_factory=list, repr=False)
    load_q: list[float] = field(default_factory=list, repr=False)
    coupling_sum: list[float] = field(default_factory=list, repr=False)
    shunt_at: list[DynamicShunt | None] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._validate_ids()
        self._validate_branches()
        self._build_derived()
        self._validate_connected()

    # -- validation -------------------------------------------------------

    def _validate_ids(self) -> None:
        """Ids are unique across buses and components, and hold none of
        ``,`` ``"`` CR LF: the trajectory CSV names its columns by them."""
        kinds: dict[str, str] = {}
        named = [("bus", bus.id, bus) for bus in self.buses]
        named += [("dynamic component", s.component_id, s) for s in self.dynamic_shunts]
        for what, name, record in named:
            if set(name) & set(',"\r\n'):
                raise NetworkError(
                    f"{what} id {name!r} holds a comma, a double quote or a line break", record
                )
            if name in kinds:
                raise NetworkError(
                    f"duplicate {what} id {name!r}" if kinds[name] == what
                    else f"{what} id {name!r} is also a bus id",
                    record,
                )
            kinds[name] = what
        grounds = [b for b in self.buses if b.kind is BusKind.GROUND]
        if len(grounds) != 1:
            raise NetworkError(
                f"exactly one ground bus required, found {len(grounds)}"
            )

    def _validate_branches(self) -> None:
        ids = {b.id for b in self.buses}
        ground = self.ground_id
        for line in self.lines:
            if line.from_bus not in ids or line.to_bus not in ids:
                raise NetworkError(
                    f"line {line.from_bus!r}-{line.to_bus!r} references unknown bus", line
                )
            # written to fail for NaN as well
            if not 0.0 < line.x < math.inf:
                what = "zero" if line.x == 0.0 else "negative" if line.x < 0.0 else "non-finite"
                raise NetworkError(
                    f"line {line.from_bus!r}-{line.to_bus!r} has {what} reactance {line.x}",
                    line,
                )
            if ground in (line.from_bus, line.to_bus):
                raise NetworkError(
                    f"line {line.from_bus!r}-{line.to_bus!r} may not touch ground", line
                )
            if line.from_bus == line.to_bus:
                raise NetworkError(f"line at {line.from_bus!r} is a self-loop", line)
        for cp in self.constant_power:
            if cp.bus not in ids:
                raise NetworkError(f"constant-power branch at unknown bus {cp.bus!r}", cp)
            if cp.bus == ground:
                raise NetworkError("constant-power branch may not sit on ground", cp)
        kind_of = {b.id: b.kind for b in self.buses}
        shunted: set[str] = set()
        for shunt in self.dynamic_shunts:
            if shunt.bus not in ids:
                raise NetworkError(f"dynamic shunt at unknown bus {shunt.bus!r}", shunt)
            if kind_of[shunt.bus] is not BusKind.DYNAMIC:
                raise NetworkError(
                    f"dynamic shunt {shunt.component_id!r} must sit on a dynamic bus", shunt
                )
            if shunt.bus in shunted:
                raise NetworkError(
                    f"bus {shunt.bus!r} carries more than one component", shunt
                )
            shunted.add(shunt.bus)
        missing = [b for b in self.buses if b.kind is BusKind.DYNAMIC and b.id not in shunted]
        if missing:
            raise NetworkError(
                f"dynamic bus(es) without a component: {sorted(b.id for b in missing)}",
                missing[0],
            )

    def _build_derived(self) -> None:
        self.non_ground = [b.id for b in self.buses if b.kind is not BusKind.GROUND]
        self.node_index = {bid: i for i, bid in enumerate(self.non_ground)}
        n = len(self.non_ground)
        self.edges = [
            (self.node_index[line.from_bus], self.node_index[line.to_bus], line.coupling)
            for line in self.lines
        ]
        self.edge_arrays = (
            np.array([i for i, _, _ in self.edges], dtype=np.intp),
            np.array([k for _, k, _ in self.edges], dtype=np.intp),
            np.array([b for _, _, b in self.edges], dtype=float),
        )
        i, k, b = self.edge_arrays
        # theta (or P) rows of each line's from and to end, then V (or Q) rows
        self.injection_slots = np.concatenate([i, k, n + i, n + k])
        self.stacked_coupling = np.concatenate([b, b])
        self.partials_slots = _partials_slots(n, i, k)
        self.coupling_sum = [0.0] * n
        for i, k, b in self.edges:
            self.coupling_sum[i] += b
            self.coupling_sum[k] += b
        self.load_p = [0.0] * n
        self.load_q = [0.0] * n
        for cp in self.constant_power:
            i = self.node_index[cp.bus]
            self.load_p[i] += cp.p0
            self.load_q[i] += cp.q0
        self.shunt_at = [None] * n
        for shunt in self.dynamic_shunts:
            self.shunt_at[self.node_index[shunt.bus]] = shunt

    def _validate_connected(self) -> None:
        # Shunt branches connect their bus to ground, so the graph over all
        # buses uses lines plus shunts.
        neighbors: dict[str, set[str]] = {b.id: set() for b in self.buses}
        for line in self.lines:
            neighbors[line.from_bus].add(line.to_bus)
            neighbors[line.to_bus].add(line.from_bus)
        ground = self.ground_id
        for cp in self.constant_power:
            neighbors[cp.bus].add(ground)
            neighbors[ground].add(cp.bus)
        for shunt in self.dynamic_shunts:
            neighbors[shunt.bus].add(ground)
            neighbors[ground].add(shunt.bus)
        stack = [self.buses[0].id]
        seen = {self.buses[0].id}
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreached = [b for b in self.buses if b.id not in seen]
        if unreached:
            raise NetworkError(
                f"graph is not connected; unreachable: {[b.id for b in unreached]}",
                unreached[0],
            )

    # -- accessors ---------------------------------------------------------

    @property
    def ground_id(self) -> str:
        # _validate_ids has found exactly one
        return next(b.id for b in self.buses if b.kind is BusKind.GROUND)

    @property
    def n_nodes(self) -> int:
        return len(self.non_ground)

    def dynamic_nodes(self) -> list[int]:
        return [i for i, s in enumerate(self.shunt_at) if s is not None]

    def passive_nodes(self) -> list[int]:
        return [i for i, s in enumerate(self.shunt_at) if s is None]

    def with_scaled_line(self, line_idx: int, factor: float) -> "NetworkModel":
        """Copy of the network with one line's coupling scaled by `factor`."""
        if not 0 <= line_idx < len(self.lines):
            raise NetworkError(f"line index {line_idx} out of range")
        if factor <= 0.0:
            raise NetworkError(f"line scale factor must be positive, got {factor}")
        old = self.lines[line_idx]
        lines = list(self.lines)
        # scaling coupling B = 1/x by `factor` divides the reactance
        lines[line_idx] = LosslessLine(old.from_bus, old.to_bus, old.x / factor)
        return NetworkModel(self.buses, lines, list(self.constant_power), list(self.dynamic_shunts))

    def with_load_delta(self, bus: str, dp: float, dq: float) -> "NetworkModel":
        """Copy with a consumption-positive delta added to the load at `bus`."""
        if bus not in self.node_index:
            raise NetworkError(f"load step at unknown bus {bus!r}")
        hit = [i for i, cp in enumerate(self.constant_power) if cp.bus == bus]
        if not hit:
            raise NetworkError(f"load step at bus {bus!r} with no constant-power branch")
        cps = list(self.constant_power)
        old = cps[hit[0]]
        cps[hit[0]] = ConstantPowerBranch(old.bus, old.p0 + dp, old.q0 + dq)
        return NetworkModel(self.buses, list(self.lines), cps, list(self.dynamic_shunts))


@recordclass
class BusState:
    """A stacked bus state x = (theta, V): unwrapped angles (radians) of the
    non-ground buses in network node order, then their voltage magnitudes,
    which must be positive (log V is taken downstream). ``theta`` and ``V``
    are the two halves of ``x``, as views."""

    x: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if np.any(self.V <= 0.0):
            raise ValueError("bus voltage magnitudes must be positive")

    @property
    def theta(self) -> np.ndarray:
        return self.x[: len(self.x) // 2]

    @property
    def V(self) -> np.ndarray:
        return self.x[len(self.x) // 2 :]


# -- evaluation ------------------------------------------------------------


def power_injection(net: NetworkModel, x: np.ndarray) -> np.ndarray:
    """Net power injected from the shunt side into the network at each bus,
    on the stacked bus state x = (theta, V), a float array of length 2n.
    Returns (P, Q) stacked the same way, P in the first n entries.

    Closed form over lines: P_i = sum_k B_ik V_i V_k sin(theta_i - theta_k),
    Q_i = sum_k B_ik (V_i^2 - V_i V_k cos(theta_i - theta_k)), generation
    convention. One gather of both line ends (theta_i, theta_k, V_i, V_k),
    one sin and one cos over all lines, the products (B V_i) V_i and
    (B V_k) V_k formed on the stacked ends (B V_i, B V_k), the terms written
    into one buffer in ``injection_slots`` order, and one ``np.bincount``
    scatter onto the buses in that fixed order.
    """
    slots = net.injection_slots
    lines = len(net.edges)
    ends = x[slots]
    v = ends[2 * lines:]
    bv = net.stacked_coupling * v
    d = ends[:lines] - ends[lines : 2 * lines]
    bvv = bv[:lines] * v[lines:]
    terms = np.empty(4 * lines)
    flow = terms[:lines]
    np.multiply(bvv, np.sin(d), out=flow)
    np.negative(flow, out=terms[lines : 2 * lines])
    cross = bvv * np.cos(d)
    square = bv * v
    np.subtract(square[:lines], cross, out=terms[2 * lines : 3 * lines])
    np.subtract(square[lines:], cross, out=terms[3 * lines:])
    return np.bincount(slots, weights=terms, minlength=2 * net.n_nodes)


def passive_bus_constants(coupling_sum, load_p, load_q):
    """The constants of :func:`solve_passive_bus` for passive buses with
    coupling sums S and consumption-positive loads (p, q): (S, q, -p, S^2,
    S q, p^2 + q^2, S^2 (p^2 + q^2), and whether p^2 + q^2 is zero).
    Elementwise, on floats or on arrays over buses."""
    s2 = coupling_sum * coupling_sum
    load2 = load_p * load_p + load_q * load_q
    return (
        coupling_sum, load_q, -load_p, s2, coupling_sum * load_q, load2, s2 * load2,
        load2 == 0.0,
    )


def passive_bus_solution(
    e_re, e_im, coupling_sum, load_p, load_q, v0, theta0, sqrt=np.sqrt, atan2=np.arctan2
):
    """(V, theta) that balance a passive bus against line neighbours held fixed.

    The neighbours act as one source behind the bus's lines:
    E = sum_k B_nk V_k e^(j theta_k), with real and imaginary parts ``e_re``
    and ``e_im``. With S the coupling sum and (p, q) the consumption-positive
    load, the balance P_n = -p, Q_n = -q of :func:`power_injection` reads
    conj(V_n e^(j theta_n)) E = S x + q + j p with x = V_n^2, so

        S^2 x^2 + (2 S q - |E|^2) x + p^2 + q^2 = 0,
        theta_n = arg(E) + atan2(-p, S x + q),

    the load flow of one load behind a reactance (Van Cutsem & Vournas,
    *Voltage Stability of Electric Power Systems*, 1998, ch. 2). Of the two
    roots the one on the side of the warm start ``v0``^2 is taken (the high
    one when the low one is zero), so the solution stays on the branch an
    iteration from ``v0`` would follow; both roots are formed without
    cancellation. theta_n is shifted by a multiple of 2 pi to lie within pi
    of ``theta0``, since angles are unwrapped.

    Elementwise: one bus's floats with ``math.sqrt`` and ``math.atan2``,
    which raise ValueError or ZeroDivisionError where no solution with
    V_n > 0 exists (a load beyond the transfer limit, or S = 0), or arrays
    over buses with the numpy defaults, which give NaN there.

    It is :func:`solve_passive_bus` on :func:`passive_bus_constants`, which
    a caller that solves the same buses many times folds once.
    """
    constants = passive_bus_constants(coupling_sum, load_p, load_q)
    return solve_passive_bus(e_re, e_im, constants, v0, theta0, sqrt, atan2)


def solve_passive_bus(e_re, e_im, constants, v0, theta0, sqrt=np.sqrt, atan2=np.arctan2):
    """:func:`passive_bus_solution` given the buses' constants from
    :func:`passive_bus_constants`."""
    coupling_sum, load_q, neg_p, s2, s_q, load2, s2_load2, no_load = constants
    # S^2 times the midpoint of the roots, and S^2 times their half distance
    mid = 0.5 * (e_re * e_re + e_im * e_im) - s_q
    half_gap = sqrt(mid * mid - s2_load2)
    low = load2 / (mid + half_gap)
    high = (v0 * v0 * s2 >= mid) | no_load
    x = low + high * (2.0 * half_gap / s2)
    theta = atan2(e_im, e_re) + atan2(neg_p, coupling_sum * x + load_q)
    theta += TWO_PI * (((theta0 - theta) / TWO_PI + 0.5) // 1.0)
    return sqrt(x), theta


def _partials_slots(n: int, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Flat positions, in the 2n x 2n matrix with rows (P, Q) and columns
    (theta, V), of the terms :func:`injection_partials` lists: eight per
    line, then the diagonals of the four blocks."""
    r = np.arange(n)
    rows = np.concatenate([i, k, i, k, n + i, n + k, n + i, n + k, r, r, n + r, n + r])
    cols = np.concatenate([k, i, n + k, n + i, k, i, n + k, n + i, r, n + r, r, n + r])
    return rows * (2 * n) + cols


def injection_partials(net: NetworkModel, x, injections=None) -> np.ndarray:
    """The analytic injection Jacobian at the stacked bus state x, one dense
    2n x 2n matrix: rows P then Q, columns theta then V, each in node order.

    Entry [r, c] is the partial of row r's injection by column c's
    coordinate. Off-diagonal entries come from one vectorized pass over the
    lines. The diagonal of each block comes from the injections, by exact
    identities of the closed form of :func:`power_injection`, with S_i the
    coupling sum at bus i:
    dP_i/dtheta_i = V_i^2 S_i - Q_i, dP_i/dV_i = P_i / V_i,
    dQ_i/dtheta_i = P_i, dQ_i/dV_i = Q_i / V_i + V_i S_i.
    ``injections`` is the stacked (P, Q) of :func:`power_injection` at the
    same state, for callers that hold it already; it is computed when
    omitted. Callers take what they need by indexing this one matrix.
    """
    n = net.n_nodes
    x = np.asarray(x, dtype=float)
    pq = power_injection(net, x) if injections is None else injections
    t, v = x[:n], x[n:]
    p, q = pq[:n], pq[n:]
    i, k, b = net.edge_arrays
    d = t[i] - t[k]
    s = b * np.sin(d)
    c = b * np.cos(d)
    vi = v[i]
    vk = v[k]
    vvc = vi * vk * c
    vvs = vi * vk * s
    vs = v * np.asarray(net.coupling_sum)
    terms = np.concatenate([
        -vvc, -vvc, vi * s, -vk * s, -vvs, vvs, -vi * c, -vk * c,
        v * vs - q, p / v, p, q / v + vs,
    ])
    jac = np.bincount(net.partials_slots, weights=terms, minlength=4 * n * n)
    return jac.reshape(2 * n, 2 * n)


def _phasors(net: NetworkModel, x) -> np.ndarray:
    """V e^(j theta) per bus at the stacked bus state x, on its last axis."""
    n = net.n_nodes
    return x[..., n:] * np.exp(1j * x[..., :n])


def branch_currents_oracle(
    net: NetworkModel,
    x: np.ndarray,
    dynamic_injections: dict[str, tuple[float, float]] | None = None,
) -> dict[str, complex]:
    """Branch currents by direct complex arithmetic, associated reference
    direction (current flows from the first terminal through the branch).

    Lines and constant-power branches follow their own laws; a dynamic
    shunt's current comes from the supplied generation pair, or, when none
    is given, from nodal balance (which makes the current set satisfy KCL
    exactly). Keys are "line:<from>-<to>:<idx>", "cp:<bus>:<idx>" and
    "dyn:<component>".

    ``x`` is the stacked bus state and may carry a leading sample axis
    (shape (S, 2n), injections of shape (S,)); each current is then an
    array over samples.
    """
    vbar = _phasors(net, x)
    currents: dict[str, complex] = {}
    nodal = [0j] * net.n_nodes
    for idx, line in enumerate(net.lines):
        i = net.node_index[line.from_bus]
        k = net.node_index[line.to_bus]
        cur = line.admittance * (vbar[..., i] - vbar[..., k])
        currents[f"line:{line.from_bus}-{line.to_bus}:{idx}"] = cur
        nodal[i] += cur
        nodal[k] -= cur
    for idx, cp in enumerate(net.constant_power):
        i = net.node_index[cp.bus]
        # associated direction out of the bus: conj((p0 + j q0) / Vbar)
        cur = (complex(cp.p0, cp.q0) / vbar[..., i]).conjugate()
        currents[f"cp:{cp.bus}:{idx}"] = cur
        nodal[i] += cur
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        if dynamic_injections is not None and shunt.component_id in dynamic_injections:
            gp, gq = dynamic_injections[shunt.component_id]
            cur = -((gp + 1j * gq) / vbar[..., i]).conjugate()
        else:
            cur = -nodal[i]
        currents[f"dyn:{shunt.component_id}"] = cur
    return currents


def tellegen_sum(
    net: NetworkModel,
    x: np.ndarray,
    dynamic_injections: dict[str, tuple[float, float]] | None = None,
) -> complex:
    """Sum over all branches of Vbar_mu * conj(I_mu).

    Vanishes whenever the currents satisfy KCL and the voltages KVL; with
    dynamic currents taken from nodal balance this is an orthogonality
    identity, and with explicit injections it measures their imbalance.
    With a sample axis on ``x`` (see :func:`branch_currents_oracle`), one
    sum per sample, accumulated branch by branch as for one state.
    """
    vbar = _phasors(net, x)
    currents = branch_currents_oracle(net, x, dynamic_injections)
    total = 0j
    for idx, line in enumerate(net.lines):
        i = net.node_index[line.from_bus]
        k = net.node_index[line.to_bus]
        v_branch = vbar[..., i] - vbar[..., k]
        total += v_branch * currents[f"line:{line.from_bus}-{line.to_bus}:{idx}"].conjugate()
    for idx, cp in enumerate(net.constant_power):
        i = net.node_index[cp.bus]
        total += vbar[..., i] * currents[f"cp:{cp.bus}:{idx}"].conjugate()
    for shunt in net.dynamic_shunts:
        i = net.node_index[shunt.bus]
        total += vbar[..., i] * currents[f"dyn:{shunt.component_id}"].conjugate()
    return total
