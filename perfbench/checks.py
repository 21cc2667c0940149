"""Output checks for the phasorstab benchmark.

Nothing here imports phasorstab or compares against stored program output.
Each check recomputes what it needs from the case file with this module's
own numpy formulas (bus injections, the voltage potential and its Hessian
in (theta, ln V) coordinates), or tests a property the method must have
(second-order identity residuals, exact path-experiment values, byte
identical repeats). A failed check raises CheckFailed with the reason.
"""

from __future__ import annotations

import json

import numpy as np

from cases import REJECT_COMPONENT

BALANCE_TOL = 1e-8        # passive-bus balance and steady-state relations
MATCH_TOL = 1e-9          # program value vs the same quantity recomputed here
IDENTITY_H2 = 1e-3        # divergence identity residual allowed: IDENTITY_H2 * h^2
ORDER_RANGE = (1.65, 2.35)
TELLEGEN_TOL = 1e-9
ZERO_TOL = 1e-8           # relative zero-eigenvalue tolerance (as the method states)
POS_TOL = 1e-10


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Case:
    """The parts of a case file the checks need, in node order."""

    def __init__(self, doc: dict) -> None:
        ground = [b["id"] for b in doc["buses"] if b["kind"] == "ground"][0]
        self.nodes = [b["id"] for b in doc["buses"] if b["kind"] != "ground"]
        idx = {bid: i for i, bid in enumerate(self.nodes)}
        n = self.n = len(self.nodes)
        lines = [br for br in doc["branches"] if br["kind"] == "line"]
        self.frm = np.array([idx[br["from"]] for br in lines], dtype=int)
        self.to = np.array([idx[br["to"]] for br in lines], dtype=int)
        self.b = np.array([1.0 / br["x"] for br in lines])
        self.af = np.zeros((len(lines), n))
        self.at = np.zeros((len(lines), n))
        self.af[np.arange(len(lines)), self.frm] = 1.0
        self.at[np.arange(len(lines)), self.to] = 1.0
        self.p0 = np.zeros(n)   # consumption-positive
        self.q0 = np.zeros(n)
        for br in doc["branches"]:
            if br["kind"] == "constant_power" and br["to"] == ground:
                sign = -1.0 if br.get("convention", "consumption") == "generation" else 1.0
                self.p0[idx[br["from"]]] += sign * br["p0"]
                self.q0[idx[br["from"]]] += sign * br["q0"]
        self.comps = [
            {"id": c["id"], "node": idx[c["bus"]], "model": c["model"], **c["params"],
             "setpoints": c.get("setpoints")}
            for c in doc["components"]
        ]
        dynamic = {c["node"] for c in self.comps}
        self.passive = np.array([i for i in range(n) if i not in dynamic], dtype=int)
        op = doc.get("operating_point")
        if op is not None:
            v_op = np.array([op[b]["V"] for b in self.nodes])
            t_op = np.array([op[b]["theta"] for b in self.nodes])
            p_op, q_op = self.injections(v_op, t_op)
        for c in self.comps:
            if c["setpoints"] is None:
                i = c["node"]
                c["setpoints"] = {"P_e": p_op[i], "Q_e": q_op[i], "V_e": v_op[i],
                                  "theta_e": t_op[i]}
        self.scenario = doc.get("scenario")
        self.step = doc.get("solver", {}).get("step_size", 1e-3)

    @staticmethod
    def load(path: str) -> "Case":
        with open(path) as fh:
            return Case(json.load(fh))

    def injections(self, V, theta):
        """Generation-positive line injections; V, theta are (n,) or (samples, n)."""
        d = theta[..., self.frm] - theta[..., self.to]
        vv = V[..., self.frm] * V[..., self.to]
        flow = self.b * vv * np.sin(d)
        cross = vv * np.cos(d)
        P = (flow @ self.af) - (flow @ self.at)
        Q = (self.b * (V[..., self.frm] ** 2 - cross)) @ self.af + (
            self.b * (V[..., self.to] ** 2 - cross)
        ) @ self.at
        return P, Q

    def potential(self, V, theta):
        """Vp = sum over lines of B/2 |V_i e^{j th_i} - V_k e^{j th_k}|^2
        plus sum over loads of p0 theta + q0 ln V; V, theta (n,) or (samples, n)."""
        vi, vk = V[..., self.frm], V[..., self.to]
        line = 0.5 * self.b * (vi * vi + vk * vk
                               - 2.0 * vi * vk * np.cos(theta[..., self.frm] - theta[..., self.to]))
        return line.sum(axis=-1) + theta @ self.p0 + np.log(V) @ self.q0

    def hessian(self, V, theta) -> np.ndarray:
        """Hessian of Vp in (theta, ln V), theta block first. Loads are linear
        in these coordinates, so only the lines contribute."""
        n = self.n
        f, t = self.frm, self.to
        vv = self.b * V[f] * V[t]
        c = vv * np.cos(theta[f] - theta[t])
        s = vv * np.sin(theta[f] - theta[t])
        h = np.zeros((2 * n, 2 * n))
        for (r, col), val in (
            ((f, f), c), ((t, t), c), ((f, t), -c), ((t, f), -c),
            ((f, n + f), s), ((f, n + t), s), ((t, n + f), -s), ((t, n + t), -s),
            ((n + f, n + f), 2.0 * self.b * V[f] ** 2 - c),
            ((n + t, n + t), 2.0 * self.b * V[t] ** 2 - c),
            ((n + f, n + t), -c), ((n + t, n + f), -c),
        ):
            np.add.at(h, (r, col), val)
        # the mixed block enters twice: d2/(dtheta dlnV) and its transpose
        h[n:, :n] = h[:n, n:].T
        return h

    def csv_columns(self) -> list[str]:
        cols = ["t"]
        for bus in self.nodes:
            cols += [f"{bus}_V", f"{bus}_theta"]
        for c in self.comps:
            labels = ("theta", "omega", "v") if c["model"] == "vsg" else ("theta", "v")
            cols += [f"{c['id']}_{lab}" for lab in labels] + [f"{c['id']}_P", f"{c['id']}_Q"]
        cols += ["Vp", "W"]
        for c in self.comps:
            cols += [f"{c['id']}_storage", f"{c['id']}_supply", f"{c['id']}_integral"]
        return cols


def check_equilibrium(case: Case, doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Balance and steady-state relations at the reported (V, theta);
    returns the solved (V, theta) in node order."""
    _require(sorted(doc["buses"]) == sorted(case.nodes), "equilibrium: bus set differs")
    V = np.array([doc["buses"][b]["V"] for b in case.nodes])
    th = np.array([doc["buses"][b]["theta"] for b in case.nodes])
    _require(bool(np.all(V > 0.0)), "equilibrium: non-positive voltage")
    P, Q = case.injections(V, th)
    pas = case.passive
    worst = float(np.max(np.abs(np.r_[P[pas] + case.p0[pas], Q[pas] + case.q0[pas], 0.0])))
    _require(worst <= BALANCE_TOL, f"equilibrium: passive-bus imbalance {worst:.3e}")
    for c in case.comps:
        i, sp = c["node"], c["setpoints"]
        rep = doc["components"][c["id"]]
        rel_v = (V[i] - sp["V_e"]) + c["Dq"] * (Q[i] - sp["Q_e"])
        if c["model"] == "vsg":
            rel_t = P[i] - sp["P_e"]
            state = (th[i], 0.0, V[i])
        else:
            rel_t = (th[i] - sp["theta_e"]) + c["Dp"] * (P[i] - sp["P_e"])
            state = (th[i], V[i])
        _require(max(abs(rel_t), abs(rel_v)) <= BALANCE_TOL,
                 f"equilibrium: steady-state relation of {c['id']} off by "
                 f"{max(abs(rel_t), abs(rel_v)):.3e}")
        _require(abs(rep["P"] - P[i]) <= MATCH_TOL and abs(rep["Q"] - Q[i]) <= MATCH_TOL,
                 f"equilibrium: reported P/Q of {c['id']} differ from the bus injection")
        _require(np.allclose(rep["state"], state, rtol=0.0, atol=MATCH_TOL),
                 f"equilibrium: state of {c['id']} is not its steady state")
    return V, th


def check_trajectory(case: Case, csv_path: str, manifest_path: str,
                     horizon: float, output_period: float) -> None:
    """Shape, finiteness and the algebraic/energy relations of every sample."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    cols = case.csv_columns()
    _require(header == cols, "simulate: CSV header differs from the expected columns")
    _require(manifest["columns"] == cols, "simulate: manifest columns differ from the CSV")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    rows = round(horizon / output_period) + 1
    _require(data.shape == (rows, len(cols)),
             f"simulate: table is {data.shape}, expected ({rows}, {len(cols)})")
    _require(manifest["samples"] == rows, "simulate: manifest sample count differs")
    _require(bool(np.all(np.isfinite(data))), "simulate: non-finite value in the CSV")
    col = {name: j for j, name in enumerate(cols)}
    _require(bool(np.allclose(data[:, 0], output_period * np.arange(rows), atol=1e-9)),
             "simulate: sample times are off the output grid")
    V = data[:, [col[f"{b}_V"] for b in case.nodes]]
    th = data[:, [col[f"{b}_theta"] for b in case.nodes]]
    P, Q = case.injections(V, th)
    pas = case.passive
    if len(pas):
        worst = float(np.max(np.abs(np.c_[P[:, pas] + case.p0[pas], Q[:, pas] + case.q0[pas]])))
        _require(worst <= BALANCE_TOL, f"simulate: passive-bus imbalance {worst:.3e}")
    total_integral = np.zeros(rows)
    for c in case.comps:
        i, cid = c["node"], c["id"]
        _require(bool(np.all(np.abs(data[:, col[f"{cid}_P"]] - P[:, i]) <= MATCH_TOL))
                 and bool(np.all(np.abs(data[:, col[f"{cid}_Q"]] - Q[:, i]) <= MATCH_TOL)),
                 f"simulate: P/Q columns of {cid} differ from the bus injection")
        _require(bool(np.array_equal(data[:, col[f"{cid}_theta"]], th[:, i]))
                 and bool(np.array_equal(data[:, col[f"{cid}_v"]], V[:, i])),
                 f"simulate: terminal state of {cid} differs from its bus")
        total_integral += data[:, col[f"{cid}_integral"]]
    vp = case.potential(V, th)
    gap = float(np.max(np.abs(data[:, col["Vp"]] - (vp - vp[0]))))
    _require(gap <= MATCH_TOL, f"simulate: Vp column off the recomputed potential by {gap:.3e}")
    w = data[:, col["W"]]
    gap = float(np.max(np.abs(total_integral - (w - w[0]))))
    tol = IDENTITY_H2 * case.step ** 2
    _require(gap <= tol, f"simulate: integrals miss W - W[0] by {gap:.3e} > {tol:.1e}")


def check_certify(case: Case, doc: dict, V, theta, with_trajectory: bool) -> None:
    """Convexity eigenvalues against eigvalsh of the Hessian built here."""
    _require(doc["trajectory_evaluated"] is with_trajectory,
             "certify: trajectory_evaluated flag is wrong")
    mine = np.linalg.eigvalsh(case.hessian(V, theta))
    rep = np.sort(np.array(doc["convexity"]["eigenvalues"], dtype=float))
    _require(rep.shape == mine.shape, "certify: wrong number of convexity eigenvalues")
    scale = max(1.0, float(np.max(np.abs(mine))))
    gap = float(np.max(np.abs(rep - mine)))
    _require(gap <= MATCH_TOL * scale, f"certify: eigenvalues off by {gap:.3e}")
    zeros = np.flatnonzero(np.abs(mine) <= ZERO_TOL * scale)
    # the uniform angle shift is always in the kernel: one zero mode
    _require(len(zeros) == 1, f"certify: {len(zeros)} near-zero eigenvalues, expected 1")
    zero = doc["convexity"]["zero_eigenvalue"]
    _require(zero is not None and abs(zero - mine[zeros[0]]) <= MATCH_TOL * scale,
             "certify: reported zero mode does not match")
    member = bool(np.all(np.delete(mine, zeros) >= POS_TOL))
    _require(doc["convexity"]["member"] is member, "certify: membership verdict is wrong")


def check_identities(doc: dict, steps: int) -> None:
    _require(len(doc["sweep"]) == steps, "verify-identities: wrong number of sweep rows")
    for key, order in doc["fitted_order"].items():
        _require(order is not None and ORDER_RANGE[0] <= order <= ORDER_RANGE[1],
                 f"verify-identities: fitted order of {key} is {order}")
    tellegen = max(r["tellegen_max"] for r in doc["sweep"])
    _require(tellegen <= TELLEGEN_TOL, f"verify-identities: tellegen_max {tellegen:.3e}")
    path = doc["path_experiment"]
    _require(abs(path["lossless_im_diff"]) <= 1e-12,
             "verify-identities: lossless contour difference is not 0")
    _require(abs(path["lossy_unit_area_im_diff"] - 2.0) <= 1e-9,
             "verify-identities: lossy unit-area difference is not 2")


def check_rejection(returncode: int, stderr: str, out_path_exists: bool) -> None:
    _require(returncode == 1, f"reject: exit code {returncode}, expected 1")
    _require(REJECT_COMPONENT in stderr, "reject: message does not name the component")
    _require(not out_path_exists, "reject: a trajectory file was left behind")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
