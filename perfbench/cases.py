#!/usr/bin/env python3
"""Seeded case generator for the phasorstab benchmark.

Every generated case is a phasorstab JSON case file. Sources sit on dynamic
buses (alternating virtual-inertia "vsg" and "droop" models); loads are
constant-power branches on passive buses. Loads are not taken from the
program: this module runs its own numpy power flow at a chosen operating
point, takes the implied consumption at each passive bus, and rounds it to
LOAD_DECIMALS. The rounding keeps the declared loads well inside the
program's 0.01 pu back-solve tolerance, yet moves the equilibrium off the
operating point, so the equilibrium Newton iteration has real work to do.

    python3 perfbench/cases.py --workload load-ladder --seed 1 --out DIR

writes the workload's case files into DIR and prints their names. The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

LOAD_DECIMALS = 3

# Case structure per workload. Sizes were chosen so that one round of a
# workload's command sequence takes a few seconds on a 2-core machine, and
# no command much more than a second: the speed calibration in run.py
# tracks short commands best.
LADDER_RUNGS = 32            # 2 rails x 32 = 64 buses, half of them loads
LADDER_HORIZON = 0.1         # s; sparse output
LADDER_OUTPUT = 0.02
MESH_BUSES = 48
MESH_LOAD_EVERY = 8          # 6 load buses out of 48
MESH_HORIZON = 0.1           # s; output at every integration step
SCAN_SIZES = (16, 32, 48, 64, 96, 128)
SCAN_HORIZON = 0.2           # short scenario on the smallest scan case
STEP = 1e-3
# The packaged case3bus scenario runs 40 s; the benchmark cuts it to this
# horizon, because a 3 s command of which only three fit into one run could
# not be timed steadily on a shared machine (see README.md).
PAPER_HORIZON = 10.0
REJECT_COMPONENT = "ghost_source"
WORKLOADS = ("paper-case3bus", "load-ladder", "source-mesh-dense", "convexity-scan")


def injections(n: int, frm, to, coupling, V, theta):
    """Generation-positive line injections (P, Q) at every bus, by numpy.

    P_i = sum_k B_ik V_i V_k sin(theta_i - theta_k),
    Q_i = sum_k B_ik (V_i^2 - V_i V_k cos(theta_i - theta_k)).
    """
    frm = np.asarray(frm, dtype=int)
    to = np.asarray(to, dtype=int)
    b = np.asarray(coupling, dtype=float)
    V = np.asarray(V, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d = theta[frm] - theta[to]
    vv = V[frm] * V[to]
    flow = b * vv * np.sin(d)
    cross = vv * np.cos(d)
    P = np.zeros(n)
    Q = np.zeros(n)
    np.add.at(P, frm, flow)
    np.add.at(P, to, -flow)
    np.add.at(Q, frm, b * (V[frm] ** 2 - cross))
    np.add.at(Q, to, b * (V[to] ** 2 - cross))
    return P, Q


def _source_params(rng, model: str) -> dict:
    if model == "vsg":
        return {
            "M": round(float(rng.uniform(0.12, 0.20)), 4),
            "Dp": round(float(rng.uniform(0.06, 0.10)), 4),
            "Dq": round(float(rng.uniform(0.02, 0.04)), 4),
            "tau_q": round(float(rng.uniform(0.2, 0.4)), 4),
        }
    return {
        "tau_p": round(float(rng.uniform(4.0, 8.0)), 4),
        "tau_q": round(float(rng.uniform(6.0, 10.0)), 4),
        "Dp": round(float(rng.uniform(0.015, 0.03)), 4),
        "Dq": round(float(rng.uniform(0.015, 0.03)), 4),
    }


def build_case(
    name: str,
    rng,
    is_load: list[bool],
    edges: list[tuple[int, int]],
    load_scale: float = 1.0,
) -> dict:
    """Assemble a case document from a bus layout and an edge list.

    The operating point puts sources near 1.0 pu and loads a little lower
    in magnitude and angle than their neighbours, so each passive bus
    consumes power; `load_scale` widens those drops.
    """
    n = len(is_load)
    ids = [f"b{i:03d}" for i in range(n)]
    x = rng.uniform(0.08, 0.16, size=len(edges)).round(4)
    theta = rng.uniform(-0.02, 0.02, size=n)
    V = rng.uniform(1.0, 1.03, size=n)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, k in edges:
        nbrs[i].append(k)
        nbrs[k].append(i)
    for i in range(n):
        if is_load[i]:
            src = [k for k in nbrs[i] if not is_load[k]] or nbrs[i]
            theta[i] = np.mean(theta[src]) - load_scale * rng.uniform(0.005, 0.02)
            V[i] = np.mean(V[src]) - load_scale * rng.uniform(0.01, 0.03)
    theta = theta.round(6)
    V = V.round(6)
    frm = [i for i, _ in edges]
    to = [k for _, k in edges]
    P, Q = injections(n, frm, to, 1.0 / x, V, theta)

    buses = [{"id": ids[i], "kind": "passive" if is_load[i] else "dynamic"} for i in range(n)]
    buses.append({"id": "ground", "kind": "ground"})
    branches = [
        {"from": ids[i], "to": ids[k], "kind": "line", "x": float(x[j])}
        for j, (i, k) in enumerate(edges)
    ]
    components = []
    model_cycle = 0
    for i in range(n):
        if is_load[i]:
            branches.append({
                "from": ids[i], "to": "ground", "kind": "constant_power",
                "p0": round(float(-P[i]), LOAD_DECIMALS),
                "q0": round(float(-Q[i]), LOAD_DECIMALS),
                "convention": "consumption",
            })
        else:
            model = "vsg" if model_cycle % 2 == 0 else "droop"
            model_cycle += 1
            components.append({
                "id": f"{model}_{ids[i]}", "bus": ids[i], "model": model,
                "params": _source_params(rng, model),
            })
    doc = {
        "name": name,
        "buses": buses,
        "branches": branches,
        "components": components,
        "operating_point": {
            ids[i]: {"V": float(V[i]), "theta": float(theta[i])} for i in range(n)
        },
        "solver": {"step_size": STEP, "newton_tol": 1e-10, "integrator": "rk4",
                   "convention": "negated"},
    }
    return doc


def kick_scenario(components: list[dict], horizon: float, output_period: float, rng) -> dict:
    """State perturbations at t = 0 only: no network events, so the
    trajectory identities (and verify-identities) apply."""
    vsg = [c["id"] for c in components if c["model"] == "vsg"]
    droop = [c["id"] for c in components if c["model"] == "droop"]
    kicks = []
    for cid in sorted(rng.choice(vsg, size=min(3, len(vsg)), replace=False)):
        kicks.append({"at": 0.0, "kind": "state_perturbation", "component": str(cid),
                      "delta": {"omega": round(float(rng.uniform(0.03, 0.08)), 4)}})
    for cid in sorted(rng.choice(droop, size=min(2, len(droop)), replace=False)):
        kicks.append({"at": 0.0, "kind": "state_perturbation", "component": str(cid),
                      "delta": {"v": -round(float(rng.uniform(0.005, 0.02)), 4)}})
    return {"horizon": horizon, "output_period": output_period,
            "initial": "equilibrium", "disturbances": kicks}


def with_bad_event(doc: dict, at: float) -> dict:
    """Copy of `doc` whose scenario also perturbs a component that does not
    exist, at time `at`. The program must exit 1 naming REJECT_COMPONENT."""
    bad = json.loads(json.dumps(doc))
    bad["name"] = doc["name"] + "_reject"
    bad["scenario"]["disturbances"].append(
        {"at": at, "kind": "state_perturbation", "component": REJECT_COMPONENT,
         "delta": {"omega": 0.01}})
    return bad


def ladder(rng) -> dict:
    """Two rails of LADDER_RUNGS buses joined by a rung at every position.

    Sources and loads alternate in a checkerboard, so every load bus sits
    between sources and the ladder holds LADDER_RUNGS passive buses.
    """
    r = LADDER_RUNGS
    is_load = [((i // r) + (i % r)) % 2 == 1 for i in range(2 * r)]
    edges = [(rail * r + j, rail * r + j + 1) for rail in (0, 1) for j in range(r - 1)]
    edges += [(j, r + j) for j in range(r)]
    doc = build_case("ladder", rng, is_load, edges)
    doc["scenario"] = kick_scenario(doc["components"], LADDER_HORIZON, LADDER_OUTPUT, rng)
    return doc


def mesh_edges(rng, n: int) -> list[tuple[int, int]]:
    """A ring over n buses plus n // 4 seeded chords between non-neighbours."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    have = {frozenset(e) for e in edges}
    while len(edges) < n + n // 4:
        i, k = (int(v) for v in rng.choice(n, size=2, replace=False))
        if frozenset((i, k)) in have or min(abs(i - k), n - abs(i - k)) < 2:
            continue
        have.add(frozenset((i, k)))
        edges.append((min(i, k), max(i, k)))
    return edges


def mesh(rng) -> dict:
    n = MESH_BUSES
    is_load = [i % MESH_LOAD_EVERY == MESH_LOAD_EVERY // 2 for i in range(n)]
    doc = build_case("mesh", rng, is_load, mesh_edges(rng, n))
    doc["scenario"] = kick_scenario(doc["components"], MESH_HORIZON, STEP, rng)
    return doc


def scan_family(rng) -> list[dict]:
    """Meshed cases of growing size, one in three buses a load, each with a
    seeded load scale. Only the smallest carries a (short) scenario."""
    docs = []
    for j, n in enumerate(SCAN_SIZES):
        is_load = [i % 3 == 1 for i in range(n)]
        scale = round(float(rng.uniform(0.5, 2.0)), 3)
        doc = build_case(f"scan{j}_n{n}", rng, is_load, mesh_edges(rng, n), load_scale=scale)
        if j == 0:
            doc["scenario"] = kick_scenario(doc["components"], SCAN_HORIZON, 0.01, rng)
        docs.append(doc)
    return docs


def packaged_case3bus(root: str) -> dict:
    with open(os.path.join(root, "src", "phasorstab", "cases", "case3bus.json")) as fh:
        return json.load(fh)


def generate(workload: str, seed: int, out_dir: str, root: str = ".") -> dict[str, str]:
    """Write the workload's case files into out_dir; return role -> path.

    Roles: "main" (the transient case; for convexity-scan the smallest scan
    case), "reject" (the main case with a late unknown-component event) and
    "scan0".."scan5" (the convexity-scan family).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # one independent stream per workload, all fixed by the seed
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    docs: dict[str, dict] = {}
    if workload == "paper-case3bus":
        # the paper's own case and disturbances: nothing here depends on the seed
        docs["main"] = packaged_case3bus(root)
        docs["main"]["scenario"]["horizon"] = PAPER_HORIZON
        docs["reject"] = with_bad_event(docs["main"], 4.9)
    elif workload == "load-ladder":
        docs["main"] = ladder(rng)
        docs["reject"] = with_bad_event(docs["main"], LADDER_HORIZON / 2)
    elif workload == "source-mesh-dense":
        docs["main"] = mesh(rng)
        docs["reject"] = with_bad_event(docs["main"], MESH_HORIZON / 2)
    else:
        family = scan_family(rng)
        for j, doc in enumerate(family):
            docs[f"scan{j}"] = doc
        docs["reject"] = with_bad_event(family[0], SCAN_HORIZON / 2)
    paths = {}
    for role, doc in docs.items():
        path = os.path.join(out_dir, f"{doc['name']}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[role] = path
    if workload == "convexity-scan":
        paths["main"] = paths["scan0"]
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the case files")
    args = parser.parse_args(argv)
    for role, path in sorted(generate(args.workload, args.seed, args.out).items()):
        print(f"{role}\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
