#!/usr/bin/env python3
"""End-to-end demo on the packaged 3-bus case.

Plans the default state-perturbation transient, which checks it before any
solve, solves the steady state, runs the plan, writes the trajectory CSV
plus run manifest, and prints the certificate summary. Equivalent CLI:

    phasorstab equilibrium case3bus
    phasorstab simulate case3bus --out case3bus_traj.csv
    phasorstab certify case3bus --with-trajectory
"""

import argparse

from phasorstab.certify import certify, render_report
from phasorstab.cli import back_solve_setpoints, resolve_case_path, solve_case_equilibrium
from phasorstab.netfile import load_case
from phasorstab.records import replace
from phasorstab.scenario import plan_run
from phasorstab.simulator import simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="case3bus_traj.csv")
    parser.add_argument("--horizon", type=float, default=None)
    args = parser.parse_args()

    case = back_solve_setpoints(load_case(resolve_case_path("case3bus")))
    scenario = case.scenario
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    # the run is planned, and so checked, before any solve
    plan = plan_run(case.net, case.components, scenario, case.solver)
    sol = solve_case_equilibrium(case)
    print(f"equilibrium ({sol.iterations} Newton iterations, "
          f"residual {sol.residual_norm:.2e}):")
    for i, bus in enumerate(case.net.non_ground):
        print(f"  {bus}: V = {sol.state.V[i]:.6f}, theta = {sol.state.theta[i]:.6f}")

    traj = simulate(plan, sol)
    traj.to_csv(args.out)
    traj.write_manifest(args.out.replace(".csv", ".manifest.json"), "case3bus")
    print(f"\nwrote {traj.n_samples} samples to {args.out}")
    print(f"peak divergence {traj.w.max():.3e}, final {traj.w[-1]:.3e}")

    report = certify(case.net, case.components, sol, traj)
    print("\n" + render_report(report))


if __name__ == "__main__":
    main()
