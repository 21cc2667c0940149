#!/usr/bin/env python3
"""Quadrature-convergence experiment for the trajectory energy identities.

Runs the 3-bus state-perturbation transient over a sequence of halved step
sizes and tabulates the residuals of

  * unshifted integral  vs  potential change, and
  * deviation integral  vs  divergence change,

together with the per-halving ratios (expected ~4, i.e. second order) and a
log-log slope fit. The residuals bottom out near 1e-13 once the trapezoid
error reaches the rounding floor of the accumulators, which is why the fit
uses the coarse range.
"""

import argparse
import math
import time

import numpy as np

from phasorstab.certify import identity_residuals
from phasorstab.cli import back_solve_setpoints, resolve_case_path, solve_case_equilibrium
from phasorstab.netfile import load_case
from phasorstab.scenario import Scenario, SolverConfig, StatePerturbation, plan_run
from phasorstab.simulator import simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=10.0)
    parser.add_argument("--h0", type=float, default=1e-2, help="coarsest step")
    parser.add_argument("--halvings", type=int, default=3)
    args = parser.parse_args()

    case = back_solve_setpoints(load_case(resolve_case_path("case3bus")))
    sol = solve_case_equilibrium(case)

    steps = [args.h0 / 2**k for k in range(args.halvings + 1)]
    rows = []
    print(f"{'h':>10} {'potential-resid':>16} {'divergence-resid':>17} "
          f"{'ratio_p':>8} {'ratio_d':>8} {'wall':>7}")
    for h in steps:
        scen = Scenario(
            horizon=args.horizon,
            output_period=args.horizon / 10.0,
            disturbances=[
                StatePerturbation(at=0.0, component="vsg1", delta={"omega": 0.1}),
                StatePerturbation(at=0.0, component="droop2", delta={"v": -0.02}),
            ],
        )
        plan = plan_run(case.net, case.components, scen, SolverConfig(step_size=h))
        start = time.perf_counter()
        traj = simulate(plan, sol)
        wall = time.perf_counter() - start
        potential_gap, divergence_gap = identity_residuals(traj)
        ratio_p = rows[-1][1] / potential_gap if rows else float("nan")
        ratio_d = rows[-1][2] / divergence_gap if rows else float("nan")
        rows.append((h, potential_gap, divergence_gap))
        print(f"{h:10.2e} {potential_gap:16.3e} {divergence_gap:17.3e} "
              f"{ratio_p:8.2f} {ratio_d:8.2f} {wall:6.2f}s")

    slope = np.polyfit([math.log(r[0]) for r in rows],
                       [math.log(r[1]) for r in rows], 1)[0]
    print(f"\nfitted order (potential identity): {slope:.3f}")


if __name__ == "__main__":
    main()
