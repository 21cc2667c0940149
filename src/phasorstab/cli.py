"""Command-line front end.

Subcommands: equilibrium | simulate | certify | verify-identities |
path-experiment. Structured results go to JSON files or stdout, trajectories
to CSV; every write is write-to-temp plus atomic rename
(:func:`~phasorstab.netfile.output_file`), so a failing run never leaves a
partial file, and a path that cannot be written is a validation error,
raised before the command does any work. Exit codes: 0 success,
1 validation/parse error, 2 solver failure or inconsistent inputs.

:func:`run` is the process entry (``python -m phasorstab.cli`` and the
``phasorstab`` script); :func:`main` is the same command for a caller in
the same process.

A positional CASE argument is either a path to a network description file
or the name of a packaged case (currently ``case3bus``).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .certify import certify as run_certify
from .certify import render_report
from .equilibrium import (
    EquilibriumError,
    InconsistentInput,
    solve_equilibrium,
    solve_setpoints,
)
from .netfile import (
    CaseDefinition,
    NetworkFileError,
    check_output_path,
    load_case,
    load_contours,
    output_file,
    parse_solver,
    read_json,
)
from .network import NetworkError
from .potential import (
    enclosed_area,
    path_dependence_experiment,
    rectangle_contour_pair,
)
from .records import asdict, replace
from .scenario import RunPlan, ScenarioError, check_scenario, plan_run
from .simulator import SimulationError, simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2


def resolve_case_path(case: str) -> str:
    """A filesystem path wins; otherwise fall back to a packaged case name."""
    if os.path.exists(case):
        return case
    from importlib import resources  # only a packaged name needs it

    packaged = resources.files("phasorstab").joinpath("cases", f"{case}.json")
    if packaged.is_file():
        return str(packaged)
    raise NetworkFileError(
        f"{case!r} is neither a file nor a packaged case name"
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with output_file(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _number_option(text: str, flag: str) -> float:
    """Value of a numeric command-line option; anything but a finite number
    is a validation error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioError(f"{flag} expects a finite number, got {text!r}")
    return value


def _prepare(
    case: CaseDefinition, args, transient: str | None = None
) -> tuple[CaseDefinition, list[RunPlan]]:
    """Apply global overrides, check the case's scenario against its network
    and back-solve missing setpoints, in that order: every command rejects a
    malformed scenario before any solve. A transient command gives
    `transient` (see :func:`_planned_runs`) and checks the scenario by
    planning its runs, which come back with the case; the plans hold the
    case's components, which the back-solve completes in place. Any other
    command checks a declared scenario alone and gets no plans."""
    solver = case.solver
    if getattr(args, "config", None):
        overrides = read_json(args.config)
        if isinstance(overrides, dict):
            overrides = overrides.get("solver", overrides)
        if not isinstance(overrides, dict):
            raise NetworkFileError("config file must hold a solver object")
        solver = parse_solver({**asdict(solver), **overrides})
    if getattr(args, "h", None) is not None:
        solver = replace(solver, step_size=_number_option(args.h, "--h"))
    case.solver = solver
    plans = []
    if transient is not None:
        plans = _planned_runs(case, args, transient)
    elif case.scenario is not None:
        check_scenario(case.net, case.components, case.scenario)
    return back_solve_setpoints(case), plans


def back_solve_setpoints(case: CaseDefinition) -> CaseDefinition:
    """Give every component without setpoints the ones back-solved from the
    case's operating point, which :func:`parse_case` requires of such a
    case; returns the case, changed in place."""
    missing = [cid for cid, c in case.components.items() if c.setpoints is None]
    if missing:
        sol = solve_setpoints(case.net, case.components, case.operating_point.x)
        for cid in missing:
            case.components[cid] = case.components[cid].with_setpoints(
                sol.setpoints[cid]
            )
    return case


def solve_case_equilibrium(case: CaseDefinition):
    """The case's equilibrium, from its operating point when it has one."""
    op = case.operating_point
    return solve_equilibrium(case.net, case.components, op.x if op is not None else None)


# -- subcommands ---------------------------------------------------------------


def cmd_equilibrium(args) -> int:
    case, _ = _prepare(load_case(resolve_case_path(args.case)), args)
    sol = solve_case_equilibrium(case)
    doc = {
        "case": case.name,
        "buses": {
            bus: {
                "V": float(sol.state.V[i]),
                "theta": float(sol.state.theta[i]),
            }
            for i, bus in enumerate(case.net.non_ground)
        },
        "components": {
            cid: {
                "state": list(case.components[cid].equilibrium_state(a.theta, a.V)),
                "P": a.P,
                "Q": a.Q,
            }
            for cid, a in sol.anchors.items()
        },
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "pinned_reference": sol.pinned_reference,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _planned_runs(case: CaseDefinition, args, what: str) -> list[RunPlan]:
    """The plans of a transient command's runs, made before any work; the
    command steps on these. The case's scenario is required (`what` ends the
    message if it is missing) and cut at ``--horizon`` when given. With
    ``--h-sweep`` there is one run per sweep step, sampled at
    :func:`_sweep_period`, whose errors name the step, after one check of
    the scenario, whose own errors go out as they are; otherwise one run
    with the case's solver."""
    scenario = case.scenario
    if scenario is None:
        raise ScenarioError(f"case {case.name!r} declares no scenario{what}")
    if getattr(args, "horizon", None) is not None:
        horizon = _number_option(args.horizon, "--horizon")
        scenario = replace(
            scenario,
            horizon=horizon,
            disturbances=[d for d in scenario.disturbances if d.at <= horizon],
        )
    if getattr(args, "h_sweep", None) is None:
        return [plan_run(case.net, case.components, scenario, case.solver)]
    if scenario.network_events():
        raise ScenarioError(
            "identity verification requires a scenario without load or line events"
        )
    steps = _step_sweep(args.h_sweep)
    # a fault of the scenario itself is no step's: it goes out as it is
    check_scenario(case.net, case.components, scenario)
    plans = []
    for h in steps:
        try:
            config = replace(case.solver, step_size=h)
            run = replace(scenario, output_period=_sweep_period(scenario, h))
            plans.append(plan_run(case.net, case.components, run, config, checked=True))
        except ScenarioError as exc:
            raise ScenarioError(f"--h-sweep step {h}: {exc}") from None
    return plans


def cmd_simulate(args) -> int:
    case, [plan] = _prepare(load_case(resolve_case_path(args.case)), args, "")
    sol = solve_case_equilibrium(case)
    traj = simulate(plan, sol)
    traj.to_csv(args.out)
    manifest_path = _manifest_path(args)
    traj.write_manifest(manifest_path, source=case.source)
    sys.stdout.write(
        f"wrote {traj.n_samples} samples to {args.out} (manifest {manifest_path})\n"
    )
    return EXIT_OK


def _manifest_path(args) -> str:
    return args.manifest or (os.path.splitext(args.out)[0] + ".manifest.json")


def _output_paths(args) -> list[str]:
    """Every file the command writes."""
    if args.command == "simulate":
        return [args.out, _manifest_path(args)]
    return [args.out] if args.out else []


def cmd_certify(args) -> int:
    tol = _number_option(args.tol, "--tol")
    if tol < 0.0:
        raise ScenarioError(f"--tol must be nonnegative, got {args.tol!r}")
    transient = " for --with-trajectory" if args.with_trajectory else None
    case, plans = _prepare(load_case(resolve_case_path(args.case)), args, transient)
    sol = solve_case_equilibrium(case)
    traj = simulate(plans[0], sol) if plans else None
    report = run_certify(case.net, case.components, sol, traj, tol=tol)
    if args.out:
        _emit(report.to_json(), args.out)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _step_sweep(text: str) -> list[float]:
    """The step sizes of ``--h-sweep``, largest first: at least two, and
    distinct. Each run's solver checks its step, and its scenario its grid."""
    steps = [_number_option(s, "--h-sweep") for s in text.split(",")]
    if len(steps) < 2:
        raise ScenarioError("--h-sweep needs at least two step sizes")
    if len(set(steps)) < len(steps):
        raise ScenarioError(f"--h-sweep step sizes must be distinct, got {text!r}")
    return sorted(steps, reverse=True)


def _sweep_period(scenario, h: float) -> float:
    """The output period of a sweep run at step `h`: of the multiples of h
    whose step counts divide the horizon's, the one nearest the scenario's
    period (the shorter of two as near)."""
    n_steps = round(scenario.horizon / h)
    target = scenario.output_period / h
    # every step count divides a zero horizon's
    counts = [d for d in range(1, n_steps + 1) if n_steps % d == 0] or [max(1, round(target))]
    return h * min(counts, key=lambda d: abs(d - target))


def cmd_verify_identities(args) -> int:
    case, plans = _prepare(load_case(resolve_case_path(args.case)), args, "")
    sol = solve_case_equilibrium(case)
    from .certify import identity_residuals
    from .network import tellegen_sum

    rows = []
    for plan in plans:
        traj = simulate(plan, sol)
        potential_res, divergence_res = identity_residuals(traj)
        # one Tellegen sum per sample, over the sample axis at once
        inj = {cid: (traj.P[cid], traj.Q[cid]) for cid in traj.component_ids()}
        tellegen = float(np.abs(tellegen_sum(case.net, traj.x, inj)).max())
        rows.append(
            {
                "h": plan.config.step_size,
                "potential_identity_residual": potential_res,
                "divergence_identity_residual": divergence_res,
                "tellegen_max": tellegen,
            }
        )
    hs = [r["h"] for r in rows]

    def fitted_order(key: str) -> float | None:
        vals = [r[key] for r in rows]
        if any(v <= 0.0 for v in vals):
            return None
        slope, _ = np.polyfit(np.log(hs), np.log(vals), 1)
        return float(slope)

    contour_a, contour_b = rectangle_contour_pair(1.0, 1.0)
    lossless = path_dependence_experiment(0.0, -1.0, contour_a, contour_b)
    lossy = path_dependence_experiment(1.0, 0.0, contour_a, contour_b)
    doc = {
        "case": case.name,
        "horizon": plans[0].scenario.horizon,
        "sweep": rows,
        "fitted_order": {
            "potential_identity": fitted_order("potential_identity_residual"),
            "divergence_identity": fitted_order("divergence_identity_residual"),
        },
        "path_experiment": {
            "lossless_im_diff": lossless.im_diff,
            "lossy_unit_area_im_diff": lossy.im_diff,
        },
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_path_experiment(args) -> int:
    g = _number_option(args.g, "--g")
    b = _number_option(args.b, "--b")
    width = _number_option(args.width, "--width")
    height = _number_option(args.height, "--height")
    if args.contours:
        contour_a, contour_b = load_contours(args.contours)
    else:
        contour_a, contour_b = rectangle_contour_pair(width, height)
    result = path_dependence_experiment(g, b, contour_a, contour_b)
    doc = {
        "g": g,
        "b": b,
        "enclosed_area": enclosed_area(contour_a, contour_b),
        "integral_a": [result.integral_a.real, result.integral_a.imag],
        "integral_b": [result.integral_b.real, result.integral_b.imag],
        "re_diff": result.re_diff,
        "im_diff": result.im_diff,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_VALIDATION, not
    argparse's 2, which this program reserves for solver failures. The
    subcommand parsers are made of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_global_options(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the options before the subcommand that take a value."""
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of solver overrides (same schema as a case's solver section)",
    )
    parser.add_argument(
        "--tol",
        default="1e-6",
        help="criterion tolerance for certification checks",
    )
    return parser


def _usage_error(exc: argparse.ArgumentError, argv: list[str] | None) -> str:
    """argparse's message for `exc`, except that an unknown option before
    the subcommand is named: argparse reads the option's value as the
    subcommand and names the value instead."""
    if exc.argument_name == "command":
        options = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        try:
            _, rest = _add_global_options(options).parse_known_args(argv)
        except argparse.ArgumentError:
            rest = []
        unknown = list(itertools.takewhile(lambda arg: arg.startswith("-"), rest))
        if unknown:
            return f"unrecognized arguments: {' '.join(unknown)}"
    return str(exc)


def build_parser() -> argparse.ArgumentParser:
    # top-level usage errors come back to main, which names an unknown
    # option (see _usage_error)
    parser = _Parser(
        prog="phasorstab",
        description="Phasor-circuit stability analytics",
        exit_on_error=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="solve the steady state")
    p_eq.add_argument("case")
    p_eq.add_argument("--out", default=None, help="write the solution JSON here")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_sim = sub.add_parser("simulate", help="run the case scenario")
    p_sim.add_argument("case")
    p_sim.add_argument("--h", default=None, help="integration step override")
    p_sim.add_argument("--horizon", default=None, help="horizon override (s)")
    p_sim.add_argument("--out", default="trajectory.csv")
    p_sim.add_argument("--manifest", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="evaluate the stability certificates")
    p_cert.add_argument("case")
    p_cert.add_argument("--with-trajectory", action="store_true")
    p_cert.add_argument("--h", default=None, help="integration step override")
    p_cert.add_argument("--out", default=None, help="write the report JSON here")
    p_cert.set_defaults(func=cmd_certify)

    p_ver = sub.add_parser(
        "verify-identities", help="trajectory identity residuals over a step sweep"
    )
    p_ver.add_argument("case")
    p_ver.add_argument("--h-sweep", default="4e-3,2e-3,1e-3")
    p_ver.add_argument("--horizon", default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify_identities)

    p_path = sub.add_parser(
        "path-experiment", help="contour comparison of the branch line integral"
    )
    p_path.add_argument("--g", default="0.0", help="conductance")
    p_path.add_argument("--b", default="-1.0", help="susceptance")
    p_path.add_argument("--width", default="1.0")
    p_path.add_argument("--height", default="1.0")
    p_path.add_argument("--contours", default=None, help="JSON file with contours a/b")
    p_path.add_argument("--out", default=None)
    p_path.set_defaults(func=cmd_path_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        parser.error(_usage_error(exc, argv))
    try:
        paths = _output_paths(args)
        for path in paths:
            check_output_path(path)
        # only simulate writes two files
        if len({os.path.realpath(path) for path in paths}) < len(paths):
            raise NetworkFileError(
                f"cannot write {paths[-1]}: --out and --manifest name the same file"
            )
        return args.func(args)
    except (NetworkFileError, NetworkError, ScenarioError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (EquilibriumError, InconsistentInput, SimulationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER


def run() -> NoReturn:
    """The process entry: :func:`main` on the command line, whose status is
    the exit code. Once main has returned or raised, every live object is
    frozen into the collector's permanent generation (:func:`gc.freeze`),
    which the interpreter's full collections at exit skip; with numpy and
    the package loaded, those passes would take tens of milliseconds of
    every command. ``atexit`` handlers and the stdout and stderr flushes
    still run. :func:`main` freezes nothing, so a caller in a longer-lived
    process keeps its collector as it was."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
