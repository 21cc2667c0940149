#!/usr/bin/env python3
"""phasorstab benchmark: cold-start CLI studies on generated cases.

    python3 perfbench/run.py --workload load-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
./src). Set-up generates the workload's case files from the seed and warms
the interpreter; it is repeated SETUPS times and its median is `setup_s`.
Then whole rounds of the workload's command sequence run, one command at a
time, each `phasorstab` subcommand in a fresh process, as long as the next
round should end within half a round of --seconds (at least one round).
Every output is checked (see checks.py). The end-to-end metrics are
medians over the rounds.

Every wall time is scaled to a reference machine speed: a fixed
calibration process (an interpreter start and a numpy import) runs before
the first command and after every command, and a command's wall time is
multiplied by CAL_REF_S over the geometric mean of the calibrations on
either side of it. On a shared host whose speed swings by a third or more
within seconds, and stays off for minutes, this cancels what medians
within one run cannot, while a change to phasorstab still moves the
figure in full, since the calibration does not use it.

With --trace 1 the run makes one untraced round and one traced round, in
which every command runs under tracer.py, and reports the per-layer metrics
instead; `trace.overhead_s` is the traced minus the untraced study time.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--workload all` runs every workload in turn, one such line each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import cases
import checks
import tracer

SETUPS = 5
SWEEP = "4e-3,2e-3,1e-3"
# verify-identities horizon per workload, s (None: the case's own horizon)
VERIFY_HORIZON = {"paper-case3bus": 2.0, "load-ladder": 0.1, "source-mesh-dense": 0.1,
                  "convexity-scan": None}
# the transient workload whose simulate runs twice per round, the second CSV
# compared byte for byte with the first; every other command runs once
REPEAT_WORKLOAD = "source-mesh-dense"
# The calibration process: an interpreter start and a numpy import, the
# part every command shares. A subprocess that does only this tracked the
# commands' speed better than longer ones with numpy and pure-Python loops,
# or a loop timed inside this process. CAL_REF_S is the wall time it takes
# at the reference speed (about its median on the README's machine).
CAL_SCRIPT = "import numpy"
CAL_REF_S = 0.17
E2E_UNITS = {
    "setup_s": "s", "equilibrium_s": "s", "simulate_s": "s", "certify_s": "s",
    "verify_identities_s": "s", "reject_s": "s", "study_s": "s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


@dataclass
class Result:
    wall: float
    returncode: int
    stderr: str
    maxrss_kb: int


@dataclass
class Op:
    """One CLI command, run `reps` times in a row. The median wall time of
    the repeats goes to `metric` and to study_s."""

    metric: str
    argv: list[str]
    check: Callable[[Result, int], None]  # the result and its repeat index
    expect_rc: int = 0
    outputs: list[str] = field(default_factory=list)
    reps: int = 1


class Runner:
    """Runs CLI commands as fresh processes and measures each one."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.log = os.path.join(work, "last_command.log")
        self.cal_walls: list[float] = []

    def run(self, argv: list[str], trace_file: str | None = None) -> Result:
        if trace_file is None:
            cmd = [sys.executable, "-m", "phasorstab.cli", *argv]
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "tracer.py"), trace_file, "--", *argv]
        with open(self.log, "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return Result(wall, proc.returncode, stderr, usage.ru_maxrss)

    def calibrate(self) -> float:
        """Wall time of one calibration process, s."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CAL_SCRIPT], cwd=self.root, env=self.env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        self.cal_walls.append(time.perf_counter() - start)
        return self.cal_walls[-1]

    def warm(self) -> None:
        """Start the interpreter once with the package imported (this also
        compiles its bytecode) and make sure it is the checkout's copy."""
        out = subprocess.run(
            [sys.executable, "-c", "import phasorstab.cli as c; print(c.__file__)"],
            cwd=self.root, env=self.env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        expected = os.path.join(self.root, "src", "phasorstab", "cli.py")
        if os.path.realpath(out) != os.path.realpath(expected):
            raise RuntimeError(f"phasorstab imported from {out}, not from {expected}")


class Mismatch(Exception):
    """A repeated run whose output differs: counted as a failed operation."""


def build_plan(workload: str, paths: dict[str, str], out: str) -> list[Op]:
    """The workload's command sequence, each with the check of its output."""
    solved: dict[str, tuple] = {}  # checked equilibria by case key, for certify

    def o(name: str) -> str:
        return os.path.join(out, name)

    def equilibrium(case_file, key):
        case = checks.Case.load(case_file)
        path = o(f"eq_{key}.json")

        def check(_res, _k):
            solved[key] = checks.check_equilibrium(case, checks.load_json(path))

        return Op("equilibrium_s", ["equilibrium", case_file, "--out", path], check,
                  outputs=[path])

    def certify(case_file, key, with_trajectory):
        case = checks.Case.load(case_file)
        path = o(f"cert_{key}.json")
        argv = ["certify", case_file, "--out", path]
        if with_trajectory:
            argv.insert(2, "--with-trajectory")

        def check(_res, _k):
            if key not in solved:
                raise checks.CheckFailed("certify: no checked equilibrium to compare with")
            V, th = solved[key]
            checks.check_certify(case, checks.load_json(path), V, th, with_trajectory)

        return Op("certify_s", argv, check, outputs=[path])

    def simulate(case_file, reps=1):
        """A `simulate` whose trajectory is checked. Every further repeat in
        a round must write the same CSV byte for byte, as the program
        promises; all repeats count towards simulate_s."""
        case = checks.Case.load(case_file)
        csv, manifest = o("sim.csv"), o("sim.manifest.json")
        sc = case.scenario
        first: dict[str, bytes] = {}

        def check(_res, k):
            with open(csv, "rb") as fh:
                written = fh.read()
            if k == 0:
                checks.check_trajectory(case, csv, manifest, sc["horizon"],
                                        sc["output_period"])
                first["csv"] = written
            elif written != first.get("csv"):
                raise Mismatch("simulate: repeated run wrote a different CSV")

        return Op("simulate_s", ["simulate", case_file, "--out", csv], check,
                  outputs=[csv, manifest], reps=reps)

    def verify(case_file, horizon):
        path = o("verify.json")
        argv = ["verify-identities", case_file, "--h-sweep", SWEEP, "--out", path]
        if horizon is not None:
            argv[4:4] = ["--horizon", str(horizon)]
        return Op("verify_identities_s", argv,
                  lambda _res, _k: checks.check_identities(checks.load_json(path),
                                                           len(SWEEP.split(","))),
                  outputs=[path])

    def reject(case_file):
        csv = o("reject.csv")
        return Op("reject_s", ["simulate", case_file, "--out", csv],
                  lambda res, _k: checks.check_rejection(res.returncode, res.stderr,
                                                         os.path.exists(csv)),
                  expect_rc=1, outputs=[csv, o("reject.manifest.json")])

    main_file = paths["main"]
    plan: list[Op] = []
    if workload == "convexity-scan":
        for key in sorted(k for k in paths if k.startswith("scan")):
            plan.append(equilibrium(paths[key], key))
            plan.append(certify(paths[key], key, with_trajectory=False))
        plan.append(simulate(main_file))
        plan.append(verify(main_file, VERIFY_HORIZON[workload]))
    else:
        plan.append(equilibrium(main_file, "main"))
        plan.append(simulate(main_file, reps=2 if workload == REPEAT_WORKLOAD else 1))
        plan.append(certify(main_file, "main", with_trajectory=True))
        plan.append(verify(main_file, VERIFY_HORIZON[workload]))
    plan.append(reject(paths["reject"]))
    return plan


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def fail(self, why: str) -> None:
        sys.stderr.write(f"FAILED: {why}\n")
        self.failed += 1

    def wrong(self, why: str) -> None:
        sys.stderr.write(f"INCORRECT: {why}\n")
        self.correct = False


def run_round(runner: Runner, plan: list[Op], tally: Tally,
              trace_dir: str | None = None) -> dict[str, float]:
    sums = {m: 0.0 for m in E2E_UNITS if m not in ("setup_s", "peak_rss_mb")}
    peak_kb = 0
    cal_before = runner.calibrate()
    for j, op in enumerate(plan):
        walls = []
        # a traced round runs every command once: its spans describe one
        # pass of the sequence
        for k in range(op.reps if trace_dir is None else 1):
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)
            trace_file = (None if trace_dir is None
                          else os.path.join(trace_dir, f"op{j:02d}_{k}.npz"))
            res = runner.run(op.argv, trace_file)
            tally.attempted += 1
            walls.append(res.wall)
            peak_kb = max(peak_kb, res.maxrss_kb)
            if res.returncode != op.expect_rc:
                tally.fail(f"{' '.join(op.argv)} exited {res.returncode}: "
                           f"{res.stderr.strip()}")
                continue
            try:
                op.check(res, k)
            except Mismatch as exc:
                tally.fail(str(exc))
            except checks.CheckFailed as exc:
                tally.wrong(f"{' '.join(op.argv)}: {exc}")
        cal_after = runner.calibrate()
        wall = statistics.median(walls) * CAL_REF_S / math.sqrt(cal_before * cal_after)
        cal_before = cal_after
        sums["study_s"] += wall
        sums[op.metric] += wall
    sums["peak_rss_mb"] = peak_kb / 1024.0
    return sums


def setup(runner: Runner, workload: str, seed: int) -> tuple[dict[str, str], float]:
    """Generate the cases and warm the interpreter SETUPS times, each time
    scaled to the reference speed like a command; the case files must come
    out byte-identical every time."""
    times, generated = [], []
    cal_before = runner.calibrate()
    for k in range(SETUPS):
        out = os.path.join(runner.work, f"cases{k}")
        start = time.perf_counter()
        paths = cases.generate(workload, seed, out, root=runner.root)
        runner.warm()
        wall = time.perf_counter() - start
        cal_after = runner.calibrate()
        times.append(wall * CAL_REF_S / math.sqrt(cal_before * cal_after))
        cal_before = cal_after
        generated.append(paths)
    for role, path in generated[-1].items():
        with open(path, "rb") as fh:
            last = fh.read()
        for other in generated[:-1]:
            with open(other[role], "rb") as fh:
                if fh.read() != last:
                    raise RuntimeError(f"case generator is not deterministic ({role})")
    return generated[-1], statistics.median(times)


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = os.path.join(root, "perfbench", "_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work)
    paths, setup_s = setup(runner, workload, seed)
    out = os.path.join(work, "out")
    os.makedirs(out)
    plan = build_plan(workload, paths, out)
    tally = Tally()
    rounds: list[dict[str, float]] = []
    round_times: list[float] = []
    start = time.perf_counter()
    # a round starts if it should end within half a round of --seconds, so
    # that runs measure --seconds on average rather than up to a round less
    while not rounds or (time.perf_counter() - start
                         + 0.5 * statistics.fmean(round_times) <= seconds):
        t0 = time.perf_counter()
        if trace:
            # an untraced and a traced round back to back, so that their
            # difference sizes the instrument under the same machine load
            untraced = run_round(runner, plan, tally)
            spans = os.path.join(work, f"spans{len(rounds)}")
            os.makedirs(spans)
            traced = run_round(runner, plan, tally, trace_dir=spans)
            values = tracer.summarize(sorted(
                os.path.join(spans, f) for f in os.listdir(spans)))
            values["trace.overhead_s"] = traced["study_s"] - untraced["study_s"]
            rounds.append(values)
        else:
            rounds.append(run_round(runner, plan, tally))
            sys.stderr.write("round " + " ".join(
                f"{k}={v:.4f}" for k, v in rounds[-1].items()) + "\n")
        round_times.append(time.perf_counter() - t0)
    sys.stderr.write(f"{workload}: {len(rounds)} rounds in "
                     f"{time.perf_counter() - start:.1f} s; calibration median "
                     f"{statistics.median(runner.cal_walls):.4f} s "
                     f"(reference {CAL_REF_S} s)\n")
    if trace:
        metrics = {k: {"value": statistics.median(r[k] for r in rounds),
                       "unit": layer_unit(k)} for k in rounds[0]}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name, unit in E2E_UNITS.items():
            if name != "setup_s":
                metrics[name] = {"value": statistics.median(r[name] for r in rounds),
                                 "unit": unit}
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*cases.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "phasorstab", "cli.py")):
        sys.stderr.write("run.py: no src/phasorstab here; run it from the root of a "
                         "phasorstab source checkout\n")
        return 2
    workloads = cases.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"#   {name:40s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
