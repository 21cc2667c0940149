#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks, plus a smoke run.

    python3 perfbench/selftest.py            # check self-tests (about 5 s)
    python3 perfbench/selftest.py --smoke    # ... then every workload, one
                                             # untraced and one traced round

Run from the root of a phasorstab source checkout. The self-tests run the
real CLI once on the generated ladder case, confirm that every check accepts
the genuine outputs, and then that each check rejects a corrupted copy:
an equilibrium with one passive-bus voltage nudged, a trajectory with one
P column sign-flipped, a certificate with one eigenvalue shifted, an
identity sweep with a wrong order, and a rejection that exited 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import cases
import checks
from run import Runner

SEED = 7


def expect_rejected(label: str, fn) -> bool:
    try:
        fn()
    except checks.CheckFailed as exc:
        print(f"PASS  {label}: rejected ({exc})")
        return True
    print(f"FAIL  {label}: the corrupted output was accepted")
    return False


def self_tests(root: str) -> bool:
    work = os.path.join(root, "perfbench", "_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    paths = cases.generate("load-ladder", SEED, work, root=root)
    runner = Runner(root, work)
    case_file = paths["main"]
    case = checks.Case.load(case_file)
    eq, csv, cert = (os.path.join(work, n) for n in ("eq.json", "sim.csv", "cert.json"))
    manifest = os.path.join(work, "sim.manifest.json")
    for argv in (["equilibrium", case_file, "--out", eq],
                 ["simulate", case_file, "--out", csv],
                 ["certify", case_file, "--out", cert]):
        res = runner.run(argv)
        if res.returncode != 0:
            print(f"FAIL  phasorstab {' '.join(argv)} exited {res.returncode}: {res.stderr}")
            return False
    horizon, period = case.scenario["horizon"], case.scenario["output_period"]

    # genuine outputs pass
    V, th = checks.check_equilibrium(case, checks.load_json(eq))
    checks.check_trajectory(case, csv, manifest, horizon, period)
    checks.check_certify(case, checks.load_json(cert), V, th, with_trajectory=False)
    print("PASS  genuine equilibrium, trajectory and certificate are accepted")

    ok = True
    bad_eq = checks.load_json(eq)
    bad_eq["buses"][case.nodes[case.passive[0]]]["V"] += 1e-6
    ok &= expect_rejected("equilibrium with a passive-bus V nudged by 1e-6",
                          lambda: checks.check_equilibrium(case, bad_eq))

    with open(csv) as fh:
        header, *rows = fh.read().splitlines()
    j = header.split(",").index(f"{case.comps[0]['id']}_P")
    flipped = []
    for row in rows:
        cells = row.split(",")
        cells[j] = repr(-float(cells[j]))
        flipped.append(",".join(cells))
    bad_csv = os.path.join(work, "flipped.csv")
    with open(bad_csv, "w") as fh:
        fh.write("\n".join([header, *flipped]) + "\n")
    ok &= expect_rejected("trajectory with one P column sign-flipped",
                          lambda: checks.check_trajectory(case, bad_csv, manifest,
                                                          horizon, period))

    bad_cert = checks.load_json(cert)
    bad_cert["convexity"]["eigenvalues"][-1] += 1e-6
    ok &= expect_rejected("certificate with one eigenvalue shifted by 1e-6",
                          lambda: checks.check_certify(case, bad_cert, V, th, False))

    bad_ver = {"sweep": [{"tellegen_max": 0.0}] * 3,
               "fitted_order": {"potential_identity": 1.5, "divergence_identity": 2.0},
               "path_experiment": {"lossless_im_diff": 0.0, "lossy_unit_area_im_diff": 2.0}}
    ok &= expect_rejected("identity sweep of order 1.5",
                          lambda: checks.check_identities(bad_ver, 3))
    ok &= expect_rejected("rejection that exited 0",
                          lambda: checks.check_rejection(0, "", False))
    return bool(ok)


def smoke(root: str) -> bool:
    ok = True
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", "all",
             "--seed", str(SEED), "--seconds", "0", "--trace", trace],
            cwd=root, capture_output=True, text=True,
        )
        results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        good = (proc.returncode == 0 and len(results) == len(cases.WORKLOADS)
                and all(r["correct"] and r["failed"] == 0 for r in results))
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  smoke run, --trace {trace}: "
              + ", ".join(f"{w} {r['attempted']} ops" for w, r in zip(cases.WORKLOADS, results)))
        if not good:
            sys.stderr.write(proc.stderr)
    return ok


def main(argv: list[str]) -> int:
    root = os.getcwd()
    ok = self_tests(root)
    if "--smoke" in argv:
        ok = smoke(root) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
