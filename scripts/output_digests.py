#!/usr/bin/env python3
"""Digests of every output of the phasorstab commands, for byte comparisons.

Runs, each in a fresh process from this checkout's ``src``, the commands a
user runs on the packaged ``case3bus`` and on the benchmark's generated
cases (``perfbench/cases.py``, at the given seed): ``equilibrium``,
``simulate``, static and trajectory ``certify``, ``verify-identities`` and
one ``simulate`` that must be rejected. Prints one line per command: its
exit code, the sha256 of its stdout and of each file it wrote, and its
stderr. The case's path is blanked wherever it appears (the manifest's
``source``, stdout and stderr), so two checkouts give the same lines
exactly when they write the same bytes:

    python3 scripts/output_digests.py > before.txt   # in one checkout
    python3 scripts/output_digests.py > after.txt    # in another
    diff before.txt after.txt

The commands run with ``OPENBLAS_NUM_THREADS=1``, since the last bits of a
dense solve depend on the thread count. ``--sets`` picks the case sets
(``case3bus`` and the benchmark's workload names; all by default).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import cases  # noqa: E402  (the benchmark's case generator)

SWEEP = "4e-3,2e-3,1e-3"
# verify-identities horizon per set, s (None: the case's own horizon)
VERIFY_HORIZON = {"case3bus": "2", "paper-case3bus": "2", "load-ladder": "0.1",
                  "source-mesh-dense": "0.1", "convexity-scan": None}
SETS = ("case3bus", *cases.WORKLOADS)


def packaged_case3bus(work: str) -> dict[str, str]:
    """The packaged case3bus, and a copy with an event on an unknown
    component."""
    path = os.path.join(work, "case3bus.json")
    reject = os.path.join(work, "case3bus_reject.json")
    doc = cases.packaged_case3bus(ROOT)
    for name, content in ((path, doc), (reject, cases.with_bad_event(doc, 4.9))):
        with open(name, "w") as fh:
            json.dump(content, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return {"main": path, "reject": reject}


def commands(paths: dict[str, str], horizon: str | None, out: str) -> list[tuple]:
    """(label, case path, CLI arguments, files written) of every command on
    one case set."""
    main = paths["main"]
    csv = os.path.join(out, "sim.csv")
    manifest = os.path.join(out, "sim.manifest.json")
    runs = []
    for key in sorted(k for k in paths if k.startswith("scan") and k != "scan0"):
        runs.append((f"{key} equilibrium", paths[key],
                     ["equilibrium", paths[key], "--out", os.path.join(out, "eq.json")],
                     ["eq.json"]))
        runs.append((f"{key} certify", paths[key],
                     ["certify", paths[key], "--out", os.path.join(out, "cert.json")],
                     ["cert.json"]))
    verify = ["verify-identities", main, "--h-sweep", SWEEP]
    if horizon is not None:
        verify += ["--horizon", horizon]
    runs += [
        ("equilibrium", main, ["equilibrium", main, "--out", os.path.join(out, "eq.json")],
         ["eq.json"]),
        ("simulate", main, ["simulate", main, "--out", csv, "--manifest", manifest],
         ["sim.csv", "sim.manifest.json"]),
        ("certify", main, ["certify", main, "--out", os.path.join(out, "cert.json")],
         ["cert.json"]),
        ("certify --with-trajectory", main,
         ["certify", main, "--with-trajectory", "--out", os.path.join(out, "cert.json")],
         ["cert.json"]),
        ("verify-identities", main, [*verify, "--out", os.path.join(out, "verify.json")],
         ["verify.json"]),
        ("simulate rejected", paths["reject"],
         ["simulate", paths["reject"], "--out", csv, "--manifest", manifest],
         ["sim.csv", "sim.manifest.json"]),
    ]
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(label: str, case: str, argv: list[str], files: list[str], out: str, env) -> str:
    """One command's line: exit code, stdout and file digests, and stderr,
    with the case's path and the output directory blanked."""
    for name in files:
        if os.path.exists(os.path.join(out, name)):
            os.remove(os.path.join(out, name))

    def blank(text: str) -> str:
        # the JSON spelling first, as the manifest writes the path
        text = text.replace(json.dumps(case)[1:-1], "<case>").replace(case, "<case>")
        return text.replace(out, "<out>")

    proc = subprocess.run([sys.executable, "-m", "phasorstab.cli", *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    parts = [f"exit={proc.returncode}", f"stdout={digest(blank(proc.stdout).encode())}"]
    for name in files:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                parts.append(f"{name}={digest(blank(fh.read()).encode())}")
        else:
            parts.append(f"{name}=absent")
    parts.append(f"stderr={blank(proc.stderr)!r}")
    return f"{label}: " + " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated cases")
    parser.add_argument("--sets", nargs="+", choices=SETS, default=list(SETS))
    args = parser.parse_args(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    with tempfile.TemporaryDirectory() as work:
        for name in args.sets:
            case_dir = os.path.join(work, name)
            out = os.path.join(work, f"{name}-out")
            os.makedirs(out)
            if name == "case3bus":
                os.makedirs(case_dir)
                paths = packaged_case3bus(case_dir)
            else:
                paths = cases.generate(name, args.seed, case_dir, root=ROOT)
            for label, case, cli_args, files in commands(paths, VERIFY_HORIZON[name], out):
                print(f"{name} {run(label, case, cli_args, files, out, env)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
