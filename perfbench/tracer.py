#!/usr/bin/env python3
"""Traced phasorstab command: one cold process, spans kept in memory.

    python3 perfbench/tracer.py SPANS.npz -- <phasorstab CLI arguments>

times the cold `import phasorstab.cli`, wraps the package's public
functions under the names their callers look them up by (for example
`simulator.eval_vp`, `equilibrium.injection_partials`, `cli.simulate`),
calls `phasorstab.cli.main` in this process and, when it returns, writes
every span (name, start, end, parent) plus a few counts to SPANS.npz. The
package itself is not edited. `summarize` turns span files into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# binding to wrap -> layer metric it is charged to. A binding is
# "<module>.<name>" or "<module>.<Class>.<method>" under phasorstab.
BINDINGS = {
    "cli.load_case": "netfile.load_case",
    "cli.solve_equilibrium": "equilibrium.solve",
    "simulator.solve_equilibrium": "equilibrium.solve",
    "cli.solve_setpoints": "equilibrium.setpoints",
    "equilibrium.power_injection": "network.power_injection",
    "equilibrium.injection_partials": "network.injection_partials",
    "network.tellegen_sum": "network.tellegen",
    "cli.simulate": "simulator.simulate",
    "simulator.Trajectory.to_csv": "simulator.to_csv",
    "simulator.Trajectory.write_manifest": "simulator.manifest",
    "components.VsgComponent.derivative": "components.derivative",
    "components.DroopComponent.derivative": "components.derivative",
    "components.VsgComponent.storage": "components.storage",
    "components.DroopComponent.storage": "components.storage",
    "components.VsgComponent.storage_rate": "components.storage",
    "components.DroopComponent.storage_rate": "components.storage",
    "simulator.supply_rate": "components.supply_rate",
    "components.supply_rate": "components.supply_rate",
    "certify.local_certificate": "components.local_certificate",
    "simulator.eval_vp": "potential.eval_vp",
    "potential.eval_vp": "potential.eval_vp",
    "potential.BregmanDivergence.value": "potential.bregman",
    "certify.hessian_vp": "potential.hessian_vp",
    "certify.convexity_check": "potential.convexity_check",
    "cli.run_certify": "certify.certify",
    "certify.identity_residuals": "certify.identity_residuals",
}
CALL_COUNTS = ("network.power_injection", "network.injection_partials", "network.tellegen",
               "components.derivative", "potential.eval_vp")
ROOT_SPAN = "cli.main"


class Tracer:
    """Span store: four parallel arrays plus a stack of open span indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"newton_iterations": 0, "steps": 0, "samples": 0, "csv_bytes": 0}

    def _id(self, span: str) -> int:
        if span not in self.name_id:
            self.name_id[span] = len(self.names)
            self.names.append(span)
        return self.name_id[span]

    def wrap(self, owner, attr: str, span: str, after=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.
        A call that raises is renamed "<span>!error", so its self time is
        kept out of the layer metrics (its children still count)."""
        fn = getattr(owner, attr)
        nid = self._id(span)
        err_id = self._id(span + "!error")
        clock = time.perf_counter
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                name[idx] = err_id
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def save(self, path: str, import_s: float) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({"names": self.names, "import_s": import_s,
                                      "counts": self.counts})),
        )


def install(tracer: Tracer) -> None:
    """Wrap every binding in BINDINGS; record counts the spans cannot give."""
    counts = tracer.counts

    def after_solve(args, kwargs, sol):
        counts["newton_iterations"] += sol.iterations

    def after_simulate(args, kwargs, traj):
        counts["steps"] += round(traj.scenario.horizon / traj.config.step_size)
        counts["samples"] += traj.n_samples

    def after_csv(args, kwargs, result):
        counts["csv_bytes"] += os.path.getsize(args[1])

    after = {"equilibrium.solve": after_solve, "simulator.simulate": after_simulate,
             "simulator.to_csv": after_csv}
    for binding, layer in BINDINGS.items():
        module, *path = binding.split(".")
        # by sys.modules: the package re-exports `certify` the function
        # under the name of its module
        owner = sys.modules[f"phasorstab.{module}"]
        for part in path[:-1]:
            owner = getattr(owner, part)
        tracer.wrap(owner, path[-1], binding, after.get(layer))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.npz -- <phasorstab arguments>\n")
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import phasorstab.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    tracer.wrap(phasorstab.cli, "main", ROOT_SPAN)
    try:
        return phasorstab.cli.main(cli_args)
    finally:
        tracer.save(spans_path, import_s)


def summarize(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics from span files: self time (span minus its direct
    children, which nest strictly in one thread), call counts and counts."""
    import numpy as np

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals = {"import_s": 0.0, "newton_iterations": 0, "steps": 0, "samples": 0,
              "csv_bytes": 0}
    for path in span_files:
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        own = dur - child
        per_name = np.bincount(name, weights=own, minlength=len(meta["names"]))
        n_calls = np.bincount(name, minlength=len(meta["names"]))
        for j, binding in enumerate(meta["names"]):
            layer = BINDINGS.get(binding)
            if layer is None:  # the root span and calls that raised
                continue
            self_s[layer] = self_s.get(layer, 0.0) + float(per_name[j])
            calls[layer] = calls.get(layer, 0) + int(n_calls[j])
        totals["import_s"] += meta["import_s"]
        for key, value in meta["counts"].items():
            totals[key] += value
    layers = sorted(set(BINDINGS.values()))
    out: dict[str, float] = {"cli.import_s": totals["import_s"]}
    for layer in layers:
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
    for layer in CALL_COUNTS:
        out[f"{layer}_calls"] = calls.get(layer, 0)
    out["equilibrium.newton_iterations"] = totals["newton_iterations"]
    out["simulator.steps"] = totals["steps"]
    out["simulator.samples"] = totals["samples"]
    out["simulator.csv_bytes"] = totals["csv_bytes"]
    steps = max(totals["steps"], 1)
    out["simulator.step_self_us"] = out["simulator.simulate_s"] / steps * 1e6
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
