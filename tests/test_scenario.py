"""Scenario records and the plan of a run: every network a run switches to
is built and checked before any work."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from phasorstab.scenario import (
    LineScale,
    LoadStep,
    Scenario,
    ScenarioError,
    SolverConfig,
    StatePerturbation,
    plan_run,
)

COARSE = SolverConfig(step_size=1e-2)


@pytest.mark.parametrize(
    "disturbance, message",
    [(LoadStep(0.5, "bus3", math.nan, 0.0), "disturbances[0].dp must be finite, got nan"),
     (LoadStep(0.5, "bus3", 0.1, -math.inf), "disturbances[0].dq must be finite, got -inf"),
     (LineScale(0.5, 0, math.nan), "disturbances[0].factor must be finite, got nan"),
     (LineScale(0.5, 0, math.inf), "disturbances[0].factor must be finite, got inf"),
     (StatePerturbation(0.5, "vsg1", {"omega": math.nan}),
      "disturbances[0].delta.omega must be finite, got nan")],
    ids=["load-dp-nan", "load-dq-inf", "line-factor-nan", "line-factor-inf",
         "perturbation-nan"],
)
def test_scenario_names_a_non_finite_field(disturbance, message):
    with pytest.raises(ScenarioError) as exc:
        Scenario(horizon=1.0, disturbances=[disturbance])
    assert str(exc.value) == message


def branches(net):
    return None if net is None else (net.lines, net.constant_power)


def test_plan_builds_each_network_from_the_base_in_order(case3bus):
    # a load step under two overlapping line scales, a kick at a switch, and
    # an end past the horizon, which the run never reaches
    net = case3bus.net
    load = LoadStep(0.1, "bus3", 0.05, 0.02, duration=0.3)
    first = LineScale(0.2, 0, 0.5, duration=0.2)
    second = LineScale(0.3, 0, 0.8, duration=10.0)
    kick = StatePerturbation(0.3, "vsg1", {"omega": 0.1})
    scen = Scenario(1.0, 0.1, disturbances=[load, first, second, kick])
    plan = plan_run(net, case3bus.components, scen, COARSE)
    assert (plan.n_steps, plan.sample_every) == (100, 10)
    # the plan holds what it was made for
    assert (plan.net, plan.components, plan.scenario, plan.config) == (
        net, case3bus.components, scen, COARSE
    )
    stepped = net.with_load_delta("bus3", 0.05, 0.02)
    planned = {step: (kicks, branches(switched)) for step, (kicks, switched) in plan.events.items()}
    assert planned == {
        10: ([], branches(stepped)),
        20: ([], branches(stepped.with_scaled_line(0, 0.5))),
        30: ([kick], branches(stepped.with_scaled_line(0, 0.5).with_scaled_line(0, 0.8))),
        # the load step and the first scale end together
        40: ([], branches(net.with_scaled_line(0, 0.8))),
    }
    # a step with perturbations only keeps the network
    calm = Scenario(1.0, 0.1, disturbances=[kick])
    assert plan_run(net, case3bus.components, calm, COARSE).events == {30: ([kick], None)}


def test_overlapping_events_are_checked_together_in_the_plan(case3bus):
    # each scale alone leaves line 0 a finite reactance; together they do not
    tiny = [LineScale(at, 0, 1e-300, duration=0.5) for at in (0.1, 0.3)]
    scen = Scenario(1.0, 0.1, disturbances=tiny)
    alone = Scenario(1.0, 0.1, disturbances=tiny[:1])
    plan_run(case3bus.net, case3bus.components, alone, COARSE)
    # the message names the disturbances in force and the step's time
    message = (
        "disturbances[0], disturbances[1] at t = 0.3:"
        " line 'bus1'-'bus3' has non-finite reactance inf"
    )
    with pytest.raises(ScenarioError, match=re.escape(message)):
        plan_run(case3bus.net, case3bus.components, scen, COARSE)


@pytest.mark.parametrize("module", ["phasorstab.netfile", "phasorstab.scenario"])
def test_scenario_and_case_files_load_without_the_simulator(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    code = f"import sys, {module}; print('phasorstab.simulator' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
