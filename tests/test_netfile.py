"""Network description files: schema validation and assembly."""

import math
import re

import pytest

from phasorstab.cli import resolve_case_path
from phasorstab.components import DroopComponent, VsgComponent
from phasorstab.netfile import NetworkFileError, load_case, parse_case, parse_solver
from phasorstab.simulator import SolverConfig, StatePerturbation


def minimal_doc(**overrides):
    doc = {
        "name": "toy",
        "buses": [
            {"id": "a", "kind": "dynamic"},
            {"id": "b", "kind": "passive"},
            {"id": "gnd", "kind": "ground"},
        ],
        "branches": [
            {"from": "a", "to": "b", "kind": "line", "x": 0.4},
            {"from": "b", "to": "gnd", "kind": "constant_power", "p0": 0.1, "q0": 0.05},
        ],
        "components": [
            {
                "id": "v1",
                "bus": "a",
                "model": "vsg",
                "params": {"M": 0.1, "Dp": 0.1, "Dq": 0.1, "tau_q": 0.1},
                "setpoints": {"P_e": 0.1, "Q_e": 0.0, "V_e": 1.0, "theta_e": 0.0},
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_packaged_case_parses(case3bus):
    assert case3bus.name == "case3bus"
    assert isinstance(case3bus.components["vsg1"], VsgComponent)
    assert isinstance(case3bus.components["droop2"], DroopComponent)
    assert case3bus.scenario is not None
    assert case3bus.scenario.horizon == 40.0
    kinds = [type(d) for d in case3bus.scenario.disturbances]
    assert kinds == [StatePerturbation, StatePerturbation]
    assert case3bus.solver.step_size == 1e-3
    assert case3bus.operating_point["bus2"] == (0.97, 0.001)


def test_unknown_field_rejected_with_location():
    doc = minimal_doc()
    doc["branches"][0]["resistance"] = 0.01
    with pytest.raises(NetworkFileError, match=r"branches\[0\].*resistance"):
        parse_case(doc)


def test_missing_required_field_reported():
    doc = minimal_doc()
    del doc["branches"][0]["x"]
    with pytest.raises(NetworkFileError, match=r"branches\[0\].*x"):
        parse_case(doc)


def test_zero_reactance_reported():
    doc = minimal_doc()
    doc["branches"][0]["x"] = 0.0
    with pytest.raises(NetworkFileError, match="zero reactance"):
        parse_case(doc)


def test_lossy_line_rejected():
    doc = minimal_doc()
    doc["branches"][0]["g"] = 0.3
    with pytest.raises(NetworkFileError, match="lossy"):
        parse_case(doc)


def test_generation_convention_flips_load_sign():
    doc = minimal_doc()
    doc["branches"][1]["convention"] = "generation"
    case = parse_case(doc)
    cp = case.net.constant_power[0]
    assert cp.p0 == -0.1
    assert cp.q0 == -0.05


def test_component_on_non_dynamic_bus_rejected():
    doc = minimal_doc()
    doc["buses"][0]["kind"] = "passive"
    doc["components"][0]["bus"] = "b"
    with pytest.raises(NetworkFileError, match="declared 'passive'"):
        parse_case(doc)


def test_dynamic_bus_without_component_rejected():
    doc = minimal_doc()
    doc["buses"][1]["kind"] = "dynamic"
    with pytest.raises(NetworkFileError, match="no component sits on it"):
        parse_case(doc)


def test_missing_setpoints_require_operating_point():
    doc = minimal_doc()
    del doc["components"][0]["setpoints"]
    with pytest.raises(NetworkFileError, match="operating_point"):
        parse_case(doc)
    doc["operating_point"] = {
        "a": {"V": 1.0, "theta": 0.0},
        "b": {"V": 0.98, "theta": -0.01},
    }
    case = parse_case(doc)
    assert all(c.setpoints is None for c in case.components.values())


def test_operating_point_must_cover_all_buses():
    doc = minimal_doc()
    doc["operating_point"] = {"a": {"V": 1.0, "theta": 0.0}}
    with pytest.raises(NetworkFileError, match="missing bus"):
        parse_case(doc)


def test_second_component_on_a_bus_rejected():
    doc = minimal_doc()
    comp2 = dict(doc["components"][0], id="v2")
    doc["components"].append(comp2)
    with pytest.raises(NetworkFileError, match="bus 'a' carries more than one component"):
        parse_case(doc)


def test_duplicate_component_id_rejected():
    doc = minimal_doc()
    doc["buses"].insert(1, {"id": "a2", "kind": "dynamic"})
    comp2 = dict(doc["components"][0])
    comp2["bus"] = "a2"
    doc["components"].append(comp2)
    with pytest.raises(NetworkFileError, match="duplicate component id"):
        parse_case(doc)


VSG_PARAMS = {"M": 0.1, "Dp": 0.2, "Dq": 0.3, "tau_q": 0.4}
DROOP_PARAMS = {"tau_p": 0.1, "tau_q": 0.2, "Dp": 0.3, "Dq": 0.4}


def _without(params, name):
    return {k: v for k, v in params.items() if k != name}


@pytest.mark.parametrize(
    "model, params, message",
    [
        ("pq", VSG_PARAMS, "components[0]: model must be vsg or droop, got 'pq'"),
        (["vsg"], VSG_PARAMS, "components[0]: model must be vsg or droop, got ['vsg']"),
        ("vsg", _without(VSG_PARAMS, "M"), "components[0].params: missing ['M']"),
        ("droop", _without(DROOP_PARAMS, "tau_p"), "components[0].params: missing ['tau_p']"),
        ("vsg", {**VSG_PARAMS, "tau_p": 1.0},
         "components[0].params: unknown field(s) ['tau_p']"),
        ("droop", {**DROOP_PARAMS, "M": 1.0}, "components[0].params: unknown field(s) ['M']"),
    ],
    ids=["unknown-model", "model-not-a-string", "vsg-missing", "droop-missing",
         "vsg-unknown", "droop-unknown"],
)
def test_bad_component_model_or_params_named(model, params, message):
    doc = minimal_doc()
    doc["components"][0].update(model=model, params=params)
    with pytest.raises(NetworkFileError) as info:
        parse_case(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "model, params, cls",
    [("vsg", VSG_PARAMS, VsgComponent), ("droop", DROOP_PARAMS, DroopComponent)],
)
def test_component_params_land_in_their_fields(model, params, cls):
    doc = minimal_doc()
    doc["components"][0].update(model=model, params=params)
    comp = parse_case(doc).components["v1"]
    assert type(comp) is cls
    assert {name: getattr(comp, name) for name in params} == params


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x", "buses": [}')
    with pytest.raises(NetworkFileError, match="line 1"):
        load_case(str(bad))


def test_unknown_disturbance_kind_rejected():
    doc = minimal_doc()
    doc["scenario"] = {
        "horizon": 1.0,
        "disturbances": [{"at": 0.0, "kind": "meteor_strike"}],
    }
    with pytest.raises(NetworkFileError, match="meteor_strike"):
        parse_case(doc)


def test_bad_convention_value_rejected():
    doc = minimal_doc()
    doc["solver"] = {"convention": "sideways"}
    with pytest.raises(NetworkFileError, match="printed or negated"):
        parse_case(doc)


def test_case_name_resolution_error():
    with pytest.raises(NetworkFileError, match="neither a file nor a packaged case"):
        resolve_case_path("not_a_case_anywhere")


def test_only_rk4_integrator_parses():
    assert parse_solver({"integrator": "rk4"}) == SolverConfig()
    with pytest.raises(NetworkFileError, match="solver.integrator: must be rk4"):
        parse_solver({"integrator": "trapezoid"})


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["components"][0]["setpoints"].update(P_e=math.nan),
         "components[0].setpoints.P_e"),
        (lambda d: d["components"][0]["setpoints"].update(V_e=math.inf),
         "components[0].setpoints.V_e"),
        (lambda d: d["components"][0]["setpoints"].update(theta_e=-math.inf),
         "components[0].setpoints.theta_e"),
        (lambda d: d["operating_point"]["b"].update(V=math.nan), "operating_point.b.V"),
        (lambda d: d["operating_point"]["a"].update(theta=math.inf), "operating_point.a.theta"),
    ],
    ids=["setpoint-nan", "setpoint-inf", "setpoint-neg-inf", "op-voltage-nan", "op-angle-inf"],
)
def test_non_finite_setpoints_rejected_with_field(edit, field):
    doc = minimal_doc(operating_point={
        "a": {"V": 1.0, "theta": 0.0},
        "b": {"V": 0.98, "theta": -0.01},
    })
    edit(doc)
    with pytest.raises(NetworkFileError, match=re.escape(f"{field}: expected a finite number")):
        parse_case(doc)


def test_setpoint_type_error_names_the_field():
    doc = minimal_doc()
    doc["components"][0]["setpoints"]["Q_e"] = "0.1"
    with pytest.raises(NetworkFileError, match=re.escape("setpoints.Q_e: expected a number")):
        parse_case(doc)


@pytest.mark.parametrize("kind", ["load_step", "line_scale"])
@pytest.mark.parametrize(
    "duration, message",
    [(math.inf, "expected a finite number, got inf"),
     (math.nan, "expected a finite number, got nan"),
     (0, "must be positive, got 0.0"),
     (-1, "must be positive, got -1.0")],
    ids=["infinity", "nan", "zero", "negative"],
)
def test_bad_disturbance_duration_names_the_field(kind, duration, message):
    doc = minimal_doc()
    fields = {"bus": "b", "dp": 0.1, "dq": 0.0} if kind == "load_step" else {
        "line": 0, "factor": 0.5}
    doc["scenario"] = {
        "horizon": 1.0,
        "disturbances": [{"at": 0.1, "kind": kind, **fields, "duration": duration}],
    }
    with pytest.raises(
        NetworkFileError, match=re.escape(f"scenario.disturbances[0].duration: {message}")
    ):
        parse_case(doc)


def test_scenario_names_a_bad_duration_and_its_value():
    from phasorstab.simulator import LoadStep, Scenario, ScenarioError

    with pytest.raises(
        ScenarioError, match=re.escape("disturbances[1].duration must be positive, got -0.5")
    ):
        Scenario(
            horizon=1.0,
            disturbances=[
                LoadStep(0.0, "b", 0.1, 0.0),
                LoadStep(0.2, "b", 0.1, 0.0, duration=-0.5),
            ],
        )
