"""Network description files: schema validation and assembly."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstab.cli import resolve_case_path
from phasorstab.components import DroopComponent, VsgComponent
from phasorstab.equilibrium import InconsistentInput
from phasorstab.netfile import NetworkFileError, load_case, parse_case, parse_solver
from phasorstab.network import BusState, NetworkError
from phasorstab.scenario import ScenarioError, SolverConfig, StatePerturbation, plan_run


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
    op = case3bus.operating_point
    assert isinstance(op, BusState)
    assert (op.V.tolist(), op.theta.tolist()) == ([1.0, 0.97, 0.95], [0.0, 0.001, -0.0015])


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


def _append_branches(*entries):
    return lambda doc: doc["branches"].extend(entries)


@pytest.mark.parametrize(
    "edit, message",
    [(lambda d: d["branches"][0].update(x=0.0), "branches[0]: line 'a'-'b' has zero reactance 0.0"),
     (lambda d: d["branches"][1].update({"from": "zz"}),
      "branches[1]: constant-power branch at unknown bus 'zz'"),
     # the second line comes after the load branch in the document
     (_append_branches({"from": "b", "to": "b", "kind": "line", "x": 0.3}),
      "branches[2]: line at 'b' is a self-loop"),
     (lambda d: d["buses"].append({"id": "a", "kind": "passive"}), "buses[3]: duplicate bus id 'a'"),
     (lambda d: d["buses"].insert(2, {"id": "c", "kind": "passive"}),
      "buses[2]: graph is not connected; unreachable: ['c']")],
    ids=["line", "load", "line-after-load", "bus", "unreachable-bus"],
)
def test_network_errors_name_the_record_at_fault(edit, message):
    # NetworkModel's errors carry the document path of the record they name
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(NetworkFileError) as info:
        parse_case(doc)
    assert str(info.value) == message


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
    with pytest.raises(NetworkFileError) as info:
        parse_case(doc)
    assert str(info.value) == "components[0]: dynamic shunt 'v1' must sit on a dynamic bus"


def test_dynamic_bus_without_component_rejected():
    doc = minimal_doc()
    doc["buses"][1]["kind"] = "dynamic"
    with pytest.raises(NetworkFileError) as info:
        parse_case(doc)
    assert str(info.value) == "buses[1]: dynamic bus(es) without a component: ['b']"


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
    with pytest.raises(NetworkFileError) as info:
        parse_case(doc)
    assert str(info.value) == "components[1]: duplicate dynamic component id 'v1'"


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
    for value in ("sideways", "printed"):
        doc["solver"] = {"convention": value}
        with pytest.raises(NetworkFileError, match=f"solver.convention: must be negated, got '{value}'"):
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
    "duration, shown",
    [(math.inf, "inf"), (math.nan, "nan"), (0, "0.0"), (-1, "-1.0")],
    ids=["infinity", "nan", "zero", "negative"],
)
def test_bad_disturbance_duration_names_the_field(kind, duration, shown):
    doc = minimal_doc()
    fields = {"bus": "b", "dp": 0.1, "dq": 0.0} if kind == "load_step" else {
        "line": 0, "factor": 0.5}
    doc["scenario"] = {
        "horizon": 1.0,
        "disturbances": [{"at": 0.1, "kind": kind, **fields, "duration": duration}],
    }
    with pytest.raises(NetworkFileError) as info:
        parse_case(doc)
    assert str(info.value) == (
        f"scenario: disturbances[0].duration must be positive and finite, got {shown}"
    )


def test_scenario_names_a_bad_duration_and_its_value():
    from phasorstab.scenario import LoadStep, Scenario, ScenarioError

    with pytest.raises(
        ScenarioError,
        match=re.escape("disturbances[1].duration must be positive and finite, got -0.5"),
    ):
        Scenario(
            horizon=1.0,
            disturbances=[
                LoadStep(0.0, "b", 0.1, 0.0),
                LoadStep(0.2, "b", 0.1, 0.0, duration=-0.5),
            ],
        )


def _explicit_case_doc():
    """The packaged case3bus document, started from explicit states."""
    doc = json.loads(open(resolve_case_path("case3bus")).read())
    doc["scenario"].update(initial="explicit", explicit_states={
        "vsg1": {"theta": 0.0, "omega": 0.0, "v": 1.0},
        "droop2": {"theta": 0.001, "v": 0.97},
    })
    return doc


def _paths(value, path=()):
    """Every position in a JSON document below its root, containers too."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _scalars(value):
    """The keys and leaf values of a JSON document."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield key
            yield from _scalars(child)
    elif isinstance(value, list):
        for child in value:
            yield from _scalars(child)
    else:
        yield value


_FUZZ_DOC = _explicit_case_doc()
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True)
    # the document's own names and numbers: well-typed, and wrong in another place
    | st.sampled_from(sorted({repr(s): s for s in _scalars(_FUZZ_DOC)}.values(), key=repr)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(sorted(_paths(_FUZZ_DOC), key=repr)), value=_json_value)
def test_any_one_bad_value_is_a_validation_error(path, value):
    # a malformed case is refused with its place named, before any work,
    # and never escapes as another exception
    doc = _explicit_case_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        case = parse_case(doc)
        if case.scenario is not None:
            plan_run(case.net, case.components, case.scenario, case.solver)
    except (NetworkFileError, NetworkError, ScenarioError, InconsistentInput):
        pass
