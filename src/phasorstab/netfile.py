"""JSON network description files: schema validation and model assembly.

A file describes buses, branches, dynamic components (with parameters and
optional setpoints), an optional target operating point for back-solving
setpoints, an optional scenario, and optional solver settings. Unknown
fields are rejected with the path of the offending entry so typos cannot
silently change a study.

Loads are consumption-positive by default; a branch may declare
``"convention": "generation"`` to flip the reading of its (p0, q0) pair.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from typing import Any

from .components import Component, DroopComponent, Setpoints, VsgComponent
from .network import (
    Bus,
    BusKind,
    BusState,
    ConstantPowerBranch,
    DynamicShunt,
    LosslessLine,
    NetworkError,
    NetworkModel,
)
from .potential import shared_endpoints
from .records import recordclass
from .scenario import LineScale, LoadStep, Scenario, SolverConfig, StatePerturbation

__all__ = [
    "NetworkFileError",
    "CaseDefinition",
    "load_case",
    "load_contours",
    "output_file",
    "parse_case",
    "parse_solver",
    "read_json",
]


class NetworkFileError(ValueError):
    """Schema violation, reported with its location in the document."""


@recordclass
class CaseDefinition:
    """Everything a command needs, parsed and validated."""

    name: str
    net: NetworkModel
    components: dict[str, Component]
    operating_point: BusState | None
    scenario: Scenario | None
    solver: SolverConfig
    source: str = "<memory>"


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise NetworkFileError(f"{where}: expected an object")
    return value


def _array(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise NetworkFileError(f"{where}: expected an array")
    return value


def _require(obj: Any, key: str, where: str) -> Any:
    if key not in _object(obj, where):
        raise NetworkFileError(f"{where}: missing required field {key!r}")
    return obj[key]


def _check_fields(obj: Any, allowed: set[str], where: str) -> None:
    unknown = set(_object(obj, where)) - allowed
    if unknown:
        raise NetworkFileError(f"{where}: unknown field(s) {sorted(unknown)}")

def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFileError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _finite(value: Any, where: str) -> float:
    """A number that must also be finite: JSON as Python reads it accepts
    NaN and Infinity, and no record checks them in these fields."""
    number = _number(value, where)
    if not math.isfinite(number):
        raise NetworkFileError(f"{where}: expected a finite number, got {value!r}")
    return number


def _numbers(raw: Any, where: str) -> dict[str, float]:
    """An object of numbers, by name."""
    return {key: _number(value, f"{where}.{key}") for key, value in _object(raw, where).items()}


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise NetworkFileError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _parse_buses(raw: Any) -> list[Bus]:
    if not isinstance(raw, list) or not raw:
        raise NetworkFileError("buses: expected a non-empty array")
    buses = []
    for idx, entry in enumerate(raw):
        where = f"buses[{idx}]"
        _check_fields(entry, {"id", "kind"}, where)
        bus_id = _require(entry, "id", where)
        kind_raw = _require(entry, "kind", where)
        try:
            kind = BusKind(kind_raw)
        except ValueError:
            raise NetworkFileError(
                f"{where}: kind must be one of ground/dynamic/passive, got {kind_raw!r}"
            ) from None
        buses.append(Bus(id=str(bus_id), kind=kind))
    return buses


def _parse_branches(
    raw: Any, ground_id: str
) -> tuple[list[LosslessLine], list[ConstantPowerBranch]]:
    lines: list[LosslessLine] = []
    cps: list[ConstantPowerBranch] = []
    for idx, entry in enumerate(_array(raw, "branches")):
        where = f"branches[{idx}]"
        kind = _require(entry, "kind", where)
        if kind == "line":
            _check_fields(entry, {"from", "to", "kind", "x", "g"}, where)
            x = _number(_require(entry, "x", where), f"{where}.x")
            g = _number(entry.get("g", 0.0), f"{where}.g")
            if g != 0.0:
                raise NetworkFileError(
                    f"{where}: lossy lines are not supported in the network model "
                    "(conductance is only meaningful to the standalone path experiment)"
                )
            lines.append(
                LosslessLine(str(_require(entry, "from", where)), str(_require(entry, "to", where)), x)
            )
        elif kind == "constant_power":
            _check_fields(entry, {"from", "to", "kind", "p0", "q0", "convention"}, where)
            frm = str(_require(entry, "from", where))
            to = str(_require(entry, "to", where))
            if to != ground_id:
                raise NetworkFileError(
                    f"{where}: constant-power branch must terminate at ground "
                    f"({ground_id!r}), got {to!r}"
                )
            p0 = _finite(_require(entry, "p0", where), f"{where}.p0")
            q0 = _finite(_require(entry, "q0", where), f"{where}.q0")
            convention = entry.get("convention", "consumption")
            if convention not in ("consumption", "generation"):
                raise NetworkFileError(
                    f"{where}: convention must be consumption or generation"
                )
            if convention == "generation":
                p0, q0 = -p0, -q0
            cps.append(ConstantPowerBranch(bus=frm, p0=p0, q0=q0))
        else:
            raise NetworkFileError(
                f"{where}: unknown branch kind {kind!r} (line | constant_power)"
            )
    return lines, cps


_MODELS = {"vsg": VsgComponent, "droop": DroopComponent}


def _parse_components(raw: Any) -> tuple[list[DynamicShunt], dict[str, Component]]:
    shunts: list[DynamicShunt] = []
    comps: dict[str, Component] = {}
    for idx, entry in enumerate(_array(raw, "components")):
        where = f"components[{idx}]"
        _check_fields(entry, {"id", "bus", "model", "params", "setpoints"}, where)
        model = _require(entry, "model", where)
        if not isinstance(model, str) or model not in _MODELS:
            raise NetworkFileError(
                f"{where}: model must be {' or '.join(_MODELS)}, got {model!r}"
            )
        cid = str(entry.get("id", f"{model}_{idx}"))
        bus = str(_require(entry, "bus", where))
        params = _require(entry, "params", where)
        cls = _MODELS[model]
        expected = set(cls.positive_params)
        _check_fields(params, expected, f"{where}.params")
        missing = expected - set(params)
        if missing:
            raise NetworkFileError(f"{where}.params: missing {sorted(missing)}")
        values = _numbers(params, f"{where}.params")
        setpoints = None
        if "setpoints" in entry:
            sp_where = f"{where}.setpoints"
            _check_fields(entry["setpoints"], {"P_e", "Q_e", "V_e", "theta_e"}, sp_where)
            setpoints = Setpoints(**{
                name: _finite(_require(entry["setpoints"], name, sp_where), f"{sp_where}.{name}")
                for name in ("P_e", "Q_e", "V_e", "theta_e")
            })
        try:
            comp = cls(id=cid, bus=bus, setpoints=setpoints, **values)
        except ValueError as exc:
            raise NetworkFileError(f"{where}: {exc}") from exc
        comps[cid] = comp
        shunts.append(DynamicShunt(bus=bus, component_id=cid))
    return shunts, comps


def _parse_disturbance(entry: Any, where: str):
    kind = _require(entry, "kind", where)
    at = _number(_require(entry, "at", where), f"{where}.at")
    duration = _number(entry["duration"], f"{where}.duration") if "duration" in entry else None
    if kind == "state_perturbation":
        _check_fields(entry, {"at", "kind", "component", "delta"}, where)
        delta = _require(entry, "delta", where)
        if not isinstance(delta, dict) or not delta:
            raise NetworkFileError(f"{where}.delta: expected a non-empty object")
        return StatePerturbation(
            at=at,
            component=str(_require(entry, "component", where)),
            delta=_numbers(delta, f"{where}.delta"),
        )
    if kind == "load_step":
        _check_fields(entry, {"at", "kind", "bus", "dp", "dq", "duration"}, where)
        return LoadStep(
            at=at,
            bus=str(_require(entry, "bus", where)),
            dp=_number(_require(entry, "dp", where), f"{where}.dp"),
            dq=_number(_require(entry, "dq", where), f"{where}.dq"),
            duration=duration,
        )
    if kind == "line_scale":
        _check_fields(entry, {"at", "kind", "line", "factor", "duration"}, where)
        return LineScale(
            at=at,
            line_index=_integer(_require(entry, "line", where), f"{where}.line"),
            factor=_number(_require(entry, "factor", where), f"{where}.factor"),
            duration=duration,
        )
    raise NetworkFileError(
        f"{where}: unknown disturbance kind {kind!r} "
        "(state_perturbation | load_step | line_scale)"
    )


def _parse_scenario(raw: Any) -> Scenario:
    where = "scenario"
    _check_fields(
        raw,
        {"horizon", "output_period", "initial", "explicit_states", "disturbances"},
        where,
    )
    path = f"{where}.disturbances"
    disturbances = [
        _parse_disturbance(entry, f"{path}[{i}]")
        for i, entry in enumerate(_array(raw.get("disturbances", []), path))
    ]
    path = f"{where}.explicit_states"
    explicit_states = {
        cid: _numbers(states, f"{path}.{cid}")
        for cid, states in _object(raw["explicit_states"], path).items()
    } if "explicit_states" in raw else None
    try:
        return Scenario(
            horizon=_number(_require(raw, "horizon", where), f"{where}.horizon"),
            output_period=_number(raw.get("output_period", 0.01), f"{where}.output_period"),
            initial=str(raw.get("initial", "equilibrium")),
            explicit_states=explicit_states,
            disturbances=disturbances,
        )
    except ValueError as exc:
        raise NetworkFileError(f"{where}: {exc}") from exc


def parse_solver(raw: Any) -> SolverConfig:
    """Validate a solver section; absent fields take their defaults."""
    where = "solver"
    _check_fields(
        raw,
        {"step_size", "newton_tol", "newton_max_iter", "integrator", "convention"},
        where,
    )
    # fields with one value each, which stay for the files that name them:
    # the only integrator and the only supply sign
    for name, only in (("integrator", "rk4"), ("convention", "negated")):
        value = raw.get(name, only)
        if value != only:
            raise NetworkFileError(f"{where}.{name}: must be {only}, got {value!r}")
    try:
        return SolverConfig(
            step_size=_number(raw.get("step_size", 1e-3), f"{where}.step_size"),
            newton_tol=_number(raw.get("newton_tol", 1e-10), f"{where}.newton_tol"),
            newton_max_iter=_integer(
                raw.get("newton_max_iter", 25), f"{where}.newton_max_iter"
            ),
        )
    except ValueError as exc:
        raise NetworkFileError(f"{where}: {exc}") from exc


def parse_case(doc: Any, source: str = "<memory>") -> CaseDefinition:
    """Validate a parsed JSON document and assemble the case."""
    _check_fields(
        doc,
        {"name", "buses", "branches", "components", "operating_point", "scenario", "solver"},
        "document",
    )
    buses = _parse_buses(_require(doc, "buses", "document"))
    ground = [b for b in buses if b.kind is BusKind.GROUND]
    if len(ground) != 1:
        raise NetworkFileError(
            f"buses: exactly one ground bus required, found {len(ground)}"
        )
    branches = _require(doc, "branches", "document")
    lines, cps = _parse_branches(branches, ground[0].id)
    shunts, comps = _parse_components(doc.get("components", []))
    try:
        net = NetworkModel(buses, lines, cps, shunts)
    except NetworkError as exc:
        # the document path of the record at fault, found by identity
        paths = {id(bus): f"buses[{j}]" for j, bus in enumerate(buses)}
        paths.update((id(shunt), f"components[{j}]") for j, shunt in enumerate(shunts))
        for kind, records in (("line", lines), ("constant_power", cps)):
            at = [j for j, entry in enumerate(branches) if entry["kind"] == kind]
            paths.update((id(record), f"branches[{j}]") for j, record in zip(at, records))
        raise NetworkFileError(f"{paths.get(id(exc.record), 'document')}: {exc}") from exc

    operating_point = None
    if "operating_point" in doc:
        points = {}
        for bus_id, entry in _object(doc["operating_point"], "operating_point").items():
            where = f"operating_point.{bus_id}"
            if bus_id not in net.node_index:
                raise NetworkFileError(f"{where}: unknown non-ground bus")
            _check_fields(entry, {"V", "theta"}, where)
            points[bus_id] = (
                _finite(_require(entry, "V", where), f"{where}.V"),
                _finite(_require(entry, "theta", where), f"{where}.theta"),
            )
        missing = set(net.non_ground) - set(points)
        if missing:
            raise NetworkFileError(
                f"operating_point: missing bus(es) {sorted(missing)}"
            )
        try:
            operating_point = BusState(
                V=[points[b][0] for b in net.non_ground],
                theta=[points[b][1] for b in net.non_ground],
            )
        except ValueError as exc:
            raise NetworkFileError(f"operating_point: {exc}") from exc
    if operating_point is None and any(c.setpoints is None for c in comps.values()):
        raise NetworkFileError(
            "components without setpoints require an operating_point to back-solve"
        )

    scenario = _parse_scenario(doc["scenario"]) if "scenario" in doc else None
    solver = parse_solver(doc.get("solver", {}))
    return CaseDefinition(
        name=str(doc.get("name", "unnamed")),
        net=net,
        components=comps,
        operating_point=operating_point,
        scenario=scenario,
        solver=solver,
        source=source,
    )


def read_json(path: str) -> Any:
    """The JSON document in a file, reporting parse errors with position."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise NetworkFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NetworkFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


@contextmanager
def output_file(path: str):
    """A text file to write `path` through: the writes go to ``path +
    ".tmp"``, which replaces `path` when the block ends. A failure leaves
    neither `path` changed nor the temporary file behind, and an error of
    the file system is a NetworkFileError naming `path`."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise NetworkFileError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with suppress(OSError):
            os.remove(tmp)


def load_case(path: str) -> CaseDefinition:
    """Parse a case from a JSON file, reporting parse errors with position."""
    return parse_case(read_json(path), source=path)


def _contour(raw: Any, where: str) -> list[complex]:
    if not isinstance(raw, list):
        raise NetworkFileError(f"{where}: expected a list of [x, y] points")
    if len(raw) < 2:
        raise NetworkFileError(f"{where}: needs at least two points, got {len(raw)}")
    points = []
    for j, point in enumerate(raw):
        at = f"{where}[{j}]"
        if not isinstance(point, list) or len(point) != 2:
            raise NetworkFileError(f"{at}: expected a point [x, y], got {point!r}")
        points.append(complex(_finite(point[0], at), _finite(point[1], at)))
    return points


def load_contours(path: str) -> tuple[list[complex], list[complex]]:
    """The two contours of a ``path-experiment --contours`` file,
    ``{"a": [[x, y], ...], "b": [[x, y], ...]}``: each two or more points of
    finite coordinates, the two sharing their first and their last point."""
    doc = read_json(path)
    _check_fields(doc, {"a", "b"}, "contours")
    contour_a = _contour(_require(doc, "a", "contours"), "contours.a")
    contour_b = _contour(_require(doc, "b", "contours"), "contours.b")
    if not shared_endpoints(contour_a, contour_b):
        raise NetworkFileError("contours: a and b must share both endpoints")
    return contour_a, contour_b
