"""Command-line behavior: exit codes, outputs, determinism."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phasorstab.cli import main

from conftest import soft_anchor_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_case(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def inconsistent_pair_doc():
    """Two swing sources whose power setpoints cannot balance."""
    return {
        "name": "badpair",
        "buses": [
            {"id": "a", "kind": "dynamic"},
            {"id": "b", "kind": "dynamic"},
            {"id": "gnd", "kind": "ground"},
        ],
        "branches": [{"from": "a", "to": "b", "kind": "line", "x": 1.0}],
        "components": [
            {
                "id": "va", "bus": "a", "model": "vsg",
                "params": {"M": 0.1, "Dp": 0.1, "Dq": 0.1, "tau_q": 0.1},
                "setpoints": {"P_e": 0.2, "Q_e": 0.0, "V_e": 1.0, "theta_e": 0.0},
            },
            {
                "id": "vb", "bus": "b", "model": "vsg",
                "params": {"M": 0.1, "Dp": 0.1, "Dq": 0.1, "tau_q": 0.1},
                "setpoints": {"P_e": 0.1, "Q_e": 0.0, "V_e": 1.0, "theta_e": 0.0},
            },
        ],
    }


def test_equilibrium_command_reports_case_state(capsys, tmp_path):
    out_path = tmp_path / "eq.json"
    code, out, err = run_cli(
        capsys, "equilibrium", "case3bus", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["case"] == "case3bus"
    assert doc["residual_norm"] <= 1e-10
    assert doc["buses"]["bus1"]["V"] == pytest.approx(1.0, abs=5e-3)
    assert doc["buses"]["bus2"]["V"] == pytest.approx(0.97, abs=5e-3)
    assert doc["buses"]["bus3"]["V"] == pytest.approx(0.95, abs=5e-3)
    assert doc["buses"]["bus2"]["theta"] == pytest.approx(0.001, abs=5e-4)
    assert doc["buses"]["bus3"]["theta"] == pytest.approx(-0.0015, abs=5e-4)


def test_malformed_file_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "equilibrium", str(bad))
    assert code == 1
    assert "line 1" in err


def test_inconsistent_setpoints_exit_two(capsys, tmp_path):
    path = write_case(tmp_path, inconsistent_pair_doc())
    code, out, err = run_cli(capsys, "equilibrium", path)
    assert code == 2
    assert "pinned relation" in err


def test_unknown_case_name_exits_one(capsys):
    code, out, err = run_cli(capsys, "equilibrium", "no_such_case")
    assert code == 1
    assert "neither a file nor a packaged case" in err


def test_simulate_zero_horizon_single_row(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "simulate", "case3bus", "--horizon", "0", "--out", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2  # header plus the initial sample
    assert lines[0].startswith("t,bus1_V,bus1_theta")
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert manifest["samples"] == 1


def test_simulate_byte_determinism(capsys, tmp_path):
    outputs = []
    for run in range(2):
        out_csv = tmp_path / f"run{run}.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "case3bus",
            "--horizon", "0.2", "--out", str(out_csv),
            "--manifest", str(tmp_path / f"run{run}.manifest.json"),
        )
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_without_scenario_fails(capsys, tmp_path):
    doc = inconsistent_pair_doc()
    doc["components"][0]["setpoints"]["P_e"] = 0.1
    doc["components"][1]["setpoints"]["P_e"] = -0.1
    path = write_case(tmp_path, doc)
    code, out, err = run_cli(capsys, "simulate", path, "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "no scenario" in err


def test_certify_writes_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "certify", "case3bus", "--out", str(report_path)
    )
    assert code == 0
    assert "convexity" in out
    assert "conclusion" in out
    doc = json.loads(report_path.read_text())
    assert doc["trajectory_evaluated"] is False
    assert doc["convexity"]["member"] is False
    assert len(doc["convexity"]["eigenvalues"]) == 6


def test_certify_with_trajectory(capsys, tmp_path):
    # shorten the shipped scenario through a temporary copy to keep the run fast
    from phasorstab.cli import resolve_case_path

    doc = json.loads(open(resolve_case_path("case3bus")).read())
    doc["scenario"]["horizon"] = 2.0
    path = write_case(tmp_path, doc)
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "certify", path, "--with-trajectory", "--out", str(report_path)
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["trajectory_evaluated"] is True
    assert set(doc["storage_criterion"]) == {"printed", "negated"}
    assert doc["storage_criterion"]["negated"]["vsg1"]["satisfied"] is True
    assert "integral criterion" in out


def test_verify_identities_sweep(capsys, tmp_path):
    out_path = tmp_path / "identities.json"
    code, out, err = run_cli(
        capsys,
        "verify-identities", "case3bus",
        "--h-sweep", "8e-3,4e-3,2e-3",
        "--horizon", "2.0",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    rows = doc["sweep"]
    assert [r["h"] for r in rows] == [8e-3, 4e-3, 2e-3]
    ratios = [
        rows[i]["potential_identity_residual"] / rows[i + 1]["potential_identity_residual"]
        for i in range(2)
    ]
    for ratio in ratios:
        assert ratio == pytest.approx(4.0, rel=0.5)
    assert doc["fitted_order"]["potential_identity"] == pytest.approx(2.0, abs=0.35)
    assert abs(doc["path_experiment"]["lossless_im_diff"]) <= 1e-8
    assert doc["path_experiment"]["lossy_unit_area_im_diff"] == pytest.approx(2.0, abs=1e-6)
    assert max(r["tellegen_max"] for r in rows) <= 1e-9


def test_verify_identities_takes_a_period_that_divides_the_horizon(capsys, tmp_path):
    # at h = 4e-3 the case's 0.01 s period is 2.5 steps, and no whole number
    # of steps near it but 1 divides the 25 steps of a 0.1 s horizon
    out_path = tmp_path / "identities.json"
    code, out, err = run_cli(
        capsys, "verify-identities", "case3bus", "--horizon", "0.1", "--out", str(out_path)
    )
    assert (code, err) == (0, "")
    doc = json.loads(out_path.read_text())
    assert [r["h"] for r in doc["sweep"]] == [4e-3, 2e-3, 1e-3]
    for order in doc["fitted_order"].values():
        assert order == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize(
    "horizon, h, period",
    [(0.1, 4e-3, 4e-3), (2.0, 4e-3, 8e-3), (0.1, 2e-3, 0.01), (0.0, 4e-3, 8e-3),
     (0.1, 0.05, 0.05), (0.3, 1e-3, 0.01)],
)
def test_sweep_period_is_the_nearest_that_divides_the_horizon(horizon, h, period):
    from phasorstab.cli import _sweep_period
    from phasorstab.scenario import Scenario

    assert _sweep_period(Scenario(horizon, 0.01), h) == pytest.approx(period, rel=1e-12)


def test_path_experiment_command(capsys):
    code, out, err = run_cli(
        capsys, "path-experiment", "--g", "1.0", "--b", "0.0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["enclosed_area"] == pytest.approx(1.0)
    assert doc["im_diff"] == pytest.approx(2.0, abs=1e-6)
    assert abs(doc["re_diff"]) <= 1e-8


def test_path_experiment_lossless_left_alone(capsys):
    code, out, err = run_cli(capsys, "path-experiment", "--g", "0.0", "--b", "-3.0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["im_diff"]) <= 1e-8


def test_path_experiment_reads_contours_file(capsys, tmp_path):
    path = tmp_path / "contours.json"
    path.write_text(json.dumps({"a": [[0, 0], [2, 0], [2, 0.5]],
                                "b": [[0, 0], [0, 0.5], [2, 0.5]]}))
    code, out, err = run_cli(
        capsys, "path-experiment", "--g", "1.0", "--b", "0.0", "--contours", str(path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["enclosed_area"] == pytest.approx(1.0)
    assert doc["im_diff"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read "),
        ('{"a": [[0, 0], [1, 1]],', "invalid JSON at line 1"),
        ("[[0, 0], [1, 1]]", "contours: expected an object"),
        ('{"a": [[0, 0], [1, 1]]}', "contours: missing required field 'b'"),
        ('{"a": [[0, 0], [1, 1]], "b": [[0, 0], [1, 1]], "c": []}',
         "contours: unknown field(s) ['c']"),
        ('{"a": {"x": 0}, "b": [[0, 0], [1, 1]]}', "contours.a: expected a list of [x, y]"),
        ('{"a": [[0, 0], [1, 1]], "b": [[1, 1]]}', "contours.b: needs at least two points"),
        ('{"a": [[0, 0], [1]], "b": [[0, 0], [1, 1]]}', "contours.a[1]: expected a point"),
        ('{"a": [[0, 0], ["1", 1]], "b": [[0, 0], [1, 1]]}',
         "contours.a[1]: expected a number, got '1'"),
        ('{"a": [[0, 0], [true, 1]], "b": [[0, 0], [1, 1]]}',
         "contours.a[1]: expected a number, got True"),
        ('{"a": [[0, 0], [1, 1]], "b": [[0, 0], [0, NaN], [1, 1]]}',
         "contours.b[1]: expected a finite number, got nan"),
        ('{"a": [[0, 0], [1, 1]], "b": [[0, 0], [1, Infinity]]}',
         "contours.b[1]: expected a finite number, got inf"),
        ('{"a": [[0, 0], [1, 1]], "b": [[0, 0], [1, 2]]}',
         "contours: a and b must share both endpoints"),
    ],
    ids=["missing-file", "invalid-json", "not-an-object", "missing-b", "unknown-field",
         "contour-not-a-list", "one-point", "short-point", "string-coordinate",
         "bool-coordinate", "nan-coordinate", "inf-coordinate", "different-endpoints"],
)
def test_bad_contours_file_exits_one(capsys, tmp_path, monkeypatch, text, message):
    import phasorstab.cli as cli

    def no_integral(*args):
        raise AssertionError("the contours were integrated before the file was checked")

    monkeypatch.setattr(cli, "path_dependence_experiment", no_integral)
    path = tmp_path / "contours.json"
    if text is not None:
        path.write_text(text)
    out_file = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys, "path-experiment", "--contours", str(path), "--out", str(out_file)
    )
    assert code == 1
    assert err.startswith("error: ")
    assert message in err
    assert out == ""
    assert not out_file.exists()


def test_certify_reports_soft_anchor_certificate(capsys, tmp_path):
    # a source anchored at Q below -V/Dq gets a storage verdict with its
    # margin, and a local form that holds
    path = write_case(tmp_path, soft_anchor_doc())
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "certify", path, "--with-trajectory", "--out", str(report_path)
    )
    assert code == 0
    assert "storage criterion (negated) [vsg1]: satisfied" in out
    report = json.loads(report_path.read_text())
    entry = report["storage_criterion"]["negated"]["vsg1"]
    assert list(entry) == ["satisfied", "worst_margin", "time_of_worst", "tol"]
    assert entry["satisfied"] is True and math.isfinite(entry["worst_margin"])
    assert report["local_quadratic_forms"]["vsg1"]["negated"]["verdict"] == "holds"


def test_config_file_overrides_solver(capsys, tmp_path):
    cfg = tmp_path / "overrides.json"
    cfg.write_text(json.dumps({"solver": {"step_size": 0.002}}))
    out_csv = tmp_path / "cfg.csv"
    code, out, err = run_cli(
        capsys, "--config", str(cfg), "simulate", "case3bus",
        "--horizon", "0.2", "--out", str(out_csv),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "cfg.manifest.json").read_text())
    assert manifest["step_size"] == 0.002


def test_bad_config_file_exits_one(capsys, tmp_path):
    cfg = tmp_path / "overrides.json"
    # read as case and contour files are: the same message forms
    code, out, err = run_cli(capsys, "--config", str(cfg), "equilibrium", "case3bus")
    assert code == 1
    assert err.startswith(f"error: cannot read {cfg}: ")
    for text, message in [
        ('{"newton_tol": 1e-9,\n', f"{cfg}: invalid JSON at line 2, column 1: Expecting"),
        ("[]", "solver object"),
        ('{"solver": 5}', "solver object"),
        ('{"newton_tol": -1}', "newton_tol must be positive"),
        ('{"newton_max_iter": Infinity}', "solver.newton_max_iter: expected an integer"),
        ('{"newton_max_iter": 2.7}', "solver.newton_max_iter: expected an integer"),
        ('{"newton_max_iter": true}', "solver.newton_max_iter: expected an integer"),
        ('{"integrator": "trapezoid"}', "solver.integrator: must be rk4"),
    ]:
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "--config", str(cfg), "equilibrium", "case3bus")
        assert code == 1
        assert message in err


def _nan_mass(doc):
    doc["components"][0]["params"]["M"] = math.nan


def _nan_reactance(doc):
    doc["branches"][0]["x"] = math.nan


def _nan_setpoint(doc):
    doc["components"][0]["setpoints"] = {"P_e": math.nan, "Q_e": 0.0, "V_e": 1.0, "theta_e": 0.0}


def _nan_load(doc):
    doc["branches"][2]["p0"] = math.nan


def _inf_newton_tol(doc):
    doc["solver"]["newton_tol"] = math.inf


def _inf_operating_angle(doc):
    doc["operating_point"]["bus3"]["theta"] = -math.inf


def _nan_perturbation(doc):
    doc["scenario"]["disturbances"][0]["delta"]["omega"] = math.nan


def _disturbance(**fields):
    def edit(doc):
        doc["scenario"]["disturbances"].append({"at": 0.1, **fields})
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [(_nan_mass, "parameter M must be positive and finite"),
     (_nan_reactance, "non-finite reactance nan"),
     (_nan_setpoint, "components[0].setpoints.P_e: expected a finite number, got nan"),
     (_nan_load, "branches[2].p0: expected a finite number, got nan"),
     (_inf_newton_tol, "solver: newton_tol must be positive and finite, got inf"),
     (_inf_operating_angle, "operating_point.bus3.theta: expected a finite number, got -inf"),
     (_nan_perturbation, "scenario: disturbances[0].delta.omega must be finite, got nan"),
     (_disturbance(kind="load_step", bus="bus3", dp=math.nan, dq=0.0),
      "scenario: disturbances[2].dp must be finite, got nan"),
     (_disturbance(kind="load_step", bus="bus3", dp=0.0, dq=-math.inf),
      "scenario: disturbances[2].dq must be finite, got -inf"),
     (_disturbance(kind="line_scale", line=0, factor=math.nan),
      "scenario: disturbances[2].factor must be finite, got nan"),
     (_disturbance(kind="line_scale", line=0, factor=math.inf),
      "scenario: disturbances[2].factor must be finite, got inf")],
    ids=["component-nan", "reactance-nan", "setpoint-nan", "load-nan", "newton-tol-inf",
         "operating-angle-inf", "perturbation-nan", "load-step-dp-nan", "load-step-dq-inf",
         "line-factor-nan", "line-factor-inf"],
)
def test_non_finite_case_value_exits_one(capsys, tmp_path, edit, message):
    from phasorstab.cli import resolve_case_path

    doc = json.loads(open(resolve_case_path("case3bus")).read())
    edit(doc)
    path = write_case(tmp_path, doc)
    code, out, err = run_cli(capsys, "equilibrium", path)
    assert code == 1
    assert message in err
    assert out == ""


@pytest.mark.parametrize("kind", ["load_step", "line_scale"])
@pytest.mark.parametrize(
    "duration, shown",
    [(math.inf, "inf"), (math.nan, "nan"), (0, "0.0"), (-1, "-1.0")],
    ids=["infinity", "nan", "zero", "negative"],
)
def test_bad_disturbance_duration_exits_one(capsys, tmp_path, kind, duration, shown):
    from phasorstab.cli import resolve_case_path

    doc = json.loads(open(resolve_case_path("case3bus")).read())
    fields = {"bus": "bus3", "dp": 0.1, "dq": 0.0} if kind == "load_step" else {
        "line": 0, "factor": 0.5}
    doc["scenario"]["disturbances"].append(
        {"at": 0.5, "kind": kind, **fields, "duration": duration}
    )
    path = write_case(tmp_path, doc)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "simulate", path, "--horizon", "1", "--out", str(out_csv))
    assert code == 1
    assert err == (
        f"error: scenario: disturbances[2].duration must be positive and finite, got {shown}\n"
    )
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "line, shown",
    [(True, "True"), (2.7, "2.7"), (math.inf, "inf")],
    ids=["bool", "fraction", "infinity"],
)
def test_line_scale_index_must_be_an_integer(capsys, tmp_path, line, shown):
    from phasorstab.cli import resolve_case_path

    doc = json.loads(open(resolve_case_path("case3bus")).read())
    doc["scenario"]["disturbances"].append(
        {"at": 0.5, "kind": "line_scale", "line": line, "factor": 0.5}
    )
    path = write_case(tmp_path, doc)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "simulate", path, "--horizon", "1", "--out", str(out_csv))
    assert code == 1
    assert err == (
        f"error: scenario.disturbances[2].line: expected an integer, got {shown}\n"
    )
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "case3bus", "--h", "abc"], "--h expects a finite number, got 'abc'"),
        (["simulate", "case3bus", "--h", "0"], "step size must be positive"),
        (["simulate", "case3bus", "--horizon", "1s"], "--horizon expects a finite"),
        (["simulate", "case3bus", "--horizon", "nan"], "--horizon expects a finite"),
        (["certify", "case3bus", "--h", "fast"], "--h expects a finite"),
        (["verify-identities", "case3bus", "--horizon", "x"], "--horizon expects"),
        (["verify-identities", "case3bus", "--h-sweep", "2e-3,1e-3,"], "--h-sweep expects"),
        (["verify-identities", "case3bus", "--h-sweep", "2e-3,2e-3"], "--h-sweep step sizes must be distinct"),
        (["verify-identities", "case3bus", "--h-sweep", "2e-3,-1e-3"], "--h-sweep step -0.001: step size must be positive"),
        (["verify-identities", "case3bus", "--h-sweep", "4e-3,2e-3,1.5e-3", "--horizon", "2"],
         "--h-sweep step 0.0015: horizon = 2.0 does not align"),
        (["--tol", "nan", "certify", "case3bus", "--with-trajectory"], "--tol expects a finite"),
        (["--tol", "abc", "certify", "case3bus"], "--tol expects a finite number, got 'abc'"),
        (["--tol=-1e-6", "certify", "case3bus"], "--tol must be nonnegative"),
        (["path-experiment", "--g", "nan"], "--g expects a finite number"),
        (["path-experiment", "--b", "inf"], "--b expects a finite number"),
        (["path-experiment", "--width", "wide"], "--width expects a finite number"),
        (["path-experiment", "--height=-inf"], "--height expects a finite number"),
        (["path-experiment", "--contours", "missing.json", "--width", "wide"],
         "--width expects a finite number"),
    ],
    ids=["h-text", "h-zero", "horizon-text", "horizon-nan", "certify-h", "verify-horizon",
         "h-sweep-empty-entry", "h-sweep-repeated", "h-sweep-negative", "h-sweep-off-horizon",
         "tol-nan", "tol-text", "tol-negative", "g-nan", "b-inf", "width-text",
         "height-inf", "width-text-with-contours"],
)
def test_bad_numeric_option_exits_one(capsys, tmp_path, argv, message):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [(["--tol", "-1e-6", "certify", "case3bus"], 1, "argument --tol: expected one argument"),
     (["certify", "case3bus", "--bogus"], 1, "unrecognized arguments: --bogus"),
     ([], 1, "the following arguments are required: command"),
     (["certify"], 1, "the following arguments are required: case"),
     (["--help"], 0, None),
     (["--version"], 0, None)],
    ids=["tol-negative-unjoined", "unknown-flag", "no-command", "no-case", "help", "version"],
)
def test_usage_exit_codes(capsys, argv, code, message):
    # a usage error is a validation error; exit 2 is kept for solver failures
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    if message is None:
        assert out and err == ""
    else:
        assert err.startswith("usage: phasorstab")
        assert err.endswith(f"error: {message}\n")


def test_h_sweep_is_checked_before_the_equilibrium_solve(capsys, tmp_path, monkeypatch):
    import phasorstab.cli as cli

    def no_solve(case):
        raise AssertionError("the equilibrium was solved before the sweep was checked")

    monkeypatch.setattr(cli, "solve_case_equilibrium", no_solve)
    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    doc["scenario"]["disturbances"][1]["at"] = 0.5
    path = write_case(tmp_path, doc)
    code, out, err = run_cli(
        capsys, "verify-identities", path, "--h-sweep", "4e-3,3e-3", "--horizon", "0.6"
    )
    assert code == 1
    assert err == (
        "error: --h-sweep step 0.003: disturbance time = 0.5 does not align with the"
        " step grid (h = 0.003)\n"
    )
    assert out == ""


def test_simulate_runs_from_the_case_equilibrium(capsys, tmp_path, monkeypatch):
    import phasorstab.cli as cli

    solved, given = [], []
    solve, run = cli.solve_case_equilibrium, cli.simulate

    def spy_solve(case):
        solved.append(solve(case))
        return solved[-1]

    def spy_simulate(plan, equilibrium=None):
        given.append(equilibrium)
        return run(plan, equilibrium)

    monkeypatch.setattr(cli, "solve_case_equilibrium", spy_solve)
    monkeypatch.setattr(cli, "simulate", spy_simulate)
    code, _, _ = run_cli(
        capsys, "simulate", "case3bus", "--horizon", "0.1", "--out", str(tmp_path / "t.csv")
    )
    assert code == 0
    assert len(solved) == len(given) == 1 and given[0] is solved[0]


CERTIFY_TRAJECTORY = ["certify", "--with-trajectory"]
VERIFY = ["verify-identities", "--horizon", "0.2"]
SIMULATE = ["simulate"]
EQUILIBRIUM = ["equilibrium"]
CERTIFY = ["certify"]
NO_SCENARIO = "case 'case3bus' declares no scenario"
GHOST = "disturbances[0]: unknown component 'ghost'"
PSI = "disturbances[0]: component 'vsg1' has no state 'psi'"
NEGATIVE_V = "explicit_states.vsg1.v must be positive, got -1.0"
# the packaged scenario holds two disturbances; a fault adds a third
UNKNOWN_LOAD_BUS = "disturbances[2]: load step at unknown bus 'ghost'"
NO_LOAD = "disturbances[2]: load step at bus 'bus1' with no constant-power branch"
LINE_INDEX = "disturbances[2]: line index 5 out of range"


@pytest.mark.parametrize(
    "command, fault, message",
    [
        (CERTIFY_TRAJECTORY, "no-scenario", NO_SCENARIO + " for --with-trajectory"),
        (VERIFY, "no-scenario", NO_SCENARIO),
        (CERTIFY_TRAJECTORY, "unknown-component", GHOST),
        (VERIFY, "unknown-component", GHOST),
        (CERTIFY_TRAJECTORY, "unknown-state", PSI),
        (VERIFY, "unknown-state", PSI),
        (CERTIFY_TRAJECTORY, "load-step-without-load", NO_LOAD),
        (CERTIFY_TRAJECTORY, "line-index", LINE_INDEX),
        (SIMULATE, "no-scenario", NO_SCENARIO),
        (SIMULATE, "unknown-component", GHOST),
        (SIMULATE, "line-index", LINE_INDEX),
        # the commands that run no scenario still refuse a malformed one
        (EQUILIBRIUM, "unknown-component", GHOST),
        (CERTIFY, "unknown-component", GHOST),
        (EQUILIBRIUM, "negative-explicit-v", NEGATIVE_V),
        (CERTIFY, "negative-explicit-v", NEGATIVE_V),
        (EQUILIBRIUM, "unknown-load-bus", UNKNOWN_LOAD_BUS),
        (CERTIFY, "unknown-load-bus", UNKNOWN_LOAD_BUS),
        (EQUILIBRIUM, "load-step-without-load", NO_LOAD),
        (CERTIFY, "load-step-without-load", NO_LOAD),
        (EQUILIBRIUM, "line-index", LINE_INDEX),
        (CERTIFY, "line-index", LINE_INDEX),
    ],
    ids=["certify-no-scenario", "verify-no-scenario", "certify-unknown-component",
         "verify-unknown-component", "certify-unknown-state", "verify-unknown-state",
         "certify-load-step-without-load", "certify-line-index", "simulate-no-scenario",
         "simulate-unknown-component", "simulate-line-index", "equilibrium-unknown-component",
         "static-certify-unknown-component", "equilibrium-negative-explicit-v",
         "static-certify-negative-explicit-v", "equilibrium-unknown-load-bus",
         "static-certify-unknown-load-bus", "equilibrium-load-step-without-load",
         "static-certify-load-step-without-load", "equilibrium-line-index",
         "static-certify-line-index"],
)
def test_scenario_is_checked_before_the_equilibrium_solve(
    capsys, tmp_path, monkeypatch, command, fault, message
):
    import phasorstab.cli as cli

    solves = []
    monkeypatch.setattr(cli, "solve_case_equilibrium", lambda case: solves.append(case))
    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    disturbances = doc["scenario"]["disturbances"]
    if fault == "no-scenario":
        del doc["scenario"]
    elif fault == "unknown-component":
        disturbances[0]["component"] = "ghost"
    elif fault == "unknown-state":
        disturbances[0]["delta"] = {"psi": 0.1}
    elif fault == "negative-explicit-v":
        _explicit_states(doc)["vsg1"]["v"] = -1.0
    elif fault == "load-step-without-load":
        disturbances.append({"at": 0.05, "kind": "load_step", "bus": "bus1", "dp": 0.1, "dq": 0.0})
    elif fault == "unknown-load-bus":
        disturbances.append({"at": 0.05, "kind": "load_step", "bus": "ghost", "dp": 0.1, "dq": 0.0})
    else:
        disturbances.append({"at": 0.05, "kind": "line_scale", "line": 5, "factor": 0.5})
    path = write_case(tmp_path, doc)
    code, out, err = run_cli(
        capsys, command[0], path, *command[1:], "--out", str(tmp_path / "out")
    )
    assert (code, err, solves) == (1, f"error: {message}\n", [])
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_overlapping_events_fail_before_the_equilibrium_solve(capsys, tmp_path, monkeypatch):
    # two overlapping scales of line 0: each alone leaves a finite reactance,
    # together they do not; the run is refused before any work
    import phasorstab.cli as cli

    monkeypatch.setattr(
        cli, "solve_equilibrium", lambda *a: pytest.fail("solved before the plan")
    )
    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    doc["scenario"]["disturbances"] += [
        {"at": at, "kind": "line_scale", "line": 0, "factor": 1e-300, "duration": 1.0}
        for at in (0.5, 1.0)
    ]
    path = write_case(tmp_path, doc)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "simulate", path, "--horizon", "2", "--out", str(out_csv))
    assert (code, out) == (1, "")
    assert err == (
        "error: disturbances[2], disturbances[3] at t = 1:"
        " line 'bus1'-'bus3' has non-finite reactance inf\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "case.json"]


def test_supply_sign_is_negated_only(capsys, tmp_path):
    # no flag picks the sign of the supply column, and a case or a config
    # file may name only the negated one
    import phasorstab.cli as cli

    with pytest.raises(SystemExit) as exc:
        main(["--convention", "printed", "simulate", "case3bus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: phasorstab")
    # the flag is named, not its value read as the subcommand
    assert err.endswith("phasorstab: error: unrecognized arguments: --convention\n")
    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    doc["solver"]["convention"] = "printed"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"convention": "printed"}}))
    for argv in (["equilibrium", write_case(tmp_path, doc)],
                 ["--config", str(cfg), "equilibrium", "case3bus"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (
            1, "", "error: solver.convention: must be negated, got 'printed'\n"
        )
    out_csv = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "case3bus", "--horizon", "0.1", "--out", str(out_csv))
    assert code == 0
    assert json.loads((tmp_path / "run.manifest.json").read_text())["convention"] == "negated"


@pytest.mark.parametrize(
    "argv",
    [["simulate", "case3bus", "--horizon", "0.01", "--out", "{target}"],
     ["simulate", "case3bus", "--horizon", "0.01", "--out", "{tmp}/run.csv",
      "--manifest", "{target}"],
     ["equilibrium", "case3bus", "--out", "{target}"],
     ["certify", "case3bus", "--out", "{target}"],
     ["verify-identities", "case3bus", "--horizon", "0.04", "--out", "{target}"]],
    ids=["simulate-csv", "simulate-manifest", "equilibrium", "certify", "verify-identities"],
)
def test_unwritable_output_exits_one(capsys, tmp_path, monkeypatch, argv):
    # a path in a missing directory, and a directory in the file's place:
    # one error line before any solve, and no file left behind, neither a
    # temporary one nor a CSV whose manifest could not be written
    import phasorstab.cli as cli

    ran = []
    monkeypatch.setattr(cli, "solve_case_equilibrium", lambda case: ran.append("solve"))
    monkeypatch.setattr(cli, "simulate", lambda *a: ran.append("simulate"))
    (tmp_path / "taken").mkdir()
    for target, reason in ((tmp_path / "missing" / "out", "No such file or directory"),
                           (tmp_path / "taken", "Is a directory")):
        code, out, err = run_cli(capsys, *(a.format(target=target, tmp=tmp_path) for a in argv))
        assert (code, out, err) == (1, "", f"error: cannot write {target}: {reason}\n")
        assert ran == []
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "taken"]
    if "--manifest" in argv:
        # the manifest path names the CSV's file, however it is spelt
        for target in (tmp_path / "run.csv", f"{tmp_path}/./run.csv"):
            code, out, err = run_cli(capsys, *(a.format(target=target, tmp=tmp_path) for a in argv))
            reason = "--out and --manifest name the same file"
            assert (code, out, err) == (1, "", f"error: cannot write {target}: {reason}\n")
            assert ran == []
            assert sorted(tmp_path.rglob("*")) == [tmp_path / "taken"]


def test_output_file_still_refuses_a_path_at_the_write(tmp_path):
    # a path that passes the check but cannot be written when the output
    # is ready (here a directory made in the meantime) fails the same way
    from phasorstab.netfile import NetworkFileError, check_output_path, output_file

    target = tmp_path / "out.json"
    check_output_path(str(target))
    target.mkdir()
    with pytest.raises(NetworkFileError, match=f"cannot write {target}: Is a directory"):
        with output_file(str(target)) as fh:
            fh.write("{}")
    assert sorted(tmp_path.iterdir()) == [target]


def stalled_doc():
    """case3bus with declared setpoints, no operating point, and a load at
    bus3 that the lines cannot carry: Newton stalls, at bus3's P balance."""
    import phasorstab.cli as cli

    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    _declared_setpoints(doc)
    del doc["operating_point"]
    doc["branches"][2]["p0"] = 9
    return doc


def test_equilibrium_failure_names_the_bus(capsys, tmp_path):
    code, out, err = run_cli(capsys, "equilibrium", write_case(tmp_path, stalled_doc()))
    assert (code, out) == (2, "")
    assert err.startswith("error: Newton stalled at iteration ")
    assert err.endswith(", P balance at bus 'bus3')\n")


REPO = Path(__file__).resolve().parents[1]
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
)}
# the process entry, run with an exit hook that reports the collector's
# frozen objects after the command has returned
ENTRY_WITH_HOOK = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
    "from phasorstab.cli import run\n"
    "run()\n"
)


def test_process_entry_freezes_the_collector_and_keeps_the_exit(capsys, tmp_path):
    import phasorstab.cli as cli

    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    doc["scenario"]["disturbances"].append(
        {"at": 0.05, "kind": "line_scale", "line": 5, "factor": 0.5})
    rejected = write_case(tmp_path, doc, "rejected.json")
    stalled = write_case(tmp_path, stalled_doc(), "stalled.json")
    runs = [(["equilibrium", "case3bus"], 0, ""),
            (["simulate", rejected, "--out", str(tmp_path / "x.csv")], 1, f"error: {LINE_INDEX}\n"),
            (["--convention", "printed", "simulate", "case3bus"], 1,
             "phasorstab: error: unrecognized arguments: --convention\n"),
            (["equilibrium", stalled], 2, ", P balance at bus 'bus3')\n"),
            (["certify", "case3bus"], 0, "")]
    for argv, code, err_end in runs:
        done = subprocess.run([sys.executable, "-c", ENTRY_WITH_HOOK, *argv], env=SRC_ENV,
                              capture_output=True, text=True, timeout=120)
        err, _, hook = done.stderr.rpartition("frozen ")
        assert done.returncode == code, done.stderr
        assert err.endswith(err_end) if code else err == "", done.stderr
        assert int(hook) > 0, done.stderr
    # what the last process printed is what main prints in this one
    assert run_cli(capsys, "certify", "case3bus") == (0, done.stdout, "")
    assert not (tmp_path / "x.csv").exists()


def test_console_script_is_the_process_entry():
    import tomllib

    import phasorstab.cli as cli

    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["phasorstab"]
    module, _, name = target.partition(":")
    assert (module, name) == ("phasorstab.cli", "run")
    assert callable(getattr(cli, name))


TRACER = REPO / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


# the bindings in argv[1] that a fresh interpreter cannot resolve to a
# callable right after `import phasorstab.cli`
UNRESOLVED_BINDINGS = (
    "import json, sys\n"
    "import phasorstab.cli\n"
    "unresolved = []\n"
    "for binding in json.loads(sys.argv[1]):\n"
    "    module, *path_in_module = binding.split('.')\n"
    "    owner = sys.modules.get(f'phasorstab.{module}')\n"
    "    for name in path_in_module:\n"
    "        owner = getattr(owner, name, None)\n"
    "    if not callable(owner):\n"
    "        unresolved.append(binding)\n"
    "print(json.dumps(unresolved))\n"
)


def test_benchmark_tracer_bindings_resolve():
    # perfbench/tracer.py wraps these functions by name right after a cold
    # `import phasorstab.cli`; a rename, or a module that cli no longer
    # loads at start-up, must fail here, not in a traced run. Earlier tests
    # load every module into this process, so the lookups run in a fresh
    # interpreter
    tracer = load_tracer()
    bindings = json.dumps([*tracer.BINDINGS, tracer.ROOT_SPAN])
    done = subprocess.run([sys.executable, "-c", UNRESOLVED_BINDINGS, bindings], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


# after `import phasorstab.cli` and after each command in argv[1]: the
# command's exit code and whether the stepping engine is loaded
ENGINE_LOADED = (
    "import json, sys\n"
    "import phasorstab.cli as cli\n"
    "loaded = ['phasorstab.engine' in sys.modules]\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    loaded.append([cli.main(argv), 'phasorstab.engine' in sys.modules])\n"
    "print(json.dumps(loaded))\n"
)


def test_only_a_command_that_steps_loads_the_engine(tmp_path):
    # start-up, the commands that never step and a run rejected before its
    # first step leave the stepping engine uncompiled; a run loads it
    import phasorstab.cli as cli

    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    doc["scenario"]["disturbances"][0]["component"] = "ghost"
    rejected = write_case(tmp_path, doc)
    out = str(tmp_path / "out")
    commands = [["equilibrium", "case3bus", "--out", out],
                ["certify", "case3bus", "--out", out],
                ["path-experiment", "--out", out],
                ["simulate", rejected, "--out", out],
                ["simulate", "case3bus", "--horizon", "0.1", "--out", out]]
    done = subprocess.run([sys.executable, "-c", ENGINE_LOADED, json.dumps(commands)],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"error: {GHOST}\n"
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == [False, [0, False], [0, False], [0, False], [1, False], [0, True]]


def test_benchmark_tracer_runs_a_traced_command(tmp_path):
    # the traced run also reads what the wrapped calls return (the
    # trajectory's scenario and solver settings, the solution's iterations)
    spans = tmp_path / "spans.npz"
    argv = ["simulate", "case3bus", "--horizon", "0.1", "--out", str(tmp_path / "t.csv")]
    done = subprocess.run([sys.executable, str(TRACER), str(spans), "--", *argv], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = load_tracer().summarize([str(spans)])
    assert (metrics["simulator.steps"], metrics["simulator.samples"]) == (100, 11)
    assert metrics["equilibrium.newton_iterations"] > 0
    # every bound name still carries its layer's calls, so a rename that
    # moves a call off a bound name fails here
    for layer in ("network.power_injection", "network.injection_partials", "potential.eval_vp"):
        assert metrics[f"{layer}_calls"] > 0, layer


@pytest.mark.parametrize(
    "argv, runs",
    [(["simulate", "case3bus", "--horizon", "0.1"], 1),
     (["certify", "case3bus", "--with-trajectory"], 1),
     (["verify-identities", "case3bus", "--horizon", "0.1"], 3)],
    ids=["simulate", "certify-with-trajectory", "verify-identities"],
)
def test_each_run_is_planned_once(capsys, tmp_path, monkeypatch, argv, runs):
    # the plan a command checks before its equilibrium solve is the plan it
    # steps on: the simulator plans nothing itself
    import phasorstab.cli as cli
    import phasorstab.simulator as simulator

    assert not hasattr(simulator, "plan_run")
    made, stepped = [], []
    plan, run = cli.plan_run, cli.simulate

    def counted_plan(*args, **kwargs):
        made.append(plan(*args, **kwargs))
        return made[-1]

    def spy_simulate(planned, equilibrium=None):
        stepped.append(planned)
        return run(planned, equilibrium)

    monkeypatch.setattr(cli, "plan_run", counted_plan)
    monkeypatch.setattr(cli, "simulate", spy_simulate)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, len(made)) == (0, runs)
    assert len(stepped) == runs and all(s is m for s, m in zip(stepped, made))


@pytest.mark.parametrize(
    "argv, checks",
    [(["equilibrium", "case3bus"], 1),
     (["certify", "case3bus"], 1),
     (["simulate", "case3bus", "--horizon", "0.1"], 1),
     (["certify", "case3bus", "--with-trajectory"], 1),
     (["verify-identities", "case3bus", "--horizon", "0.1"], 1)],
    ids=["equilibrium", "static-certify", "simulate", "certify-with-trajectory",
         "verify-identities"],
)
def test_scenario_is_checked_once_per_plan(capsys, tmp_path, monkeypatch, argv, checks):
    # every command checks its scenario once, before the setpoints are
    # back-solved: a transient command in the plan it makes, a sweep once
    # for all its plans, and a command that makes no plan alone
    import phasorstab.cli as cli
    import phasorstab.scenario as scenario

    calls = []
    check, back_solve = scenario.check_scenario, cli.back_solve_setpoints

    def counted_check(*args):
        calls.append("check")
        return check(*args)

    def spy_back_solve(case):
        calls.append("back-solve")
        return back_solve(case)

    monkeypatch.setattr(cli, "check_scenario", counted_check)
    monkeypatch.setattr(scenario, "check_scenario", counted_check)
    monkeypatch.setattr(cli, "back_solve_setpoints", spy_back_solve)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, calls) == (0, ["check"] * checks + ["back-solve"])


def test_sweep_compiles_its_float_step_once(capsys, tmp_path, monkeypatch):
    # the default three-step sweep on case3bus runs one generated step: it
    # is compiled once, and the JSON is the one that compiling it for every
    # engine writes
    import phasorstab.engine as engine

    compiled = []

    def counted_compile(*args):
        compiled.append(args[1])
        return compile(*args)

    argv = ["verify-identities", "case3bus", "--horizon", "0.1", "--out"]
    monkeypatch.setattr(engine, "compile", counted_compile, raising=False)
    engine._compiled.cache_clear()
    assert run_cli(capsys, *argv, str(tmp_path / "once.json"))[0] == 0
    assert compiled == ["<float step>"]
    monkeypatch.setattr(engine, "_compiled", engine._compiled.__wrapped__)
    assert run_cli(capsys, *argv, str(tmp_path / "each.json"))[0] == 0
    assert len(compiled) == 4
    assert (tmp_path / "once.json").read_bytes() == (tmp_path / "each.json").read_bytes()


@pytest.mark.parametrize(
    "argv, builds",
    [(["equilibrium", "case3bus"], 1),
     (["certify", "case3bus"], 1),
     (["certify", "case3bus", "--with-trajectory"], 2),
     (["verify-identities", "case3bus", "--horizon", "0.1"], 2)],
    ids=["equilibrium", "static-certify", "certify-with-trajectory", "verify-identities"],
)
def test_each_affine_table_is_built_once_per_command(capsys, tmp_path, monkeypatch, argv, builds):
    # a model's derivative runs once for D_f, which the equilibrium solve,
    # every run of a sweep and the certificate read, and once for c, which
    # only a run reads
    from phasorstab.components import DroopComponent, VsgComponent

    calls = []
    for model in (VsgComponent, DroopComponent):
        def counted(self, x, u, derivative=model.derivative):
            calls.append(self.id)
            return derivative(self, x, u)

        monkeypatch.setattr(model, "derivative", counted)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 0
    assert sorted(calls) == sorted(["vsg1", "droop2"] * builds)


def _explicit_states(doc):
    doc["scenario"].update(initial="explicit", explicit_states={
        "vsg1": {"theta": 0.0, "omega": 0.0, "v": 1.0},
        "droop2": {"theta": 0.001, "v": 0.97},
    })
    return doc["scenario"]["explicit_states"]


def _declared_setpoints(doc):
    # the setpoints the shipped operating point back-solves to
    doc["components"][0]["setpoints"] = {
        "P_e": 0.0118749955468755, "Q_e": 0.41667557291499757, "V_e": 1.0, "theta_e": 0.0}
    doc["components"][1]["setpoints"] = {
        "P_e": 0.019197896668843056, "Q_e": 0.16169066405000154, "V_e": 0.97,
        "theta_e": 0.001}


def _negative_bus3_voltage(doc):
    _declared_setpoints(doc)
    doc["operating_point"]["bus3"]["V"] = -0.95


def _misspelt_explicit_label(doc):
    vsg = _explicit_states(doc)["vsg1"]
    vsg["omgea"] = vsg.pop("omega")


def _rename_bus(doc, old, new):
    # a case with a bus renamed everywhere the document names it
    for entry in doc["buses"] + doc["components"]:
        for key in ("id", "bus"):
            if entry.get(key) == old:
                entry[key] = new
    for branch in doc["branches"]:
        for key in ("from", "to"):
            if branch[key] == old:
                branch[key] = new
    doc["operating_point"][new] = doc["operating_point"].pop(old)


def _rename_component(doc, old, new):
    # a case with a component renamed everywhere the document names it
    for entry in doc["components"] + doc["scenario"]["disturbances"]:
        for key in ("id", "component"):
            if entry.get(key) == old:
                entry[key] = new


OP_VOLTAGE = "operating_point: bus voltage magnitudes must be positive"


@pytest.mark.parametrize(
    "edit, message",
    [(lambda d: d["branches"].append(3), "branches[3]: expected an object"),
     (lambda d: d["scenario"]["disturbances"].__setitem__(0, None),
      "scenario.disturbances[0]: expected an object"),
     (lambda d: d["scenario"].update(disturbances={"kind": "load_step"}),
      "scenario.disturbances: expected an array"),
     (lambda d: _explicit_states(d) and d["scenario"].update(explicit_states=[{"v": 1.0}]),
      "scenario.explicit_states: expected an object"),
     (lambda d: _explicit_states(d).update(vsg1=[0.0, 0.0, 1.0]),
      "scenario.explicit_states.vsg1: expected an object"),
     (lambda d: _explicit_states(d)["vsg1"].update(omega="0.1"),
      "scenario.explicit_states.vsg1.omega: expected a number, got '0.1'"),
     (lambda d: _explicit_states(d)["vsg1"].update(omega=math.nan),
      "scenario: explicit_states.vsg1.omega must be finite, got nan"),
     (lambda d: _explicit_states(d)["vsg1"].update(v=-1),
      "explicit_states.vsg1.v must be positive, got -1.0"),
     (_misspelt_explicit_label,
      "explicit_states.vsg1: component 'vsg1' has no state 'omgea'"),
     (lambda d: _explicit_states(d).update(ghost={"v": 1.0}),
      "explicit_states.ghost: unknown component 'ghost'"),
     (lambda d: _explicit_states(d)["droop2"].pop("v"),
      "explicit_states.droop2: missing state(s) ['v']"),
     (lambda d: _explicit_states(d).pop("droop2"),
      "explicit_states: missing component(s) ['droop2']"),
     (lambda d: d["operating_point"]["bus3"].update(V=0), OP_VOLTAGE),
     (_negative_bus3_voltage, OP_VOLTAGE),
     # a CSV column per id: two columns named bus1_theta, or a split header
     (lambda d: _rename_component(d, "vsg1", "bus1"),
      "components[0]: dynamic component id 'bus1' is also a bus id"),
     (lambda d: _rename_bus(d, "bus3", "bus,3"),
      "buses[2]: bus id 'bus,3' holds a comma, a double quote or a line break")],
    ids=["branch-number", "disturbance-null", "disturbances-object", "explicit-list",
         "explicit-entry-list", "explicit-string", "explicit-nan", "explicit-negative-v",
         "explicit-misspelt-label", "explicit-unknown-id", "explicit-missing-state",
         "explicit-missing-component", "op-voltage-zero-back-solved",
         "op-voltage-negative-declared-setpoints", "component-id-is-a-bus-id",
         "bus-id-with-comma"],
)
def test_malformed_case_fails_before_the_equilibrium_solve(
    capsys, tmp_path, monkeypatch, edit, message
):
    import phasorstab.cli as cli

    monkeypatch.setattr(
        cli, "solve_case_equilibrium", lambda case: pytest.fail("solved a malformed case")
    )
    doc = json.loads(open(cli.resolve_case_path("case3bus")).read())
    edit(doc)
    path = write_case(tmp_path, doc)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "simulate", path, "--horizon", "0.05", "--out", str(out_csv))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_csv.exists()
