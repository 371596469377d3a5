import json
import math
from pathlib import Path

import pytest

from rkbs_sparse import cli


WORKED_DOC = {
    "schema": "rkbs-sparse/1",
    "space": "l1",
    "task": "mni",
    "functionals": [{"kind": "harmonic"}, {"kind": "geometric", "ratio": -0.5}],
    "y": [1.0, 1.0],
}

GAUSS_DOC = {
    "schema": "rkbs-sparse/1",
    "space": "gaussian-measure",
    "task": "mni",
    "sigma": 1.0,
    "centers": [-1.0, 1.0],
    "y": [1.0, 1.0],
}

PATH_DOC = {
    "schema": "rkbs-sparse/1",
    "space": "l1",
    "task": "path",
    "functionals": [{"kind": "finite", "values": [1.0]},
                    {"kind": "finite", "values": [0.0, 1.0]}],
    "y": [1.0, 1.0],
    "lambdas": [0.5, 0.9, 1.5],
}


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, args, doc=None, name="problem.json"):
    argv = list(args)
    if doc is not None:
        argv.append(_write(tmp_path, doc, name))
    out = tmp_path / "out.json"
    argv += ["--output", str(out)]
    code = cli.main(argv)
    text = out.read_text() if out.exists() else ""
    return code, text


def test_solve_worked_example(tmp_path):
    code, text = _run(tmp_path, ["solve"], WORKED_DOC)
    assert code == 0
    report = json.loads(text)
    assert report["schema"] == "rkbs-sparse/1"
    assert report["optimal_value"] == pytest.approx(1.0, abs=1e-9)
    assert report["atoms"] == [{"site": 1, "coeff": 1}]
    assert report["diagnostics"]["residual"] <= 1e-9


def test_solve_single_functional(tmp_path):
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "mni",
           "functionals": [{"kind": "finite", "values": [1.0]}], "y": [2.0]}
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 0
    report = json.loads(text)
    assert report["atoms"] == [{"site": 1, "coeff": 2}]


def test_solve_gaussian(tmp_path):
    code, text = _run(tmp_path, ["solve"], GAUSS_DOC)
    assert code == 0
    report = json.loads(text)
    atoms = report["atoms"]
    assert len(atoms) == 1
    assert abs(atoms[0]["site"]) <= 1e-6
    assert atoms[0]["coeff"] == pytest.approx(math.sqrt(math.e), abs=1e-6)


def test_reports_are_byte_identical(tmp_path):
    _, first = _run(tmp_path, ["solve"], WORKED_DOC)
    _, second = _run(tmp_path, ["solve"], WORKED_DOC, name="again.json")
    assert first == second
    _, third = _run(tmp_path, ["solve"], GAUSS_DOC, name="g.json")
    _, fourth = _run(tmp_path, ["solve"], GAUSS_DOC, name="g2.json")
    assert third == fourth


def test_report_floats_roundtrip(tmp_path):
    code, text = _run(tmp_path, ["solve"], GAUSS_DOC)
    report = json.loads(text)
    value = report["optimal_value"]
    assert float(cli._fmt_float(value)) == value


def test_unknown_field_rejected(tmp_path, capsys):
    doc = dict(WORKED_DOC)
    doc["surprise"] = 1
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 2
    assert text == ""  # no partial report
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"]["code"] == 2
    assert "surprise" in payload["error"]["message"]


@pytest.mark.parametrize("field, value", [
    ("centers", [-1.0, math.nan]),
    ("y", [1.0, math.nan]),
    ("domain", [-10.0, math.nan]),
])
def test_non_finite_gaussian_data_is_validation_error(tmp_path, capsys, field, value):
    # json reads the NaN literal that json.dumps writes
    code, text = _run(tmp_path, ["solve"], dict(GAUSS_DOC, **{field: value}))
    assert code == 2
    assert text == ""
    assert json.loads(capsys.readouterr().err.strip())["error"]["code"] == 2


def test_path_with_a_nan_lambda_fails_without_a_report(tmp_path, capsys):
    code, text = _run(tmp_path, ["path"], dict(PATH_DOC, lambdas=[0.5, math.nan]))
    assert code == cli.EXIT_VALIDATION
    assert text == ""
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert "strictly positive" in err["message"]


@pytest.mark.parametrize("lam", [0.0, -0.5])
def test_path_with_a_nonpositive_lambda_fails_without_a_report(tmp_path, capsys, lam):
    # rejected when the file is read, like a nonpositive lambda of reg
    code, text = _run(tmp_path, ["path"], dict(PATH_DOC, lambdas=[0.5, lam]))
    assert code == cli.EXIT_VALIDATION
    assert text == ""
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert "strictly positive" in err["message"]


def test_schema_version_checked(tmp_path):
    doc = dict(WORKED_DOC)
    doc["schema"] = "rkbs-sparse/2"
    code, _ = _run(tmp_path, ["solve"], doc)
    assert code == 2


def test_nested_functional_fields_validated(tmp_path):
    doc = dict(WORKED_DOC)
    doc["functionals"] = [{"kind": "geometric", "ratio": -0.5, "bogus": 3},
                          {"kind": "harmonic"}]
    code, _ = _run(tmp_path, ["solve"], doc)
    assert code == 2


@pytest.mark.parametrize("functional", [
    {"kind": "scaled-sum", "weights": [math.nan], "children": [{"kind": "harmonic"}]},
    {"kind": "scaled-sum", "weights": [math.inf], "children": [{"kind": "harmonic"}]},
    {"kind": "finite", "values": [math.nan]},
    {"kind": "geometric", "ratio": 2.0},
])
def test_invalid_functional_is_validation_error(tmp_path, capsys, functional):
    doc = dict(WORKED_DOC, functionals=[functional, {"kind": "harmonic"}])
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 2
    assert text == ""
    assert json.loads(capsys.readouterr().err.strip())["error"]["code"] == 2


def test_task_and_space_cross_validation(tmp_path):
    doc = dict(WORKED_DOC)
    doc["sigma"] = 1.0
    assert _run(tmp_path, ["solve"], doc)[0] == 2
    doc = dict(GAUSS_DOC)
    doc["task"] = "reg"  # missing lambda
    assert _run(tmp_path, ["solve"], doc)[0] == 2
    doc = dict(WORKED_DOC)
    doc["lambda"] = 0.5  # mni takes no lambda
    assert _run(tmp_path, ["solve"], doc)[0] == 2


def test_dual_command(tmp_path):
    code, text = _run(tmp_path, ["dual"], WORKED_DOC)
    assert code == 0
    report = json.loads(text)
    c = report["dual"]["c"]
    assert c[0] + c[1] == pytest.approx(1.0, abs=1e-9)
    assert report["optimal_value"] == pytest.approx(1.0, abs=1e-9)


def test_reg_task_certificate_in_report(tmp_path):
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "reg",
           "functionals": PATH_DOC["functionals"], "y": [1.0, 1.0],
           "lambda": 0.5}
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 0
    report = json.loads(text)
    assert report["diagnostics"]["certificate_verdict"] is True
    assert report["diagnostics"]["l1_norm"] == pytest.approx(1.0, abs=1e-8)


def test_reg_gaussian_through_files(tmp_path):
    doc = dict(GAUSS_DOC)
    doc["task"] = "reg"
    doc["lambda"] = 0.2
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 0
    report = json.loads(text)
    assert report["diagnostics"]["certificate_verdict"] is True
    assert len(report["atoms"]) == 1
    assert abs(report["atoms"][0]["site"]) <= 1e-6


def test_lambda_check_command(tmp_path):
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "lambda-check",
           "functionals": PATH_DOC["functionals"], "y": [1.0, 1.0],
           "lambda": 0.5,
           "alpha": [{"site": 1, "coeff": 0.5}, {"site": 2, "coeff": 0.5}]}
    code, text = _run(tmp_path, ["lambda-check"], doc)
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "pass"
    doc["lambda"] = 0.3
    code, text = _run(tmp_path, ["lambda-check"], doc, name="fail.json")
    report = json.loads(text)
    assert report["verdict"] == "fail"


def test_lambda_max_command(tmp_path):
    code, text = _run(tmp_path, ["lambda-max"], WORKED_DOC)
    assert code == 0
    assert json.loads(text)["lambda_max"] == pytest.approx(2.0, abs=1e-12)


def test_lambda_check_labels_l1_support_one_based(tmp_path):
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "lambda-check",
           "functionals": PATH_DOC["functionals"], "y": [1.0, 1.0],
           "lambda": 0.5, "alpha": [{"site": 1, "coeff": 0.5}]}
    code, text = _run(tmp_path, ["lambda-check"], doc)
    assert code == 0
    assert json.loads(text)["support"] == [1]
    doc["alpha"] = [{"site": 2, "coeff": 0.5}, {"site": 1, "coeff": 0.5}]
    code, text = _run(tmp_path, ["lambda-check"], doc, name="two.json")
    assert code == 0
    assert json.loads(text)["support"] == [1, 2]


@pytest.mark.parametrize("space, sites", [
    ("l1", [0]),
    ("l1", [-1]),
    ("l1", [2.7]),
    ("l1", [2 ** 20 + 1]),
    ("l1", [1, 2, 1]),
    ("gaussian-measure", [0.5, 0.5]),
])
def test_lambda_check_rejects_bad_sites(tmp_path, capsys, space, sites):
    doc = {"schema": "rkbs-sparse/1", "space": space, "task": "lambda-check",
           "y": [1.0, 1.0], "lambda": 0.5,
           "alpha": [{"site": s, "coeff": 0.5} for s in sites]}
    if space == "l1":
        doc["functionals"] = PATH_DOC["functionals"]
    else:
        doc.update(sigma=1.0, centers=[-1.0, 1.0])
    code, text = _run(tmp_path, ["lambda-check"], doc)
    assert code == 2
    assert text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert "site" in err["error"]["message"]


@pytest.mark.parametrize("doc, lam", [
    ({"schema": "rkbs-sparse/1", "space": "l1", "task": "reg",
      "functionals": [{"kind": "harmonic"}, {"kind": "geometric", "ratio": -0.5},
                      {"kind": "finite", "values": [0.8, -1.2, 0.4]}],
      "y": [1.0, 0.6, -0.7]}, 0.15),
    ({"schema": "rkbs-sparse/1", "space": "gaussian-measure", "task": "reg",
      "sigma": 1.0, "centers": [-3.0, 0.0, 2.5], "y": [1.0, -0.5, 0.8]}, 0.1),
])
def test_lambda_check_matches_solution_certificate(tmp_path, doc, lam):
    from rkbs_sparse import regpath
    parsed = cli.parse_problem(dict(doc, **{"lambda": lam}), {})
    problem = regpath.RegProblem(base=parsed.base, lam=lam)
    sol = regpath.reg_solve(problem)
    assert len(sol.atoms) >= 2
    cert = regpath.solution_certificate(problem, sol,
                                        10.0 * parsed.base.options.tol)
    check = dict(doc, task="lambda-check", **{"lambda": lam},
                 alpha=[{"site": s, "coeff": c} for s, c in sol.atoms])
    code, text = _run(tmp_path, ["lambda-check"], check)
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "pass"
    assert report["support"] == list(cert.support)
    assert report["equality_residuals"] == list(cert.equality_residuals)
    assert report["worst_inequality_slack"] == min(cert.inequality_slacks,
                                                   default=0.0)


def test_lambda_max_uncertified_tail_is_a_solver_failure(tmp_path, capsys):
    # the second functional differs from the first only at coordinate 1,
    # so ||L^T y|| is 1e-9 while the harmonic tails cancel only in value:
    # their certified bound stays above it up to the truncation cap
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "mni",
           "functionals": [{"kind": "harmonic"},
                           {"kind": "scaled-sum", "weights": [1.0, 1.0],
                            "children": [{"kind": "harmonic"},
                                         {"kind": "finite", "values": [1e-9]}]}],
           "y": [1.0, -1.0]}
    code, text = _run(tmp_path, ["lambda-max"], doc)
    assert code == 3
    assert text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == 3
    assert "tail" in err["error"]["message"]


def test_path_csv_output(tmp_path):
    code, text = _run(tmp_path, ["path", "--format", "csv"], PATH_DOC)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "lambda,atoms,l1_norm,objective"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[1] == "2"
    assert float(first[2]) == pytest.approx(1.0, abs=1e-8)
    last = lines[3].split(",")
    assert last[1] == "0"


def test_path_json_output(tmp_path):
    code, text = _run(tmp_path, ["path"], PATH_DOC)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert [r["atoms"] for r in rows] == [2, 2, 0]


def test_oracle_verify_l1(tmp_path):
    code, text = _run(tmp_path, ["oracle-verify"], WORKED_DOC)
    assert code == 0
    assert json.loads(text)["agreement"] is True


def test_oracle_verify_seeded_finite_instance(tmp_path):
    import numpy as np
    rng = np.random.default_rng(1234)
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "mni",
           "functionals": [
               {"kind": "finite",
                "values": [round(v, 3) for v in rng.uniform(-2, 2, 4)]},
               {"kind": "finite",
                "values": [round(v, 3) for v in rng.uniform(-2, 2, 4)]},
           ],
           "y": [1.0, -0.5]}
    code, text = _run(tmp_path, ["oracle-verify"], doc)
    assert code == 0
    assert json.loads(text)["agreement"] is True


def test_oracle_verify_gaussian(tmp_path):
    code, text = _run(tmp_path, ["oracle-verify"], GAUSS_DOC)
    assert code == 0
    report = json.loads(text)
    assert report["agreement"] is True
    assert report["duality_gap"] <= 1e-6


def test_oracle_verify_gaussian_feasibility_includes_the_scan_error_bound(tmp_path):
    code, text = _run(tmp_path, ["oracle-verify"], GAUSS_DOC)
    report = json.loads(text)
    attain_tol = report["provenance"]["options"]["attain_tol"]
    assert report["scan_error_bound"] <= attain_tol * (1.0 + 1e-12)
    assert report["grid_sup"] + report["scan_error_bound"] <= 1.0 + 2.0 * attain_tol


def test_oracle_verify_gaussian_rejects_a_scaled_dual(tmp_path, monkeypatch):
    import dataclasses
    solve = cli._measure.mni_solve_measure

    def scaled(problem):
        sol = solve(problem)
        cert = sol.certificate
        c = tuple(v * (1.0 + 1e-6) for v in cert.coefficients)
        return dataclasses.replace(sol, certificate=dataclasses.replace(cert, coefficients=c))

    monkeypatch.setattr(cli._measure, "mni_solve_measure", scaled)
    code, text = _run(tmp_path, ["oracle-verify"], GAUSS_DOC)
    assert code == cli.EXIT_MISMATCH
    assert json.loads(text)["agreement"] is False


def test_oracle_verify_lp_requires_p2(tmp_path):
    doc = {"schema": "rkbs-sparse/1", "space": "lp", "task": "mni", "p": 3.0,
           "functionals": WORKED_DOC["functionals"], "y": [1.0, 1.0]}
    code, _ = _run(tmp_path, ["oracle-verify"], doc)
    assert code == 4


def test_oracle_verify_lp_p2(tmp_path):
    doc = {"schema": "rkbs-sparse/1", "space": "lp", "task": "mni", "p": 2.0,
           "functionals": WORKED_DOC["functionals"], "y": [1.0, 1.0]}
    code, text = _run(tmp_path, ["oracle-verify"], doc)
    assert code == 0
    assert json.loads(text)["max_coordinate_gap"] <= 1e-6


@pytest.mark.parametrize("command", ["solve", "oracle-verify"])
def test_l1_request_solves_its_dual_once(tmp_path, monkeypatch, command):
    from rkbs_sparse import sequence
    calls = []
    solve = sequence.dual_solve_l1

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sequence, "dual_solve_l1", counted)
    code, _ = _run(tmp_path, [command], WORKED_DOC)
    assert code == 0
    assert len(calls) == 1


def test_demo_passes(capsys):
    assert cli.run_demo() == 0
    out = capsys.readouterr().out
    assert "rank pair = (2, 1)" in out
    assert "all checks passed" in out
    lines = out.splitlines()
    assert "solver vertex c = [1, 0]" in lines
    assert "minimal-attainment pass returned c = [0, 1]" in lines


def test_demo_loose_tol_insensitive():
    assert cli.run_demo(tol=1e-6, attain_tol=1e-6) == 0


def test_demo_abusive_attain_tol_warns(capsys):
    assert cli.run_demo(attain_tol=0.3) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "rank pair" in captured.out


def test_missing_file_is_validation_error(tmp_path):
    out = tmp_path / "out.json"
    code = cli.main(["solve", str(tmp_path / "nope.json"),
                     "--output", str(out)])
    assert code == 2


@pytest.mark.parametrize("options", [
    {"truncation_start": "abc"}, {"tol": "x"}, {"grid_step": "a"},
    {"max_exchange_iters": None}, {"truncation_start": 2.7},
    {"max_exchange_iters": 1.5}, {"tol": None}, {"truncation_start": True},
    {"truncation_start": 10 ** 400},
])
def test_invalid_option_values_are_validation_errors(tmp_path, capsys, options):
    doc = dict(WORKED_DOC, options=options)
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 2
    assert text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == 2


def test_whole_and_null_option_values_are_accepted(tmp_path):
    doc = dict(WORKED_DOC, options={"truncation_start": 64.0, "grid_step": None,
                                    "max_exchange_iters": 50, "tol": 1e-9})
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 0
    assert json.loads(text)["provenance"]["options"]["truncation_start"] == 64


def test_solver_failure_exit_code(tmp_path, capsys):
    # an attainment tolerance this close to 1 makes the tail certificate
    # unreachable, which must surface as a solver failure
    doc = {"schema": "rkbs-sparse/1", "space": "l1", "task": "mni",
           "functionals": [{"kind": "harmonic"}], "y": [1.0],
           "options": {"attain_tol": 0.99999995}}
    code, text = _run(tmp_path, ["solve"], doc)
    assert code == 3
    assert text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == 3


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args, golden", [
    (["path", "path-l1.json"], "path-l1.path.json"),
    (["path", "path-l1.json", "--format", "csv"], "path-l1.path.csv"),
    (["solve", "reg-l1.json"], "reg-l1.solve.json"),
])
def test_reports_match_golden_files_byte_for_byte(tmp_path, args, golden):
    command, problem, *rest = args
    out = tmp_path / "report"
    assert cli.main([command, str(ROOT / "bench" / "problems" / problem), *rest,
                     "--output", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()


def test_lp_report_matches_its_golden_file_byte_for_byte(tmp_path):
    # the worked example at p = 2; its coordinates equal the normal equations'
    out = tmp_path / "report"
    data = ROOT / "tests" / "data"
    assert cli.main(["solve", str(data / "lp-contrast.json"), "--output", str(out)]) == 0
    assert out.read_bytes() == (data / "lp-contrast.solve.json").read_bytes()
