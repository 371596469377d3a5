"""Command-line interface: problem ingestion, dispatch, reports.

Problem files and reports use the ``rkbs-sparse/1`` JSON schema.  Files
are validated completely (unknown fields rejected) before any solve
runs; numbers in reports are printed with 17 significant digits so
identical inputs produce byte-identical reports.  Exit codes: 0 success,
1 check mismatch, 2 validation error, 3 solver failure, 4 oracle
refusal.  Errors are emitted as a single-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (ConvergenceError, DomainError, OracleRefusal, RkbsError,
                   SeqProblem, SequenceFunctional, SolverOptions, finite,
                   gauss_problem, geometric, harmonic, scaled_sum, seq_problem)
from . import measure as _measure
from . import oracle as _oracle
from . import regpath as _regpath
from . import sequence as _sequence

SCHEMA = "rkbs-sparse/1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(obj)


class ValidationError(DomainError):
    pass


def _require_keys(obj: Dict[str, Any], allowed: Dict[str, bool], where: str):
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"unknown field {key!r} in {where}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ValidationError(f"missing field {key!r} in {where}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where} is out of range") from None


def _number_list(value, where: str) -> List[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where} must be a nonempty list of numbers")
    return [_number(v, where) for v in value]


def _parse_functional(spec, where: str) -> SequenceFunctional:
    if not isinstance(spec, dict):
        raise ValidationError(f"{where} must be an object")
    kind = spec.get("kind")
    if kind == "harmonic":
        _require_keys(spec, {"kind": True}, where)
        return harmonic()
    if kind == "geometric":
        _require_keys(spec, {"kind": True, "ratio": True}, where)
        return geometric(_number(spec["ratio"], where + ".ratio"))
    if kind == "finite":
        _require_keys(spec, {"kind": True, "values": True}, where)
        return finite(_number_list(spec["values"], where + ".values"))
    if kind == "scaled-sum":
        _require_keys(spec, {"kind": True, "weights": True, "children": True}, where)
        weights = _number_list(spec["weights"], where + ".weights")
        children = [_parse_functional(ch, f"{where}.children[{i}]")
                    for i, ch in enumerate(spec["children"])]
        if len(weights) != len(children):
            raise ValidationError(f"{where}: weights and children lengths differ")
        return scaled_sum(weights, children)
    raise ValidationError(f"{where}: unknown functional kind {kind!r}")


_OPTION_KEYS = {"tol": False, "attain_tol": False, "truncation_start": False,
                "grid_step": False, "max_exchange_iters": False}
_WHOLE_OPTIONS = ("truncation_start", "max_exchange_iters")


def _parse_options(spec, overrides: Dict[str, Any]) -> SolverOptions:
    fields: Dict[str, Any] = {}
    if spec is not None:
        if not isinstance(spec, dict):
            raise ValidationError("options must be an object")
        _require_keys(spec, _OPTION_KEYS, "options")
        fields.update(spec)
    fields.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in fields.items():
        if key == "grid_step" and value is None:
            continue  # null selects the default grid step
        number = _number(value, "options." + key)
        if key in _WHOLE_OPTIONS:
            if not number.is_integer():
                raise ValidationError(f"options.{key} must be a whole number")
            number = int(number)
        fields[key] = number
    try:
        return SolverOptions(**fields)
    except DomainError as exc:
        raise ValidationError(str(exc))


_TOP_KEYS = {"schema": True, "space": True, "task": True, "y": True,
             "functionals": False, "p": False, "sigma": False,
             "centers": False, "domain": False, "lambda": False,
             "lambdas": False, "alpha": False, "loss": False,
             "options": False}


@dataclasses.dataclass
class ParsedProblem:
    space: str
    task: str
    base: Any
    p: Optional[float] = None
    lam: Optional[float] = None
    lambdas: Optional[List[float]] = None
    alpha: Optional[List[Tuple[float, float]]] = None


def parse_problem(doc: Any, option_overrides: Dict[str, Any]) -> ParsedProblem:
    """Validate a problem document and build the solver inputs."""
    if not isinstance(doc, dict):
        raise ValidationError("problem file must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "problem")
    if doc["schema"] != SCHEMA:
        raise ValidationError(f"unsupported schema {doc['schema']!r}; expected {SCHEMA!r}")
    space = doc["space"]
    task = doc["task"]
    if space not in ("l1", "lp", "gaussian-measure"):
        raise ValidationError(f"unknown space {space!r}")
    if task not in ("mni", "reg", "dual", "lambda-check", "path"):
        raise ValidationError(f"unknown task {task!r}")
    if doc.get("loss", "square") != "square":
        raise ValidationError("only the square loss is supported")
    y = _number_list(doc["y"], "y")
    options = _parse_options(doc.get("options"), option_overrides)

    if space in ("l1", "lp"):
        if "functionals" not in doc:
            raise ValidationError(f"space {space!r} requires functionals")
        for key in ("sigma", "centers", "domain"):
            if key in doc:
                raise ValidationError(f"field {key!r} is only valid for gaussian-measure")
        try:
            functionals = [_parse_functional(f, f"functionals[{i}]")
                           for i, f in enumerate(doc["functionals"])]
            if len(functionals) != len(y):
                raise ValidationError("functionals and y lengths differ")
            base = seq_problem(functionals, y, options)
        except DomainError as exc:
            raise ValidationError(str(exc))
    else:
        for key in ("functionals", "p"):
            if key in doc:
                raise ValidationError(f"field {key!r} is not valid for gaussian-measure")
        if "sigma" not in doc or "centers" not in doc:
            raise ValidationError("gaussian-measure requires sigma and centers")
        centers = _number_list(doc["centers"], "centers")
        domain = None
        if "domain" in doc:
            dom = _number_list(doc["domain"], "domain")
            if len(dom) != 2:
                raise ValidationError("domain must be [lo, hi]")
            domain = (dom[0], dom[1])
        try:
            base = gauss_problem(centers, _number(doc["sigma"], "sigma"), y,
                                 domain, options)
        except DomainError as exc:
            raise ValidationError(str(exc))

    parsed = ParsedProblem(space=space, task=task, base=base)
    if space == "lp":
        if "p" not in doc:
            raise ValidationError("space 'lp' requires the field p")
        parsed.p = _number(doc["p"], "p")
        if not 1.0 < parsed.p < math.inf:
            raise ValidationError("p must lie in (1, inf)")
    elif "p" in doc:
        raise ValidationError("field 'p' is only valid for space 'lp'")

    if task in ("reg", "lambda-check"):
        if "lambda" not in doc:
            raise ValidationError(f"task {task!r} requires the field lambda")
        parsed.lam = _number(doc["lambda"], "lambda")
        if not parsed.lam > 0:
            raise ValidationError("lambda must be strictly positive")
    if task == "path":
        if "lambdas" not in doc:
            raise ValidationError("task 'path' requires the field lambdas")
        parsed.lambdas = _number_list(doc["lambdas"], "lambdas")
        if not all(lam > 0 for lam in parsed.lambdas):
            raise ValidationError("lambdas must be strictly positive")
    if task == "lambda-check":
        alpha = doc.get("alpha")
        if not isinstance(alpha, list):
            raise ValidationError("task 'lambda-check' requires the field alpha")
        parsed.alpha = []
        for i, atom in enumerate(alpha):
            if not isinstance(atom, dict):
                raise ValidationError(f"alpha[{i}] must be an object")
            _require_keys(atom, {"site": True, "coeff": True}, f"alpha[{i}]")
            site = _number(atom["site"], "site")
            if space != "gaussian-measure" and not (
                    1 <= site <= _sequence.MAX_TRUNCATION and site.is_integer()):
                raise ValidationError(f"alpha[{i}].site must be an integer in "
                                      f"1..{_sequence.MAX_TRUNCATION}")
            if site in [s for s, _ in parsed.alpha]:
                raise ValidationError(f"alpha[{i}].site repeats an earlier site")
            parsed.alpha.append((site, _number(atom["coeff"], "coeff")))
    if task in ("mni", "dual") and ("lambda" in doc or "lambdas" in doc):
        raise ValidationError(f"task {task!r} takes no lambda fields")
    return parsed


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _provenance(options: SolverOptions) -> Dict[str, Any]:
    return {"tool": "rkbs-sparse", "version": __version__,
            "options": {"tol": options.tol, "attain_tol": options.attain_tol,
                        "truncation_start": options.truncation_start,
                        "grid_step": options.grid_step,
                        "max_exchange_iters": options.max_exchange_iters}}


def _atoms_json(atoms) -> List[Dict[str, float]]:
    return [{"site": site, "coeff": coeff} for site, coeff in atoms]


def _dual_json_seq(cert: _sequence.DualCertificate) -> Dict[str, Any]:
    return {"c": list(cert.coefficients), "value": cert.value,
            "attainment": [int(k) for k in cert.attainment],
            "truncation": cert.truncation_used, "margin": cert.margin}


def _dual_json_lp(sol: _sequence.LpSolution) -> Dict[str, Any]:
    return {"c": list(sol.dual_coefficients), "value": sol.value,
            "truncation": sol.truncation_used, "tail_bound": sol.tail_bound}


def _dual_json_measure(cert: _measure.ContinuousDualCertificate) -> Dict[str, Any]:
    return {"c": list(cert.coefficients), "value": cert.value,
            "attainment": list(cert.attain_points),
            "iterations": cert.exchange_iters,
            "final_violation": cert.final_violation,
            "refinement_stable": cert.refinement_stable}


def _solve_report(parsed: ParsedProblem) -> Dict[str, Any]:
    base = parsed.base
    head = {"schema": SCHEMA, "space": parsed.space, "task": parsed.task}
    if parsed.task == "mni":
        if parsed.space == "l1":
            sol = _sequence.mni_solve_l1(base)
            cert = sol.certificate
            return {**head, "optimal_value": sol.norm,
                    "dual": _dual_json_seq(cert),
                    "atoms": _atoms_json(sol.atoms),
                    "diagnostics": {"residual": sol.residual, "rank": sol.rank_bound,
                                    "n_attain": len(cert.attainment),
                                    "margin": cert.margin},
                    "provenance": _provenance(base.options)}
        if parsed.space == "lp":
            sol = _sequence.mni_solve_lp(base, parsed.p)
            lead = list(sol.coordinates(32))
            return {**head, "p": parsed.p, "optimal_value": sol.norm_p,
                    "dual": _dual_json_lp(sol),
                    "leading_coordinates": lead,
                    "diagnostics": {"residual": sol.interp_residual},
                    "provenance": _provenance(base.options)}
        sol = _measure.mni_solve_measure(base)
        cert = sol.certificate
        return {**head, "optimal_value": sol.tv_norm,
                "dual": _dual_json_measure(cert),
                "atoms": _atoms_json(sol.atoms),
                "diagnostics": {"residual": sol.residual, "rank": sol.rank_bound,
                                "n_attain": len(cert.attain_points)},
                "provenance": _provenance(base.options)}
    if parsed.task == "reg":
        problem = _regpath.RegProblem(base=base, lam=parsed.lam)
        sol = _regpath.reg_solve(problem)
        cert = _regpath.solution_certificate(problem, sol, 10.0 * base.options.tol)
        return {**head, "lambda": parsed.lam, "optimal_value": sol.dual_value,
                "atoms": _atoms_json(sol.atoms),
                "diagnostics": {"residual": sol.residual, "rank": sol.rank_bound,
                                "l1_norm": sol.norm,
                                "certificate_verdict": cert.verdict},
                "provenance": _provenance(base.options)}
    raise ValidationError(f"task {parsed.task!r} is not handled by solve")


def _dual_report(parsed: ParsedProblem) -> Dict[str, Any]:
    base = parsed.base
    head = {"schema": SCHEMA, "space": parsed.space, "task": "dual"}
    if parsed.space == "l1":
        cert = _sequence.dual_solve_l1(base)
        return {**head, "optimal_value": cert.value,
                "dual": _dual_json_seq(cert),
                "provenance": _provenance(base.options)}
    if parsed.space == "lp":
        sol = _sequence.mni_solve_lp(base, parsed.p)
        return {**head, "p": parsed.p, "optimal_value": sol.value,
                "dual": _dual_json_lp(sol),
                "provenance": _provenance(base.options)}
    cert = _measure.dual_solve_semiinfinite(base)
    return {**head, "optimal_value": cert.value,
            "dual": _dual_json_measure(cert),
            "provenance": _provenance(base.options)}


def _lambda_check_report(parsed: ParsedProblem) -> Dict[str, Any]:
    base = parsed.base
    cert = _regpath.atom_certificate(_regpath.RegProblem(base=base, lam=parsed.lam),
                                     parsed.alpha, 10.0 * base.options.tol)
    return {"schema": SCHEMA, "space": parsed.space, "task": "lambda-check",
            "lambda": parsed.lam,
            "verdict": "pass" if cert.verdict else "fail",
            "support": list(cert.support),
            "equality_residuals": list(cert.equality_residuals),
            "worst_equality_residual": max(cert.equality_residuals, default=0.0),
            "worst_inequality_slack": min(cert.inequality_slacks, default=0.0),
            "provenance": _provenance(base.options)}


def _lambda_max_report(parsed: ParsedProblem) -> Dict[str, Any]:
    return {"schema": SCHEMA, "space": parsed.space, "task": "lambda-max",
            "lambda_max": _regpath.certified_lambda_max(parsed.base),
            "provenance": _provenance(parsed.base.options)}


def _path_report(parsed: ParsedProblem, rows) -> Dict[str, Any]:
    return {"schema": SCHEMA, "space": parsed.space, "task": "path",
            "rows": [{"lambda": r.lam, "atoms": r.atom_count,
                      "l1_norm": r.l1_norm, "objective": r.objective,
                      "error": r.error} for r in rows],
            "provenance": _provenance(parsed.base.options)}


def _path_csv(rows) -> str:
    lines = ["lambda,atoms,l1_norm,objective"]
    for r in rows:
        lines.append(f"{_fmt_float(r.lam)},{r.atom_count},"
                     f"{_fmt_float(r.l1_norm)},{_fmt_float(r.objective)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracle verification
# ---------------------------------------------------------------------------

def _oracle_verify(parsed: ParsedProblem) -> Dict[str, Any]:
    base = parsed.base
    head = {"schema": SCHEMA, "space": parsed.space, "task": "oracle-verify"}
    if parsed.space == "l1":
        sol = _sequence.mni_solve_l1(base)
        cert = sol.certificate
        V = _sequence.truncation_matrix(base.functionals, cert.attainment,
                                        base.options.tol)
        report = _oracle.vertex_enumerate_l1(V.array, base.y_vector(),
                                             candidate_value=sol.norm)
        pairing = _oracle.norming_check(cert, sol, 1e-8)
        agree = bool(report.agreement) and bool(pairing.agreement)
        return {**head, "solver_value": sol.norm, "oracle_value": report.value,
                "norming_gap": pairing.value, "agreement": agree,
                "provenance": _provenance(base.options)}
    if parsed.space == "lp":
        if abs(parsed.p - 2.0) > 1e-12:
            raise OracleRefusal("the normal-equations oracle covers p = 2 only")
        sol = _sequence.mni_solve_lp(base, 2.0)
        oracle = _oracle.l2_min_norm(base, sol.truncation_used)
        upto = min(50, sol.truncation_used)
        gap = float(np.max(np.abs(sol.coordinates(upto)
                                  - oracle.witness["coordinates"][:upto])))
        return {**head, "p": 2.0, "solver_value": sol.norm_p,
                "oracle_value": oracle.value["norm"],
                "max_coordinate_gap": gap, "agreement": bool(gap <= 1e-6),
                "provenance": _provenance(base.options)}
    sol = _measure.mni_solve_measure(base)
    cert = sol.certificate
    c = cert.coefficient_vector()
    attain_tol = base.options.attain_tol
    # at this step the scan's error bound step^2 sum|c| / (2 sigma^2) is attain_tol;
    # sum|c| >= sup|sum_j c_j K(x_j, .)| = 1 for a certificate
    step = base.sigma * math.sqrt(2.0 * attain_tol / float(np.sum(np.abs(c))))
    scan = _oracle.grid_supremum(c, base, step)
    feasible = scan.value + scan.witness["error_bound"] <= 1.0 + 2.0 * attain_tol
    gap = abs(sol.tv_norm - cert.value)
    pairing = _oracle.norming_check_measure(cert, sol, base, 1e-6)
    agree = feasible and gap <= 1e-6 and bool(pairing.agreement)
    return {**head, "solver_value": sol.tv_norm, "dual_value": cert.value,
            "grid_sup": scan.value, "scan_error_bound": scan.witness["error_bound"],
            "duality_gap": gap, "norming_gap": pairing.value,
            "agreement": bool(agree), "provenance": _provenance(base.options)}


# ---------------------------------------------------------------------------
# demo: the two dual selections of the worked example
# ---------------------------------------------------------------------------

def run_demo(tol: float = 1e-9, attain_tol: float = 1e-7, out=None) -> int:
    """Reproduce the alternating-geometric worked example end to end.

    Solves the dual for the harmonic / geometric(-1/2) pair with
    y = [1, 1], evaluates two dual selections (the solver vertex
    [-1/2, 3/2] and the minimal-attainment choice [0, 1]), prints both
    truncation matrices and ranks, and checks the recovered solution.
    Returns 0 when all checks pass.
    """
    if out is None:
        out = sys.stdout
    abusive = attain_tol > 0.1
    if abusive:
        print(f"warning: attain_tol={attain_tol:g} may inflate the attainment "
              "set; rank bounds remain valid", file=sys.stderr)
    options = SolverOptions(tol=tol, attain_tol=attain_tol)
    problem = seq_problem([harmonic(), geometric(-0.5)], [1.0, 1.0], options)

    failures: List[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    sol = _sequence.mni_solve_l1(problem)
    cert = sol.certificate
    c = cert.coefficient_vector()
    print(f"dual optimum m0 = {cert.value:.17g}", file=out)
    print(f"solver vertex c = [{c[0]:.17g}, {c[1]:.17g}]", file=out)
    check("m0 = 1", abs(cert.value - 1.0) <= 1e-8, f"m0={cert.value!r}")
    check("vertex on the optimal segment",
          abs(c[0] + c[1] - 1.0) <= 1e-8 and -0.5 - 1e-8 <= c[0] <= 1.5 + 1e-8,
          f"c={c!r}")

    selections = {"vertex [-1/2, 3/2]": np.array([-0.5, 1.5]),
                  "minimal-attainment [0, 1]": np.array([0.0, 1.0])}
    expected = {"vertex [-1/2, 3/2]": ([1, 2], np.array([[1.0, 0.5], [1.0, -0.5]]), 2),
                "minimal-attainment [0, 1]": ([1], np.array([[1.0], [1.0]]), 1)}
    ranks: List[int] = []
    for name, coeffs in selections.items():
        sel = _sequence.certificate_from_coefficients(problem, coeffs)
        V = _sequence.truncation_matrix(problem.functionals, sel.attainment, tol)
        print(f"{name}: attainment {list(sel.attainment)}", file=out)
        print(f"  V = {V.array.tolist()}  rank {V.rank}", file=out)
        ranks.append(V.rank)
        want_attain, want_V, want_rank = expected[name]
        check(f"{name} rank <= 2", V.rank <= 2, f"rank={V.rank}")
        if not abusive:
            check(f"{name} attainment", list(sel.attainment) == want_attain,
                  f"{list(sel.attainment)} != {want_attain}")
            check(f"{name} matrix",
                  V.array.shape == want_V.shape
                  and float(np.max(np.abs(V.array - want_V))) <= 1e-12,
                  f"V={V.array.tolist()}")
            check(f"{name} rank", V.rank == want_rank, f"rank={V.rank}")

    cert_min = _sequence.dual_solve_l1(problem, minimal_attainment=True)
    cmin = cert_min.coefficient_vector()
    print(f"minimal-attainment pass returned c = [{cmin[0]:.17g}, {cmin[1]:.17g}]",
          file=out)
    if not abusive:
        check("minimal-attainment pass hits [0, 1]",
              float(np.max(np.abs(cmin - np.array([0.0, 1.0])))) <= 1e-8,
              f"c={cmin!r}")

    print(f"solution atoms = {list(sol.atoms)}  l1 norm = {sol.norm:.17g}", file=out)
    check("solution is the first coordinate atom",
          len(sol.atoms) == 1 and sol.atoms[0][0] == 1.0
          and abs(sol.atoms[0][1] - 1.0) <= 1e-8,
          f"atoms={sol.atoms!r}")
    check("strong duality", abs(sol.norm - cert.value) <= 1e-8)
    print(f"rank pair = ({ranks[0]}, {ranks[1]})", file=out)

    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=out)
        return EXIT_MISMATCH
    print("all checks passed", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _error(code: int, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}})
                     + "\n")
    return code


def _load(path: str, overrides: Dict[str, Any]) -> ParsedProblem:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"problem file is not valid JSON: {exc}")
    return parse_problem(doc, overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=float, default=None)
    shared.add_argument("--attain-tol", type=float, default=None)
    shared.add_argument("--truncation", type=int, default=None,
                        help="initial truncation level for sequence problems")
    shared.add_argument("--grid-step", type=float, default=None)
    shared.add_argument("--output", type=str, default=None)
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    parser = argparse.ArgumentParser(
        prog="rkbs-sparse",
        description="sparse interpolation and regularization solvers with "
                    "dual certificates and brute-force verification",
        parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "dual", "lambda-check", "lambda-max", "path",
                 "oracle-verify"):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("problem", help="path to a rkbs-sparse/1 problem file")
    sub.add_parser("demo", parents=[shared])

    args = parser.parse_args(argv)
    overrides = {"tol": args.tol, "attain_tol": args.attain_tol,
                 "truncation_start": args.truncation,
                 "grid_step": args.grid_step}

    if args.command == "demo":
        return run_demo(tol=args.tol if args.tol else 1e-9,
                        attain_tol=args.attain_tol if args.attain_tol else 1e-7)

    try:
        parsed = _load(args.problem, overrides)
        if args.command == "path" and parsed.task != "path":
            raise ValidationError("path requires task 'path'")
        if args.command in ("solve", "path") and parsed.task == "path":
            rows = _regpath.sparsity_path(parsed.base, parsed.lambdas)
            text = _path_csv(rows) if args.format == "csv" \
                else dumps(_path_report(parsed, rows)) + "\n"
            _emit(text, args.output)
            return EXIT_OK
        if args.command == "solve":
            if parsed.task == "dual":
                report = _dual_report(parsed)
            elif parsed.task == "lambda-check":
                report = _lambda_check_report(parsed)
            else:
                report = _solve_report(parsed)
        elif args.command == "dual":
            report = _dual_report(parsed)
        elif args.command == "lambda-check":
            if parsed.task != "lambda-check":
                raise ValidationError("lambda-check requires task 'lambda-check'")
            report = _lambda_check_report(parsed)
        elif args.command == "lambda-max":
            report = _lambda_max_report(parsed)
        else:  # oracle-verify
            report = _oracle_verify(parsed)
            _emit(dumps(report) + "\n", args.output)
            return EXIT_OK if report.get("agreement") else EXIT_MISMATCH
    except ValidationError as exc:
        return _error(EXIT_VALIDATION, str(exc))
    except OracleRefusal as exc:
        return _error(EXIT_ORACLE, str(exc))
    except (ConvergenceError, RkbsError) as exc:
        return _error(EXIT_SOLVER, str(exc))

    _emit(dumps(report) + "\n", args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
