"""The four workloads: their rounds of operations, warm-up and checks.

A workload yields rounds of items.  ``run(rk, item)`` performs one
operation and returns its output as plain data; ``check(items, outputs)``
compares every output of the run against references computed here,
after the timed loop.  A run attempts whole rounds, so its failure share
does not depend on its length: l1-mni cycles through a seed-drawn pool in
rounds of 50, gauss-mni and reg-path run a fixed panel per round in a
seeded order, and cli-cold runs its nine calls per round.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBLEMS = HERE / "problems"


def child_env():
    """Environment for CLI children: the package from the checkout, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- l1-mni ------------------------------------------------------------------

class L1Mni:
    """mni_solve_l1 on seeded acceptance-style instances (n <= 4, K starts at 256)."""

    POOL = 300
    ROUND = 50

    def __init__(self, seed):
        self.pool = inputs.seq_specs(seed, self.POOL)

    def rounds(self, rk):
        problems = [inputs.build_seq(rk, inst) for inst in self.pool]
        for start in itertools.cycle(range(0, self.POOL, self.ROUND)):
            yield [(i, problems[i]) for i in range(start, start + self.ROUND)]

    @staticmethod
    def warmup(rk):
        problem = rk.seq_problem([rk.harmonic(), rk.geometric(-0.5)], [1.0, 1.0])
        return rk.mni_solve_l1(problem)

    @staticmethod
    def run(rk, item):
        sol = rk.mni_solve_l1(item[1])
        return sol.norm, tuple(sol.atoms)

    def check(self, items, outputs):
        refs = {}
        bad = []
        for (index, _), (norm, atoms) in zip(items, outputs):
            if index not in refs:
                refs[index] = checks.l1_reference(self.pool[index])
            bad.extend(f"l1 instance {index}: {m}"
                       for m in checks.check_l1(self.pool[index], norm, atoms, refs[index]))
        return bad


# -- gauss-mni ---------------------------------------------------------------

class GaussMni:
    """mni_solve_measure, sigma 1; a round is the whole fixed panel, in a seeded order."""

    def __init__(self, seed):
        self.panel = inputs.gauss_panel(seed)

    def rounds(self, rk):
        problems = [(entry, inputs.build_gauss(rk, entry)) for entry in self.panel]
        while True:
            yield problems

    @staticmethod
    def warmup(rk):
        return rk.mni_solve_measure(inputs.build_gauss(rk, inputs.GAUSS_CLOSED_FORM))

    @staticmethod
    def run(rk, item):
        sol = rk.mni_solve_measure(item[1])
        return sol.certificate.coefficients, sol.tv_norm, tuple(sol.atoms)

    def check(self, items, outputs):
        bad = []
        for (entry, _), (c, tv, atoms) in zip(items, outputs):
            bad.extend(f"gauss n={len(entry[0])}: {m}"
                       for m in checks.check_gauss(entry, c, tv, atoms))
        return bad

    def check_warmup(self, sol):
        """The closed-form instance, solved as the warm-up operation."""
        c = sol.certificate.coefficients
        return (checks.check_gauss(inputs.GAUSS_CLOSED_FORM, c, sol.tv_norm, tuple(sol.atoms))
                + checks.check_gauss_closed_form(tuple(sol.atoms)))


# -- reg-path ----------------------------------------------------------------

PATH_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.7, 1.05)


class RegPath:
    """sparsity_path on a fixed panel of l1 instances, lambda from 0.05 to 1.05 lambda_max.

    A round is the whole panel in a seeded order.  The panel is the same
    for every seed because path times spread over two orders of magnitude
    between instances: seed-drawn pools of 120 moved ops_per_s by 29%
    (quartile spread over five seeds).
    """

    PANEL = 120
    PANEL_SEED = 20240608

    def __init__(self, seed):
        self.pool = inputs.seq_specs(self.PANEL_SEED, self.PANEL)
        self.grids = [inputs.lambda_grid(inst, PATH_FRACTIONS) for inst in self.pool]
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(self.PANEL)]

    def rounds(self, rk):
        problems = [(i, inputs.build_seq(rk, self.pool[i])) for i in self.order]
        while True:
            yield problems

    @staticmethod
    def warmup(rk):
        problem = rk.seq_problem([rk.harmonic(), rk.geometric(-0.5)], [1.0, 1.0])
        return rk.sparsity_path(problem, [0.1, 0.5, 2.0])

    def run(self, rk, item):
        rows = rk.sparsity_path(item[1], self.grids[item[0]])
        return tuple((r.lam, r.atom_count, r.l1_norm, r.objective, r.error) for r in rows)

    def check(self, items, outputs):
        refs = {}
        bad = []
        for (index, _), rows in zip(items, outputs):
            inst = self.pool[index]
            if index not in refs:
                refs[index] = ([checks.lasso_reference(inst, lam) for lam in self.grids[index]],
                               checks.lambda_max_reference(inst))
            ref_rows, lam_max = refs[index]
            bad.extend(f"path instance {index}: {m}" for m in
                       checks.check_path_rows(inst, self.grids[index], rows, ref_rows, lam_max))
        return bad


# -- cli-cold ----------------------------------------------------------------

CLI_CALLS = (
    ("solve_l1", ["solve", "solve-l1.json"]),
    ("solve_l1_large", ["solve", "solve-l1-large.json"]),
    ("solve_gauss", ["solve", "solve-gauss.json"]),
    ("solve_reg", ["solve", "reg-l1.json"]),
    ("dual", ["dual", "solve-l1.json"]),
    ("lambda_max", ["lambda-max", "solve-l1.json"]),
    ("path", ["path", "path-l1.json"]),
    ("oracle_verify", ["oracle-verify", "solve-l1.json"]),
    ("demo", ["demo"]),
)


def cli_argv(args):
    return [str(PROBLEMS / a) if a.endswith(".json") else a for a in args]


def cli_command(args):
    return [sys.executable, "-m", "rkbs_sparse.cli"] + cli_argv(args)


def load_problem(name):
    with open(PROBLEMS / name) as handle:
        return json.load(handle)


def _seq_instance(doc):
    specs = []
    for f in doc["functionals"]:
        if f["kind"] == "harmonic":
            specs.append(("harmonic",))
        elif f["kind"] == "geometric":
            specs.append(("geometric", float(f["ratio"])))
        else:
            specs.append(("finite", tuple(float(v) for v in f["values"])))
    return tuple(specs), tuple(float(v) for v in doc["y"])


def _atoms(report):
    return tuple((a["site"], a["coeff"]) for a in report["atoms"])


DEMO_INSTANCE = ((("harmonic",), ("geometric", -0.5)), (1.0, 1.0))


def check_demo(stdout):
    """The demo's printed optimum, dual vectors, truncation matrices and atoms."""
    text = stdout.decode()
    if not text.rstrip().endswith("all checks passed"):
        return ["demo: no 'all checks passed' line"]
    specs, y = DEMO_INSTANCE
    ref = checks.l1_reference(DEMO_INSTANCE)
    value, _, gap = ref
    tol = checks.L1_VALUE_RTOL * (1.0 + value) + gap

    def grab(pattern):
        found = re.search(pattern, text, re.M)
        return [ast.literal_eval(g) for g in found.groups()] if found else None

    m0 = grab(r"^dual optimum m0 = (\S+)$")
    duals = [grab(r"^solver vertex c = (\[.*\])$"),
             grab(r"^minimal-attainment pass returned c = (\[.*\])$")]
    solution = grab(r"^solution atoms = (\[.*\])  l1 norm = (\S+)$")
    selections = re.findall(r"^.*: attainment (\[.*\])\n  V = (\[.*\])  rank (\d+)$", text, re.M)
    if m0 is None or None in duals or solution is None or len(selections) != 2:
        return ["demo: report lines missing"]
    bad = [] if abs(m0[0] - value) <= tol else [f"demo: m0 {m0[0]!r} vs {value!r}"]
    for (c,) in duals:
        if checks.l1_dual_sup(specs, c) > 1.0 + 1e-9 or abs(float(np.dot(c, y)) - value) > tol:
            bad.append(f"demo: c = {c} is not dual optimal")
    for sites, matrix, rank in selections:
        sites = ast.literal_eval(sites)
        want = checks.coordinates(specs, max(sites))[:, [k - 1 for k in sites]]
        got = np.array(ast.literal_eval(matrix))
        if (got.shape != want.shape or float(np.max(np.abs(got - want))) > 1e-12
                or int(rank) != np.linalg.matrix_rank(want)):
            bad.append(f"demo: truncation matrix at {sites}")
    atoms, norm = solution
    bad.extend(f"demo: {m}" for m in checks.check_l1(DEMO_INSTANCE, norm, tuple(atoms), ref))
    return bad


def check_cli_report(name, args, stdout):
    """One CLI call's report against the independent references."""
    if name == "demo":
        return check_demo(stdout)
    report = json.loads(stdout)
    doc = load_problem(args[-1])
    if name == "solve_gauss":
        inst = (tuple(doc["centers"]), float(doc["sigma"]), tuple(doc["y"]))
        return [f"{name}: {m}" for m in checks.check_gauss(
            inst, report["dual"]["c"], report["optimal_value"], _atoms(report))]
    inst = _seq_instance(doc)
    if name in ("solve_l1", "solve_l1_large"):
        ref = checks.l1_reference(inst)
        return [f"{name}: {m}" for m in checks.check_l1(
            inst, report["optimal_value"], _atoms(report), ref)]
    if name in ("dual", "oracle_verify"):
        value, _, gap = checks.l1_reference(inst)
        got = report["optimal_value"] if name == "dual" else report["solver_value"]
        ok = abs(got - value) <= checks.L1_VALUE_RTOL * (1.0 + value) + gap
        agree = name == "dual" or report["agreement"] is True
        return [] if ok and agree else [f"{name}: value {got!r} vs {value!r}"]
    if name == "lambda_max":
        want = checks.lambda_max_reference(inst)
        got = report["lambda_max"]
        return [] if abs(got - want) <= 1e-12 * (1.0 + want) else [f"{name}: {got!r} vs {want!r}"]
    if name == "solve_reg":
        lam = float(doc["lambda"])
        ref = checks.lasso_reference(inst, lam)
        row = (lam, len(report["atoms"]), report["diagnostics"]["l1_norm"],
               report["optimal_value"], None)
        return [f"{name}: {m}" for m in checks.check_path_rows(
            inst, [lam], [row], [ref], checks.lambda_max_reference(inst))]
    lambdas = [float(v) for v in doc["lambdas"]]
    rows = [(r["lambda"], r["atoms"], r["l1_norm"], r["objective"], r["error"])
            for r in report["rows"]]
    refs = [checks.lasso_reference(inst, lam) for lam in lambdas]
    return [f"{name}: {m}" for m in checks.check_path_rows(
        inst, lambdas, rows, refs, checks.lambda_max_reference(inst))]


class CliCold:
    """The CLI in fresh processes, one after another, over fixed problem files."""

    def __init__(self, seed):
        pass  # the calls and files are fixed; the seed picks nothing

    def rounds(self, rk=None):
        while True:
            yield list(CLI_CALLS)

    @staticmethod
    def warmup(rk=None):
        return CliCold.run(rk, ("demo", ["demo"]))

    @staticmethod
    def run(rk, item, command=None):
        """One CLI call: (stdout, the child's peak RSS in KiB); raises if it exits non-zero."""
        name, args = item
        err = []
        with subprocess.Popen(command or cli_command(args), env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()), daemon=True)
            reader.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:  # the per-operation alarm: end the child before leaving
                proc.kill()
                raise
            finally:
                reader.join()
        if proc.returncode != 0:
            tail = err[0].decode(errors="replace")[-300:] if err else ""
            raise RuntimeError(f"{name}: exit code {proc.returncode}: {tail}")
        return out, usage.ru_maxrss

    def check(self, items, outputs):
        bad = []
        first = {}
        for (name, args), (stdout, _) in zip(items, outputs):
            if name not in first:
                first[name] = stdout
                bad.extend(check_cli_report(name, args, stdout))
            elif stdout != first[name]:
                bad.append(f"{name}: report differs between calls")
        return bad


WORKLOADS = {"l1-mni": L1Mni, "gauss-mni": GaussMni, "reg-path": RegPath, "cli-cold": CliCold}
