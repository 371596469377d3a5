"""Show that every correctness check passes real outputs and rejects perturbed ones.

Run from the root of a checkout:  python3 bench/selftest.py
Exits 0 when every real output passes and every perturbed output is
rejected by the check it targets; prints one line per case.
"""

import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
import rkbs_sparse as rk  # noqa: E402

results = []


def expect(name, failures, want_pass, must_name=None):
    ok = (not failures) if want_pass else bool(failures)
    if ok and must_name is not None:
        ok = any(must_name in f for f in failures)
    results.append(ok)
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {name}: {'pass' if not failures else failures}")


def l1_cases():
    inst = inputs.seq_specs(7, 5)[4]
    sol = rk.mni_solve_l1(inputs.build_seq(rk, inst))
    ref = checks.l1_reference(inst)
    atoms = tuple(sol.atoms)
    expect("l1 real output", checks.check_l1(inst, sol.norm, atoms, ref), True)
    expect("l1 norm off by 1e-6", checks.check_l1(inst, sol.norm * (1 + 1e-6), atoms, ref),
           False, "optimum_matches_highs")
    bent = ((atoms[0][0], atoms[0][1] * (1 + 1e-6)),) + atoms[1:]
    expect("l1 coefficient off by 1e-6", checks.check_l1(inst, sol.norm, bent, ref),
           False, "interpolates")
    extra = atoms + tuple((10_000 + k, 1e-3) for k in range(len(inst[1])))
    expect("l1 more than n atoms", checks.check_l1(inst, sol.norm, extra, ref),
           False, "atoms_at_most_n")


def gauss_cases():
    entry = inputs.gauss_entry(1)
    sol = rk.mni_solve_measure(inputs.build_gauss(rk, entry))
    c = sol.certificate.coefficients
    atoms = tuple(sol.atoms)
    expect("gauss real output", checks.check_gauss(entry, c, sol.tv_norm, atoms), True)
    expect("gauss dual scaled by 1 + 1e-5",
           checks.check_gauss(entry, [v * (1 + 1e-5) for v in c], sol.tv_norm, atoms),
           False, "dual_feasible_on_grid")
    expect("gauss TV norm off by 1e-5", checks.check_gauss(entry, c, sol.tv_norm + 1e-5, atoms),
           False, "tv_equals_dual_value")
    moved = ((atoms[0][0] + 1e-4, atoms[0][1]),) + atoms[1:]
    expect("gauss atom moved by 1e-4", checks.check_gauss(entry, c, sol.tv_norm, moved),
           False, "interpolates")
    warm = workloads.GaussMni.warmup(rk)
    expect("closed form real output", workloads.GaussMni(0).check_warmup(warm), True)
    expect("closed form atom at 1e-5", checks.check_gauss_closed_form(
        ((1e-5, math.sqrt(math.e)),)), False, "atom_at_zero")


def path_cases():
    work = workloads.RegPath(3)
    index = 0
    inst, grid = work.pool[index], work.grids[index]
    rows = work.run(rk, (index, inputs.build_seq(rk, inst)))
    refs = [checks.lasso_reference(inst, lam) for lam in grid]
    lam_max = checks.lambda_max_reference(inst)
    expect("path real output", checks.check_path_rows(inst, grid, rows, refs, lam_max), True)
    lam, atoms, norm, obj, err = rows[1]
    bumped = list(rows)
    bumped[1] = (lam, atoms, norm, obj * (1 + 1e-6), err)
    expect("path objective off by 1e-6", checks.check_path_rows(inst, grid, bumped, refs, lam_max),
           False, "objective_matches")
    bumped = list(rows)
    bumped[1] = (lam, atoms, norm * (1 + 1e-5), obj, err)
    expect("path l1 norm off by 1e-5", checks.check_path_rows(inst, grid, bumped, refs, lam_max),
           False, "l1_norm_matches")
    top = list(rows)
    lam, atoms, norm, obj, err = top[-1]
    top[-1] = (lam, 1, norm, obj, err)
    expect("path atom above lambda_max", checks.check_path_rows(inst, grid, top, refs, lam_max),
           False, "zero_above_lambda_max")


def cli_cases():
    cold = workloads.CliCold(0)
    items, outputs = [], []
    for item in workloads.CLI_CALLS:
        items.append(item)
        outputs.append(cold.run(None, item))
    expect("cli real reports", cold.check(items, outputs), True)
    names = [name for name, _ in items]
    index = names.index("solve_l1")
    stdout, rss = outputs[index]
    report = json.loads(stdout)
    report["optimal_value"] *= 1 + 1e-6
    bumped = list(outputs)
    bumped[index] = (json.dumps(report).encode(), rss)
    expect("cli solve value off by 1e-6", cold.check(items, bumped), False, "solve_l1")
    expect("cli reports not byte-identical",
           cold.check(items + [items[index]], outputs + [(stdout + b" ", rss)]),
           False, "differs")
    demo = names.index("demo")
    for old, new, target in ((b"m0 = 1\n", b"m0 = 1.000001\n", "m0"),
                             (b"c = [1, 0]", b"c = [1.000001, 0]", "dual optimal"),
                             (b"[(1.0, 1.0)]", b"[(1.0, 1.000001)]", "interpolates")):
        bumped = list(outputs)
        bumped[demo] = (outputs[demo][0].replace(old, new), rss)
        expect(f"cli demo {old.decode().strip()} -> {new.decode().strip()}",
               cold.check(items, bumped), False, target)
    try:
        cold.run(None, ("solve_missing", ["solve", "missing.json"]))
        failures = []
    except RuntimeError as exc:
        failures = [str(exc)]
    expect("cli non-zero exit raises", failures, False, "exit code")


if __name__ == "__main__":
    l1_cases()
    gauss_cases()
    path_cases()
    cli_cases()
    print(f"{sum(results)}/{len(results)} cases as expected")
    sys.exit(0 if all(results) else 1)
