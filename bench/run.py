"""Benchmark of rkbs-sparse: four single-kind workloads, checked outputs, optional trace.

Run from the root of a checkout:

    python3 bench/run.py --workload l1-mni --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (ops_per_s, op_p50_s, peak_rss_mb,
setup_s); with ``--trace 1`` they are the per-layer ones, from a run in
which every round is run twice, untraced and then traced, so that the
tracing overhead is measured on the same operations.  See README.md.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, fixed before numpy loads; CLI children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

SETUP_PROBES = 7
OP_TIMEOUT_S = 60           # an operation still running after this counts as failed
ADDRESS_SPACE = 2 << 30     # a runaway allocation raises MemoryError instead of exhausting the host

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_CALL = ("core.matrix_rank", "optim.lp_solve", "optim.basis_pursuit", "optim.prox_l1_solve",
            "sequence.dual_solve_l1", "measure.dual_solve_semiinfinite",
            "measure.find_attainment_points", "measure.gauss_eval", "regpath.reg_solve")
PER_SELF = ("core.matrix_rank", "core.coordinate_matrix", "optim.lp_solve", "optim.basis_pursuit",
            "optim.prox_l1_solve", "sequence.dual_solve_l1", "sequence.mni_solve_l1",
            "measure.dual_solve_semiinfinite", "measure.find_attainment_points",
            "measure.gauss_eval", "measure.mni_solve_measure", "regpath.sparsity_path",
            "regpath.reg_solve", "cli.parse_problem", "cli.dumps", "cli.main")
PER_LAYER = (
    [("core.import_s", "s")]
    + [(f"{name}.calls", "1/op") for name in PER_CALL]
    + [(f"{name}.self_s", "s/op") for name in PER_SELF]
    + [("oracle.self_s", "s/op"), ("optim.lp_solve.pivot_s", "s/op"),
       ("optim.basis_pursuit.pivot_s", "s/op"), ("optim.lp_solve.rows", "rows"),
       ("optim.lp_solve.cols", "cols"), ("sequence.truncation_used", "count"),
       ("sequence.dual_solves_per_request", "ratio"),
       ("sequence.dual_solves_per_request.solve_l1", "ratio"),
       ("measure.exchange_iters", "count"), ("trace.overhead", "share"),
       ("trace.ops", "count"), ("trace.spans_per_op", "1/op")])


def _alarm(signum, frame):
    raise TimeoutError(f"operation exceeded {OP_TIMEOUT_S} s")


# -- set-up probes -------------------------------------------------------------

def probe(workload):
    """In a fresh interpreter: time the package import, then one warm-up operation."""
    t0 = time.perf_counter()
    import rkbs_sparse as rk
    t1 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload].warmup(rk)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


def run_probe(workload):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--probe", workload],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: " + done.stderr.decode(errors="replace"))
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


# -- traced CLI child ------------------------------------------------------------

def cli_traced(summary_path, argv):
    """Run rkbs_sparse.cli.main(argv) under the tracer; write its summary and spans."""
    import rkbs_sparse.cli as cli
    from tracing import Tracer
    tracer = Tracer()
    with tracer.installed():
        code = tracer.operation(cli.main, argv)
    sys.stdout.flush()
    with open(summary_path, "w") as handle:
        json.dump(summarize(tracer), handle)
    tracer.save(str(summary_path)[:-len(".json")] + ".npz")
    return code


# -- trace summaries -------------------------------------------------------------

def summarize(tracer):
    calls, distinct = tracer.dual_solves()
    return {"ops": tracer.requests(), "per_name": tracer.per_name(),
            "lp_rows": tracer.lp_rows, "lp_cols": tracer.lp_cols,
            "truncations": tracer.truncations, "exchange_iters": tracer.exchange_iters,
            "pivot_s": dict(tracer.pivot_s), "dual_calls": calls, "dual_distinct": distinct,
            "spans": len(tracer.start)}


def merge(summaries):
    total = {"ops": 0, "per_name": {}, "lp_rows": 0, "lp_cols": 0, "truncations": [],
             "exchange_iters": [], "pivot_s": {}, "dual_calls": 0, "dual_distinct": 0, "spans": 0}
    for s in summaries:
        for key in ("ops", "lp_rows", "lp_cols", "dual_calls", "dual_distinct", "spans"):
            total[key] += s[key]
        total["truncations"] += s["truncations"]
        total["exchange_iters"] += s["exchange_iters"]
        for name, (calls, dur, own) in s["per_name"].items():
            rec = total["per_name"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += dur
            rec[2] += own
        for name, sec in s["pivot_s"].items():
            total["pivot_s"][name] = total["pivot_s"].get(name, 0.0) + sec
    return total


def per_layer_metrics(summary, import_s, overhead, solve_l1_ratio):
    ops = max(summary["ops"], 1)
    per = summary["per_name"]

    def calls(name):
        return per.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return per.get(name, (0, 0.0, 0.0))[2]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    values = {"core.import_s": import_s}
    for name in PER_CALL:
        values[f"{name}.calls"] = calls(name) / ops
    for name in PER_SELF:
        values[f"{name}.self_s"] = own(name) / ops
    lp_calls = calls("optim.lp_solve")
    values.update({
        "oracle.self_s": sum(v[2] for k, v in per.items() if k.startswith("oracle.")) / ops,
        "optim.lp_solve.pivot_s": summary["pivot_s"].get("optim.lp_solve", 0.0) / ops,
        "optim.basis_pursuit.pivot_s": summary["pivot_s"].get("optim.basis_pursuit", 0.0) / ops,
        "optim.lp_solve.rows": summary["lp_rows"] / lp_calls if lp_calls else 0.0,
        "optim.lp_solve.cols": summary["lp_cols"] / lp_calls if lp_calls else 0.0,
        "sequence.truncation_used": mean(summary["truncations"]),
        "sequence.dual_solves_per_request": (summary["dual_calls"] / summary["dual_distinct"]
                                             if summary["dual_distinct"] else 0.0),
        "sequence.dual_solves_per_request.solve_l1": solve_l1_ratio,
        "measure.exchange_iters": mean(summary["exchange_iters"]),
        "trace.overhead": overhead,
        "trace.ops": summary["ops"],
        "trace.spans_per_op": summary["spans"] / ops,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- the run -------------------------------------------------------------------

class Attempts:
    """Operations attempted in a run: items, outputs (or exceptions) and wall times."""

    def __init__(self):
        self.items, self.outputs, self.durations = [], [], []

    def attempt(self, run, rk, item):
        t0 = time.perf_counter()
        signal.alarm(OP_TIMEOUT_S)
        try:
            out = run(rk, item)
        except Exception as exc:  # counted as a failed operation
            out = exc
            print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            signal.alarm(0)
        self.durations.append(time.perf_counter() - t0)
        self.items.append(item)
        self.outputs.append(out)

    def failed(self):
        return sum(isinstance(o, Exception) for o in self.outputs)

    def completed_durations(self):
        return [d for d, o in zip(self.durations, self.outputs) if not isinstance(o, Exception)]


def timed_rounds(workload, rk, seconds, between, traced_run=None,
                 traced_scope=contextlib.nullcontext):
    """Whole rounds until ``seconds`` have passed; returns (plain, traced, plain wall).

    ``between(progress)`` runs after each round, outside the timed spans,
    with the share of ``seconds`` used so far.  With ``traced_run`` every
    round runs a second time through it, inside ``traced_scope``, so the
    traced and untraced attempts cover the same operations.
    """
    signal.signal(signal.SIGALRM, _alarm)
    plain, traced = Attempts(), Attempts()
    wall = traced_wall = 0.0
    for rnd in workload.rounds(rk):
        t0 = time.perf_counter()
        for item in rnd:
            plain.attempt(workload.run, rk, item)
        t1 = time.perf_counter()
        if traced_run is not None:
            with traced_scope():
                for item in rnd:
                    traced.attempt(traced_run, rk, item)
        wall += t1 - t0
        traced_wall += time.perf_counter() - t1
        if wall + traced_wall >= seconds:
            break
        between((wall + traced_wall) / seconds)
    return plain, traced, wall


def check_outputs(workload, items, outputs):
    good = [(i, o) for i, o in zip(items, outputs) if not isinstance(o, Exception)]
    if not good:
        return ["no operation completed"]
    try:
        return workload.check([i for i, _ in good], [o for _, o in good])
    except Exception as exc:  # a reference that cannot be computed verifies nothing
        return [f"reference failed: {type(exc).__name__}: {exc}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--cli-traced", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rkbs_sparse" / "__init__.py").is_file():
        print(f"error: the package sources are missing ({SRC / 'rkbs_sparse'})", file=sys.stderr)
        return 2
    if args.probe:
        probe(args.probe)
        return 0
    if args.cli_traced:
        return cli_traced(args.cli_traced[0], args.cli_traced[1:])

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    is_cli = args.workload == "cli-cold"

    # the set-up probes are spread over the run, one before the timed rounds and
    # the rest between them, so that no single slow phase of the host sets the median
    probes = [run_probe(args.workload)]

    def between(progress):
        while len(probes) < min(SETUP_PROBES, 1 + int(progress * SETUP_PROBES)):
            probes.append(run_probe(args.workload))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    import rkbs_sparse as rk
    warm = workload.warmup(rk)
    bad = workload.check_warmup(warm) if hasattr(workload, "check_warmup") else []

    tracer = None
    traced_run = None
    traced_scope = contextlib.nullcontext
    summaries = []
    if args.trace:
        from tracing import Tracer
        OUT.mkdir(exist_ok=True)
        if is_cli:
            counter = itertools.count()

            def traced_run(rk_, item):
                path = OUT / f"cli-{args.seed}-{next(counter)}.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--cli-traced", str(path)]
                out = workloads.CliCold.run(rk_, item, cmd + workloads.cli_argv(item[1]))
                with open(path) as handle:
                    summaries.append((item[0], json.load(handle)))
                return out
        else:
            tracer = Tracer()
            traced_scope = tracer.installed

            def traced_run(rk_, item):
                return tracer.operation(workload.run, rk_, item)

    plain, traced, wall = timed_rounds(workload, rk, args.seconds, between, traced_run,
                                       traced_scope)
    if is_cli:  # the largest timed CLI process
        peak_kib = max((o[1] for o in plain.outputs if not isinstance(o, Exception)), default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(probes) < SETUP_PROBES:
        probes.append(run_probe(args.workload))
    import_s = statistics.median(p["import_s"] for p in probes)
    # a CLI call pays its own import, so cli-cold's set-up is the warm-up call alone
    setup_s = statistics.median(p["warmup_s"] + (0.0 if is_cli else p["import_s"])
                                for p in probes)

    bad += check_outputs(workload, plain.items + traced.items, plain.outputs + traced.outputs)
    for message in bad[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = len(plain.items) + len(traced.items)
    failed = plain.failed() + traced.failed()
    completed = plain.completed_durations()

    if args.trace:
        if is_cli:
            summary = merge(s for _, s in summaries)
            l1 = merge(s for name, s in summaries if name == "solve_l1")
            solve_l1_ratio = l1["dual_calls"] / l1["dual_distinct"] if l1["dual_distinct"] else 0.0
        else:
            summary = summarize(tracer)
            tracer.save(str(OUT / f"trace-{args.workload}-{args.seed}.npz"))
            solve_l1_ratio = 0.0
        overhead = sum(traced.durations) / sum(plain.durations) - 1.0
        metrics = per_layer_metrics(summary, import_s, overhead, solve_l1_ratio)
    else:
        values = {"ops_per_s": len(completed) / wall,
                  "op_p50_s": statistics.median(completed) if completed else 0.0,
                  "peak_rss_mb": peak_kib / 1024.0, "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
