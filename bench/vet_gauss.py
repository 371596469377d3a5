"""Solve the first 600 entries of the gauss-mni instance family and list the failures.

Run from the repository root:  python3 bench/vet_gauss.py
The benchmark times entries 0..23 of this family (``inputs.gauss_panel``);
this script reproduces the solver faults seen further into it.  Each
entry is solved once under a 2 GB address-space limit and a 60 s alarm,
so the exchange method's unbounded grid growth ends in a MemoryError
instead of exhausting the machine.
"""

import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import resource  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import rkbs_sparse as rk  # noqa: E402

ENTRIES = 600
ALARM_S = 60


def _alarm(signum, frame):
    raise TimeoutError(f"{ALARM_S} s alarm")


def main():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    signal.signal(signal.SIGALRM, _alarm)
    failing = []
    for index in range(ENTRIES):
        problem = inputs.build_gauss(rk, inputs.gauss_entry(index))
        t0 = time.perf_counter()
        signal.alarm(ALARM_S)
        try:
            rk.mni_solve_measure(problem)
            status = "ok"
        except (rk.RkbsError, MemoryError, TimeoutError) as exc:
            status = f"FAIL {type(exc).__name__}"
            failing.append(index)
        finally:
            signal.alarm(0)
        print(f"{index} n={problem.n} {time.perf_counter() - t0:.3f}s {status}", flush=True)
    print("failing:", failing)


if __name__ == "__main__":
    main()
