"""Span tracing of the calls into rkbs_sparse's modules, from outside the package.

``Tracer.install`` replaces every public function of the seven modules
(and ``SeqProblem.coordinate_matrix``) with a timing wrapper, on every
module that binds the name: ``lp_solve`` is bound in ``optim``,
``sequence`` and ``measure``, and the package namespace re-exports most
names.  ``uninstall`` restores the originals.

Spans (name, start, end, parent, operation) are kept in flat arrays in
memory and written out once, at the end, by ``save``.  The counts behind
the per-layer metrics (README.md) are read from arguments and return
values: LP shapes, the truncation level of l1 certificates and the
exchange iterations of Gaussian certificates.  The simplex pivot loop
(``optim._bland_phase``) is timed without a span of its own, so that
``lp_solve``'s self time still includes its pivots while the pivot share
can be read apart.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "rkbs_sparse"
MODULES = ("core", "optim", "sequence", "measure", "regpath", "oracle", "cli")
ROOT = "op"


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__):
            yield name, value


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._patches = []
        self.lp_rows = 0
        self.lp_cols = 0
        self.truncations = []
        self.exchange_iters = []
        self.pivot_s = defaultdict(float)
        # per request: dual_solve_l1 calls and the distinct problems they solved
        self.dual_calls = []
        self.dual_keys = []

    # -- spans ------------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def operation(self, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op += 1
        self.dual_calls.append(0)
        self.dual_keys.append(set())
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, qualname, fn, observe=None):
        nid = self._id(qualname)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def _timed_pivots(self, fn):
        tracer = self

        def pivots(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                top = tracer._stack[-1]
                owner = tracer.names[tracer.name_of[top]] if top >= 0 else ROOT
                tracer.pivot_s[owner] += time.perf_counter() - t0

        return pivots

    def _observe_lp(self, args, kwargs, result):
        lp = args[0] if args else kwargs["lp"]
        rows, cols = lp.A.shape
        self.lp_rows += rows
        self.lp_cols += cols

    def _observe_dual_l1(self, args, kwargs, result):
        self.truncations.append(result.truncation_used)
        problem = args[0] if args else kwargs["problem"]
        minimal = bool(args[1]) if len(args) > 1 else bool(kwargs.get("minimal_attainment", False))
        if self.dual_calls:
            self.dual_calls[-1] += 1
            self.dual_keys[-1].add((problem, minimal))

    def _observe_exchange(self, args, kwargs, result):
        self.exchange_iters.append(result.exchange_iters)

    def install(self):
        observers = {"optim.lp_solve": self._observe_lp,
                     "sequence.dual_solve_l1": self._observe_dual_l1,
                     "measure.dual_solve_semiinfinite": self._observe_exchange}
        for short in MODULES:
            importlib.import_module(f"{PACKAGE}.{short}")
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replace = {}
        for short in MODULES:
            module = loaded[f"{PACKAGE}.{short}"]
            for name, fn in _public_functions(module):
                qual = f"{short}.{name}"
                replace[id(fn)] = (fn, self._wrap(qual, fn, observers.get(qual)))
        optim = loaded[f"{PACKAGE}.optim"]
        bland = getattr(optim, "_bland_phase", None)
        if bland is not None:
            replace[id(bland)] = (bland, self._timed_pivots(bland))
        for module in loaded.values():
            for name, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])
        seq_problem = loaded[f"{PACKAGE}.core"].SeqProblem
        original = seq_problem.coordinate_matrix
        self._patches.append((seq_problem, "coordinate_matrix", original))
        seq_problem.coordinate_matrix = self._wrap("core.coordinate_matrix", original)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ------------------------------------------------------

    def requests(self):
        return self._op + 1

    def per_name(self):
        """{name: (calls, total seconds, self seconds)} over all spans."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(count):
            rec = out[self.names[self.name_of[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def dual_solves(self):
        """(dual_solve_l1 calls, distinct dual problems) over requests that solved one."""
        calls = sum(c for c in self.dual_calls if c)
        distinct = sum(len(k) for k in self.dual_keys if k)
        return calls, distinct

    def save(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
