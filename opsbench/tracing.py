"""Spans around calls into opsparse's modules, recorded from outside the library.

The tracer swaps public names for timing wrappers while it is installed and
restores them afterwards:

* module globals that callers look up at call time (``ksparse.peeler``,
  ``ksparse.verify``, ``ksparse.build_boxcar``, ``onesparse.prune`` and its
  sibling stages, ``plan.compute_roots``, the ``_kernels`` functions, ...);
* methods of ``TransformPlan``, ``SimulatedAccess`` and ``SparseApprox``;
* the entry points the benchmark itself calls (``plan.build_plan``,
  ``ksparse.recover``, ``onesparse.solve_one_sparse``, ...).

A span is (name, start, end, parent, op, note).  ``note`` keeps what a
counter needs from the call: whether it returned a result, raised, or the
filter degree.  Spans stay in memory until ``save`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from opsparse import _kernels, dct, ksparse, onesparse
from opsparse import plan as plan_mod

KERNELS = ("apply_forward", "apply_adjoint", "recurrence_table",
           "recurrence_last", "sumsq_maxabs", "refine_roots")
# Flops per (root, degree) step of the forward and adjoint recurrences:
# (a x + b) p - c p' is 5, plus 2 for the multiply-add into the result.
FLOPS_PER_STEP = 7
RAISED = "raised"
STAGES = ("near_zero", "near_pi", "non_spread", "arccos", "failed")


def _found(result):
    return result is not None


def _degree(result):
    return result.degree


def _module_targets():
    """(owner, attribute, span name, note) for every wrapped name."""
    out = [(_kernels, k, f"_kernels.{k}", None) for k in KERNELS]
    out += [
        (plan_mod, "compute_roots", "jacobi.compute_roots", None),
        (plan_mod, "compute_weights", "jacobi.compute_weights", None),
        (plan_mod, "build_plan", "plan.build_plan", None),
        (plan_mod, "save_plan", "plan.save_plan", None),
        (plan_mod, "load_plan", "plan.load_plan", None),
        (ksparse, "recover", "ksparse.recover", None),
        (ksparse, "peeler", "ksparse.peeler", None),
        (ksparse, "verify", "ksparse.verify", bool),
        (ksparse, "build_boxcar", "boxcar.build_boxcar", _degree),
        (onesparse, "solve_one_sparse", "onesparse.solve_one_sparse", None),
        (onesparse, "prune", "onesparse.prune", _found),
        (onesparse, "prune_non_spread", "onesparse.prune_non_spread", _found),
        (onesparse, "approx_arccos", "onesparse.approx_arccos", None),
        (onesparse, "query_cos", "onesparse.query_cos", None),
        (onesparse, "bad_intervals", "numtheory.bad_intervals", None),
        (dct, "chebyshev_via_fourier", "dct.chebyshev_via_fourier", None),
    ]
    for meth in ("matrix", "forward", "inverse", "filter_band"):
        out.append((plan_mod.TransformPlan, meth, f"plan.{meth}", None))
    out += [
        (ksparse.SimulatedAccess, "__init__", "ksparse.SimulatedAccess.init", None),
        (ksparse.SimulatedAccess, "query_many",
         "ksparse.SimulatedAccess.query_many", None),
        (ksparse.SparseApprox, "add", "ksparse.SparseApprox.add", None),
    ]
    return out


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.note: list[object] = []
        self.stack: list[int] = []
        self.active = False
        self.current_op = -1

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.note.append(None)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = time.perf_counter()
                self.note[idx] = (RAISED, type(exc).__name__)
                raise
            else:
                self.end[idx] = time.perf_counter()
                if note is not None:
                    self.note[idx] = note(result)
                return result
            finally:
                self.stack.pop()

        return traced

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call, timed on a no-op."""
        def noop():
            return None

        probe = Tracer()
        probe.active = True
        wrapped = probe.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, note in _module_targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write every span as parallel arrays (names interned) to ``path``."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )


class CountingOracle(ksparse.QueryOracle):
    """QueryOracle that also splits reads by caller and tracks distinct indices.

    Reads made while a ``ksparse.verify`` span is open count as verify
    queries; all others count as solver queries.  Values returned are those
    of the base class, unchanged.
    """

    def __init__(self, values, tracer: Tracer):
        super().__init__(values)
        self._tracer = tracer
        self._seen = np.zeros(len(self), dtype=bool)
        self.by_caller = Counter()
        self.note_s = 0.0  # time spent on this bookkeeping, part of the overhead
        self._query_many = tracer.wrap("ksparse.QueryOracle.query_many",
                                       super().query_many)

    def _note(self, idx) -> None:
        t0 = time.perf_counter()
        caller = "verify" if self._tracer.inside("ksparse.verify") else "solver"
        self.by_caller[caller] += np.size(idx)
        self._seen[idx] = True
        self.note_s += time.perf_counter() - t0

    def query_many(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        self._note(idx)
        return self._query_many(idx)

    def query(self, i):
        self._note(i)
        return super().query(i)

    def distinct(self) -> int:
        return int(self._seen.sum())


def _stage(tracer: Tracer, children: list[int]) -> str:
    """Which stage call resolved one solve_one_sparse span."""
    prunes = 0
    arccos = False
    for c in children:
        name = tracer.names[c]
        if name == "onesparse.approx_arccos":
            arccos = True
        elif name == "onesparse.prune":
            prunes += 1
            if tracer.note[c] is True:
                if arccos:
                    return "arccos"
                return "near_zero" if prunes == 1 else "near_pi"
        elif name == "onesparse.prune_non_spread" and tracer.note[c] is True:
            return "non_spread"
    return "failed"



def summarize(tracer: Tracer, n: int) -> dict[str, float]:
    """Per-layer totals over every recorded span.

    Seconds are summed wall time inside the named calls; ``.self_s`` removes
    the time covered by child spans; ``.calls`` counts spans.
    """
    count = len(tracer)
    dur = [tracer.end[i] - tracer.start[i] for i in range(count)]
    children: list[list[int]] = [[] for _ in range(count)]
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            children[p].append(i)
    own = [dur[i] - sum(dur[c] for c in children[i]) for i in range(count)]
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for i, name in enumerate(tracer.names):
        total[name] += dur[i]
        self_time[name] += own[i]
        calls[name] += 1

    def under(name, parent_name):
        return [i for i in range(count) if tracer.names[i] == name
                and tracer.parent[i] >= 0
                and tracer.names[tracer.parent[i]] == parent_name]

    m: dict[str, float] = {}
    m["jacobi.compute_roots_s"] = total["jacobi.compute_roots"]
    m["jacobi.compute_weights_s"] = total["jacobi.compute_weights"]
    m["plan.build_plan.self_s"] = total["plan.build_plan"] - sum(
        dur[i] for i in under("jacobi.compute_roots", "plan.build_plan")
        + under("jacobi.compute_weights", "plan.build_plan"))
    m["plan.build_plan_s"] = total["plan.build_plan"]
    m["plan.matrix_s"] = total["plan.matrix"]
    m["plan.filter_band_s"] = total["plan.filter_band"]
    m["plan.filter_band.calls"] = calls["plan.filter_band"]
    m["plan.forward_s"] = total["plan.forward"]
    m["plan.forward.calls"] = calls["plan.forward"]
    m["plan.inverse_s"] = total["plan.inverse"]
    m["plan.save_plan_s"] = total["plan.save_plan"]
    m["plan.load_plan_s"] = total["plan.load_plan"]
    for k in KERNELS:
        m[f"kernels.{k}_s"] = total[f"_kernels.{k}"]
        m[f"kernels.{k}.calls"] = calls[f"_kernels.{k}"]
    for k in ("apply_forward", "apply_adjoint"):
        m[f"kernels.{k}.gflop_computed"] = (
            calls[f"_kernels.{k}"] * n * n * FLOPS_PER_STEP / 1e9)

    degrees = [tracer.note[i] for i in range(count)
               if tracer.names[i] == "boxcar.build_boxcar"
               and isinstance(tracer.note[i], int)]
    m["boxcar.build_boxcar_s"] = total["boxcar.build_boxcar"]
    m["boxcar.build_boxcar.calls"] = calls["boxcar.build_boxcar"]
    m["boxcar.degree.p50"] = float(np.median(degrees)) if degrees else 0.0

    solves = [i for i in range(count)
              if tracer.names[i] == "onesparse.solve_one_sparse"]
    stages = Counter(_stage(tracer, children[i]) for i in solves)
    errors = sum(tracer.note[i] == (RAISED, "RecoveryError") for i in solves)
    m["onesparse.solve_one_sparse_s"] = total["onesparse.solve_one_sparse"]
    m["onesparse.solve_one_sparse.calls"] = len(solves)
    m["onesparse.prune.self_s"] = self_time["onesparse.prune"]
    m["onesparse.prune.calls"] = calls["onesparse.prune"]
    m["onesparse.recovery_errors"] = errors
    for s in STAGES:
        m[f"onesparse.stage.{s}"] = stages[s]
    m["onesparse.query_cos.calls"] = calls["onesparse.query_cos"]
    m["numtheory.bad_intervals.calls"] = calls["numtheory.bad_intervals"]

    draws = under("onesparse.solve_one_sparse", "ksparse.peeler")
    solved = sum(tracer.note[i] is None for i in draws)
    verifies = under("ksparse.verify", "ksparse.peeler")
    commits = len(under("ksparse.SparseApprox.add", "ksparse.peeler"))
    m["ksparse.recover_s"] = total["ksparse.recover"]
    m["ksparse.draws"] = len(draws)
    m["ksparse.passband_rejects"] = solved - len(verifies)
    m["ksparse.verify_rejects"] = sum(tracer.note[i] is False for i in verifies)
    m["ksparse.commits"] = commits
    m["ksparse.commit_ratio"] = commits / len(draws) if draws else 0.0
    m["ksparse.SimulatedAccess.init_s"] = total["ksparse.SimulatedAccess.init"]
    m["ksparse.SimulatedAccess.query_many.self_s"] = self_time[
        "ksparse.SimulatedAccess.query_many"]
    m["ksparse.verify_s"] = total["ksparse.verify"]
    m["ksparse.QueryOracle.query_many_s"] = total["ksparse.QueryOracle.query_many"]
    m["dct.chebyshev_via_fourier_s"] = total["dct.chebyshev_via_fourier"]
    m["trace.spans"] = count
    m["trace.op_self_s"] = sum(own[i] for i in range(count) if tracer.op[i] >= 0)
    m["trace.op_spans"] = sum(op >= 0 for op in tracer.op)
    return m
