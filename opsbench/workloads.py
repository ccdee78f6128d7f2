"""The benchmark's three workloads: inputs, one op, and the check on its output.

Each workload builds its plan in ``setup`` (which returns the plan, whether
the set-up checks passed, and the saved plan file's size), renders inputs from a
``SeedSequence`` in ``make_input`` (outside any timed region), runs one op
against the public library API in ``op`` and judges the op's output in
``check``.  Library calls go through module attributes (``ksparse.recover``,
``plan_mod.build_plan``, ...) so that an installed tracer sees them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from opsparse import boxcar, dct, jacobi, ksparse, onesparse
from opsparse import plan as plan_mod


def plan_arrays(obj) -> list[np.ndarray]:
    """Every numpy array reachable from ``obj``'s attributes, each once.

    Walks instance dicts, dicts (weak ones too), lists and tuples in a fixed
    order, so two plans of the same shape list their arrays alike.
    """
    seen: set[int] = set()
    out = []
    stack = [obj]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if isinstance(cur, np.ndarray):
            out.append(cur)
        elif isinstance(cur, (list, tuple)):
            stack.extend(reversed(cur))
        elif callable(getattr(cur, "values", None)):  # dicts, weak ones too
            stack.extend(reversed(list(cur.values())))
        elif hasattr(cur, "__dict__"):
            stack.extend(reversed(list(vars(cur).values())))
    return out


@dataclass
class Input:
    """One op's generated input; ``algo_seq`` seeds the algorithm's own rng."""

    values: np.ndarray
    truth: Any
    noisy: bool
    algo_seq: np.random.SeedSequence


@dataclass(frozen=True)
class Workload:
    name: str
    alpha: float
    beta: float
    n: int
    # Nominal seconds per op on the reference machine.  It fixes how many
    # ops a run of ``--seconds`` makes, so that a seed names the same ops
    # (and the same query counts) on every machine and every version.
    op_s_nominal: float
    warmup_ops: int
    # Sparse workloads hand the op a counted oracle over the input vector.
    sparse: bool = True
    # Plan builds in an untraced run; setup_s is their median.
    setup_reps: int = 3

    @property
    def params(self) -> jacobi.JacobiParams:
        return jacobi.JacobiParams(self.alpha, self.beta)

    def op_count(self, seconds: float) -> int:
        return max(1, round(seconds / self.op_s_nominal))

    def min_success(self, noisy: bool) -> float:
        """Share of ops that must pass, by the library's acceptance criteria."""
        return 1.0


@dataclass(frozen=True)
class KSparse(Workload):
    """``recover`` trials, alternating clean and noisy, as in criterion 8."""

    k: int = 2
    delta: float = 0.05
    mu: float = 0.1
    gamma: float = 1.0

    def config(self) -> ksparse.ReductionConfig:
        return ksparse.ReductionConfig.calibrated(self.k, self.delta, self.mu,
                                                  self.gamma)

    def setup(self, workdir):
        cfg = self.config()
        probe = boxcar.build_boxcar(math.pi / 2.0, cfg.boxcar_width(),
                                    cfg.boxcar_eps())
        plan = plan_mod.build_plan(self.params, self.n, degree=probe.degree)
        if self.n <= plan_mod.DENSE_CACHE_LIMIT:
            plan.matrix()  # the lazy dense F that every correlation reads
        return plan, True, 0.0

    def make_input(self, plan, seq, i: int) -> Input:
        synth_seq, algo_seq = seq.spawn(2)
        rng = np.random.default_rng(synth_seq)
        cfg = self.config()
        noisy = i % 2 == 1
        min_sep = math.ceil(3.0 * self.gamma / (2.0 * math.pi) * self.n)
        while True:
            support = np.sort(rng.choice(self.n, size=self.k, replace=False))
            if self.k == 1 or int(np.diff(support).min()) > min_sep:
                break
        values = rng.uniform(0.5, 2.0, size=self.k) * rng.choice([-1.0, 1.0],
                                                                  size=self.k)
        clean = np.zeros(self.n)
        clean[support] = values
        spectrum = clean
        if noisy:
            w = rng.standard_normal(self.n)
            noise = cfg.delta / (2.0 * cfg.c_big)
            spectrum = clean + w * (noise * np.abs(values).min() / np.linalg.norm(w))
        return Input(plan.inverse(spectrum), clean, noisy, algo_seq)

    def op(self, plan, oracle, rng):
        return ksparse.recover(plan, oracle, self.config(),
                               one_sparse_solver=onesparse.solve_one_sparse,
                               rng=rng)

    def check(self, inp: Input, out) -> bool:
        err = np.linalg.norm(out.to_dense(self.n) - inp.truth)
        return bool(err <= 3.0 * self.delta * np.linalg.norm(inp.truth))

    def describe(self, out) -> tuple:
        return tuple(sorted((int(h), float(v)) for h, v in out.items()))

    def min_success(self, noisy: bool) -> float:
        return 0.8 if noisy else 0.9  # criterion 8: 40/50 noisy, 45/50 clean


@dataclass(frozen=True)
class OneSparse(Workload):
    """``solve_one_sparse`` on one spike, half clean, half with 1% noise."""

    eps: float = 0.01
    mu: float = 0.02
    noise: float = 0.01

    def setup(self, workdir):
        return plan_mod.build_plan(self.params, self.n), True, 0.0

    def make_input(self, plan, seq, i: int) -> Input:
        synth_seq, algo_seq = seq.spawn(2)
        rng = np.random.default_rng(synth_seq)
        ell = int(rng.integers(0, self.n))
        v = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        # Row ell of F, computed as plan.row does but without filling its cache.
        row = jacobi.orthonormal_table(self.params, self.n - 1,
                                       plan.lam[ell:ell + 1])[:, 0]
        y = v * math.sqrt(plan.weights[ell]) * row
        noisy = i % 2 == 1
        if noisy:
            w = rng.standard_normal(self.n)
            y = y + w * (self.noise * abs(v) / np.linalg.norm(w))
        return Input(y, (ell, v), noisy, algo_seq)

    def op(self, plan, oracle, rng):
        try:
            return onesparse.solve_one_sparse(plan, oracle, self.eps, self.mu, rng)
        except onesparse.RecoveryError:
            return None

    def check(self, inp: Input, out) -> bool:
        ell, v = inp.truth
        return (out is not None and out.index == ell
                and abs(out.value - v) <= 13.0 * self.eps * abs(v))

    def describe(self, out) -> tuple:
        return () if out is None else (int(out.index), float(out.value))

    def min_success(self, noisy: bool) -> float:
        return 0.9 if noisy else 0.95  # criterion 7: 180/200, 190/200


@dataclass(frozen=True)
class Transform(Workload):
    """Dense path: forward, inverse and the Chebyshev-Fourier bridge."""

    sparse: bool = False
    round_trip_tol: float = 1e-10
    bridge_n: int = 64
    bridge_tol: float = 1e-9

    def setup(self, workdir):
        built = plan_mod.build_plan(self.params, self.n)
        path = os.path.join(workdir, f"plan-{os.getpid()}.bin")
        try:
            plan_mod.save_plan(built, path)
            loaded = plan_mod.load_plan(path)
            file_mb = os.path.getsize(path) / 1e6
        finally:
            if os.path.exists(path):
                os.remove(path)
        saved, got = plan_arrays(built), plan_arrays(loaded)
        same = (built.U == loaded.U and built.params == loaded.params
                and len(saved) == len(got)
                and all(np.array_equal(s, t) for s, t in zip(saved, got)))
        return loaded, same, file_mb

    def make_input(self, plan, seq, i: int) -> Input:
        x = np.random.default_rng(seq).standard_normal(self.n)
        return Input(x, None, False, seq)

    def op(self, plan, x, rng):
        back = plan.inverse(plan.forward(x))
        try:
            chat = dct.chebyshev_via_fourier(x)
        except dct.EmbeddingConsistencyError:
            chat = None
        return back, chat

    def check(self, inp: Input, out) -> bool:
        back, chat = out
        x = inp.values
        if chat is None or not np.all(np.isfinite(chat)):
            return False
        if float(np.abs(back - x).max()) > self.round_trip_tol:
            return False
        small = x[: self.bridge_n]
        dev = np.abs(dct.chebyshev_via_fourier(small)
                     - dct.chebyshev_transform_direct(small)).max()
        return bool(dev <= self.bridge_tol)

    def describe(self, out) -> tuple:
        back, chat = out
        return (float(back.sum()), None if chat is None else float(chat.sum()))


WORKLOADS = {w.name: w for w in (
    KSparse("ksparse-legendre-n2048", 0.0, 0.0, 2048,
            op_s_nominal=0.35, warmup_ops=2, setup_reps=7),
    OneSparse("onesparse-legendre-n8192", 0.0, 0.0, 8192,
              op_s_nominal=1.4, warmup_ops=1),
    Transform("transform-jacobi-n4096", 1.5, -0.3, 4096,
              op_s_nominal=0.175, warmup_ops=2, setup_reps=5),
)}
