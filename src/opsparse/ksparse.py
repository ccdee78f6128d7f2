"""Reduction from k-sparse to 1-sparse recovery by filtered peeling.

The recovery loop repeatedly picks a random root, builds a boxcar filter
around its angle, and hands the filtered signal to a 1-sparse solver.  The
filter is applied implicitly: banded moment matrices turn one filtered-sample
query into at most 2d+1 queries against the raw signal.  Candidate spikes
must land inside the filter pass band and survive a sampled residual check
before being committed to the running sparse estimate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .boxcar import BoxcarFilter, build_boxcar
from .onesparse import SAMPLE_CAP, RecoveryError, estimate_norm, solve_one_sparse

__all__ = [
    "QueryOracle",
    "SparseApprox",
    "ReductionConfig",
    "SimulatedAccess",
    "large",
    "verify",
    "peeler",
    "recover",
]

# Fraction of dense-root angular spacing entering the failure budget.
_C0 = 1.0 / (2.0 * math.pi)
# The noise-parameter cap.
DELTA_CAP = 0.1
# A draw's energy floor is ENERGY_TAU * delta * R / sqrt(k), R = ||x - F^T zhat||.
# Spikes below delta R / sqrt(k) hold at most delta R in norm together, within
# the recovery bound, so a spike the peeler must find has |v| >= delta R / sqrt(k).
# Its boxcar keeps at least 1 - eps_box of it, so its draw's filtered norm is
# u >= (1 - eps_box)|v|: about twice the floor at 1/2, a margin for the
# sampling error of one round's u and of the estimate of R.
ENERGY_TAU = 0.5


def _indices(idx, n: int) -> np.ndarray:
    """idx as int64; IndexError unless all are integers in [0, n) (or none are)."""
    idx = np.asarray(idx)
    if idx.size:
        if not np.issubdtype(idx.dtype, np.integer):
            raise IndexError(f"indices must be integers, got dtype {idx.dtype}")
        lo, hi = idx.min(), idx.max()
        if lo < 0 or hi >= n:
            raise IndexError(f"indices {lo}..{hi} out of range for N={n}")
    return idx.astype(np.int64, copy=False)


class QueryOracle:
    """Counted entrywise access to a fixed vector.

    The counter increases by exactly one per entry access, including
    repeated accesses to the same index.  An index that is not an integer
    in [0, N) raises IndexError and leaves the counter untouched.
    """

    def __init__(self, values: np.ndarray):
        self._values = np.asarray(values, dtype=np.float64)
        self.count = 0

    def __len__(self) -> int:
        return len(self._values)

    def query(self, i: int) -> float:
        i = _indices(i, len(self._values))
        self.count += 1
        return float(self._values[i])

    def query_many(self, idx: np.ndarray) -> np.ndarray:
        idx = _indices(idx, len(self._values))
        self.count += idx.size
        return self._values[idx]


class SparseApprox:
    """Sparse spectral estimate: root index -> coefficient, no stored zeros."""

    def __init__(self, entries: dict[int, float] | None = None):
        self._entries: dict[int, float] = {}
        if entries:
            for h, v in entries.items():
                self.add(int(h), float(v))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, h: int) -> bool:
        return h in self._entries

    def get(self, h: int) -> float:
        return self._entries.get(h, 0.0)

    def add(self, h: int, v: float) -> None:
        """Accumulate v at index h, dropping the entry if it cancels to zero."""
        new = self._entries.get(h, 0.0) + v
        if new == 0.0:
            self._entries.pop(h, None)
        else:
            self._entries[h] = new

    def support(self) -> list[int]:
        return sorted(self._entries)

    def items(self):
        return self._entries.items()

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for h, v in self._entries.items():
            out[h] = v
        return out

    def copy(self) -> "SparseApprox":
        return SparseApprox(dict(self._entries))

    def image(self, plan) -> np.ndarray:
        """The dense image F^T zhat = sum of v * F[h]."""
        z = np.zeros(plan.n)
        for h, v in self._entries.items():
            z += v * plan.row(h)
        return z

    def __repr__(self) -> str:
        inner = ", ".join(f"{h}: {v:.6g}" for h, v in sorted(self._entries.items()))
        return f"SparseApprox({{{inner}}})"


@dataclass(frozen=True)
class ReductionConfig:
    """The recovery problem (k, delta, mu, gamma).

    The Theta(.) multipliers of the draw count, the verifier samples, the
    refinement passes and eps = delta / c_big are class constants, tuned
    against the acceptance suite; C_D, which sets the filter-degree budget,
    against the boxcar degrees over a grid of (k, delta, gamma).
    """

    k: int
    delta: float
    mu: float
    gamma: float

    # draws per pass: t0 = c_t0 log(1/mu0) / (C0 gamma)
    c_t0: ClassVar[float] = 1.0
    # verifier samples: T1 = c_t1 N U^2 log(1/mu) / eps^2
    c_t1: ClassVar[float] = 0.008
    # refinement passes: t2 = c_t2 k log(k/eps) / log(1/eps)
    c_t2: ClassVar[float] = 1.0
    # noise-to-accuracy ratio: eps = delta / c_big
    c_big: ClassVar[float] = 2.0
    # filter-degree budget: C_D log(1/eps_box) / gamma, the boxcar's own shape
    C_D: ClassVar[float] = 16.0

    def __post_init__(self):
        if (isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral)
                or self.k < 1):
            raise ValueError(f"k must be >= 1 and an integer, got {self.k!r}")
        for name in ("delta", "mu", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu!r}")
        if self.delta > DELTA_CAP:
            raise ValueError(f"delta={self.delta} exceeds the supported cap {DELTA_CAP}")
        if self.gamma > math.pi:
            raise ValueError("gamma must be at most pi")

    @classmethod
    def calibrated(cls, k: int, delta: float, mu: float,
                   gamma: float) -> "ReductionConfig":
        """The constructor's defaults; kept for callers written against it."""
        return cls(k, delta, mu, gamma)

    # -- derived quantities ---------------------------------------------

    def eps(self) -> float:
        return self.delta / self.c_big

    def mu0(self) -> float:
        return self.mu**2 * _C0**2 * self.gamma**2 / self.k**2

    def t0(self) -> int:
        return math.ceil(self.c_t0 * math.log(1.0 / self.mu0()) / (_C0 * self.gamma))

    def t2(self) -> int:
        e = self.eps()
        return math.ceil(self.c_t2 * self.k * math.log(self.k / e) / math.log(1.0 / e))

    def batch(self) -> int:
        """Draws between empty-list checks; a few expected pass-band hits."""
        return min(self.t0(), math.ceil(2.0 * math.pi / self.gamma))

    def boxcar_width(self) -> float:
        return self.gamma / 4.0

    def boxcar_eps(self) -> float:
        return self.eps() / math.sqrt(self.k)

    def degree_budget(self) -> int:
        return math.ceil(self.C_D * math.log(1.0 / self.boxcar_eps()) / self.gamma)


def large(s: int, x: np.ndarray) -> float:
    """Magnitude of the s-th largest entry of x by absolute value."""
    x = np.asarray(x)
    if not 1 <= s <= x.size:
        raise ValueError(f"s={s} out of range for a vector of size {x.size}")
    mags = np.abs(x.ravel())
    return float(np.partition(mags, x.size - s)[x.size - s])


class SimulatedAccess:
    """Filtered query access: each sample costs at most 2d+1 raw queries.

    Serves entries of p(J)(x - F^T zhat) = F^T D_b (x_hat - zhat), where b is
    the boxcar evaluated at the roots, from the plan's filter band applied to
    raw windows of x.  F^T D_b F = p(J) exactly, so zhat's part is its
    filtered image F^T (b * zhat) = sum_h b(lambda_h) v_h F[h], built once per
    filter in O(kN) and subtracted per sample rather than per raw read.
    """

    def __init__(self, plan, oracle, zhat: SparseApprox, filt: BoxcarFilter):
        self._plan = plan
        self._oracle = oracle
        self._band = plan.filter_band(filt)
        self._degree = filt.degree
        self._zf = np.zeros(plan.n)
        for h, v in zhat.items():
            self._zf += filt(plan.lam[h]) * v * plan.row(h)

    def query_many(self, js: np.ndarray) -> np.ndarray:
        """Filtered samples at indices js; each reads at most 2d+1 entries.

        All raw reads of a call go to the oracle in one request: the full
        windows of interior rows (d <= j < N-d) first, then the in-range
        part of the clipped windows of the edge rows.
        """
        n = self._plan.n
        js = _indices(js, n)
        d = self._degree
        w = 2 * d + 1
        offsets = np.arange(-d, d + 1)
        inner = (js >= d) & (js < n - d)
        rows_in, rows_edge = js[inner], js[~inner]
        win_edge = rows_edge[:, None] + offsets
        valid = (win_edge >= 0) & (win_edge < n)
        split = rows_in.size * w
        reads = np.empty(split + np.count_nonzero(valid), dtype=np.int64)
        np.add(rows_in[:, None], offsets, out=reads[:split].reshape(rows_in.size, w))
        reads[split:] = win_edge[valid]
        raw = self._oracle.query_many(reads)
        vals_edge = np.zeros(win_edge.shape)
        vals_edge[valid] = raw[split:]
        out = np.empty(js.size)
        out[inner] = np.einsum("ij,ij->i", self._band[rows_in],
                               raw[:split].reshape(rows_in.size, w))
        out[~inner] = np.einsum("ij,ij->i", self._band[rows_edge], vals_edge)
        out -= self._zf[js]
        return out


def _verify_samples(plan, mu: float, eps: float, c_t1: float) -> int:
    t1 = c_t1 * plan.n * plan.U**2 * math.log(1.0 / min(mu, 0.5)) / eps**2
    if not t1 <= SAMPLE_CAP:
        raise ValueError(f"verification needs {t1:.0f} samples, above the cap "
                         f"{SAMPLE_CAP}; raise delta")
    return int(max(16.0, math.ceil(t1)))


def verify(plan, y_access, v: float, h: int, mu: float, eps: float, rng,
           c_t1: float) -> bool:
    """Sampled residual test of the claim 'the filtered signal is v at h'.

    Estimates ||y - v F[h]||^2 from T1 uniform samples (residuals clamped to
    100|v|U to tame outliers) and accepts when the estimate is at most
    v^2/1000.  A zero claimed value is rejected outright.
    """
    if v == 0.0:
        return False
    t1 = _verify_samples(plan, mu, eps, c_t1)
    js = rng.integers(0, plan.n, size=t1)
    resid = y_access.query_many(js) - v * plan.row(h)[js]
    cap = 100.0 * abs(v) * plan.U
    np.clip(resid, -cap, cap, out=resid)
    g = (plan.n / t1) * float(resid @ resid)
    return g <= v * v / 1000.0


def peeler(plan, oracle, zhat: SparseApprox, cfg: ReductionConfig,
           one_sparse_solver, rng) -> tuple[SparseApprox, bool]:
    """One peeling pass: try to locate and commit a single new spike.

    Returns (zhat, stop).  stop=True means a full pass produced no verified
    candidate anywhere, i.e. every residual entry is already small.  When the
    best candidate is an already-known index its value is folded in place and
    the pass repeats, up to the configured number of refinement rounds.

    ``one_sparse_solver(plan, access, eps, mu, rng, window=, floor=)`` is
    called once per draw with the draw's pass band theta_ell +- width as
    ``window`` and the energy floor ENERGY_TAU * delta * R / sqrt(k) as
    ``floor``; it signals a miss with RecoveryError.

    The dense image F^T zhat is built once per pass, for the estimate of R
    alone; each draw's ``SimulatedAccess`` subtracts zhat's filtered image.
    """
    n = plan.n
    eps = cfg.eps()
    mu0 = cfg.mu0()
    t0 = cfg.t0()
    batch = cfg.batch()
    width = cfg.boxcar_width()
    box_eps = cfg.boxcar_eps()
    budget = cfg.degree_budget()
    solver_eps = 6.0 * eps
    for _ in range(cfg.t2()):
        z = zhat.image(plan)
        # R = ||x - F^T zhat||, estimated from counted raw reads
        r_hat = estimate_norm(plan, lambda js: oracle.query_many(js) - z[js],
                              solver_eps, rng)
        floor = ENERGY_TAU * cfg.delta * r_hat / math.sqrt(cfg.k)
        found: list[tuple[int, float]] = []
        draws = 0
        while draws < t0:
            for _ in range(min(batch, t0 - draws)):
                draws += 1
                ell = int(rng.integers(0, n))
                theta = float(plan.theta[ell])
                filt = build_boxcar(theta, width, box_eps)
                if filt.degree > budget:
                    raise ValueError(
                        f"boxcar degree {filt.degree} exceeds budget {budget} "
                        f"at gamma={cfg.gamma}, eps_box={box_eps:.3g}")
                access = SimulatedAccess(plan, oracle, zhat, filt)
                try:
                    got = one_sparse_solver(plan, access, solver_eps, mu0 / 2.0, rng,
                                            window=(theta - width, theta + width),
                                            floor=floor)
                except RecoveryError:
                    continue
                h, v = got.index, got.value
                if abs(plan.theta[h] - theta) > width:
                    continue
                if verify(plan, access, v, h, mu0 / 2.0, eps, rng, cfg.c_t1):
                    found.append((h, v))
            if found:
                break
        if not found:
            return zhat, True
        h_bar, v_bar = max(found, key=lambda hv: abs(hv[1]))
        fresh = h_bar not in zhat
        zhat.add(h_bar, v_bar)
        if fresh:
            return zhat, False
    return zhat, False


def recover(plan, oracle, cfg: ReductionConfig, one_sparse_solver=None,
            rng=None, seed=None) -> SparseApprox:
    """Peel up to k spikes; stop early once a pass finds nothing."""
    if one_sparse_solver is None:
        one_sparse_solver = solve_one_sparse
    if rng is None:
        rng = np.random.default_rng(seed)
    zhat = SparseApprox()
    for _ in range(cfg.k):
        zhat, stop = peeler(plan, oracle, zhat, cfg, one_sparse_solver, rng)
        if stop:
            break
    return zhat
