"""Reduction from k-sparse to 1-sparse recovery by filtered peeling.

The recovery loop filters the residual with banks of boxcars whose pass
bands tile [0, pi] at a random shift, and hands each filtered signal to a
1-sparse solver; a pass makes t0 draws, rounded up to whole banks, unless a
bank finds a spike first.  The filter p = sum_r b_r T_r is applied
implicitly: p(J) is d-banded, so a filtered sample at j needs only the
Chebyshev moments (T_r(J) y)_j, r <= d, of the residual y = x - F^T zhat,
and those read y only within d of j.  The draws of one bank share their
sample positions.  A trial reads each entry of x at most once for the
solver and at most once for the sampled residual check: ``recover`` keeps
one memo of raw x for each, and every read requests from the oracle only
the entries of its windows that its memo has not read yet.  A pass's
residual is its memo minus the pass's image F^T zhat.  Each bank opens one
schedule on each memo at D, its widest degree, and each schedule keeps one
(D+1) x N moment stack of its memo's residual, rebuilt only after a read
brings new entries; each round keeps the solver stack's rows at its own
positions, and each check reads through verify's.  Candidate spikes must
land inside the filter pass band and survive the residual check; every one
that does is committed to the running sparse estimate.
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
    "RawReads",
    "SampleSchedule",
    "SimulatedAccess",
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

    def sample(self, s: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """s uniform positions drawn from rng and the entries there."""
        js = rng.integers(0, len(self), size=s)
        return js, self.query_many(js)


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

    The Theta(.) multipliers of the draw count (draws per pass, rounded up
    to whole banks), the verifier samples, the refinement passes and
    eps = delta / c_big are class constants, tuned against the acceptance
    suite; C_D, which sets the filter-degree budget, against the boxcar
    degrees over a grid of (k, delta, gamma).

    Two contracts hold the guarantee; neither is checked.  Separation: the
    spikes lie at least ceil(sigma N) indices apart with sigma =
    3 gamma / (2 pi), about 1.5 gamma rad for near-uniform roots; at
    Legendre N = 2048 and gamma = 1, spikes 1 to 100 indices apart gave an
    empty estimate in every trial.  Flatness: the sample counts scale with
    U^2 N, which stays flat, and the promise sublinear, only where
    min(alpha, beta) >= -1/2.
    """

    k: int
    delta: float
    mu: float
    gamma: float

    # draws per pass, rounded up to whole banks: t0 = c_t0 log(1/mu0) / (C0 gamma)
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

    def boxcar_width(self) -> float:
        return self.gamma / 4.0

    def boxcar_eps(self) -> float:
        return self.eps() / math.sqrt(self.k)

    def degree_budget(self) -> int:
        return math.ceil(self.C_D * math.log(1.0 / self.boxcar_eps()) / self.gamma)


class RawReads:
    """A memo of raw x: each entry is requested from the oracle at most once.

    ``x`` holds every entry read so far and zero elsewhere, and ``count`` is
    how many entries that is.  ``read`` reads the windows around sample
    positions, and ``residual(z)`` is a pass's residual x - z on the entries
    read, so a pass keeps nothing of its own but its image z = F^T zhat.
    ``recover`` keeps two memos per trial: one serves the solver (the
    residual estimate, every round and every one-shot query of every pass),
    the other every ``verify`` call; each bank reads each memo through one
    ``SampleSchedule``.  Verify has a memo of its own for one reason only:
    the benchmark (opsbench) splits a trial's reads by caller and requires
    verify's to be more than none.  One memo would serve both, and a trial
    would read each entry at most once.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.x = np.zeros(len(oracle))
        self._seen = np.zeros(len(oracle), dtype=bool)
        self.count = 0

    def __len__(self) -> int:
        return self.x.size

    def read(self, js: np.ndarray, d: int) -> None:
        """Read the clipped windows max(0, j-d) .. min(N-1, j+d), j in js: one
        oracle request for the entries of their union not read yet, ascending
        and without repeats, none when every one has been."""
        n = self.x.size
        # +1 where a window opens, -1 past where it closes: the running sum
        # counts the windows covering each entry
        edges = (np.bincount(np.maximum(js - d, 0), minlength=n + 1)
                 - np.bincount(np.minimum(js + d + 1, n), minlength=n + 1))
        new = np.flatnonzero((np.cumsum(edges[:n]) != 0) & ~self._seen)
        if new.size:
            self.x[new] = self.oracle.query_many(new)
            self._seen[new] = True
            self.count += new.size

    def residual(self, z: np.ndarray) -> np.ndarray:
        """x - z on the entries read so far, zero elsewhere."""
        return np.where(self._seen, self.x - z, 0.0)


class SampleSchedule:
    """Sample positions and residual moments shared by the draws of one bank.

    ``peeler`` opens two per bank, at the bank's widest degree: one on the
    solver's memo for its draws and one on verify's memo for their checks.
    The i-th ``SimulatedAccess.sample`` call of every draw built on this
    schedule gets the bank's i-th position set: s uniform positions, drawn
    from the caller's rng the first time any draw asks for set i.  The raw
    windows around them have radius ``degree`` (the largest filter degree in
    the bank) and are clipped at the ends.  ``moments`` makes every read of
    the schedule, for rounds and one-shot queries
    (``SimulatedAccess.query_many``) alike: it reads its window union through
    the memo ``raw`` (the oracle is asked only for the entries the memo has
    not read), and returns rows of one cached stack, ``plan.moments`` of
    y = ``raw.residual(z)`` at ``degree``, rebuilt only when the memo has
    read new entries since it was last built.  A round keeps its rows from
    first use, so every draw of the bank gets them without another gather.
    Each draw's samples stay uniform, so its own failure bound holds; the
    union bound over draws needs no independence.

    y is x - z on every entry the memo has read, in this pass or an earlier
    one, and zero elsewhere.  A round's moments equal those of x - z on its
    own window union, zero elsewhere, bit for bit, because a moment of
    degree r at j reads y only within r of j (``plan.moments``), and every
    entry there has just been read.
    """

    def __init__(self, plan, raw: RawReads, z: np.ndarray, degree: int):
        if len(raw) != z.size:
            raise ValueError(f"oracle holds {len(raw)} entries, the residual "
                             f"image {z.size}")
        if degree >= plan.n:
            # a window that wide reads the whole signal for every sample
            raise ValueError(f"filter degree {degree} must be < N = {plan.n}")
        self.plan = plan
        self.degree = degree
        self.raw = raw
        self.z = z
        self._rounds: list[tuple[np.ndarray, np.ndarray]] = []
        self._stack: np.ndarray | None = None
        self._stack_count = -1  # raw.count when the stack was built

    def moments(self, js: np.ndarray, d: int) -> np.ndarray:
        """The moments (T_r(J) y)_j, r <= d, one row per position j in js,
        after reading the windows of js at radius d through ``raw``."""
        if d > self.degree:
            raise ValueError(f"moment degree {d} exceeds the schedule's "
                             f"window degree {self.degree}")
        self.raw.read(js, d)
        if self._stack_count != self.raw.count:
            self._stack = None  # the old stack goes before the new one is built
            self._stack = self.plan.moments(self.raw.residual(self.z), self.degree)
            self._stack_count = self.raw.count
        return self._stack[:d + 1].T[js]

    def round(self, i: int, s: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """Position set i and its moments; drawn, read and gathered on first use."""
        if i == len(self._rounds):
            js = rng.integers(0, self.plan.n, size=s)
            self._rounds.append((js, self.moments(js, self.degree)))
        js, mom = self._rounds[i]
        if js.size != s:
            raise ValueError(f"sample set {i} holds {js.size} positions, asked for {s}")
        return js, mom


class SimulatedAccess:
    """Filtered query access: entries of p(J)(x - F^T zhat) = F^T D_b (x_hat
    - zhat), b the boxcar at the roots, each from a window of at most 2D+1
    raw entries, D the window degree of its schedule.

    A filtered sample is the filter's Chebyshev coefficients against the
    residual moments at its position.  ``sample`` takes positions and moments
    from ``schedule``, shared by the draws of one bank; a standalone access
    is a schedule of one, at the filter's own degree.  ``query_many`` takes
    the moments at its positions from ``schedule.moments`` at the filter's
    degree, which reads their windows through the schedule's memo: by their
    locality, the same bits as a fresh read of those windows.
    """

    def __init__(self, schedule: SampleSchedule, filt: BoxcarFilter):
        if filt.degree > schedule.degree:
            raise ValueError(f"filter degree {filt.degree} exceeds the schedule's "
                             f"window degree {schedule.degree}")
        self._schedule = schedule
        self._coeffs = np.asarray(filt.coeffs, dtype=np.float64)
        self._rounds = 0

    def __len__(self) -> int:
        return self._schedule.plan.n

    def sample(self, s: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """This draw's next s uniform positions and its filtered samples there."""
        js, mom = self._schedule.round(self._rounds, s, rng)
        self._rounds += 1
        return js, self._filtered(mom)

    def query_many(self, js: np.ndarray) -> np.ndarray:
        """Filtered samples at indices js; each needs at most 2d+1 entries,
        and one oracle request reads those of their union the trial's memo
        has not."""
        js = _indices(js, self._schedule.plan.n)
        return self._filtered(self._schedule.moments(js, self._coeffs.size - 1))

    def _filtered(self, mom: np.ndarray) -> np.ndarray:
        # row by row: a BLAS product may sum a row in an order that depends
        # on how many rows there are
        return np.einsum("ij,j->i", mom[:, :self._coeffs.size], self._coeffs)


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


def peeler(plan, reads: RawReads, checks: RawReads, zhat: SparseApprox,
           cfg: ReductionConfig, one_sparse_solver,
           rng) -> tuple[SparseApprox, bool]:
    """One peeling pass: commit the verified hits of the first bank with any.

    Returns (zhat, stop).  stop=True means a full pass produced no verified
    candidate anywhere, i.e. every residual entry is already small.  A pass
    commits every verified hit, keeping the largest |v| per index.  When every
    hit is an already-known index the values are folded in place and the pass
    repeats, up to the configured number of refinement rounds.

    ``one_sparse_solver(plan, access, eps, mu, rng, window=, floor=)`` is
    called once per draw with the draw's pass band as ``window`` and the
    energy floor ENERGY_TAU * delta * R / sqrt(k) as ``floor``; it signals a
    miss with RecoveryError.  Draws run in filter banks of
    m = ceil(pi / (2 width)) + 1 boxcars centred at
    c_i = clip(o - width + 2 width i, 0, pi), one uniform offset o in
    [0, 2 width) per bank.  Tile i is [e_i, e_{i+1}], e_i = o - 2 width
    + 2 width i, and draw i's pass band is the hull of its tile and
    c_i +- width, so neighbouring bands share one float edge and every
    bank's bands tile [0, pi], ends included.  A hit outside its draw's
    pass band is discarded.  A bank's boxcars are built first, then its two
    ``SampleSchedule``s at its widest degree D: its draws'
    ``SimulatedAccess`` share one, and their checks the other.  A pass runs
    whole banks until one verifies a hit or t0 draws, rounded up to whole
    banks, are spent.

    The dense image z = F^T zhat is formed once per pass.  The estimate of
    R, every sampling round and every solver query of the pass read x - z
    through the solver's memo ``reads``, so the oracle is asked only for
    entries no earlier read of the trial asked for.  Each ``verify`` call
    reads the windows of its fresh positions at the draw's filter degree
    through the bank's second schedule, on ``checks``, the memo of every
    check of the trial; its moments are rows r <= that degree of the
    schedule's stack at D, which carry the bits of a stack at the filter's
    degree, since ``plan.moments`` computes row r from rows r-1 and r-2
    alone.  ``recover`` passes one memo of each kind per trial.
    """
    eps = cfg.eps()
    mu0 = cfg.mu0()
    width = cfg.boxcar_width()
    m = math.ceil(math.pi / (2.0 * width)) + 1
    banks = math.ceil(cfg.t0() / m)
    box_eps = cfg.boxcar_eps()
    budget = cfg.degree_budget()
    solver_eps = 6.0 * eps
    for _ in range(cfg.t2()):
        z = zhat.image(plan)

        def residual_at(s, rng) -> tuple[np.ndarray, np.ndarray]:
            """s uniform positions and x - z there, read through the memo."""
            js = rng.integers(0, plan.n, size=s)
            reads.read(js, 0)
            return js, reads.x[js] - z[js]

        # R = ||x - F^T zhat||, estimated from counted raw reads
        r_hat = estimate_norm(plan, residual_at, solver_eps, rng)
        floor = ENERGY_TAU * cfg.delta * r_hat / math.sqrt(cfg.k)

        def draw(band, filt, schedule, checker) -> tuple[int, float] | None:
            """One filtered solve in its pass band and its check; None on a miss."""
            access = SimulatedAccess(schedule, filt)
            try:
                got = one_sparse_solver(plan, access, solver_eps, mu0 / 2.0, rng,
                                        window=band, floor=floor)
            except RecoveryError:
                return None
            h, v = got.index, got.value
            if not band[0] <= plan.theta[h] <= band[1]:
                return None
            if not verify(plan, SimulatedAccess(checker, filt), v, h, mu0 / 2.0, eps,
                          rng, cfg.c_t1):
                return None
            return h, v

        found: dict[int, float] = {}
        for _ in range(banks):
            offset = rng.uniform(0.0, 2.0 * width)
            edges = [offset - 2.0 * width + 2.0 * width * i for i in range(m + 1)]
            filters = []
            for i in range(m):
                theta = min(max(offset - width + 2.0 * width * i, 0.0), math.pi)
                band = (min(edges[i], theta - width), max(edges[i + 1], theta + width))
                filt = build_boxcar(theta, width, box_eps)
                if filt.degree > budget:
                    raise ValueError(
                        f"boxcar degree {filt.degree} exceeds budget {budget} "
                        f"at gamma={cfg.gamma}, eps_box={box_eps:.3g}")
                filters.append((band, filt))
            widest = max(f.degree for _, f in filters)
            # the bank's draws read through the solver's memo, their checks
            # through verify's: one schedule on each, at the widest degree
            schedule, checker = (SampleSchedule(plan, raw, z, widest)
                                 for raw in (reads, checks))
            for band, filt in filters:
                got = draw(band, filt, schedule, checker)
                # bands overlap where centres are clipped at 0 or pi, so two
                # draws can report one index
                if got is not None and abs(got[1]) > abs(found.get(got[0], 0.0)):
                    found[got[0]] = got[1]
            if found:
                break
        if not found:
            return zhat, True
        fresh = any(h not in zhat for h in found)
        for h, v in found.items():
            zhat.add(h, v)
        if fresh:
            return zhat, False
    return zhat, False


def recover(plan, oracle, cfg: ReductionConfig, one_sparse_solver=None,
            rng=None, seed=None) -> SparseApprox:
    """Peel up to k spikes; stop once zhat holds k or a pass finds nothing.

    The trial reads x through two memos, the solver's and verify's, so it
    requests each entry at most twice.  It assumes what ``ReductionConfig``
    states and checks neither: spikes at least ceil(sigma N) indices apart,
    sigma = 3 gamma / (2 pi) (about 1.5 gamma rad), and min(alpha, beta)
    >= -1/2 for reads that stay sublinear.  Closer spikes are lost
    together: at Legendre N = 2048 and gamma = 1, spikes 1 to 100 indices
    apart gave an empty estimate in every trial.
    """
    if one_sparse_solver is None:
        one_sparse_solver = solve_one_sparse
    if len(oracle) != plan.n:
        raise ValueError(f"oracle holds {len(oracle)} entries, the plan N = {plan.n}")
    if rng is None:
        rng = np.random.default_rng(seed)
    reads, checks = RawReads(oracle), RawReads(oracle)
    zhat = SparseApprox()
    for _ in range(cfg.k):
        zhat, stop = peeler(plan, reads, checks, zhat, cfg, one_sparse_solver, rng)
        if stop or len(zhat) >= cfg.k:
            break
    return zhat
