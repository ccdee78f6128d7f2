"""Recovery of a single spectral spike from sampled coefficient access.

Given counted access to y whose transform is v*e_ell plus small noise, the
solver finds ell and estimates v using polylogarithmically many samples.  The
stages: prune the angular regions near 0 and pi (where the cosine ratio
estimator degrades), prune roots whose normalized angle has badly
equidistributed integer dilates, then binary-search the angle by estimating
cos(w * theta_ell) at dyadically growing blow-ups w and prune over the final
interval.  Every stage that finds the spike also yields its value estimate.

Every pruning stage shares one sample set per round across all candidate
roots, so the query count depends on the sampling schedule, not on the
candidate count.  All randomness flows through an explicit generator.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import plan as plan_mod
from .numtheory import bad_intervals

__all__ = [
    "OneSparseResult",
    "spread_rho",
    "RecoveryError",
    "ArcCosError",
    "prune",
    "prune_non_spread",
    "query_cos",
    "approx_arccos",
    "estimate_norm",
    "solve_one_sparse",
]


class RecoveryError(RuntimeError):
    """Every stage of the solver failed to locate a spike."""


class ArcCosError(RuntimeError):
    """The dyadic angle search lost its target; noise is above contract."""


class OneSparseResult(NamedTuple):
    index: int
    value: float


# The analysis's blow-up fraction nu: the angle search dilates by at most nu * N.
_NU = 0.125
# The spread threshold is delta_0 = sqrt(eps) / _D0_DIV.
_D0_DIV = 5000.0
# eps0 of the angle search.  query_cos's angle error measured at most 0.038 rad
# at 1% noise; 1e-3 gives rho = 0.141, 3.7x that and just inside the pi/22 the
# containment proof needs.
_ARCCOS_EPS = 1e-3
# Sampling-schedule multipliers, calibrated by the acceptance suite.
_C_S = 1e-3  # correlation sample count multiplier
_S_FLOOR = 64.0  # lower bound multiplier on samples per round
_C_R = 0.25  # rounds per unit of log(1/mu)
_R_MIN = 3  # minimum rounds (kept odd for clean medians)
_C_THETA = 1.0  # boundary prune reach
_C_R_COS = 8.0  # rounds multiplier for the cosine estimator


def spread_rho(delta: float) -> float:
    """Angular half-width 2 sqrt(5 delta) of the arccos confidence interval."""
    return 2.0 * math.sqrt(5.0 * delta)


# Most samples one estimator round (or one verification) may draw.  A larger
# request is refused, not clipped: clipping would void its guarantee.
SAMPLE_CAP = 4_000_000


def _sample_size(plan: plan_mod.TransformPlan, eps: float) -> int:
    n = plan.n
    if n < 2:
        # log(N) / eps^2 is the schedule's scale; at N = 1 it is 0
        raise ValueError(f"the one-sparse solver needs N >= 2, got N = {n}")
    flat = plan.U * plan.U * n
    big = math.log(n) / (eps * eps)
    s = max(_C_S * flat * big * math.log(big), _S_FLOOR * flat * math.log(n))
    if not s <= SAMPLE_CAP:
        raise ValueError(f"solver round needs {s:.0f} samples, above the cap "
                         f"{SAMPLE_CAP}; raise eps")
    return int(max(8.0, math.ceil(s)))


def estimate_norm(plan, sample: Callable, eps: float, rng) -> float:
    """Estimate of ||y|| from one estimator round of uniform samples of y.

    ``sample(s, rng)`` returns s uniform positions and y there, as an access
    object's ``sample`` does; the round draws as many samples as one round
    of ``prune`` at this eps.
    """
    _, y = sample(_sample_size(plan, eps), rng)
    return math.sqrt((plan.n / y.size) * float(y @ y))


def _round_count(mu: float) -> int:
    r = max(_R_MIN, math.ceil(_C_R * math.log(1.0 / min(mu, 0.5))))
    return int(r) | 1


# Candidate rows per block of the dense correlation: 512 KB of F at
# N = 2048 and 1 MB at DENSE_CACHE_LIMIT, so a block stays in a core's L2
# while its rounds' products pass over it.  A multiple of four, the row
# groups of OpenBLAS's matrix-vector kernel, so each row falls in the same
# kind of group as in one product over all candidates.
_ROW_BLOCK = 32


def _odd_median(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0) for an odd number of rows, bit for bit: the
    middle element of each column, NaN where the column holds one."""
    mid = a.shape[0] // 2
    # kth -1 puts each column's largest at the end, NaN where there is one
    part = np.partition(a, (mid, -1), axis=0)
    return np.where(np.isnan(part[-1]), np.nan, part[mid])


def _prune_over(plan, oracle, cand, mu, eps, rng,
                floor) -> Optional[tuple[int, float]]:
    """Shared-sample check over ``cand``, a step-1 slice or an index array
    of roots: the first candidate whose median (N/s)-scaled correlation
    over the rounds exceeds u/10, u the median norm estimate, with that
    median.

    Every round is drawn and read in turn through ``oracle.sample``, whose
    positions a k-sparse batch's draws share; RecoveryError when round 0's
    norm estimate is below ``floor``.  Above ``DENSE_CACHE_LIMIT`` all
    rounds are correlated in one ``plan.forward`` sweep at the candidate
    roots.  Up to it the candidates' rows of the cached dense F are walked
    in ascending blocks of ``_ROW_BLOCK``, each product taken while the
    block is cached; ``plan.row_blocks`` takes the products from F's
    stored rows, at alpha = beta its mirror rows included.  A block
    first takes the products of R//2 + 1 of its R rounds: when every one is
    within u/10 (NaN is not), each row's odd median is too, so the block
    holds no hit and its last rounds are skipped.  Otherwise it takes the
    rest, and its first hit ends the walk.  Each product taken is the same
    matrix-vector product of the same row as one product per round over
    all candidates, with one BLAS thread: a threaded BLAS splits a large
    product between its threads and may sum the rows at a split in another
    order, while a block is below OpenBLAS's threading size.
    """
    view = isinstance(cand, slice)
    roots = range(plan.n)[cand] if view else cand
    m = len(roots)
    if m == 0:
        return None
    s = _sample_size(plan, eps)
    rounds = _round_count(mu / m)
    n = plan.n
    u_rounds = np.empty(rounds)
    sums = np.empty((rounds, n))
    for r in range(rounds):
        js, y = oracle.sample(s, rng)
        u_rounds[r] = math.sqrt((n / s) * float(y @ y))
        if r == 0 and u_rounds[0] < floor:
            raise RecoveryError(f"filtered norm {u_rounds[0]:.3g} below the "
                                f"energy floor {floor:.3g}")
        sums[r] = np.bincount(js, weights=y, minlength=n)
    u = float(_odd_median(u_rounds))
    if u == 0.0:
        return None
    t, scale = u / 10.0, n / s
    if n > plan_mod.DENSE_CACHE_LIMIT:
        v = _odd_median(scale * plan.forward(sums, cand))
        hits = np.flatnonzero(np.abs(v) > t)
        return (int(roots[hits[0]]), float(v[hits[0]])) if len(hits) else None
    stops = list(range(_ROW_BLOCK, m, _ROW_BLOCK))
    # numpy takes a 1-row product by dot, which sums in another order than a
    # matrix-vector product: a 1-row tail joins the block before it
    if m % _ROW_BLOCK == 1 and stops:
        stops.pop()
    head = rounds // 2 + 1
    blocks = plan.row_blocks(sums, min(m, _ROW_BLOCK + 1))
    for b0, b1 in zip([0] + stops, stops + [m]):
        blocks.take(roots[b0:b1])
        part = np.empty((rounds, b1 - b0))
        for r in range(head):
            blocks.product(r, part[r])
        # every scaled |value| <= t, as one max: rounding is monotone, and
        # a NaN makes the max NaN, which fails the test
        if scale * np.abs(part[:head]).max() <= t:
            continue
        for r in range(head, rounds):
            blocks.product(r, part[r])
        part *= scale
        v = _odd_median(part)
        hits = np.flatnonzero(np.abs(v) > t)
        if len(hits):
            return int(roots[b0 + hits[0]]), float(v[hits[0]])
    return None


def prune(plan, oracle, lo: float, hi: float, mu: float, eps: float, rng, *,
          floor: float = 0.0) -> Optional[tuple[int, float]]:
    """Run the shared-sample check over every root with angle in [lo, hi].

    Every estimator round is read before any candidate is correlated, so a
    prune over a nonempty interval reads all ``_round_count`` rounds unless
    round 0 falls below the energy floor ``floor``.  Then the candidates are
    correlated in ascending angle order, and correlation stops at the first
    passing root: a block of candidates whose first R//2 + 1 rounds all lie
    within u/10 holds none, and its last rounds are skipped.
    Returns (index, value estimate) for the first passing root, or None when
    no candidate passes (zero queries if the interval holds no roots).
    """
    lo, hi = max(0.0, lo), min(math.pi, hi)
    i0 = int(np.searchsorted(plan.theta, lo, side="left"))
    i1 = int(np.searchsorted(plan.theta, hi, side="right"))
    return _prune_over(plan, oracle, slice(i0, i1), mu, eps, rng, floor)


def prune_non_spread(plan, oracle, delta0: float, mu: float, eps: float, rng, *,
                     window: tuple[float, float] = (0.0, math.pi),
                     floor: float = 0.0) -> Optional[tuple[int, float]]:
    """Prune over the roots in ``window`` whose angle may defeat the cosine
    estimator.

    A root is a candidate when theta/pi lies within 1/N of a rational with
    denominator at most ceil(4 / (2 rho(delta0) / pi)); that interval cover
    majorizes the non-spread set for every blow-up fraction nu, so nu enters
    only through the caller's choice of delta0.
    """
    rho = spread_rho(delta0)
    cover = bad_intervals(plan.n, min(1.0, 2.0 * rho / math.pi))
    theta = plan.theta
    inside = (theta >= window[0]) & (theta <= window[1])
    cand = np.nonzero(cover.contains(theta / math.pi) & inside)[0]
    return _prune_over(plan, oracle, cand, mu, eps, rng, floor)


def query_cos(plan, oracle, w: int, nprime: int, rounds: int, rng,
              eps: float) -> float:
    """Median ratio estimate of cos(w * theta_ell) from 3 samples per round,
    all rounds' samples read in one ``query_many`` request.

    Uses the three-term identity cos(A+B) + cos(A-B) = 2 cos A cos B on the
    oscillatory bulk of the coefficient sequence, weighted by the plan's
    ``side_weights``; the denominator sample is clamped away from zero, so
    the output is always finite.
    """
    if w == 0:
        return 1.0
    n = plan.n
    if not 1 <= w <= nprime <= n // 4:
        raise ValueError(f"need 1 <= w <= nprime <= N/4, got w={w} nprime={nprime}")
    lo = nprime
    hi = min(n - nprime, n - 1 - w)
    if hi < lo:
        raise ValueError("empty sampling window for the ratio estimator")
    deltas = rng.integers(lo, hi + 1, size=rounds)
    mid, upper, lower = oracle.query_many(
        np.concatenate([deltas, deltas + w, deltas - w])).reshape(3, rounds)
    floor = eps / n**1.5
    denom = np.where(mid < 0, -1.0, 1.0) * np.maximum(np.abs(mid), floor)
    side = plan.side_weights()
    num = side[deltas + w] * upper + side[deltas - w] * lower
    vals = num / (2.0 * side[deltas] * denom)
    return float(np.median(vals))


def _family(r: float, w: int, lo: float, hi: float) -> Optional[float]:
    """The unique angle (r + 2 pi z) / w inside [lo, hi], if any.

    The window is always narrower than the period 2 pi / w, so at most one
    integer z qualifies.
    """
    zlo = math.ceil((w * lo - r) / (2.0 * math.pi))
    zhi = math.floor((w * hi - r) / (2.0 * math.pi))
    if zlo > zhi:
        return None
    return (r + 2.0 * math.pi * zlo) / w


def _refine(cos_query: Callable[[int], float], w: int, lo: float, hi: float,
            rho: float) -> tuple[Optional[float], Optional[float]]:
    """Candidates from both arccos branches of one blow-up query."""
    q = cos_query(w)
    r = math.acos(min(1.0, max(-1.0, q)))
    slo = max(0.0, lo - rho / w)
    shi = min(math.pi, hi + rho / w)
    return _family(r, w, slo, shi), _family(-r, w, slo, shi)


def approx_arccos(cos_query: Callable[[int], float], tau: int,
                  eps0: float) -> tuple[float, float]:
    """Dyadic search narrowing the angle to a width-2*rho/2^tau interval.

    ``cos_query(w)`` must return cos(w * theta) up to the noise level implied
    by eps0.  When a blow-up lands theta near a multiple of pi / 2^t both
    arccos branches produce candidates; the collision is resolved by one
    extra query at a co-prime-scaled blow-up, as the containment proof
    prescribes.  Raises ArcCosError when no branch is consistent.
    """
    rho = spread_rho(eps0)
    if not 0.0 < rho < math.pi / 22.0:
        raise ValueError(f"rho={rho:.4f} outside (0, pi/22); eps0 too large")
    r = math.acos(min(1.0, max(-1.0, cos_query(1))))
    lo, hi = max(0.0, r - rho), min(math.pi, r + rho)
    for t in range(1, tau + 1):
        w = 1 << t
        a, b = _refine(cos_query, w, lo, hi, rho)
        if a is None and b is None:
            raise ArcCosError(f"both branches empty at blow-up {w}")
        if a is not None and b is not None:
            # theta is near h*pi/2^t: both branches collide.  Re-query at a
            # blow-up that puts the collision point a quarter period away.
            mid = 0.5 * (a + b)
            h = round(mid * w / math.pi)
            if not 1 <= h <= w - 1 or abs(h * math.pi / w - mid) > 4.0 * rho / w:
                raise ArcCosError(f"inconsistent branch collision at blow-up {w}")
            j = (h & -h).bit_length() - 1
            w2 = (1 << (t - j - 1)) * ((1 << (j + 1)) + 1)
            a2, b2 = _refine(cos_query, w2, lo, hi, rho)
            if (a2 is None) == (b2 is None):
                raise ArcCosError(f"collision unresolved at blow-up {w2}")
            center = a2 if a2 is not None else b2
            w_used = w2
        else:
            center = a if a is not None else b
            w_used = w
        lo = max(0.0, center - rho / w_used)
        hi = min(math.pi, center + rho / w_used)
    return lo, hi


def solve_one_sparse(plan, oracle, eps: float, mu: float, rng, *,
                     window: tuple[float, float] = (0.0, math.pi),
                     floor: float = 0.0) -> OneSparseResult:
    """Full staged recovery of the spike index and value.

    Only roots with angle in ``window`` = (lo, hi) are candidates.  When the
    first estimator round's filtered-norm estimate u is below ``floor`` the
    solve ends there, after one round's reads; a positive floor is checked
    again, from one more round, before the angle search.  The defaults,
    (0, pi) and 0, restrict nothing.

    Raises RecoveryError when every stage fails or the floor is not met (the
    k-sparse peeler treats both as a miss and moves on), and ValueError,
    before any read, unless eps and mu lie in (0, 1), lo <= hi, floor is
    finite and >= 0 and an ``oracle`` that has a length holds N entries.
    """
    for name, value in (("eps", eps), ("mu", mu)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    wlo, whi = window
    if not wlo <= whi:
        raise ValueError(f"window needs lo <= hi, got {window!r}")
    if not (math.isfinite(floor) and floor >= 0.0):
        raise ValueError(f"floor must be finite and >= 0, got {floor!r}")
    n = plan.n
    if hasattr(oracle, "__len__") and len(oracle) != n:
        raise ValueError(f"oracle holds {len(oracle)} entries, the plan N = {n}")
    nu = _NU
    root_eps = math.sqrt(eps)
    d0 = root_eps / _D0_DIV

    def prune_in(lo, hi, mu_stage):
        return prune(plan, oracle, max(lo, wlo), min(hi, whi), mu_stage, eps,
                     rng, floor=floor)

    # approx_arccos refuses a branch collision at either end of [0, pi] and
    # leaves those angles to the two boundary prunes, so each reaches at
    # least rho/2 of the search from its end, whatever N
    end_reach = spread_rho(_ARCCOS_EPS) / 2.0
    c_prime = max(_C_THETA, 4.0 * nu * root_eps * d0)
    near_zero = min(max(c_prime / (nu * root_eps * d0 * n), end_reach), math.pi)
    got = prune_in(0.0, near_zero, mu / 6.0)
    if got is not None:
        return OneSparseResult(*got)
    if near_zero < math.pi:
        near_pi = max(_C_THETA / (nu * n), end_reach)
        got = prune_in(math.pi - near_pi, math.pi, mu / 6.0)
        if got is not None:
            return OneSparseResult(*got)
        rho0 = spread_rho(d0)
        got = prune_non_spread(plan, oracle, d0, rho0 * rho0 * mu, eps, rng,
                               window=window, floor=floor)
        if got is not None:
            return OneSparseResult(*got)
        tau = min(max(int(math.log2(nu * n)) - 1, 1), int(math.log2(2 * n / 3)))
        nprime = math.ceil(2.0 * nu * n)
        r_cos = math.ceil(_C_R_COS
                          * (math.log(max(math.log(n), math.e)) + math.log(1.0 / mu)))
        # the earlier stages check the floor only if the window holds some of
        # their roots, so check it here before paying for the search
        if floor > 0.0 and estimate_norm(plan, oracle.sample, eps, rng) < floor:
            raise RecoveryError(f"filtered norm below the energy floor {floor:.3g}")
        try:
            lo, hi = approx_arccos(
                lambda w: query_cos(plan, oracle, w, nprime, r_cos, rng, eps),
                tau, _ARCCOS_EPS)
        except ArcCosError as exc:
            raise RecoveryError("angle search failed") from exc
        got = prune_in(lo, hi, mu / 6.0)
        if got is not None:
            return OneSparseResult(*got)
    raise RecoveryError("all pruning stages failed")
