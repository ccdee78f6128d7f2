"""Single-spike solver stages, each against a synthetic ground truth.

Signals live on the coefficient side: a spike of value v at root ell means
the sampled vector is v * F[ell, :], so correlations against rows of F are
exactly v at ell and 0 elsewhere.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opsparse import JacobiParams, build_plan, onesparse
from opsparse.boxcar import build_boxcar
from opsparse.ksparse import (
    QueryOracle,
    RawReads,
    SampleSchedule,
    SimulatedAccess,
)
from opsparse.numtheory import bad_intervals
from opsparse.onesparse import (
    ArcCosError,
    RecoveryError,
    SAMPLE_CAP,
    approx_arccos,
    prune,
    prune_non_spread,
    query_cos,
    solve_one_sparse,
    spread_rho,
    _prune_over,
    _round_count,
    _sample_size,
)
from opsparse.plan import DENSE_CACHE_LIMIT


def spike_signal(plan, ell, v, noise=0.0, rng=None):
    y = v * plan.row(ell)
    if noise:
        w = rng.standard_normal(plan.n)
        y = y + w * (noise * abs(v) / np.linalg.norm(w))
    return y


# ---------------------------------------------------------------------------
# prune


def test_prune_finds_spike_in_window(legendre_plan_256, rng):
    plan = legendre_plan_256
    ell = 130
    oracle = QueryOracle(spike_signal(plan, ell, 0.8))
    th = plan.theta[ell]
    got = prune(plan, oracle, th - 0.1, th + 0.1, 0.05, 0.01, rng)
    assert got is not None
    assert got[0] == ell
    assert got[1] == pytest.approx(0.8, rel=0.13)


def test_prune_empty_window_costs_nothing(legendre_plan_256, rng):
    plan = legendre_plan_256
    oracle = QueryOracle(spike_signal(plan, 130, 0.8))
    # no roots below theta_0
    assert prune(plan, oracle, 0.0, plan.theta[0] / 2, 0.05, 0.01, rng) is None
    assert oracle.count == 0


def test_prune_misses_spike_outside_window(legendre_plan_256, rng):
    plan = legendre_plan_256
    oracle = QueryOracle(spike_signal(plan, 130, 0.8))
    got = prune(plan, oracle, 0.1, plan.theta[60], 0.05, 0.01, rng)
    assert got is None


def test_prune_reads_every_round_with_or_without_a_spike(legendre_plan_256):
    plan = legendre_plan_256
    empty = QueryOracle(np.zeros(plan.n))
    assert prune(plan, empty, 0.0, math.pi, 1e-6, 0.01,
                 np.random.default_rng(1)) is None
    full = QueryOracle(spike_signal(plan, 130, 0.8))
    assert prune(plan, full, 0.0, math.pi, 1e-6, 0.01,
                 np.random.default_rng(1))[0] == 130
    rounds = _round_count(1e-6 / plan.n)
    assert empty.count == full.count == rounds * _sample_size(plan, 0.01)


@pytest.fixture(scope="module")
def plan_above_dense_limit():
    return build_plan(JacobiParams(0.0, 0.0), DENSE_CACHE_LIMIT + 1)


def per_round_estimate(plan, oracle, cand, mu_each, eps, rng):
    """The estimator with each round correlated alone: a product with F's
    candidate rows, stacked from ``plan.row``, up to DENSE_CACHE_LIMIT, one
    forward transform indexed at cand above it."""
    s = _sample_size(plan, eps)
    rounds = _round_count(mu_each)
    n = plan.n
    if n <= DENSE_CACHE_LIMIT:
        plan.matrix()
        rows = np.stack([plan.row(h) for h in np.arange(n)[cand]])
    u_rounds = np.empty(rounds)
    v_rounds = np.empty((rounds, len(np.arange(n)[cand])))
    for r in range(rounds):
        js = rng.integers(0, n, size=s)
        y = oracle.query_many(js)
        u_rounds[r] = math.sqrt((n / s) * float(y @ y))
        acc = np.bincount(js, weights=y, minlength=n)
        if n <= DENSE_CACHE_LIMIT:
            corr = rows @ acc
        else:
            corr = plan.forward(acc)[cand]
        v_rounds[r] = (n / s) * corr
    return float(np.median(u_rounds)), np.median(v_rounds, axis=0)


def first_hit(plan, oracle, cand, mu_each, eps, rng):
    """The prune's answer from every candidate's median over every round:
    the first candidate whose |median| exceeds u/10, with that median."""
    u, v = per_round_estimate(plan, oracle, cand, mu_each, eps, rng)
    hits = np.flatnonzero(np.abs(v) > u / 10.0)
    if u == 0.0 or len(hits) == 0:
        return None
    return int(np.arange(plan.n)[cand][hits[0]]), float(v[hits[0]])


def nan_in_round(plan, r, rounds, s, seed):
    """A position that only round r of the rounds seeded by ``seed`` samples."""
    replay = np.random.default_rng(seed)
    hits = np.zeros((rounds, plan.n), dtype=bool)
    for i in range(rounds):
        hits[i, replay.integers(0, plan.n, size=s)] = True
    return int(np.flatnonzero(hits[r] & (hits.sum(axis=0) == 1))[0])


# Blocks of the dense walk over 97 and 100 candidates: 97 ends in a 1-row
# tail, merged into the block before it, 100 in a 4-row block of its own
WALK_EDGES = {97: [0, 32, 64, 97], 100: [0, 32, 64, 96, 100]}


@pytest.mark.parametrize("mu_each, rounds", [(1e-7, 5), (1e-9, 7)], ids=["R5", "R7"])
@pytest.mark.parametrize("plan_name", ["legendre_plan_4096", "plan_above_dense_limit"],
                         ids=["dense", "forward"])
def test_prune_returns_the_first_hit_of_the_per_round_medians(plan_name, mu_each, rounds,
                                                               request, monkeypatch):
    # the walk's (index, value) equals, bit for bit, the first hit of every
    # candidate's median over every round, each round correlated alone; it
    # reads every round and correlates no block after the hit's.  A NaN
    # entry that one round samples, inside the first R//2 + 1 rounds or
    # after them, makes u and that round NaN: no block is cleared, none
    # holds a hit, and every product is taken
    plan = request.getfixturevalue(plan_name)
    assert plan.n in (DENSE_CACHE_LIMIT, DENSE_CACHE_LIMIT + 1)
    assert _round_count(mu_each) == rounds
    dense = plan.n <= DENSE_CACHE_LIMIT
    eps, seed, head = 0.01, 5, rounds // 2 + 1
    s = _sample_size(plan, eps)
    products = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        products.append(None)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    cases = []
    # the forward sweep has no blocks: 97 candidates below N/2 are enough
    # there.  The dense plan's F stores the rows below N/2 = 2048, and its
    # candidates also lie in the mirror half or across N/2
    for m in (97, 100) if dense else (97,):
        cands = [slice(1200, 1200 + m), np.arange(1200, 1200 + 2 * m, 2)]
        if dense:
            cands += [slice(2900, 2900 + m), np.arange(1950, 1950 + 2 * m, 2)]
        for cand in cands:
            # spikes at these candidate positions: in the first block, in
            # the merged 1-row tail (96 of 97), in the last block (98 of
            # 100), two in the first block, one in each of the first two,
            # and none among the candidates
            for spikes in ((5,), ({97: 96, 100: 98}[m],), (9, 20), (20, 40), ()):
                cases.append((cand, spikes, None))
            if m == 97:
                for r in (1, rounds - 1):
                    cases.append((cand, (40,), r))
    for cand, spikes, nan in cases:
        roots = np.arange(plan.n)[cand]
        ell = int(roots[spikes[0]]) if spikes else 300
        y = spike_signal(plan, ell, 0.9, noise=0.01, rng=np.random.default_rng(2))
        for p in spikes[1:]:
            y -= 0.7 * plan.row(int(roots[p]))
        if nan is not None:
            y[nan_in_round(plan, nan, rounds, s, seed)] = np.nan
        want_oracle, got_oracle = QueryOracle(y), QueryOracle(y)
        want = first_hit(plan, want_oracle, cand, mu_each, eps, np.random.default_rng(seed))
        products.clear()
        got = _prune_over(plan, got_oracle, cand, mu_each * len(roots), eps,
                          np.random.default_rng(seed), 0.0)
        assert got_oracle.count == want_oracle.count == rounds * s
        case = (type(cand).__name__, len(roots), spikes, nan)
        if not spikes or nan is not None:
            assert got is None and want is None, case
        else:
            assert got[0] == want[0] == ell, case
            assert got[1].hex() == want[1].hex(), case
        if not dense:
            assert products == [], case
            continue
        edges = WALK_EDGES[len(roots)]
        blocks = len(edges) - 1
        if nan is not None:
            assert len(products) == rounds * blocks, case
        else:
            if spikes:
                blocks = next(b for b in range(blocks) if spikes[0] < edges[b + 1]) + 1
            assert head * blocks <= len(products) <= rounds * blocks, case


# The dense walk's products against one product per round over all
# candidates' exact F rows, the unfolded table scaled by sqrt(w), in a child
# with one BLAS thread, as the benchmark runs.  A threaded BLAS splits a
# large product's rows between its threads, and the rows left over at the
# end of a thread's share past its last group of four are summed in another
# order; a 32-row block stays below the size at which it splits.  Each
# product the walk takes is checked as it is taken: its rows must be the
# candidates' F rows, and its values the reference's bit for bit.  A product
# of mirror rows read as stored rows is recognised by its sums, whose odd
# entries are negated, and is read reversed.  One NaN entry in round 0, or
# in round 4, of the five makes u NaN, so the walk clears no block, finds
# no hit and takes every product; the two runs between them check every
# round's products.
BLOCK_EDGES_SCRIPT = """
import json, sys
import numpy as np
from opsparse import JacobiParams, _kernels, build_plan
from opsparse.jacobi import orthonormal_coeffs
from opsparse.onesparse import _prune_over, _round_count

n = int(sys.argv[1])
plan = build_plan(JacobiParams(0.0, 0.0), n)
half = plan.matrix().shape[0]
assert half == n - n // 2
f = _kernels.recurrence_table(*orthonormal_coeffs(plan.params, n - 1), plan.lam, plan.sqw)
sign = np.where(np.arange(n) % 2, -1.0, 1.0)
rng = np.random.default_rng(n)
assert _round_count(1e-7) == 5


class Rounds:
    def __init__(self, nan):
        self.nan, self.sums = nan, []

    def sample(self, s, gen):
        js, y = gen.integers(0, n, s), gen.standard_normal(s)
        if len(self.sums) == self.nan:
            y[0] = np.nan
        self.sums.append(np.bincount(js, weights=y, minlength=n))
        return js, y


matmul = np.matmul
bad, now, flipped = [], {}, [0]


def recorded(rows, acc, out):
    matmul(rows, acc, out=out)
    sums, full, case, seen = now["sums"], now["rows"], now["case"], now["seen"]
    r = next((i for i, a in enumerate(sums) if a.tobytes() == acc.tobytes()), None)
    if r is None:
        r = next(i for i, a in enumerate(sums) if (a * sign).tobytes() == acc.tobytes())
        rows, out = rows[::-1] * sign, out[::-1]
        flipped[0] += 1
    size = len(rows)
    b0 = int(np.flatnonzero((full == rows[0]).all(axis=1))[0])
    seen[r, b0:b0 + size] += 1
    want = (full @ sums[r])[b0:b0 + size]
    if (size == 1 < len(full) or not np.array_equal(rows, full[b0:b0 + size])
            or [v.hex() for v in out.tolist()] != [v.hex() for v in want.tolist()]):
        bad.append(case + [r, b0])


def mixed(m):
    # an index array with about half its rows on each side of N/2
    lo = rng.choice(half, m // 2, replace=False)
    hi = half + rng.choice(n - half, m - m // 2, replace=False)
    return np.sort(np.concatenate((lo, hi)))


sets = []
for m in (1, 2, 31, 32, 33, 64, 65, 326):
    lo = int(rng.integers(0, n - m))
    sets += [slice(lo, lo + m), np.sort(rng.choice(n, m, replace=False))]
# wholly in the mirror half: blocks of whole groups of four, then last
# blocks with 1 (merged into the block before), 2, 3 and 2 + 4 rows
for m in (32, 64, 100, 326, 33, 34, 35, 38):
    lo = int(rng.integers(half, n - m))
    sets.append(slice(lo, lo + m))
# straddling N/2: a block across it, and a 2-row set across it
sets += [slice(half - 40, half + 60), slice(half - 1, half + 1)]
sets += [mixed(m) for m in (2, 33, 65, 326)]
sets.append(np.sort(half + rng.choice(n - half, 65, replace=False)))

np.matmul = recorded
for cand in sets:
    rows = f[cand]
    m = len(rows)
    for nan in (0, 4):
        case = [m, type(cand).__name__, nan]
        oracle = Rounds(nan)
        now.update(sums=oracle.sums, rows=rows, case=case, seen=np.zeros((5, m), dtype=int))
        if _prune_over(plan, oracle, cand, 1e-7 * m, 0.01, rng, 0.0) is not None:
            bad.append(case + ["hit"])
        if not np.all(now["seen"] == 1):
            bad.append(case + ["not every product once"])
print(json.dumps({"bad": bad, "flipped": flipped[0]}))
"""


@pytest.mark.parametrize("n", [2048, DENSE_CACHE_LIMIT])
def test_blocked_correlation_matches_one_product_per_round(n):
    # 31..33 and 64, 65 straddle the 32-row block; 33 and 65 end in a 1-row
    # tail, which numpy would take by dot, summed in another order, were it
    # not merged into the block before it; 1 is a 1-row set, a dot product
    # in both; 326 rows is a typical pass band of the k-sparse benchmark.
    # At alpha = beta F stores its left half: the mirror-half and straddling
    # sets check the blocks read as reversed stored rows and the blocks
    # copied row by row, each of which some set takes
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", BLOCK_EDGES_SCRIPT, str(n)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["bad"] == []
    assert out["flipped"] > 0


@pytest.mark.parametrize("mu_each, rounds", [(1e-7, 5), (1e-10, 7)])
def test_prune_above_dense_limit_is_one_forward_sweep(plan_above_dense_limit,
                                                      monkeypatch, mu_each, rounds):
    plan = plan_above_dense_limit
    assert _round_count(mu_each) == rounds
    shapes = []
    forward = type(plan).forward

    def counted(self, x, roots=slice(None)):
        shapes.append(np.shape(x))
        return forward(self, x, roots)

    monkeypatch.setattr(type(plan), "forward", counted)
    lo, hi = plan.theta[1200], plan.theta[1299]
    oracle = QueryOracle(spike_signal(plan, 1234, 0.9))
    got = prune(plan, oracle, lo, hi, 100 * mu_each, 0.01, np.random.default_rng(3))
    assert got[0] == 1234
    assert shapes == [(rounds, plan.n)]


def test_benchmark_trials_take_half_the_row_block_products(monkeypatch):
    # the k-sparse benchmark's 57 trials at seed 1 (opsbench, 20 s at its
    # nominal op time): their prunes take 6117 row-block products, where
    # every round of every candidate block took 11960
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "opsbench"))
    from workloads import WORKLOADS

    wl = WORKLOADS["ksparse-legendre-n2048"]
    plan = wl.setup(None)[0]
    products = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        products.append(None)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    trials = np.random.SeedSequence(1).spawn(2)[0].spawn(wl.op_count(20.0))
    assert len(trials) == 57
    for i, seq in enumerate(trials):
        inp = wl.make_input(plan, seq, i)
        out = wl.op(plan, QueryOracle(inp.values), np.random.default_rng(inp.algo_seq))
        assert wl.check(inp, out), i
    assert len(products) == 6117


# ---------------------------------------------------------------------------
# non-spread pruning


def test_prune_non_spread_candidates_are_selective(legendre_plan_4096):
    plan = legendre_plan_4096
    rho = spread_rho(0.002)
    cover = bad_intervals(plan.n, min(1.0, 2.0 * rho / math.pi))
    cand = np.nonzero(cover.contains(plan.theta / math.pi))[0]
    assert 0 < len(cand) < plan.n // 2


def test_prune_non_spread_finds_bad_angle_spike(legendre_plan_4096, rng):
    plan = legendre_plan_4096
    # the root angle closest to pi/2 has theta/pi ~ 1/2: maximally non-spread
    ell = int(np.argmin(np.abs(plan.theta - math.pi / 2)))
    oracle = QueryOracle(spike_signal(plan, ell, 1.1))
    got = prune_non_spread(plan, oracle, 0.002, 0.05, 0.01, rng)
    assert got is not None and got[0] == ell


def test_prune_non_spread_ignores_spread_spike(legendre_plan_4096, rng):
    plan = legendre_plan_4096
    rho = spread_rho(0.002)
    cover = bad_intervals(plan.n, min(1.0, 2.0 * rho / math.pi))
    spread = np.nonzero(~cover.contains(plan.theta / math.pi))[0]
    ell = int(spread[len(spread) // 3])
    oracle = QueryOracle(spike_signal(plan, ell, 1.1))
    assert prune_non_spread(plan, oracle, 0.002, 0.05, 0.01, rng) is None


# ---------------------------------------------------------------------------
# cosine queries


def test_query_cos_noiseless(legendre_plan_4096, rng):
    plan = legendre_plan_4096
    ell = 1365
    oracle = QueryOracle(spike_signal(plan, ell, 1.7))
    th = plan.theta[ell]
    for w in (1, 4, 64, 256):
        q = query_cos(plan, oracle, w, 1024, 41, rng, 0.01)
        assert q == pytest.approx(math.cos(w * th), abs=1e-4)


def test_query_cos_noisy(legendre_plan_4096):
    plan = legendre_plan_4096
    ell = 2900
    th = plan.theta[ell]
    for seed in range(5):
        gen = np.random.default_rng(seed)
        oracle = QueryOracle(spike_signal(plan, ell, 1.7, noise=0.01, rng=gen))
        q = query_cos(plan, oracle, 16, 1024, 41, gen, 0.01)
        assert q == pytest.approx(math.cos(16 * th), abs=0.02)


def test_query_cos_zero_blowup(legendre_plan_256, rng):
    assert query_cos(legendre_plan_256, QueryOracle(np.zeros(256)), 0, 64, 5,
                     rng, 0.01) == 1.0


def test_query_cos_finite_on_zero_signal(legendre_plan_256, rng):
    q = query_cos(legendre_plan_256, QueryOracle(np.zeros(256)), 3, 64, 9, rng, 0.01)
    assert math.isfinite(q)


class RequestLog:
    """Access that passes each query_many request on, keeping its indices
    and the values it returned."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.values = []

    def query_many(self, idx):
        self.calls.append(np.asarray(idx).copy())
        self.values.append(self.inner.query_many(idx))
        return self.values[-1]


class ThirdsAccess:
    """Access that reads a request as three separate requests, one per third:
    query_cos's mid, upper and lower samples read apart."""

    def __init__(self, inner):
        self.inner = inner

    def query_many(self, idx):
        return np.concatenate([self.inner.query_many(part)
                               for part in np.split(np.asarray(idx), 3)])


def test_query_cos_reads_once_and_matches_three_requests(legendre_plan_256):
    # one request per call, whose values equal, bit for bit, reading the mid,
    # upper and lower samples apart: on a plain oracle, and on a filtered
    # access, where one request reads the union of every sample's window
    plan = legendre_plan_256
    x = spike_signal(plan, 90, 1.3, noise=0.01, rng=np.random.default_rng(1))
    filt = build_boxcar(1.2, 0.5, 0.05)

    def accesses():
        yield QueryOracle(x)
        schedule = SampleSchedule(plan, RawReads(QueryOracle(x)), np.zeros(plan.n),
                                  filt.degree)
        yield SimulatedAccess(schedule, filt)

    for seed, (w, rounds) in enumerate([(1, 9), (17, 41), (64, 5)]):
        for once, apart in zip(accesses(), accesses()):
            log, split = RequestLog(once), RequestLog(ThirdsAccess(apart))
            got = query_cos(plan, log, w, 64, rounds, np.random.default_rng(seed), 0.01)
            want = query_cos(plan, split, w, 64, rounds, np.random.default_rng(seed), 0.01)
            assert len(log.calls) == 1 and log.calls[0].size == 3 * rounds
            assert log.values[0].tobytes() == split.values[0].tobytes()
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_query_cos_validation(legendre_plan_256, rng):
    oracle = QueryOracle(np.zeros(256))
    with pytest.raises(ValueError):
        query_cos(legendre_plan_256, oracle, 65, 64, 5, rng, 0.01)
    with pytest.raises(ValueError):
        query_cos(legendre_plan_256, oracle, 1, 100, 5, rng, 0.01)


# ---------------------------------------------------------------------------
# dyadic angle search


def exact_oracle(theta):
    return lambda w: math.cos(w * theta)


def noisy_oracle(theta, eps0, gen):
    return lambda w: math.cos(w * theta) + gen.uniform(-eps0, eps0)


def test_approx_arccos_exact(rng):
    rho = spread_rho(1e-4)
    for theta in rng.uniform(0.01, math.pi - 0.01, 300):
        lo, hi = approx_arccos(exact_oracle(theta), 8, 1e-4)
        assert lo <= theta <= hi
        # the final interval is center +/- rho/2**8, so its width sits exactly
        # on the bound; the relative slack absorbs the subtraction rounding
        assert hi - lo <= 2 * rho / 2**8 * (1 + 1e-12)


def test_approx_arccos_noisy(rng):
    rho = spread_rho(1e-4)
    for theta in rng.uniform(0.01, math.pi - 0.01, 100):
        lo, hi = approx_arccos(noisy_oracle(theta, 1e-4, rng), 8, 1e-4)
        assert lo <= theta <= hi
        assert hi - lo <= 2 * rho / 2**8 * (1 + 1e-12)


def test_approx_arccos_dyadic_adversarial(rng):
    # angles parked on (or jittered off) collision points h*pi/2^t
    rho = spread_rho(1e-4)
    cases = []
    for _ in range(60):
        t = int(rng.integers(1, 9))
        h = int(rng.integers(1, 2**t))
        jitter = float(rng.uniform(-1, 1)) * rho / 2**t * 0.5
        cases.append(min(math.pi - 1e-6, max(1e-6, h * math.pi / 2**t + jitter)))
    for theta in cases:
        lo, hi = approx_arccos(exact_oracle(theta), 8, 1e-4)
        assert lo <= theta <= hi
        assert hi - lo <= 2 * rho / 2**8 * (1 + 1e-12)


def test_approx_arccos_rejects_large_eps0():
    with pytest.raises(ValueError, match="eps0 too large"):
        approx_arccos(exact_oracle(1.0), 8, 0.01)


def test_approx_arccos_inconsistent_oracle():
    with pytest.raises(ArcCosError):
        # an oracle with no underlying angle: alternating extreme answers
        approx_arccos(lambda w: (-1.0) ** w, 8, 1e-4)


# ---------------------------------------------------------------------------
# full solver


def test_solver_noiseless(legendre_plan_4096):
    plan = legendre_plan_4096
    hits = 0
    for seed in range(8):
        gen = np.random.default_rng(seed)
        ell = int(gen.integers(0, plan.n))
        v = float(gen.uniform(0.5, 2.0) * gen.choice([-1, 1]))
        oracle = QueryOracle(spike_signal(plan, ell, v))
        res = solve_one_sparse(plan, oracle, 0.01, 0.02, gen)
        if res.index == ell and abs(res.value - v) <= 13 * 0.01 * abs(v):
            hits += 1
    assert hits == 8


def test_solver_noisy(legendre_plan_4096):
    plan = legendre_plan_4096
    hits = 0
    for seed in range(8):
        gen = np.random.default_rng(1000 + seed)
        ell = int(gen.integers(0, plan.n))
        v = float(gen.uniform(0.5, 2.0) * gen.choice([-1, 1]))
        oracle = QueryOracle(spike_signal(plan, ell, v, noise=0.01, rng=gen))
        res = solve_one_sparse(plan, oracle, 0.01, 0.02, gen)
        if res.index == ell and abs(res.value - v) <= 13 * 0.01 * abs(v):
            hits += 1
    assert hits == 8


def test_solver_small_n(legendre_plan_256, rng):
    plan = legendre_plan_256
    oracle = QueryOracle(spike_signal(plan, 200, 0.9))
    res = solve_one_sparse(plan, oracle, 0.01, 0.05, rng)
    assert res.index == 200
    assert res.value == pytest.approx(0.9, rel=0.13)


def test_solver_zero_signal_raises(legendre_plan_256, rng):
    with pytest.raises(RecoveryError):
        solve_one_sparse(legendre_plan_256, QueryOracle(np.zeros(256)), 0.01,
                         0.05, rng)


def test_solver_rejects_eps_and_mu_outside_unit_interval(legendre_plan_256, rng):
    oracle = QueryOracle(np.zeros(256))
    for eps, mu in ((0.0, 0.05), (-1.0, 0.05), (1.0, 0.05), (0.01, 0.0),
                    (0.01, 1.5), (float("nan"), 0.05)):
        with pytest.raises(ValueError, match="must lie in"):
            solve_one_sparse(legendre_plan_256, oracle, eps, mu, rng)
    assert oracle.count == 0


@pytest.fixture
def arccos_reach(monkeypatch):
    """A Legendre N=2048 plan and solver constants under which most solves go
    on to the angle search: c_theta=1e-3 and delta_0 = sqrt(eps)/50 shrink
    the boundary and Farey prunes.  Calls to approx_arccos are recorded."""
    monkeypatch.setattr(onesparse, "_C_THETA", 1e-3)
    monkeypatch.setattr(onesparse, "_D0_DIV", 50.0)
    searches = []
    real = onesparse.approx_arccos

    def spy(cos_query, tau, eps0):
        searches.append(eps0)
        return real(cos_query, tau, eps0)

    monkeypatch.setattr(onesparse, "approx_arccos", spy)
    return build_plan(JacobiParams(0.0, 0.0), 2048), searches


def test_solver_reaches_the_arccos_stage(arccos_reach):
    plan, searches = arccos_reach
    hits = reached = 0
    for i, seq in enumerate(np.random.SeedSequence(2048).spawn(20)):
        gen = np.random.default_rng(seq)
        ell = int(gen.integers(0, plan.n))
        v = float(gen.uniform(0.5, 2.0) * gen.choice([-1, 1]))
        oracle = QueryOracle(spike_signal(plan, ell, v, noise=0.01 * (i % 2), rng=gen))
        before = len(searches)
        try:
            res = solve_one_sparse(plan, oracle, 0.01, 0.02, gen)
        except RecoveryError:
            continue
        finally:
            reached += len(searches) > before
        hits += res.index == ell and abs(res.value - v) <= 13 * 0.01 * abs(v)
    assert reached >= 10
    assert hits >= 19
    assert set(searches) == {onesparse._ARCCOS_EPS}


def test_arccos_accuracy_keeps_rho_under_pi_over_22():
    assert spread_rho(onesparse._ARCCOS_EPS) < math.pi / 22.0


def test_angle_search_checks_the_floor_and_the_window(arccos_reach):
    # a window holding one root that no stage before the angle search covers,
    # so only the search and the final prune can look at it
    plan, searches = arccos_reach
    eps, mu = 0.01, 0.02
    d0 = math.sqrt(eps) / onesparse._D0_DIV
    cover = bad_intervals(plan.n, min(1.0, 2.0 * spread_rho(d0) / math.pi))
    ell = next(i for i in range(1000, 1100)
               if not cover.contains(plan.theta[i] / math.pi))
    window = (plan.theta[ell] - 1e-4, plan.theta[ell] + 1e-4)
    far = spike_signal(plan, 300, 1.0)
    # energy below the floor: one round of reads, no search
    oracle = QueryOracle(far)
    with pytest.raises(RecoveryError, match="energy floor"):
        solve_one_sparse(plan, oracle, eps, mu, np.random.default_rng(0),
                         window=window, floor=2.0)
    assert searches == []
    assert oracle.count == _sample_size(plan, eps)
    # a search that ends outside the window is a miss
    with pytest.raises(RecoveryError):
        solve_one_sparse(plan, QueryOracle(far), eps, mu, np.random.default_rng(0),
                         window=window, floor=0.5)
    assert len(searches) == 1
    # the spike inside the window clears the floor and is found
    got = solve_one_sparse(plan, QueryOracle(spike_signal(plan, ell, 1.0)), eps, mu,
                           np.random.default_rng(0), window=window, floor=0.5)
    assert len(searches) == 2
    assert got.index == ell


def test_boundary_prunes_reach_the_collisions_the_angle_search_refuses(arccos_reach):
    # approx_arccos refuses a branch collision at h = 0 or h = w and leaves
    # those angles to the near-zero and near-pi prunes.  Under these
    # constants their 1/N reaches were 0.0195 and 4e-6 rad, and noisy spikes
    # 0.003-0.04 rad from an end failed the search; each prune now reaches
    # rho/2 = 0.071 rad, rho the search's own
    plan, _ = arccos_reach
    gap = np.minimum(plan.theta, math.pi - plan.theta)
    ends = np.flatnonzero(gap < 0.11)
    assert ends.size == 142
    missed = []
    for h in ends.tolist():
        gen = np.random.default_rng([0, h])
        oracle = QueryOracle(spike_signal(plan, h, 1.0, noise=0.01, rng=gen))
        try:
            got = solve_one_sparse(plan, oracle, 0.01, 0.02, gen)
        except RecoveryError:
            got = None
        if got is None or got.index != h or abs(got.value - 1.0) > 13 * 0.01:
            missed.append((h, round(float(gap[h]), 4), got))
    assert missed == []


class ReplayOracle:
    """The solver's reads as it made them inline: positions by rng.integers,
    entries by query_many on a plain QueryOracle."""

    def __init__(self, values):
        self.plain = QueryOracle(values)

    def sample(self, s, rng):
        js = rng.integers(0, len(self.plain), size=s)
        return js, self.plain.query_many(js)

    def query_many(self, js):
        return self.plain.query_many(js)


def test_plain_oracle_samples_replay_inline_reads(arccos_reach):
    # prune rounds, the floor check before the angle search, query_cos and
    # the final prune all read alike through QueryOracle.sample and the replay
    plan, searches = arccos_reach
    cases = [(ell, (0.0, math.pi), 0.0) for ell in (5, 700, 1500, 2040)]
    d0 = math.sqrt(0.01) / onesparse._D0_DIV
    cover = bad_intervals(plan.n, min(1.0, 2.0 * spread_rho(d0) / math.pi))
    ell = next(i for i in range(1000, 1100)
               if not cover.contains(plan.theta[i] / math.pi))
    cases.append((ell, (plan.theta[ell] - 1e-4, plan.theta[ell] + 1e-4), 0.5))
    for seed, (ell, window, floor) in enumerate(cases):
        y = spike_signal(plan, ell, 1.3, noise=0.01, rng=np.random.default_rng(seed))
        got = []
        for oracle in (QueryOracle(y), ReplayOracle(y)):
            try:
                res = tuple(solve_one_sparse(plan, oracle, 0.01, 0.02,
                                             np.random.default_rng(seed),
                                             window=window, floor=floor))
            except RecoveryError:
                res = None
            count = oracle.count if isinstance(oracle, QueryOracle) else oracle.plain.count
            got.append((res, count))
        assert got[0] == got[1], (ell, got)
    assert searches  # the angle search ran


def test_solver_never_returns_a_root_outside_its_window(legendre_plan_256):
    plan = legendre_plan_256
    ell = 130
    th = plan.theta[ell]
    y = spike_signal(plan, ell, 0.9)
    for window in ((th + 0.05, th + 0.6), (0.0, th - 0.05)):
        for seed in range(3):
            oracle = QueryOracle(y)
            with pytest.raises(RecoveryError):
                solve_one_sparse(plan, oracle, 0.01, 0.05, np.random.default_rng(seed),
                                 window=window)
    # the same spike inside the window is found
    got = solve_one_sparse(plan, QueryOracle(y), 0.01, 0.05, np.random.default_rng(0),
                           window=(th - 0.05, th + 0.05))
    assert got.index == ell


def test_solver_rejects_bad_window_and_floor(legendre_plan_256, rng):
    oracle = QueryOracle(spike_signal(legendre_plan_256, 130, 0.9))
    for kwargs in ({"window": (1.0, 0.5)}, {"window": (float("nan"), 1.0)},
                   {"floor": -0.1}, {"floor": float("inf")}, {"floor": float("nan")}):
        with pytest.raises(ValueError, match="window|floor"):
            solve_one_sparse(legendre_plan_256, oracle, 0.01, 0.05, rng, **kwargs)
    assert oracle.count == 0


def test_solver_refuses_an_oracle_of_another_size(legendre_plan_256):
    # a spike at 100 on N = 256, read through 128 or 512 entries, is refused
    # before any read: not found at a wrong index, nor a numpy shape error
    plan = legendre_plan_256
    y = spike_signal(plan, 100, 1.0)
    for size in (128, 512):
        oracle = QueryOracle(np.resize(y, size))
        with pytest.raises(ValueError,
                           match=f"oracle holds {size} entries, the plan N = 256"):
            solve_one_sparse(plan, oracle, 0.01, 0.05, np.random.default_rng(0))
        assert oracle.count == 0
    # a filtered access has a length too: its plan's N
    other = build_plan(JacobiParams(0.0, 0.0), 128)
    filt = build_boxcar(1.2, 0.5, 0.05)
    oracle = QueryOracle(np.resize(y, 128))
    schedule = SampleSchedule(other, RawReads(oracle), np.zeros(128), filt.degree)
    with pytest.raises(ValueError, match="oracle holds 128 entries, the plan N = 256"):
        solve_one_sparse(plan, SimulatedAccess(schedule, filt), 0.01, 0.05,
                         np.random.default_rng(0))
    assert oracle.count == 0


def test_sample_size_refuses_the_cap(legendre_plan_256):
    assert _sample_size(legendre_plan_256, 0.01) < SAMPLE_CAP
    with pytest.raises(ValueError, match=f"above the cap {SAMPLE_CAP}"):
        _sample_size(legendre_plan_256, 1e-4)


def test_config_round_count_is_odd():
    for mu in (0.5, 0.1, 1e-3, 1e-9, 1e-15):
        assert _round_count(mu) % 2 == 1
