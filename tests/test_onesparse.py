"""Single-spike solver stages, each against a synthetic ground truth.

Signals live on the coefficient side: a spike of value v at root ell means
the sampled vector is v * F[ell, :], so correlations against rows of F are
exactly v at ell and 0 elsewhere.
"""

import math

import numpy as np
import pytest

from opsparse.ksparse import QueryOracle
from opsparse.numtheory import bad_intervals
from opsparse.onesparse import (
    ArcCosError,
    OneSparseConfig,
    RecoveryError,
    approx_arccos,
    prune,
    prune_non_spread,
    query_cos,
    solve_one_sparse,
    spread_rho,
)


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


def test_prune_early_fail_saves_queries(legendre_plan_256, rng):
    plan = legendre_plan_256
    empty = QueryOracle(np.zeros(plan.n))
    prune(plan, empty, 0.0, math.pi, 1e-6, 0.01, rng)
    full = QueryOracle(spike_signal(plan, 130, 0.8))
    prune(plan, full, 0.0, math.pi, 1e-6, 0.01, np.random.default_rng(1))
    assert empty.count < full.count


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


def test_sample_size_refuses_the_cap(legendre_plan_256):
    from opsparse.onesparse import SAMPLE_CAP, _sample_size

    cfg = OneSparseConfig()
    assert _sample_size(legendre_plan_256, 0.01, cfg) < SAMPLE_CAP
    with pytest.raises(ValueError, match=f"above the cap {SAMPLE_CAP}"):
        _sample_size(legendre_plan_256, 1e-4, cfg)


def test_config_round_count_is_odd():
    from opsparse.onesparse import _round_count

    cfg = OneSparseConfig()
    for mu in (0.5, 0.1, 1e-3, 1e-9, 1e-15):
        assert _round_count(mu, cfg) % 2 == 1
