"""Acceptance suite: ten end-to-end criteria, one summary line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines with the measured quantities.  Tolerances are pinned here
and are not derived from the implementation under test.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from test_boxcar import grid_check

from opsparse import (
    JacobiParams,
    QueryOracle,
    RawReads,
    RecoveryError,
    ReductionConfig,
    ResidualReads,
    SampleSchedule,
    SimulatedAccess,
    SparseApprox,
    build_boxcar,
    build_plan,
    recover,
    solve_one_sparse,
)
from opsparse.cli import synth_spectrum
from opsparse.dct import chebyshev_transform_direct, chebyshev_via_fourier, embed
from opsparse.numtheory import bad_intervals, is_good_bruteforce
from opsparse.onesparse import approx_arccos, spread_rho

PARAMS = ((-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (1.5, -0.3))
SIZES = (16, 64, 256)


def report(num, label, ok, detail):
    print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def base_plans():
    return {(a, b, n): build_plan(JacobiParams(a, b), n)
            for a, b in PARAMS for n in SIZES}


def _quad_alg(f, alpha, beta):
    with warnings.catch_warnings():
        # the 1e-14 target trips QUADPACK's roundoff heuristic; the achieved
        # accuracy is still orders of magnitude inside the 1e-8 criterion
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, -1.0, 1.0, weight="alg", wvar=(beta, alpha),
                      epsabs=1e-14, epsrel=1e-12, limit=300)
    return val


def test_criterion_1_transform_orthogonality_and_quadrature(base_plans):
    start = time.perf_counter()
    worst_ortho = 0.0
    worst_quad = 0.0
    for (a, b, n), plan in base_plans.items():
        mat = plan.matrix()
        worst_ortho = max(worst_ortho,
                          float(np.abs(mat.T @ mat - np.eye(n)).max()))
        if n == 16:
            degrees = range(2 * n)
        else:
            degrees = (0, 1, 2, n // 2, n, 2 * n - 2, 2 * n - 1)
        for m in degrees:
            got = float(plan.weights @ plan.lam**m)
            exact = _quad_alg(lambda x: x**m, a, b)
            scale = exact if m % 2 == 0 and exact > 0 else _quad_alg(
                lambda x: abs(x)**m, a, b)
            worst_quad = max(worst_quad, abs(got - exact) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_ortho <= 1e-8 and worst_quad <= 1e-8 and elapsed <= 30.0
    report(1, "transform orthogonality + quadrature exactness", ok,
           f"max |F'F - I| = {worst_ortho:.2e}, "
           f"max relative moment error = {worst_quad:.2e}, {elapsed:.1f}s")


def test_criterion_2_flatness(base_plans):
    worst = 0.0
    cheb_closed = 0.0
    cheb_limit = 0.0
    for (a, b, n), plan in base_plans.items():
        scaled = math.sqrt(n) * plan.U
        worst = max(worst, scaled)
        if (a, b) == (-0.5, -0.5):
            # the extreme entry sits at the outermost root, where the value
            # is sqrt(2/N) cos(pi/(2N)); the sqrt(2) law holds in the limit
            closed = math.sqrt(2.0) * math.cos(math.pi / (2 * n))
            cheb_closed = max(cheb_closed, abs(scaled - closed))
            cheb_limit = max(cheb_limit, abs(scaled - math.sqrt(2.0)))
    ok = worst <= 5.0 and cheb_closed <= 1e-12 and cheb_limit <= 0.008
    report(2, "flatness of the transform matrix", ok,
           f"max sqrt(N)*U = {worst:.4f} (<= 5), Chebyshev closed form dev "
           f"{cheb_closed:.1e}, distance to sqrt(2) {cheb_limit:.2e}")


def test_criterion_3_root_distribution():
    dens_lo = 1.0 / (2.0 * math.pi) / 1.25
    dens_hi = 3.0 / (2.0 * math.pi) * 1.25
    max_rel_dev = 0.0
    dens_range = (math.inf, 0.0)
    summary = []
    for a, b in PARAMS:
        cs = []
        for n in (64, 256, 1024):
            plan = build_plan(JacobiParams(a, b), n)
            cs.append(float(np.abs(plan.theta * n / math.pi
                                   - np.arange(n)).max()))
            for gamma in (0.4, 1.0):
                for t in np.linspace(0.0, math.pi - gamma, 37):
                    cnt = int(np.count_nonzero(
                        (plan.theta >= t) & (plan.theta < t + gamma)))
                    d = cnt / (gamma * n)
                    dens_range = (min(dens_range[0], d), max(dens_range[1], d))
        mean = sum(cs) / len(cs)
        max_rel_dev = max(max_rel_dev,
                          max(abs(c - mean) / mean for c in cs))
        summary.append(f"C^({a},{b})={mean:.3f}")
    ok = (max_rel_dev <= 0.2
          and dens_range[0] >= dens_lo and dens_range[1] <= dens_hi)
    report(3, "root angle distribution", ok,
           f"{', '.join(summary)}; max deviation across N = "
           f"{100 * max_rel_dev:.1f}% (<= 20%), window densities in "
           f"[{dens_range[0]:.3f}, {dens_range[1]:.3f}] ⊂ "
           f"[{dens_lo:.3f}, {dens_hi:.3f}]")


def test_criterion_4_random_boxcars():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    c_box = 0.0
    for _ in range(100):
        center = float(rng.uniform(0.0, math.pi))
        width = float(rng.uniform(0.05, 0.5))
        eps = float(rng.uniform(0.005, 0.05))
        filt = build_boxcar(center, width, eps)
        if not grid_check(filt):
            failures += 1
        c_box = max(c_box, filt.degree * width * eps)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and c_box <= 2.0 and elapsed <= 60.0
    report(4, "random boxcar filters", ok,
           f"{100 - failures}/100 pass the grid checks, measured degree "
           f"constant = {c_box:.3f} (<= 2.0), {elapsed:.1f}s")


def test_criterion_5_filtered_query_equivalence():
    rng = np.random.default_rng(7)
    cases = [(float(rng.uniform(0.0, math.pi)),
              float(rng.uniform(0.3, 0.6)),
              float(rng.uniform(0.02, 0.05))) for _ in range(200)]
    filters = [build_boxcar(*case) for case in cases]
    plan = build_plan(JacobiParams(0.0, 0.0), 64)
    mat = plan.matrix()
    worst = 0.0
    over_budget = 0
    for filt in filters:
        y = rng.standard_normal(64)
        zhat = SparseApprox()
        for h in rng.choice(64, size=int(rng.integers(0, 4)), replace=False):
            zhat.add(int(h), float(rng.uniform(-2.0, 2.0)))
        j = int(rng.integers(0, 64))
        dense_filter = mat.T @ (filt(plan.lam)[:, None] * mat)
        zvals = sum((v * plan.row(h) for h, v in zhat.items()),
                    np.zeros(64))
        expected = float((dense_filter @ (y - zvals))[j])
        oracle = QueryOracle(y)
        reads = ResidualReads(RawReads(oracle), zhat.image(plan))
        schedule = SampleSchedule(plan, reads, filt.degree)
        got = SimulatedAccess(schedule, filt).query_many(np.array([j]))[0]
        worst = max(worst, abs(got - expected))
        if oracle.count > 2 * filt.degree + 1:
            over_budget += 1
    ok = worst <= 1e-7 and over_budget == 0
    report(5, "filtered query oracle vs dense", ok,
           f"200 cases, max deviation = {worst:.2e} (<= 1e-7), "
           f"{over_budget} cases over the 2d+1 raw-query budget")


def test_criterion_6_arccos_confidence_intervals():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    rho = spread_rho(1e-4)
    bound = 2.0 * rho / 2**8 * (1 + 1e-12)  # width meets the bound exactly
    angles = list(rng.uniform(0.01, math.pi - 0.01, 1000))
    for _ in range(200):  # adversarial: parked next to collision angles
        t = int(rng.integers(1, 9))
        h = int(rng.integers(1, 2**t))
        jitter = float(rng.uniform(-0.5, 0.5)) * rho / 2**t
        angles.append(min(math.pi - 1e-6, max(1e-6, h * math.pi / 2**t + jitter)))
    missed = 0
    too_wide = 0
    for theta in angles:
        lo, hi = approx_arccos(lambda w: math.cos(w * theta), 8, 1e-4)
        if not lo <= theta <= hi:
            missed += 1
        if hi - lo > bound:
            too_wide += 1
    elapsed = time.perf_counter() - start
    ok = missed == 0 and too_wide == 0 and elapsed <= 10.0
    report(6, "arccos interval containment", ok,
           f"{len(angles)} angles (200 adversarial), {missed} containment "
           f"misses, {too_wide} over-width intervals, {elapsed:.1f}s")


def _one_sparse_trial(plan, seq, noise):
    rng = np.random.default_rng(seq)
    ell = int(rng.integers(0, plan.n))
    v = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    y = v * plan.row(ell)
    if noise > 0.0:
        w = rng.standard_normal(plan.n)
        y = y + w * (noise * abs(v) / np.linalg.norm(w))
    oracle = QueryOracle(y)
    try:
        res = solve_one_sparse(plan, oracle, 0.01, 0.02, rng)
    except RecoveryError:
        return False, oracle.count
    hit = res.index == ell and abs(res.value - v) <= 13 * 0.01 * abs(v)
    return hit, oracle.count


@pytest.mark.slow
def test_criterion_7_one_sparse_recovery(legendre_plan_4096):
    start = time.perf_counter()
    plan = legendre_plan_4096
    clean_hits = sum(
        _one_sparse_trial(plan, seq, 0.0)[0]
        for seq in np.random.SeedSequence(20260101).spawn(200))
    noisy_hits = sum(
        _one_sparse_trial(plan, seq, 0.01)[0]
        for seq in np.random.SeedSequence(20260102).spawn(200))

    medians = {}
    for n in (2**10, 2**14):
        small = build_plan(JacobiParams(0.0, 0.0), n)
        counts = [_one_sparse_trial(small, seq, 0.0)[1]
                  for seq in np.random.SeedSequence(n).spawn(20)]
        medians[n] = float(np.median(counts))
    ratio = medians[2**14] / medians[2**10]
    elapsed = time.perf_counter() - start
    ok = (clean_hits >= 190 and noisy_hits >= 180 and ratio <= 2.0
          and elapsed <= 300.0)
    report(7, "one-sparse recovery", ok,
           f"noiseless {clean_hits}/200 (>= 190), noisy {noisy_hits}/200 "
           f"(>= 180), median queries {medians[2**10]:.0f} -> "
           f"{medians[2**14]:.0f} (x{ratio:.2f} <= 2), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_k_sparse_recovery():
    start = time.perf_counter()
    results = []
    profile = None
    for k, gamma in ((2, 1.0), (4, 0.6)):
        cfg = ReductionConfig.calibrated(k, 0.05, 0.1, gamma)
        profile = cfg
        plan = build_plan(JacobiParams(0.0, 0.0), 2048)
        sigma = 3.0 * gamma / (2.0 * math.pi)
        for noise in (0.0, cfg.delta / (2.0 * cfg.c_big)):
            hits = 0
            for seq in np.random.SeedSequence(4242 + k).spawn(50):
                rng = np.random.default_rng(seq)
                support, values, spectrum = synth_spectrum(
                    2048, k, sigma, noise, rng)
                clean = np.zeros(2048)
                clean[support] = values
                oracle = QueryOracle(plan.inverse(spectrum))
                zhat = recover(plan, oracle, cfg, rng=rng)
                err = np.linalg.norm(zhat.to_dense(2048) - clean)
                hits += err <= 3.0 * cfg.delta * np.linalg.norm(clean)
            results.append((k, noise, hits))
    elapsed = time.perf_counter() - start
    ok = (all(h >= (45 if noise == 0.0 else 40)
              for _, noise, h in results) and elapsed <= 1200.0)
    blocks = ", ".join(
        f"k={k} {'noisy' if noise else 'clean'} {h}/50" for k, noise, h in results)
    report(8, "k-sparse recovery", ok,
           f"{blocks} (>= 45 clean, >= 40 noisy); calibrated profile "
           f"c_t0={profile.c_t0} c_t1={profile.c_t1} c_t2={profile.c_t2} "
           f"c_big={profile.c_big} C_D={profile.C_D}; "
           f"{elapsed:.0f}s")


def test_criterion_9_chebyshev_fourier_bridge():
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in (8, 64, 257, 512, 1024):
        c = rng.standard_normal(n)
        dev = float(np.abs(chebyshev_via_fourier(c)
                           - chebyshev_transform_direct(c)).max())
        worst = max(worst, dev)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 513))
        k = int(rng.integers(1, min(n, 8)))
        support = rng.choice(n, size=k, replace=False)
        c = np.zeros(n)
        c[support] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1, 1], size=k)
        carriers = sorted({n - int(j) for j in support}
                          | {n + int(j) for j in support})
        if not np.array_equal(np.flatnonzero(embed(c)), carriers):
            mismatches += 1
    ok = worst <= 1e-9 and mismatches == 0
    report(9, "Chebyshev-Fourier bridge", ok,
           f"max round-trip deviation = {worst:.2e} (<= 1e-9), "
           f"{mismatches}/100 support mismatches")


def test_criterion_10_bad_interval_soundness():
    n, eps = 200, 0.25
    cover = bad_intervals(n, eps)
    ys = np.linspace(0.0, 1.0, 2000, endpoint=False)
    outside = [float(y) for y in ys if not cover.contains(y)]
    violations = sum(not is_good_bruteforce(y, n, eps) for y in outside)
    counts = {}
    for e in (1.0, 0.5):
        order = round(4.0 / e)  # the cover enumerates fractions up to 4/eps
        expected = 1 + sum(
            sum(1 for p in range(1, q) if math.gcd(p, q) == 1) + (q == 1)
            for q in range(1, order + 1))
        counts[e] = (len(bad_intervals(n, e)), expected)
    ok = violations == 0 and all(got == want for got, want in counts.values())
    report(10, "bad-interval superset soundness", ok,
           f"{len(outside)} grid points outside the cover, {violations} "
           f"soundness violations; interval counts "
           f"{counts[1.0][0]}=={counts[1.0][1]} (eps=1), "
           f"{counts[0.5][0]}=={counts[0.5][1]} (eps=0.5)")
