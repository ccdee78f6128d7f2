"""Tests for the k-sparse reduction layer: counted access, filtered queries,
the sampled verifier, and the peeling loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsparse import (
    JacobiParams,
    QueryOracle,
    ReductionConfig,
    SimulatedAccess,
    SparseApprox,
    build_boxcar,
    build_plan,
    recover,
    solve_one_sparse,
)
from opsparse.ksparse import ENERGY_TAU, _verify_samples, large, peeler, verify
from opsparse.onesparse import (
    SAMPLE_CAP,
    OneSparseResult,
    RecoveryError,
    _round_count,
    _sample_size,
)


@pytest.fixture(scope="module")
def peel_plan():
    return build_plan(JacobiParams(0.0, 0.0), 256)


# ---------------------------------------------------------------------------
# counted access


def test_query_oracle_counts_every_access():
    oracle = QueryOracle(np.arange(10.0))
    assert len(oracle) == 10
    assert oracle.query(3) == 3.0
    assert oracle.count == 1
    got = oracle.query_many(np.array([1, 1, 7]))
    np.testing.assert_array_equal(got, [1.0, 1.0, 7.0])
    assert oracle.count == 4  # repeats are billed individually


def test_query_oracle_refuses_out_of_range_uncounted():
    oracle = QueryOracle(np.arange(5.0))
    for idx in ([-1, 0], [5], [0, 2, 5]):
        with pytest.raises(IndexError, match="out of range"):
            oracle.query_many(idx)
    for i in (-1, 5):
        with pytest.raises(IndexError, match="out of range"):
            oracle.query(i)
    assert oracle.count == 0


def test_query_oracle_refuses_non_integer_indices_uncounted():
    oracle = QueryOracle(np.arange(5.0))
    for idx in ([1.7], [True, False], np.array([0.0, 2.0])):
        with pytest.raises(IndexError, match="must be integers"):
            oracle.query_many(idx)
    for i in (2.5, True):
        with pytest.raises(IndexError, match="must be integers"):
            oracle.query(i)
    assert oracle.count == 0
    assert oracle.query_many([]).size == 0  # an empty list is float to numpy
    assert oracle.count == 0


def test_simulated_access_refuses_non_integer_indices_uncounted():
    plan = build_plan(JacobiParams(0.0, 0.0), 64)
    oracle = QueryOracle(np.arange(64.0))
    access = SimulatedAccess(plan, oracle, SparseApprox(), build_boxcar(1.2, 0.5, 0.05))
    for js in ([1.7], [True, False]):
        with pytest.raises(IndexError, match="must be integers"):
            access.query_many(js)
    assert oracle.count == 0


# ---------------------------------------------------------------------------
# sparse estimate container


def test_sparse_approx_accumulates_and_cancels():
    z = SparseApprox()
    z.add(9, 1.5)
    z.add(2, -0.5)
    z.add(9, -1.5)  # exact cancellation drops the entry
    assert len(z) == 1
    assert 9 not in z
    assert z.get(9) == 0.0
    assert z.get(2) == -0.5
    z.add(2, -0.25)
    assert z.get(2) == -0.75


def test_sparse_approx_support_dense_copy():
    z = SparseApprox({17: 2.0, 3: -1.0, 11: 0.5})
    assert z.support() == [3, 11, 17]
    dense = z.to_dense(20)
    assert dense[3] == -1.0 and dense[11] == 0.5 and dense[17] == 2.0
    assert np.count_nonzero(dense) == 3
    other = z.copy()
    other.add(3, 1.0)  # cancels in the copy only
    assert 3 not in other
    assert z.get(3) == -1.0


# ---------------------------------------------------------------------------
# configuration


def test_reduction_config_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        ReductionConfig(0, 0.05, 0.1, 1.0)
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        ReductionConfig(2, 0.2, 0.1, 1.0)
    with pytest.raises(ValueError, match="gamma must be at most pi"):
        ReductionConfig(2, 0.05, 0.1, 4.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        ReductionConfig(2, 0.05, -0.1, 1.0)
    for mu in (1.0, 1.5):
        with pytest.raises(ValueError, match="mu must lie in"):
            ReductionConfig(2, 0.05, mu, 1.0)
    for name in ("delta", "mu", "gamma", "c_t0", "c_t1", "c_t2", "c_d", "c_big"):
        for value in (math.nan, math.inf):
            args = {"k": 2, "delta": 0.05, "mu": 0.1, "gamma": 1.0, name: value}
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                ReductionConfig(**args)


def test_reduction_config_derived_quantities():
    cfg = ReductionConfig(4, 0.05, 0.1, 0.6)
    assert cfg.eps() == 0.05 / 20.0
    assert cfg.boxcar_width() == 0.15
    assert cfg.boxcar_eps() == cfg.eps() / 2.0
    assert cfg.degree_budget() == math.ceil(2.0 * 2.0 / (cfg.eps() * 0.6))
    assert cfg.batch() == min(cfg.t0(), math.ceil(2.0 * math.pi / 0.6))
    assert cfg.t2() >= cfg.k


def test_reduction_config_calibrated_profile():
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    assert (cfg.c_t0, cfg.c_t1, cfg.c_big) == (1.0, 0.008, 2.0)
    # frozen values, worked out from the documented formulas by hand
    assert cfg.eps() == 0.025
    assert cfg.t0() == 61
    assert cfg.t2() == 3
    assert cfg.batch() == 7
    assert cfg.degree_budget() == 57
    tweaked = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0, c_d=4.0)
    assert tweaked.c_d == 4.0
    assert tweaked.c_t1 == 0.008  # untouched overrides keep the profile


# ---------------------------------------------------------------------------
# order statistics


def test_large_frozen_cases():
    x = np.array([3.0, -7.0, 2.0])
    assert large(1, x) == 7.0
    assert large(2, x) == 3.0
    assert large(3, x) == 2.0
    with pytest.raises(ValueError, match="out of range"):
        large(0, x)
    with pytest.raises(ValueError, match="out of range"):
        large(4, x)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=25),
    st.data(),
)
def test_large_matches_sorted(xs, data):
    s = data.draw(st.integers(1, len(xs)))
    assert large(s, np.array(xs)) == sorted(abs(v) for v in xs)[-s]


# ---------------------------------------------------------------------------
# filtered access


def test_simulated_access_matches_dense_application(rng):
    filt = build_boxcar(1.2, 0.5, 0.05)
    plan = build_plan(JacobiParams(0.0, 0.0), 64)
    y = rng.standard_normal(64)
    zhat = SparseApprox({5: 0.7, 20: -1.1})

    mat = plan.matrix()
    weights = filt(plan.lam)
    dense_filter = mat.T @ (weights[:, None] * mat)
    zvals = 0.7 * plan.row(5) - 1.1 * plan.row(20)
    expected = dense_filter @ (y - zvals)

    access = SimulatedAccess(plan, QueryOracle(y), zhat, filt)
    got = access.query_many(np.arange(64))
    np.testing.assert_allclose(got, expected, atol=1e-10)
    assert access.query_many(np.array([13]))[0] == got[13]

    # many indices, with both ends and repeats
    d = filt.degree
    js = np.concatenate([[0, 63, 0], rng.integers(0, 64, size=900), [63, 31, 31]])
    oracle = QueryOracle(y)
    got = SimulatedAccess(plan, oracle, zhat, filt).query_many(js)
    np.testing.assert_allclose(got, expected[js], atol=1e-10)
    windows = np.minimum(64, js + d + 1) - np.maximum(0, js - d)
    assert oracle.count == int(windows.sum())


class RecordingOracle(QueryOracle):
    """A QueryOracle that keeps every index it is asked for, call by call."""

    def __init__(self, values):
        super().__init__(values)
        self.calls = []

    def query_many(self, idx):
        out = super().query_many(idx)
        self.calls.append(np.asarray(idx).copy())
        return out


def test_simulated_access_reads_exactly_the_windows_once_per_call(rng):
    # one raw request per call, on the multiset of the clipped windows
    # max(0, j-d) .. min(N-1, j+d), and the values of the dense
    # F^T D_b F (x - F^T zhat) for a two-spike zhat
    n = 64
    filt = build_boxcar(1.2, 0.5, 0.05)
    d = filt.degree
    assert 0 < d < n // 2  # both interior and edge rows exist
    plan = build_plan(JacobiParams(0.0, 0.0), n)
    y = rng.standard_normal(n)
    zhat = SparseApprox({9: 0.8, 40: -1.3})
    mat = plan.matrix()
    dense_filter = mat.T @ (filt(plan.lam)[:, None] * mat)
    expected = dense_filter @ (y - zhat.image(plan))
    interior = np.arange(d, n - d)
    edge = np.concatenate([np.arange(d), np.arange(n - d, n)])
    cases = {
        "interior": rng.choice(interior, size=30),
        "edge": rng.choice(edge, size=30),
        "mixed with repeats": np.concatenate([[0, n - 1, d, n - d - 1, d - 1, n - d],
                                              rng.integers(0, n, size=200), [0, 0, 31, 31]]),
        "empty": np.array([], dtype=np.int64),
    }
    for name, js in cases.items():
        oracle = RecordingOracle(y)
        got = SimulatedAccess(plan, oracle, zhat, filt).query_many(js)
        assert len(oracle.calls) == 1, name
        windows = [np.arange(max(0, j - d), min(n - 1, j + d) + 1) for j in js]
        want = np.sort(np.concatenate(windows)) if windows else np.array([], dtype=np.int64)
        np.testing.assert_array_equal(np.sort(oracle.calls[0]), want, err_msg=name)
        assert oracle.count == want.size, name
        assert got.shape == js.shape, name
        np.testing.assert_allclose(got, expected[js], rtol=0, atol=1e-10, err_msg=name)


def test_simulate_query_cost_and_agreement(rng):
    filt = build_boxcar(1.2, 0.5, 0.05)
    plan = build_plan(JacobiParams(0.0, 0.0), 64)
    y = rng.standard_normal(64)
    zhat = SparseApprox({30: 0.4})
    d = filt.degree
    mat = plan.matrix()
    dense_filter = mat.T @ (filt(plan.lam)[:, None] * mat)
    expected = dense_filter @ (y - 0.4 * plan.row(30))

    for j in (0, 11, 32, 63):
        oracle = QueryOracle(y)
        val = SimulatedAccess(plan, oracle, zhat, filt).query_many(np.array([j]))[0]
        window = min(64, j + d + 1) - max(0, j - d)
        assert oracle.count == window
        assert oracle.count <= 2 * d + 1
        assert val == pytest.approx(expected[j], abs=1e-10)

    # out-of-range indices raise before any raw entry is read
    for js in ([64], [-1], [3, 64, 5]):
        oracle = QueryOracle(y)
        access = SimulatedAccess(plan, oracle, zhat, filt)
        with pytest.raises(IndexError, match="out of range"):
            access.query_many(np.array(js))
        assert oracle.count == 0
    oracle = QueryOracle(y)
    with pytest.raises(IndexError, match="out of range"):
        SimulatedAccess(plan, oracle, zhat, filt).query_many(np.array([-1]))
    assert oracle.count == 0


# ---------------------------------------------------------------------------
# sampled verification


def test_verify_accepts_small_residual(legendre_plan_64, rng):
    plan = legendre_plan_64
    v, h = 1.0, 10
    pert = rng.standard_normal(plan.n)
    pert *= math.sqrt(v * v / 2000.0) / np.linalg.norm(pert)
    y = QueryOracle(v * plan.row(h) + pert)
    assert verify(plan, y, v, h, 0.25, 0.1, rng, 2.0)


def test_verify_rejects_large_residual(legendre_plan_64, rng):
    plan = legendre_plan_64
    v, h = 1.0, 10
    pert = rng.standard_normal(plan.n)
    pert *= math.sqrt(v * v / 2.0) / np.linalg.norm(pert)
    y = QueryOracle(v * plan.row(h) + pert)
    assert not verify(plan, y, v, h, 0.25, 0.1, rng, 2.0)


def test_verify_clamps_outliers_without_discarding(legendre_plan_64, rng):
    # one wild entry must still sink the estimate: the residual is clamped,
    # not zeroed, so its clamped square alone exceeds the acceptance bar
    plan = legendre_plan_64
    v, h = 1.0, 10
    y = v * plan.row(h)
    y[41] += 1.0e6
    assert not verify(plan, QueryOracle(y), v, h, 0.25, 0.1, rng, 2.0)


def test_verify_rejects_zero_value(legendre_plan_64, rng):
    plan = legendre_plan_64
    y = QueryOracle(np.zeros(plan.n))
    assert not verify(plan, y, 0.0, 10, 0.25, 0.1, rng, 2.0)


# ---------------------------------------------------------------------------
# peeling


def test_peeler_commits_fresh_spike(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig.calibrated(1, 0.05, 0.1, 1.0, c_d=2.0)
    y = QueryOracle(1.3 * plan.row(100))
    rng = np.random.default_rng(3)
    zhat, stop = peeler(plan, y, SparseApprox(), cfg, solve_one_sparse, rng)
    assert not stop
    assert zhat.support() == [100]
    assert zhat.get(100) == pytest.approx(1.3, abs=0.2)


def test_peeler_stops_on_exhausted_residual(peel_plan):
    # with the spike peeled exactly, a full pass verifies nothing
    plan = peel_plan
    cfg = ReductionConfig.calibrated(1, 0.05, 0.1, 1.0, c_d=2.0)
    y = QueryOracle(1.3 * plan.row(100))
    rng = np.random.default_rng(3)
    zhat, stop = peeler(plan, y, SparseApprox({100: 1.3}), cfg,
                        solve_one_sparse, rng)
    assert stop
    assert zhat.support() == [100]
    assert zhat.get(100) == 1.3


def test_peeler_degree_budget_guard(legendre_plan_256):
    cfg = ReductionConfig.calibrated(1, 0.05, 0.1, 1.0, c_d=1e-6)
    y = QueryOracle(np.zeros(256))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exceeds budget"):
        peeler(legendre_plan_256, y, SparseApprox(), cfg, solve_one_sparse, rng)


def test_default_gamma_boxcars_fit_degree_budget():
    # README's `recover` example: N=2048, k=2, sigma=1/(4k^2) and the gamma it
    # implies; stride 16 includes roots 48 and 2000, whose boxcars take the
    # most degree increases
    plan = build_plan(JacobiParams(0.0, 0.0), 2048)
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 2.0 * math.pi / 16.0 / 3.0)
    degrees = [build_boxcar(float(th), cfg.boxcar_width(), cfg.boxcar_eps()).degree
               for th in plan.theta[::16]]
    assert max(degrees) <= cfg.degree_budget()


def test_verify_samples_refuse_the_cap(peel_plan):
    assert _verify_samples(peel_plan, 0.25, 0.1, 2.0) < SAMPLE_CAP
    with pytest.raises(ValueError, match=f"above the cap {SAMPLE_CAP}"):
        _verify_samples(peel_plan, 0.25, 1e-3, 2.0)


def test_recover_two_spikes(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    truth = SparseApprox({60: 1.0, 200: -0.8})
    y = truth.get(60) * plan.row(60) + truth.get(200) * plan.row(200)
    oracle = QueryOracle(y)

    zhat = recover(plan, oracle, cfg, seed=11)
    assert zhat.support() == [60, 200]
    err = np.linalg.norm(zhat.to_dense(256) - truth.to_dense(256))
    assert err <= 3.0 * cfg.delta * np.linalg.norm(truth.to_dense(256))
    # generous deterministic bound: every draw of every pass at full cost
    probe = build_boxcar(math.pi / 2.0, cfg.boxcar_width(), cfg.boxcar_eps())
    s = _sample_size(plan, 6.0 * cfg.eps())
    rounds = _round_count(cfg.mu0() / 2.0 / 6.0 / plan.n)
    t1 = _verify_samples(plan, cfg.mu0() / 2.0, cfg.eps(), cfg.c_t1)
    per_draw = (rounds * s + t1) * (2 * probe.degree + 1)
    assert oracle.count <= 4 * cfg.k * cfg.t2() * cfg.t0() * per_draw


def test_recover_zero_signal_returns_empty(peel_plan):
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    zhat = recover(peel_plan, QueryOracle(np.zeros(256)), cfg, seed=5)
    assert len(zhat) == 0


# ---------------------------------------------------------------------------
# pass-band windows and the energy floor


def band_and_floor(plan, cfg, ell, resid):
    """The window and floor that peeler hands a draw at root ell, with the
    exact residual norm in place of its estimate."""
    theta, width = float(plan.theta[ell]), cfg.boxcar_width()
    floor = ENERGY_TAU * cfg.delta * float(np.linalg.norm(resid)) / math.sqrt(cfg.k)
    return (theta - width, theta + width), floor


def test_empty_bin_draw_ends_after_one_round(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    ell = 128
    theta, width = plan.theta[ell], cfg.boxcar_width()
    far = np.nonzero(np.abs(plan.theta - theta) >= 2.0 * width)[0]
    y = 1.2 * plan.row(int(far[10])) - 0.9 * plan.row(int(far[-10]))
    window, floor = band_and_floor(plan, cfg, ell, y)
    filt = build_boxcar(theta, width, cfg.boxcar_eps())
    eps = 6.0 * cfg.eps()
    oracle = QueryOracle(y)
    access = SimulatedAccess(plan, oracle, SparseApprox(), filt)
    with pytest.raises(RecoveryError, match="energy floor"):
        solve_one_sparse(plan, access, eps, cfg.mu0() / 2.0, np.random.default_rng(4),
                         window=window, floor=floor)
    # exactly the first round's s filtered samples, each a clipped window
    s = _sample_size(plan, eps)
    js = np.random.default_rng(4).integers(0, plan.n, size=s)
    d = filt.degree
    assert oracle.count == int((np.minimum(plan.n, js + d + 1) - np.maximum(0, js - d)).sum())


def test_floor_keeps_a_spike_at_the_threshold(peel_plan):
    # the smallest spike that must be found, |v| = delta R / sqrt(k), beside
    # a large spike outside the pass band that sets R
    plan = peel_plan
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    small, big = 90, 200
    assert abs(plan.theta[big] - plan.theta[small]) >= 2.0 * cfg.boxcar_width()
    v = cfg.delta / math.sqrt(cfg.k) / math.sqrt(1.0 - cfg.delta**2 / cfg.k)
    y = v * plan.row(small) + plan.row(big)
    assert v == pytest.approx(cfg.delta * np.linalg.norm(y) / math.sqrt(cfg.k))
    window, floor = band_and_floor(plan, cfg, small, y)
    filt = build_boxcar(float(plan.theta[small]), cfg.boxcar_width(), cfg.boxcar_eps())
    for seed in range(5):
        access = SimulatedAccess(plan, QueryOracle(y), SparseApprox(), filt)
        got = solve_one_sparse(plan, access, 6.0 * cfg.eps(), cfg.mu0() / 2.0,
                               np.random.default_rng(seed), window=window, floor=floor)
        assert got.index == small
        assert got.value == pytest.approx(v, rel=0.2)


def test_recover_commits_a_spike_at_the_threshold(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    v = cfg.delta / math.sqrt(cfg.k) / math.sqrt(1.0 - cfg.delta**2 / cfg.k)
    y = v * plan.row(90) + plan.row(200)
    zhat = recover(plan, QueryOracle(y), cfg, seed=2)
    assert zhat.support() == [90, 200]


def test_peeler_counts_the_residual_estimate_and_passes_band_and_floor(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    y = 1.3 * plan.row(100)
    calls = []

    def miss(plan, access, eps, mu, rng, *, window, floor):
        calls.append((window, floor))
        raise RecoveryError("stub reads nothing")

    oracle = QueryOracle(y)
    zhat, stop = peeler(plan, oracle, SparseApprox(), cfg, miss, np.random.default_rng(8))
    assert stop and len(zhat) == 0
    s = _sample_size(plan, 6.0 * cfg.eps())
    assert oracle.count == s  # one residual estimate, every read counted
    assert len(calls) == cfg.t0()
    floors = {floor for _, floor in calls}
    assert len(floors) == 1  # estimated once per pass
    r_hat = floors.pop() * math.sqrt(cfg.k) / (ENERGY_TAU * cfg.delta)
    assert r_hat == pytest.approx(1.3, rel=0.2)
    for lo, hi in (w for w, _ in calls):
        assert hi - lo == pytest.approx(2.0 * cfg.boxcar_width())


def test_peeler_drives_a_stub_solver_with_the_new_keywords(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig.calibrated(1, 0.05, 0.1, 1.0, c_d=2.0)
    spike, value = 100, 1.3

    def oracle_solver(plan, access, eps, mu, rng, *, window, floor):
        if not window[0] <= plan.theta[spike] <= window[1]:
            raise RecoveryError("spike outside the window")
        return OneSparseResult(spike, value)

    zhat, stop = peeler(plan, QueryOracle(value * plan.row(spike)), SparseApprox(),
                        cfg, oracle_solver, np.random.default_rng(3))
    assert not stop
    assert dict(zhat.items()) == {spike: value}
