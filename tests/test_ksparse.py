"""Tests for the k-sparse reduction layer: counted access, filtered queries,
the sampled verifier, and the peeling loop."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

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
from opsparse import ksparse, onesparse
from opsparse.boxcar import BoxcarFilter
from opsparse.ksparse import (
    ENERGY_TAU,
    RawReads,
    SampleSchedule,
    _verify_samples,
    peeler,
    verify,
)
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


def standalone(plan, oracle, zhat, filt):
    """A draw's access on a schedule of its own, at the filter's degree."""
    return SimulatedAccess(schedule_of(plan, oracle, zhat.image(plan), filt.degree), filt)


def schedule_of(plan, oracle, z, degree):
    """A schedule reading x - z through a memo of its own."""
    return SampleSchedule(plan, RawReads(oracle), z, degree)


def memos(oracle):
    """The solver's and verify's memos of raw x, fresh, as a trial starts."""
    return RawReads(oracle), RawReads(oracle)


def window_reads(js, d, n):
    """Sorted union of the clipped windows max(0, j-d) .. min(N-1, j+d), j in js:
    the one request a sampling round makes, each entry once, ascending."""
    union = set()
    for j in js:
        union.update(range(max(0, j - d), min(n - 1, j + d) + 1))
    return np.array(sorted(union), dtype=np.int64)


def pass_requests(index_sets, n):
    """The oracle requests one pass makes for these index sets, in order: the
    entries of each set that no earlier set held, ascending; a set with none
    makes no request."""
    seen = np.zeros(n, dtype=bool)
    out = []
    for idx in index_sets:
        idx = np.unique(idx)
        new = idx[~seen[idx]]
        seen[idx] = True
        if new.size:
            out.append(new)
    return out


def bank_size(cfg):
    """Draws per filter bank: m = ceil(pi / (2w)) + 1 pass bands of half-width w."""
    return math.ceil(math.pi / (2.0 * cfg.boxcar_width())) + 1


class RecordingOracle(QueryOracle):
    """A QueryOracle that keeps every index it is asked for, call by call."""

    def __init__(self, values):
        super().__init__(values)
        self.calls = []

    def query_many(self, idx):
        out = super().query_many(idx)
        self.calls.append(np.asarray(idx).copy())
        return out


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
    access = standalone(plan, oracle, SparseApprox(), build_boxcar(1.2, 0.5, 0.05))
    for js in ([1.7], [True, False]):
        with pytest.raises(IndexError, match="must be integers"):
            access.query_many(js)
        assert oracle.count == 0
    # numpy would read position -1 as entry N-1 and filter around it
    for js in ([-1], [64], [0, 5, 64], [3, -2]):
        with pytest.raises(IndexError, match="out of range for N=64"):
            access.query_many(np.array(js))
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
    for k in (2.5, np.float64(2.0), True, "2"):
        with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
            ReductionConfig(k, 0.05, 0.1, 1.0)
    assert ReductionConfig(np.int64(2), 0.05, 0.1, 1.0).t2() == 3
    for name in ("delta", "mu", "gamma"):
        for value in (math.nan, math.inf):
            args = {"k": 2, "delta": 0.05, "mu": 0.1, "gamma": 1.0, name: value}
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                ReductionConfig(**args)


def test_reduction_config_derived_quantities():
    cfg = ReductionConfig(4, 0.05, 0.1, 0.6)
    assert cfg.eps() == 0.05 / 2.0
    assert cfg.boxcar_width() == 0.15
    assert cfg.boxcar_eps() == cfg.eps() / 2.0
    assert cfg.degree_budget() == math.ceil(16.0 * math.log(1.0 / cfg.boxcar_eps()) / 0.6)
    assert cfg.t2() >= cfg.k


def test_reduction_config_calibrated_profile():
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    assert (cfg.c_t0, cfg.c_t1, cfg.c_big, cfg.C_D) == (1.0, 0.008, 2.0, 16.0)
    # frozen values, worked out from the documented formulas by hand
    assert cfg.eps() == 0.025
    assert cfg.t0() == 61
    assert cfg.t2() == 3
    assert cfg.degree_budget() == 65
    assert cfg == ReductionConfig(2, 0.05, 0.1, 1.0)
    assert [f.name for f in dataclasses.fields(cfg)] == ["k", "delta", "mu", "gamma"]


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

    access = standalone(plan, QueryOracle(y), zhat, filt)
    got = access.query_many(np.arange(64))
    np.testing.assert_allclose(got, expected, atol=1e-10)
    assert access.query_many(np.array([13]))[0] == got[13]

    # many indices, with both ends and repeats: one request for the union
    # of their windows, which here is the whole signal
    d = filt.degree
    js = np.concatenate([[0, 63, 0], rng.integers(0, 64, size=900), [63, 31, 31]])
    oracle = RecordingOracle(y)
    got = standalone(plan, oracle, zhat, filt).query_many(js)
    np.testing.assert_allclose(got, expected[js], atol=1e-10)
    assert len(oracle.calls) == 1
    np.testing.assert_array_equal(oracle.calls[0], window_reads(js, d, 64))
    assert oracle.count == window_reads(js, d, 64).size == 64


def test_simulated_access_reads_exactly_the_windows_once_per_call(rng):
    # one raw request per call, on the union of the clipped windows
    # max(0, j-d) .. min(N-1, j+d) in ascending order (none for no positions),
    # and the values of the dense F^T D_b F (x - F^T zhat) for a two-spike zhat
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
        got = standalone(plan, oracle, zhat, filt).query_many(js)
        want = window_reads(js, d, n)
        assert len(oracle.calls) == (1 if js.size else 0), name
        if js.size:
            np.testing.assert_array_equal(oracle.calls[0], want, err_msg=name)
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
        val = standalone(plan, oracle, zhat, filt).query_many(np.array([j]))[0]
        window = min(64, j + d + 1) - max(0, j - d)
        assert oracle.count == window
        assert oracle.count <= 2 * d + 1
        assert val == pytest.approx(expected[j], abs=1e-10)

    # out-of-range indices raise before any raw entry is read
    for js in ([64], [-1], [3, 64, 5]):
        oracle = QueryOracle(y)
        access = standalone(plan, oracle, zhat, filt)
        with pytest.raises(IndexError, match="out of range"):
            access.query_many(np.array(js))
        assert oracle.count == 0
    oracle = QueryOracle(y)
    with pytest.raises(IndexError, match="out of range"):
        standalone(plan, oracle, zhat, filt).query_many(np.array([-1]))
    assert oracle.count == 0


# ---------------------------------------------------------------------------
# one sample schedule per batch of draws


@pytest.fixture(scope="module")
def batch_filters():
    """The peeler's filters at k=2, gamma=1: degree 43 at delta=0.07 and 47
    at delta=0.05."""
    narrow = build_boxcar(0.9, 0.25, ReductionConfig(2, 0.07, 0.1, 1.0).boxcar_eps())
    wide = build_boxcar(2.1, 0.25, ReductionConfig(2, 0.05, 0.1, 1.0).boxcar_eps())
    assert (narrow.degree, wide.degree) == (43, 47)
    return narrow, wide


def test_batch_draws_read_each_round_once_at_the_widest_window(peel_plan,
                                                              batch_filters, rng):
    plan, n, s = peel_plan, peel_plan.n, 300
    narrow, wide = batch_filters
    y = rng.standard_normal(n)
    zhat = SparseApprox({40: 0.6, 200: -0.3})
    oracle = RecordingOracle(y)
    schedule = schedule_of(plan, oracle, zhat.image(plan), wide.degree)
    a = SimulatedAccess(schedule, narrow)
    b = SimulatedAccess(schedule, wide)
    gen = np.random.default_rng(3)
    got_a = [a.sample(s, gen) for _ in range(3)]
    got_b = [b.sample(s, gen) for _ in range(4)]  # one round past a's
    # round i's positions are the i-th draw from the rng of the first asker
    replay = np.random.default_rng(3)
    want_js = [replay.integers(0, n, size=s) for _ in range(4)]
    for i, js in enumerate(want_js):
        np.testing.assert_array_equal(got_b[i][0], js)
        if i < 3:
            np.testing.assert_array_equal(got_a[i][0], js)
    # each round requests the entries of its widest windows not read yet:
    # here the first round's union is the whole signal
    want = pass_requests([window_reads(js, 47, n) for js in want_js], n)
    assert len(oracle.calls) == len(want) == 1
    for call, reads in zip(oracle.calls, want):
        np.testing.assert_array_equal(call, reads)
    assert oracle.count == n
    # each draw applies its own filter to the shared windows
    mat = plan.matrix()
    resid = y - zhat.image(plan)
    for filt, got in ((narrow, got_a), (wide, got_b)):
        dense = mat.T @ (filt(plan.lam)[:, None] * mat) @ resid
        for js, vals in got:
            np.testing.assert_allclose(vals, dense[js], rtol=0, atol=1e-10)


def test_sample_values_match_query_many(peel_plan, batch_filters, rng):
    plan, n, s = peel_plan, peel_plan.n, 500
    y = rng.standard_normal(n)
    zhat = SparseApprox({77: 1.1})
    oracle = QueryOracle(y)
    schedule = schedule_of(plan, oracle, zhat.image(plan), 47)
    for filt in batch_filters:
        access = SimulatedAccess(schedule, filt)
        for _ in range(2):
            js, vals = access.sample(s, rng)
            assert vals.tobytes() == access.query_many(js).tobytes()


def test_residual_reads_match_the_repeated_scatter(peel_plan, rng):
    # read(js, d) reads the union of the windows in one request, and the
    # memo's residual holds the values the scatter of every window, repeats
    # included, puts there: y and its moments agree bit for bit
    plan, n = peel_plan, peel_plan.n
    x = rng.standard_normal(n)
    z = SparseApprox({40: 0.6, 200: -0.3}).image(plan)
    for d, js in ((47, rng.integers(0, n, size=300)),
                  (5, np.array([0, 0, n - 1, 100, 103, 103])),
                  (0, rng.integers(0, n, size=20)),
                  (12, np.array([], dtype=np.int64))):
        idx = js[:, None] + np.arange(-d, d + 1)
        idx = idx[(idx >= 0) & (idx < n)]
        assert idx.size == 0 or idx.size > np.unique(idx).size
        y = np.zeros(n)
        y[idx] = x[idx] - z[idx]
        oracle = RecordingOracle(x)
        reads = RawReads(oracle)
        reads.read(js, d)
        assert len(oracle.calls) == (1 if js.size else 0), d
        assert reads.count == np.unique(idx).size, d
        got_y = reads.residual(z)
        assert got_y.tobytes() == y.tobytes(), d
        want = plan.moments(y, d)[:, js].T
        got = plan.moments(got_y, d)[:, js].T
        assert got.tobytes() == want.tobytes(), d


def test_residual_reads_refuse_an_oracle_of_another_size(peel_plan):
    # a signal of 512 entries against a plan of 256 is refused before any
    # read, not peeled into an empty estimate
    oracle = QueryOracle(np.ones(512))
    with pytest.raises(ValueError, match="oracle holds 512 entries, the residual image 256"):
        schedule_of(peel_plan, oracle, np.zeros(256), 5)
    with pytest.raises(ValueError, match="oracle holds 512 entries"):
        recover(peel_plan, oracle, ReductionConfig(2, 0.05, 0.1, 1.0), seed=5)
    assert oracle.count == 0


@pytest.mark.parametrize("alpha, beta, n, d, s, earlier", [
    (0.0, 0.0, 256, 47, 300, 0),  # the first round reads every entry
    (0.0, 0.0, 256, 5, 3, 0),  # later rounds read new entries
    (1.5, -0.3, 128, 9, 4, 0),  # J has a nonzero diagonal
    (1.5, -0.3, 128, 9, 4, 2),  # the memo holds an earlier pass's reads
], ids=["full", "partial", "alpha-ne-beta", "read-earlier"])
def test_schedule_rounds_match_their_own_zero_filled_windows(alpha, beta, n, d, s,
                                                             earlier, monkeypatch):
    # a round's moments come from the bank's stack over every entry the memo
    # has read, in this pass or an earlier one against another image; they
    # equal plan.moments on x - z over the round's own window union, zero
    # elsewhere, bit for bit, before and after the stack is rebuilt
    plan = build_plan(JacobiParams(alpha, beta), n)
    gen = np.random.default_rng(9)
    x = gen.standard_normal(n)
    z = SparseApprox({7: 0.6, n // 2: -0.3}).image(plan)
    oracle = RecordingOracle(x)
    raw = RawReads(oracle)
    before = SampleSchedule(plan, raw, SparseApprox({n // 3: 2.0}).image(plan), d)
    done = [window_reads(before.round(i, 2, gen)[0], d, n) for i in range(earlier)]
    primed = len(oracle.calls)
    assert primed == len(pass_requests(done, n)) >= min(earlier, 1)
    builds = []

    def counted(y, deg):
        builds.append(deg)
        return type(plan).moments(plan, y, deg)

    monkeypatch.setattr(plan, "moments", counted)
    schedule = SampleSchedule(plan, raw, z, d)
    rounds = [schedule.round(i, s, gen) for i in range(5)]
    sets = [window_reads(js, d, n) for js, _ in rounds]
    # one stack build per round that requested entries, none for the others
    want = pass_requests(done + sets, n)[primed:]
    assert len(oracle.calls) - primed == len(builds) == len(want)
    assert builds == [d] * len(want)
    if s == 300:
        assert len(want) == 1
    else:
        assert len(want) > 1
    if earlier:
        # the earlier reads reach outside each round's windows, and the first
        # round reads new entries, so it builds the stack as a fresh memo would
        assert all(np.setdiff1d(np.concatenate(done), idx).size for idx in sets)
        assert np.setdiff1d(sets[0], np.concatenate(done)).size
    for i, (js, mom) in enumerate(rounds):
        y = np.zeros(n)
        y[sets[i]] = x[sets[i]] - z[sets[i]]
        expected = type(plan).moments(plan, y, d)[:, js].T
        assert mom.tobytes() == expected.tobytes(), i
        again_js, again = schedule.round(i, s, gen)
        np.testing.assert_array_equal(again_js, js)
        assert again.tobytes() == expected.tobytes(), i
    assert len(builds) == len(want)


def test_query_many_reads_through_the_pass_memo(peel_plan, batch_filters, rng):
    # a draw's one-shot queries request only the entries of their windows the
    # memo has not read, none when it has read them all, and return the bytes
    # of a fresh standalone access
    plan, n = peel_plan, peel_plan.n
    narrow, wide = batch_filters
    x = rng.standard_normal(n)
    zhat = SparseApprox({40: 0.6, 200: -0.3})
    oracle = RecordingOracle(x)
    access = SimulatedAccess(schedule_of(plan, oracle, zhat.image(plan), wide.degree),
                             narrow)
    js, _ = access.sample(2, rng)
    read = oracle.calls[0]
    assert read.size < n
    cases = [js, js[::-1], np.repeat(js, 3), np.array([], dtype=np.int64),
             np.unique(np.concatenate([js, rng.integers(0, n, size=3)]))]
    for i, q in enumerate(cases):
        calls = len(oracle.calls)
        got = access.query_many(q)
        fresh = standalone(plan, QueryOracle(x), zhat, narrow).query_many(q)
        assert got.tobytes() == fresh.tobytes(), i
        new = np.setdiff1d(window_reads(q, narrow.degree, n), read)
        if new.size:
            assert len(oracle.calls) == calls + 1, i
            np.testing.assert_array_equal(oracle.calls[-1], new)
            read = np.union1d(read, new)
        else:
            assert len(oracle.calls) == calls, i
    assert len(oracle.calls) == 2  # the last case reaches past the sampled windows
    assert oracle.count == read.size


def counted_plan(n=256):
    """A fresh Legendre plan whose ``moments`` calls are recorded by degree."""
    plan = build_plan(JacobiParams(0.0, 0.0), n)
    builds = []

    def counted(y, deg):
        builds.append(deg)
        return type(plan).moments(plan, y, deg)

    plan.moments = counted
    return plan, builds


def test_query_many_builds_no_stack_while_the_memo_has_not_grown(batch_filters, rng):
    # one-shot queries take their rows from the bank's moment stack; it is
    # rebuilt, at the bank's degree, only after a query reads new entries
    plan, builds = counted_plan()
    narrow, wide = batch_filters
    x = rng.standard_normal(plan.n)
    zhat = SparseApprox({40: 0.6, 200: -0.3})
    oracle = RecordingOracle(x)
    access = SimulatedAccess(schedule_of(plan, oracle, zhat.image(plan), wide.degree),
                             narrow)
    js, _ = access.sample(2, rng)
    assert builds == [wide.degree]
    far = np.unique(np.concatenate([js, rng.integers(0, plan.n, size=3)]))
    for q, grows in ((js, False), (js[::-1], False), (np.repeat(js, 3), False),
                     (far, True), (far, False), (js, False)):
        fresh = standalone(plan, QueryOracle(x), zhat, narrow).query_many(q)
        calls, built = len(oracle.calls), len(builds)
        got = access.query_many(q)
        assert got.tobytes() == fresh.tobytes()
        assert len(oracle.calls) == calls + grows
        assert builds[built:] == [wide.degree] * grows


def test_bank_round_is_gathered_once_and_serves_every_draw(peel_plan, batch_filters,
                                                           rng, monkeypatch):
    # round i's rows are gathered when the first draw asks for it; every
    # later draw of the bank gets the same positions and the same bytes
    plan, n, s = peel_plan, peel_plan.n, 40
    narrow, wide = batch_filters
    schedule = schedule_of(plan, QueryOracle(rng.standard_normal(n)),
                           SparseApprox({77: 1.1}).image(plan), wide.degree)
    gathers, served = [], []
    moments, round_ = schedule.moments, schedule.round

    def counted_moments(js, d):
        gathers.append(d)
        return moments(js, d)

    def spied_round(i, s, rng):
        got = round_(i, s, rng)
        served.append((i, got))
        return got

    monkeypatch.setattr(schedule, "moments", counted_moments)
    monkeypatch.setattr(schedule, "round", spied_round)
    gen = np.random.default_rng(4)
    for filt in (narrow, wide, narrow):
        access = SimulatedAccess(schedule, filt)
        for _ in range(3):
            access.sample(s, gen)
    assert gathers == [wide.degree] * 3
    for i in range(3):
        (js, mom), *rest = [got for j, got in served if j == i]
        assert len(rest) == 2
        for again_js, again in rest:
            assert again_js.tobytes() == js.tobytes()
            assert again.tobytes() == mom.tobytes()


def test_verify_reads_fresh_windows_at_the_draws_own_width(legendre_plan_2048,
                                                          monkeypatch):
    # the access the peeler hands verify has read nothing before the call,
    # though the pass has read entries of verify's windows, and makes one
    # request: the window union of verify's positions at the draw's own filter
    # degree, 43, in a bank whose widest is 47.  Its filtered values, read
    # through the bank's checker at degree 47, carry the bits of a schedule
    # at the filter's own degree
    plan, n = legendre_plan_2048, legendre_plan_2048.n

    class FewChecks(ReductionConfig):
        c_t1 = 1e-6  # 16 verify samples, whose windows leave entries unread

    cfg = FewChecks(2, 0.05, 0.1, 1.0)
    narrow_eps = ReductionConfig(2, 0.07, 0.1, 1.0).boxcar_eps()
    degrees, filters, accesses, checks = [], [], [], []

    def mixed_boxcar(center, width, eps):
        filt = build_boxcar(center, width, narrow_eps if len(degrees) % 2 else eps)
        degrees.append(filt.degree)
        filters.append(filt)
        return filt

    def stub(plan, access, eps, mu, rng, *, window, floor):
        access.sample(3, rng)
        accesses.append(access)
        if degrees[len(accesses) - 1] != 43 or checks:
            raise RecoveryError("stub")
        return OneSparseResult(int(np.searchsorted(plan.theta, window[0])), 1.0)

    def spy(plan, access, v, h, mu, eps, rng, c_t1):
        before, state = len(oracle.calls), rng.bit_generator.state
        ok = verify(plan, access, v, h, mu, eps, rng, c_t1)
        checks.append((access, before, len(oracle.calls), state,
                       _verify_samples(plan, mu, eps, c_t1), filters[len(accesses) - 1]))
        return ok

    monkeypatch.setattr(ksparse, "build_boxcar", mixed_boxcar)
    monkeypatch.setattr(ksparse, "verify", spy)
    oracle = RecordingOracle(plan.row(100))
    peeler(plan, *memos(oracle), SparseApprox(), cfg, stub, np.random.default_rng(4))
    assert len(checks) == 1 and set(degrees) == {43, 47}
    access, before, after, state, t1, filt = checks[0]
    assert t1 == 16 and access not in accesses and filt.degree == 43
    replay = np.random.default_rng()
    replay.bit_generator.state = state
    js = replay.integers(0, n, size=t1)
    want = window_reads(js, 43, n)
    assert want.size < window_reads(js, 47, n).size
    assert after == before + 1
    np.testing.assert_array_equal(oracle.calls[before], want)
    assert np.intersect1d(np.concatenate(oracle.calls[:before]), want).size > 0
    # the check's memo has read every window of js, so asking again reads nothing
    made = len(oracle.calls)
    got = access.query_many(js)
    assert len(oracle.calls) == made
    own = standalone(plan, QueryOracle(plan.row(100)), SparseApprox(), filt).query_many(js)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in own.tolist()]


def test_standalone_access_samples_as_a_batch_of_one(peel_plan, batch_filters, rng):
    # each sample call draws fresh positions and requests the entries of
    # their windows, at the filter's own width, that no earlier call read
    plan, n = peel_plan, peel_plan.n
    _, wide = batch_filters
    for s in (400, 1):
        oracle = RecordingOracle(rng.standard_normal(n))
        access = SimulatedAccess(schedule_of(plan, oracle, np.zeros(n), wide.degree),
                                 wide)
        gen, replay = np.random.default_rng(5), np.random.default_rng(5)
        windows = []
        for _ in range(3):
            js, _ = access.sample(s, gen)
            want = replay.integers(0, n, size=s)
            np.testing.assert_array_equal(js, want)
            windows.append(window_reads(want, 47, n))
        want = pass_requests(windows, n)
        assert len(oracle.calls) == len(want)
        for call, reads in zip(oracle.calls, want):
            np.testing.assert_array_equal(call, reads)
        assert len(want) == (1 if s == 400 else 3)


def test_schedule_refuses_a_wider_filter_or_another_size(peel_plan, batch_filters):
    narrow, wide = batch_filters
    oracle = QueryOracle(np.zeros(peel_plan.n))
    schedule = schedule_of(peel_plan, oracle, np.zeros(peel_plan.n), narrow.degree)
    with pytest.raises(ValueError, match="exceeds the schedule's window degree"):
        SimulatedAccess(schedule, wide)
    a = SimulatedAccess(schedule, narrow)
    b = SimulatedAccess(schedule, narrow)
    a.sample(10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="holds 10 positions, asked for 11"):
        b.sample(11, np.random.default_rng(0))


def test_schedule_refuses_a_window_as_wide_as_the_signal(batch_filters):
    # a window of radius N or more would read the whole signal per sample
    n = 40
    plan = build_plan(JacobiParams(0.0, 0.0), n)
    oracle = QueryOracle(np.ones(n))
    _, wide = batch_filters
    for degree in (n, wide.degree):
        with pytest.raises(ValueError, match=f"filter degree {degree} must be < N = {n}"):
            schedule_of(plan, oracle, np.zeros(n), degree)
    assert oracle.count == 0
    schedule_of(plan, oracle, np.zeros(n), n - 1)


def test_high_degree_draw_stores_no_moment_matrices(rng):
    # README's default gamma at k=2, delta=0.05 on Legendre N=2048: the
    # boxcar at root 48 has degree 346.  One schedule round and one sample
    # keep s x (d+1) moments and a few N-vectors; a cache of the diagonals of
    # T_0(J)..T_d(J) would hold (d+1)(d+3)/4 N floats, about 496 MB
    plan = build_plan(JacobiParams(0.0, 0.0), 2048)
    cfg = ReductionConfig(2, 0.05, 0.1, 2.0 * math.pi / 48.0)
    filt = build_boxcar(float(plan.theta[48]), cfg.boxcar_width(), cfg.boxcar_eps())
    assert filt.degree == 346
    s = _sample_size(plan, 6.0 * cfg.eps())
    oracle = QueryOracle(rng.standard_normal(plan.n))
    z = SparseApprox({300: 0.5, 1500: -0.7}).image(plan)
    tracemalloc.start()
    try:
        access = SimulatedAccess(schedule_of(plan, oracle, z, filt.degree), filt)
        js, vals = access.sample(s, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == js.shape == (s,)
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


def test_peeler_reads_each_drawn_round_once_per_batch(peel_plan, monkeypatch):
    plan, n = peel_plan, peel_plan.n
    cfg = ReductionConfig(2, 0.05, 0.1, 1.0)
    eps = 6.0 * cfg.eps()
    s = _sample_size(plan, eps)
    degrees = []
    narrow_eps = ReductionConfig(2, 0.07, 0.1, 1.0).boxcar_eps()

    def recording_boxcar(center, width, eps):
        # every other filter at degree 43, so banks mix 43 and 47
        filt = build_boxcar(center, width, narrow_eps if len(degrees) % 2 else eps)
        degrees.append(filt.degree)
        return filt

    monkeypatch.setattr(ksparse, "build_boxcar", recording_boxcar)
    drawn = []  # per draw, the positions of each round it sampled
    # rounds of 3 positions leave most of the signal unread, so later
    # rounds and banks still request entries

    def stub(plan, access, eps, mu, rng, *, window, floor):
        drawn.append([access.sample(3, rng)[0] for _ in range(len(drawn) % 4)])
        raise RecoveryError("stub")

    oracle = RecordingOracle(plan.row(100))
    zhat, stop = peeler(plan, *memos(oracle), SparseApprox(), cfg, stub,
                        np.random.default_rng(8))
    m = bank_size(cfg)
    assert stop and len(drawn) == math.ceil(cfg.t0() / m) * m == len(degrees)
    assert set(degrees) == {43, 47}
    # the residual estimate's positions come first from the pass's rng
    index_sets = [np.random.default_rng(8).integers(0, n, size=s)]
    for start in range(0, len(drawn), m):
        bank = drawn[start:start + m]
        width = max(degrees[start:start + m])
        rounds = max(len(r) for r in bank)
        for i in range(rounds):
            js = next(r[i] for r in bank if len(r) > i)
            for r in bank:
                if len(r) > i:
                    np.testing.assert_array_equal(r[i], js)
            index_sets.append(window_reads(js, width, n))
    # each request holds the entries of its set that the pass has not read
    want = pass_requests(index_sets, n)
    assert len(oracle.calls) == len(want) > 2
    for call, reads in zip(oracle.calls, want):
        np.testing.assert_array_equal(call, reads)
    assert oracle.count == sum(reads.size for reads in want)
    assert np.unique(np.concatenate(oracle.calls)).size == oracle.count


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
    cfg = ReductionConfig(1, 0.05, 0.1, 1.0)
    y = QueryOracle(1.3 * plan.row(100))
    rng = np.random.default_rng(3)
    zhat, stop = peeler(plan, *memos(y), SparseApprox(), cfg, solve_one_sparse, rng)
    assert not stop
    assert zhat.support() == [100]
    assert zhat.get(100) == pytest.approx(1.3, abs=0.2)


def test_peeler_stops_on_exhausted_residual(peel_plan):
    # with the spike peeled exactly, a full pass verifies nothing
    plan = peel_plan
    cfg = ReductionConfig(1, 0.05, 0.1, 1.0)
    y = QueryOracle(1.3 * plan.row(100))
    rng = np.random.default_rng(3)
    zhat, stop = peeler(plan, *memos(y), SparseApprox({100: 1.3}), cfg,
                        solve_one_sparse, rng)
    assert stop
    assert zhat.support() == [100]
    assert zhat.get(100) == 1.3


def test_peeler_degree_budget_guard(legendre_plan_256, monkeypatch):
    monkeypatch.setattr(ReductionConfig, "C_D", 1e-6)
    cfg = ReductionConfig(1, 0.05, 0.1, 1.0)
    y = QueryOracle(np.zeros(256))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exceeds budget"):
        peeler(legendre_plan_256, *memos(y), SparseApprox(), cfg, solve_one_sparse,
               rng)


# README's `recover` example: N=2048, k=2, sigma=1/(4k^2) and the gamma it implies
README_GAMMA = 2.0 * math.pi / 16.0 / 3.0
BUDGET_GRID = [
    pytest.param(k, delta, gamma, id=f"k{k}-delta{delta}-gamma{gamma:.3g}",
                 marks=() if (k, delta, gamma) == (2, 0.05, README_GAMMA)
                 else pytest.mark.slow)
    for k in (1, 2, 4) for delta in (0.01, 0.02, 0.05, 0.1)
    for gamma in (README_GAMMA, 0.6, 1.0, math.pi)]


@pytest.fixture(scope="module")
def legendre_plan_2048():
    return build_plan(JacobiParams(0.0, 0.0), 2048)


@pytest.mark.parametrize("k, delta, gamma", BUDGET_GRID)
def test_default_gamma_boxcars_fit_degree_budget(legendre_plan_2048, k, delta, gamma):
    # every 8th root: at README_GAMMA that includes roots 48 and 2000, whose
    # boxcars take the most degree increases; the ends are not the worst
    # centres, but a filter bank clips centres to exactly 0 and pi
    cfg = ReductionConfig(k, delta, 0.1, gamma)
    centres = [0.0, *legendre_plan_2048.theta[::8], math.pi]
    degree = max(build_boxcar(float(th), cfg.boxcar_width(), cfg.boxcar_eps()).degree
                 for th in centres)
    assert degree <= cfg.degree_budget()
    # the grid's largest degree is 7.8-14.7 log(1/eps_box) / gamma: the margin
    # under C_D = 16 is pinned
    assert degree * gamma / math.log(1.0 / cfg.boxcar_eps()) < cfg.C_D


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


# recover at (1.5, -0.3), N = 256, k = 2, gamma = 1 on F[60] - 0.8 F[second]:
# (second, seed) -> passes, float.hex of the values at 60 and at second
_TWO_SPIKES_AT_ALPHA_NE_BETA = {
    (80, 1): (2, "0x1.026b70429d928p+0", "-0x1.952092bf15d15p-1"),
    (80, 2): (2, "0x1.fde38ffc3e6edp-1", "-0x1.96451ded08264p-1"),
    (80, 11): (2, "0x1.f4c445bc55b19p-1", "-0x1.9be93b3f442cbp-1"),
    (200, 1): (1, "0x1.fa428c4c0837dp-1", "-0x1.99f4608de9d99p-1"),
    (200, 2): (1, "0x1.001b76485c92dp+0", "-0x1.93b48225f7e62p-1"),
    (200, 11): (1, "0x1.025f98bad5fa1p+0", "-0x1.95707da47f2d1p-1"),
}


def test_recover_keeps_its_bits_over_one_and_two_passes_at_alpha_ne_beta(
        monkeypatch):
    # J has a nonzero diagonal, and at roots 60 and 80 the second pass reads
    # x - z through a memo the first pass filled against another image: the
    # support, every value's bits and the reads (N per memo) stay as pinned
    plan = build_plan(JacobiParams(1.5, -0.3), 256)
    cfg = ReductionConfig(2, 0.05, 0.1, 1.0)
    passes = []
    real_estimate = ksparse.estimate_norm

    def counted_estimate(*args):
        passes.append(args)
        return real_estimate(*args)

    monkeypatch.setattr(ksparse, "estimate_norm", counted_estimate)
    for (second, seed), (made, v60, v2) in _TWO_SPIKES_AT_ALPHA_NE_BETA.items():
        passes.clear()
        oracle = QueryOracle(plan.row(60) - 0.8 * plan.row(second))
        zhat = recover(plan, oracle, cfg, seed=seed)
        assert zhat.support() == [60, second], (second, seed)
        assert [zhat.get(60).hex(), zhat.get(second).hex()] == [v60, v2], (second, seed)
        assert oracle.count == 2 * plan.n, (second, seed)
        assert len(passes) == made, (second, seed)


def record_readers(monkeypatch):
    """Patch ksparse so every RawReads memo keeps the oracle requests made
    through it, each tagged with its pass and with the verify call running
    then (None outside verify); returns the memos, in the order ``recover``
    makes them (the solver's, then verify's), and the number of passes and
    of verify calls so far.  The residual estimate opens every pass.
    """
    memos = []
    made = {"passes": 0, "verifies": 0}
    now = {"verify": None}

    class Reads(RawReads):
        def __init__(self, oracle):
            super().__init__(oracle)
            self.calls, self.tags = [], []
            memos.append(self)

        def read(self, *args):
            calls = self.oracle.calls
            before = len(calls)
            super().read(*args)
            self.calls += calls[before:]
            self.tags += [(made["passes"] - 1, now["verify"])] * (len(calls) - before)

    real_estimate = ksparse.estimate_norm

    def counted_estimate(*args):
        made["passes"] += 1
        return real_estimate(*args)

    def counted_verify(*args):
        now["verify"] = made["verifies"]
        made["verifies"] += 1
        try:
            return verify(*args)
        finally:
            now["verify"] = None

    monkeypatch.setattr(ksparse, "RawReads", Reads)
    monkeypatch.setattr(ksparse, "estimate_norm", counted_estimate)
    monkeypatch.setattr(ksparse, "verify", counted_verify)
    return memos, made


def split_readers(memos, made):
    """The solver memo's requests pass by pass, and verify's memo's requests
    verify call by verify call."""
    reads, checks = memos
    passes = [[c for c, (p, _) in zip(reads.calls, reads.tags) if p == i]
              for i in range(made["passes"])]
    calls = [[c for c, (_, v) in zip(checks.calls, checks.tags) if v == i]
             for i in range(made["verifies"])]
    return passes, calls


def trial_requests(memos, in_verify):
    """Every request one memo made, in order, and the memo: the solver's, or
    verify's with in_verify; each was made inside verify exactly when the
    memo is verify's."""
    raw = memos[1] if in_verify else memos[0]
    assert all((v is not None) == in_verify for _, v in raw.tags)
    return np.concatenate(raw.calls), raw


def test_recover_trial_requests_no_entry_twice(peel_plan, monkeypatch):
    # every request of a whole trial is ascending with no repeated index, so
    # none exceeds N entries.  The passes (the residual estimate, the
    # sampling rounds and the solver's queries) read through the solver's
    # memo and, across the trial, request no index twice and nothing while
    # verify runs; each verify call reads through verify's memo and makes at
    # most one request, the first exactly one, and across the trial they
    # request no index twice either.  At roots 60 and 80 the first pass
    # commits one spike, so the trial makes two passes
    plan, n = peel_plan, peel_plan.n
    cfg = ReductionConfig.calibrated(2, 0.05, 0.1, 1.0)
    for second, passes_made in ((200, 1), (80, 2)):
        memos, made = record_readers(monkeypatch)
        oracle = RecordingOracle(plan.row(60) - 0.8 * plan.row(second))
        zhat = recover(plan, oracle, cfg, seed=11)
        assert zhat.support() == [60, second]
        passes, checks = split_readers(memos, made)
        assert len(passes) == passes_made and len(checks) > 1
        for c in oracle.calls:
            assert 0 < c.size <= n
            assert np.all(np.diff(c) > 0)
        assert passes[0] and len(checks[0]) == 1
        assert all(len(calls) <= 1 for calls in checks)
        solver, reads = trial_requests(memos, False)
        checked, checks_raw = trial_requests(memos, True)
        assert reads is not checks_raw
        for read, raw in ((solver, reads), (checked, checks_raw)):
            assert np.unique(read).size == read.size == raw.count <= n
        assert sum(len(m.calls) for m in memos) == len(oracle.calls)
        assert oracle.count == sum(c.size for c in oracle.calls)


def test_each_bank_opens_one_schedule_on_each_memo(peel_plan, monkeypatch):
    # in one trial every schedule is opened in pairs, one pair per bank,
    # after the bank's boxcars and before any of its draws solves: the
    # draws' schedule on the solver's memo, then their checks' on verify's,
    # both at the bank's widest degree.  No verify call opens one of its own
    plan = peel_plan
    cfg = ReductionConfig(2, 0.05, 0.1, 1.0)
    memos, made = record_readers(monkeypatch)
    degrees, solves, opened = [], [0], []
    real_boxcar, real_solver = ksparse.build_boxcar, ksparse.solve_one_sparse

    class Recorded(SampleSchedule):
        def __init__(self, plan, raw, z, degree):
            super().__init__(plan, raw, z, degree)
            opened.append((raw, degree, len(degrees), solves[0]))

    def counted_boxcar(*args):
        filt = real_boxcar(*args)
        degrees.append(filt.degree)
        return filt

    def counted_solver(*args, **kwargs):
        solves[0] += 1
        return real_solver(*args, **kwargs)

    monkeypatch.setattr(ksparse, "SampleSchedule", Recorded)
    monkeypatch.setattr(ksparse, "build_boxcar", counted_boxcar)
    monkeypatch.setattr(ksparse, "solve_one_sparse", counted_solver)
    oracle = RecordingOracle(plan.row(60) - 0.8 * plan.row(80))
    zhat = recover(plan, oracle, cfg, seed=11)
    assert zhat.support() == [60, 80]
    reads, checks = memos
    m = bank_size(cfg)
    banks = [degrees[i:i + m] for i in range(0, len(degrees), m)]
    assert made["verifies"] > 1 and len(degrees) == solves[0] == len(banks) * m
    assert len(opened) == 2 * len(banks)
    for b, bank in enumerate(banks):
        pair = opened[2 * b:2 * b + 2]
        assert [raw for raw, *_ in pair] == [reads, checks]
        assert [rest for _, *rest in pair] == [[max(bank), (b + 1) * m, b * m]] * 2


def test_arccos_queries_read_through_the_pass_memo(legendre_plan_2048, monkeypatch):
    # with delta_0 = sqrt(eps) / 50 the near-zero window on Legendre N = 2048
    # is 1.30 rad, so k-sparse draws go on to the angle search; its cosine
    # queries read through the solver's memo, which requests no index twice
    # across the trial
    monkeypatch.setattr(onesparse, "_D0_DIV", 50.0)
    cos_calls = []
    real = onesparse.query_cos

    def counted_cos(*args):
        cos_calls.append(args)
        return real(*args)

    monkeypatch.setattr(onesparse, "query_cos", counted_cos)
    memos, _ = record_readers(monkeypatch)
    plan = legendre_plan_2048
    cfg = ReductionConfig(2, 0.05, 0.1, 1.0)
    oracle = RecordingOracle(1.3 * plan.row(300) - 0.8 * plan.row(1500))
    zhat = recover(plan, oracle, cfg, seed=1)
    assert cos_calls
    for in_verify in (False, True):
        read, raw = trial_requests(memos, in_verify)
        assert np.unique(read).size == read.size == raw.count <= plan.n
    assert sum(len(m.calls) for m in memos) == len(oracle.calls)
    assert zhat.support() == [300, 1500]


@pytest.mark.parametrize("seed", range(4))
def test_solver_and_verify_reads_equal_their_distinct_entries(legendre_plan_2048,
                                                              monkeypatch, seed):
    # the benchmark's k-sparse trials, clean and noisy, split by caller as
    # the benchmark splits them: the requests made while verify runs and all
    # the others each read every entry at most once, and together they are
    # every entry the oracle counted
    plan, n = legendre_plan_2048, legendre_plan_2048.n
    cfg = ReductionConfig(2, 0.05, 0.1, 1.0)
    in_verify = [False]
    flags = []

    def flagged_verify(*args):
        in_verify[0] = True
        try:
            return verify(*args)
        finally:
            in_verify[0] = False

    class FlaggedOracle(RecordingOracle):
        def query_many(self, idx):
            flags.append(in_verify[0])
            return super().query_many(idx)

    monkeypatch.setattr(ksparse, "verify", flagged_verify)
    gen = np.random.default_rng(seed)
    truth = {300 + 17 * seed: 1.2, 1500 - 23 * seed: -0.9}
    spectrum = SparseApprox(truth).to_dense(n)
    if seed % 2:
        w = gen.standard_normal(n)
        spectrum += w * (cfg.delta / (2.0 * cfg.c_big) * 0.9 / np.linalg.norm(w))
    oracle = FlaggedOracle(plan.inverse(spectrum))
    zhat = recover(plan, oracle, cfg, rng=gen)
    assert zhat.support() == sorted(truth)
    split = {flag: [c for c, f in zip(oracle.calls, flags) if f == flag]
             for flag in (False, True)}
    counts = []
    for calls in split.values():
        assert calls
        read = np.concatenate(calls)
        assert np.unique(read).size == read.size <= n
        counts.append(read.size)
    assert sum(counts) == oracle.count


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
    oracle = RecordingOracle(y)
    access = standalone(plan, oracle, SparseApprox(), filt)
    with pytest.raises(RecoveryError, match="energy floor"):
        solve_one_sparse(plan, access, eps, cfg.mu0() / 2.0, np.random.default_rng(4),
                         window=window, floor=floor)
    # exactly the first round's s filtered samples: one request for the
    # union of their clipped windows
    s = _sample_size(plan, eps)
    js = np.random.default_rng(4).integers(0, plan.n, size=s)
    reads = window_reads(js, filt.degree, plan.n)
    assert len(oracle.calls) == 1
    np.testing.assert_array_equal(oracle.calls[0], reads)
    assert oracle.count == reads.size


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
        access = standalone(plan, QueryOracle(y), SparseApprox(), filt)
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
    zhat, stop = peeler(plan, *memos(oracle), SparseApprox(), cfg, miss,
                        np.random.default_rng(8))
    assert stop and len(zhat) == 0
    # one residual estimate, each of its distinct positions read once
    s = _sample_size(plan, 6.0 * cfg.eps())
    replay = np.random.default_rng(8)
    assert oracle.count == np.unique(replay.integers(0, plan.n, size=s)).size
    m = bank_size(cfg)
    assert len(calls) == math.ceil(cfg.t0() / m) * m
    floors = {floor for _, floor in calls}
    assert len(floors) == 1  # estimated once per pass
    r_hat = floors.pop() * math.sqrt(cfg.k) / (ENERGY_TAU * cfg.delta)
    assert r_hat == pytest.approx(1.3, rel=0.2)
    # draw i's band is the hull of its tile [e_i, e_i+1], e_i = o - 2w + 2wi,
    # and its clipped centre +- w; the stub leaves the rng to the offsets
    w = cfg.boxcar_width()
    for start in range(0, len(calls), m):
        o = replay.uniform(0.0, 2.0 * w)
        edges = [o - 2.0 * w + 2.0 * w * i for i in range(m + 1)]
        for i, (window, _) in enumerate(calls[start:start + m]):
            c = min(max(o - w + 2.0 * w * i, 0.0), math.pi)
            assert window == (min(edges[i], c - w), max(edges[i + 1], c + w))


def test_peeler_drives_a_stub_solver_with_the_new_keywords(peel_plan):
    plan = peel_plan
    cfg = ReductionConfig(1, 0.05, 0.1, 1.0)
    spike, value = 100, 1.3

    def oracle_solver(plan, access, eps, mu, rng, *, window, floor):
        if not window[0] <= plan.theta[spike] <= window[1]:
            raise RecoveryError("spike outside the window")
        return OneSparseResult(spike, value)

    zhat, stop = peeler(plan, *memos(QueryOracle(value * plan.row(spike))),
                        SparseApprox(), cfg, oracle_solver, np.random.default_rng(3))
    assert not stop
    assert dict(zhat.items()) == {spike: value}


# ---------------------------------------------------------------------------
# filter banks and committing every verified hit


@pytest.mark.parametrize("gamma", [0.6, 1.0, math.pi, README_GAMMA])
def test_every_bank_tiles_the_angle_range_ends_included(legendre_plan_2048, gamma,
                                                        monkeypatch):
    plan = legendre_plan_2048
    cfg = ReductionConfig(2, 0.05, 0.1, gamma)
    m = bank_size(cfg)
    # the centres are the subject, not the filters (the degree-budget grid
    # builds them at the ends): a degree-0 stand-in keeps 20 seeds fast
    monkeypatch.setattr(ksparse, "build_boxcar", lambda center, width, eps:
                        BoxcarFilter(center, width, eps, 0, np.ones(1)))
    oracle = QueryOracle(plan.row(0) + plan.row(plan.n - 1))
    # neighbouring bands share the float edge o - 2w + 2wi, so no gap opens
    for seed in range(20):
        windows = []

        def miss(plan, access, eps, mu, rng, *, window, floor):
            windows.append(window)
            raise RecoveryError("stub records the window")

        zhat, stop = peeler(plan, *memos(oracle), SparseApprox(), cfg, miss,
                            np.random.default_rng(seed))
        assert stop and len(windows) == math.ceil(cfg.t0() / m) * m
        for start in range(0, len(windows), m):
            bank = sorted(windows[start:start + m])
            assert bank[0][0] <= 0.0
            reach = bank[0][1]
            for lo, hi in bank[1:]:
                assert lo <= reach
                reach = max(reach, hi)
            assert reach >= math.pi
            for theta in plan.theta[[0, plan.n - 1]]:
                assert any(lo <= theta <= hi for lo, hi in bank)


@pytest.mark.parametrize("values", [(-2.0, 1.5, 1.0), (1.0, 1.5, -2.0)],
                         ids=["largest-first", "largest-last"])
def test_draws_reporting_one_index_keep_the_largest_value(peel_plan, monkeypatch,
                                                          values):
    # at gamma = 1 an offset o > 0.39 clips the last two centres to pi, so two
    # draws of one bank can report the root nearest pi
    plan = peel_plan
    cfg = ReductionConfig(1, 0.05, 0.1, 1.0)
    spike = plan.n - 1
    hits = []

    def solver(plan, access, eps, mu, rng, *, window, floor):
        if not window[0] <= plan.theta[spike] <= window[1]:
            raise RecoveryError("spike outside the window")
        hits.append(values[len(hits) % len(values)])
        return OneSparseResult(spike, hits[-1])

    monkeypatch.setattr(ksparse, "verify", lambda *args: True)
    zhat, stop = peeler(plan, *memos(QueryOracle(plan.row(spike))), SparseApprox(), cfg,
                        solver, np.random.default_rng(1))
    assert not stop
    assert 2 <= len(hits) <= len(values)
    assert dict(zhat.items()) == {spike: max(hits, key=abs)}


@pytest.mark.parametrize("truth", [{300: 1.0, 1500: -0.8}, {700: 1.3}],
                         ids=["k2", "k1"])
def test_one_bank_commits_every_spike_and_recover_stops(legendre_plan_2048,
                                                        monkeypatch, truth):
    # spikes more than a pass band's width 2w apart share no band
    plan = legendre_plan_2048
    cfg = ReductionConfig(len(truth), 0.05, 0.1, 1.0)
    assert np.all(np.diff(plan.theta[sorted(truth)]) > 2.0 * cfg.boxcar_width())
    y = sum(v * plan.row(h) for h, v in truth.items())
    passes, draws = [], []

    def counted_peeler(*args):
        zhat, stop = peeler(*args)
        passes.append(stop)
        return zhat, stop

    def solver(*args, **kwargs):
        draws.append(kwargs["window"])
        return solve_one_sparse(*args, **kwargs)

    monkeypatch.setattr(ksparse, "peeler", counted_peeler)
    zhat = recover(plan, QueryOracle(y), cfg, solver, seed=1)
    assert zhat.support() == sorted(truth)
    for h, v in truth.items():
        assert zhat.get(h) == pytest.approx(v, rel=cfg.delta)
    # one pass of one bank commits every spike; no empty pass to stop on
    assert passes == [False]
    assert len(draws) == bank_size(cfg)
