"""Transform plans: moment bands against the dense triple product, exact
persistence, format-error taxonomy."""

import math
import pickle
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from opsparse import JacobiParams, build_plan, load_plan, save_plan
from opsparse.jacobi import jacobi_matrix, log_norm_factor, orthonormal_table
from opsparse.plan import (
    PlanChecksumError,
    PlanFormatError,
    PlanMagicError,
    PlanTruncatedError,
    PlanVersionError,
)
from test_jacobi import PARAM_GRID


@pytest.fixture(scope="module")
def small_plan():
    return build_plan(JacobiParams(0.5, -0.25), 32, degree=6)


def full_f(plan):
    """All N rows of F, stacked from ``plan.row`` once ``matrix()`` is
    cached: its stored rows, and at alpha = beta the mirror rows derived
    from them."""
    plan.matrix()
    return np.stack([plan.row(h) for h in range(plan.n)])


def cheb_t(r, x):
    c = np.zeros(r + 1)
    c[r] = 1.0
    return chebval(x, c)


def dense_moment(plan, r):
    """Oracle: M_r = F^T T_r(diag(lambda)) F computed densely."""
    f = plan.matrix()
    return f.T @ (cheb_t(r, plan.lam)[:, None] * f)


def one_hot_filter(r):
    """A degree-r filter with Chebyshev coefficients e_r, so its band is M_r."""
    coeffs = np.zeros(r + 1)
    coeffs[r] = 1.0
    return type("F", (), {"coeffs": coeffs, "degree": r})()


def band_to_dense(band):
    """Dense matrix from a filter_band output (row j holds columns j-d..j+d)."""
    n, width = band.shape
    d = width // 2
    out = np.zeros((n, n))
    for j in range(n):
        for c in range(width):
            if 0 <= j - d + c < n:
                out[j, j - d + c] = band[j, c]
    return out


def test_orthogonality(small_plan):
    f = small_plan.matrix()
    gram = f.T @ f
    assert np.abs(gram - np.eye(32)).max() < 1e-12


def test_moments_match_dense_triple_product(small_plan):
    # M_r = T_r(J) from the Jacobi matrix against F^T T_r(diag(lambda)) F;
    # degrees up to N-1, where M_r is dense
    for r in list(range(7)) + [31]:
        band = small_plan.filter_band(one_hot_filter(r))
        expect = dense_moment(small_plan, r)
        np.testing.assert_allclose(band_to_dense(band), expect, atol=1e-12)


def test_moments_are_exactly_banded(small_plan):
    # quadrature exactness forces entries with |i-j| > r to vanish; T_r(J)
    # is r-banded by construction, and the dense oracle agrees
    for r in (2, 5):
        expect = dense_moment(small_plan, r)
        i, j = np.indices(expect.shape)
        assert np.abs(expect[np.abs(i - j) > r]).max() < 1e-13


def test_forward_inverse_roundtrip(small_plan, rng):
    x = rng.standard_normal(32)
    y = small_plan.forward(x)
    np.testing.assert_allclose(small_plan.inverse(y), x, atol=1e-12)
    # forward and inverse equal the dense matrix and its transpose
    np.testing.assert_allclose(y, small_plan.matrix() @ x, atol=1e-12)
    np.testing.assert_allclose(small_plan.inverse(x), small_plan.matrix().T @ x,
                               atol=1e-12)


def test_matrix_fills_one_buffer():
    # one table and no second one: at alpha = beta it holds the swept half
    # alone, the mirror rows being derived when they are read
    n = 1024
    for alpha, beta, share in ((0.0, 0.0, 0.55), (1.5, -0.3, 1.1)):
        plan = build_plan(JacobiParams(alpha, beta), n)
        tracemalloc.start()
        try:
            plan.matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= share * n * n * 8, (alpha, beta)


def test_row_matches_matrix():
    # rows come from one recurrence until matrix() is cached, then from it
    plan = build_plan(JacobiParams(0.5, -0.25), 32)
    rows = [plan.row(ell) for ell in (0, 13, 31)]
    f = plan.matrix()
    for ell, row in zip((0, 13, 31), rows):
        np.testing.assert_array_equal(row, f[ell])
        np.testing.assert_array_equal(plan.row(ell), f[ell])


def test_row_refuses_out_of_range():
    plan = build_plan(JacobiParams(0.5, -0.25), 64)
    for cached in (False, True):
        if cached:
            plan.matrix()
        for ell in (-1, 64):
            with pytest.raises(IndexError, match=rf"row {ell} out of range for N=64"):
                plan.row(ell)
    # take_rows gathers without numpy's bounds check, so it makes its own
    out = np.empty((2, 64))
    for idx in ((3, -1), (64, 3)):
        with pytest.raises(IndexError, match="out of range for N=64"):
            plan.take_rows(np.array(idx), out)


def test_row_matches_orthonormal_table():
    # the one-point table scaled by sqrt(w), as a benchmark input is rendered
    plan = build_plan(JacobiParams(1.5, -0.3), 33)
    for ell in (0, 17, 32):
        tab = orthonormal_table(plan.params, plan.n - 1, plan.lam[ell : ell + 1])
        np.testing.assert_array_equal(tab[:, 0] * math.sqrt(plan.weights[ell]),
                                      plan.row(ell))


def test_matrix_is_the_scaled_table():
    # one C-ordered array, bit for bit the degree-major table weighted and
    # transposed: all N rows at alpha != beta, the leading N - N//2 at
    # alpha = beta; N = 130 spans two full 64-degree blocks of the table
    # fill and a short one
    for alpha, beta, n in ((1.5, -0.3, 33), (1.5, -0.3, 130), (0.0, 0.0, 130)):
        plan = build_plan(JacobiParams(alpha, beta), n)
        table = orthonormal_table(plan.params, plan.n - 1, plan.lam)
        f = plan.matrix()
        assert f.flags.c_contiguous
        assert f.shape == (n - n // 2 if alpha == beta else n, n)
        np.testing.assert_array_equal(f, (table * plan.sqw).T[: f.shape[0]])
        np.testing.assert_array_equal(full_f(plan), (table * plan.sqw).T.copy())


@pytest.mark.parametrize("alpha, n", [(0.0, 40), (0.5, 41)])
def test_rows_are_the_unfolded_table(alpha, n):
    # at alpha = beta every row, stored or mirror, cached or not, is the
    # unfolded table's row scaled by sqrt(w) bit for bit; mirror rows of a
    # cached F are copies, read-only like the views of stored rows
    plan = build_plan(JacobiParams(alpha, alpha), n)
    want = (orthonormal_table(plan.params, n - 1, plan.lam) * plan.sqw).T
    uncached = [plan.row(h) for h in range(n)]
    f = plan.matrix()
    assert f.shape == (n - n // 2, n)
    for h in range(n):
        np.testing.assert_array_equal(uncached[h], want[h])
        row = plan.row(h)
        np.testing.assert_array_equal(row, want[h])
        assert not row.flags.writeable
        assert np.shares_memory(row, f) == (h < f.shape[0])


@pytest.mark.parametrize("alpha, beta, n", [(0.0, 0.0, 40), (0.5, 0.5, 41), (1.5, -0.3, 33)])
def test_take_rows_reads_stored_ranges_in_place(alpha, beta, n):
    # a range of stored rows is a view of the cache; a range reaching past
    # them and an index array are F's rows in the caller's buffer
    plan = build_plan(JacobiParams(alpha, beta), n)
    want, f = full_f(plan), plan.matrix()
    kept = f.shape[0]
    buf = np.full((n, n), np.nan)
    cases = [range(0, kept), range(kept - 5, kept), range(kept - 2, min(n, kept + 2)),
             range(kept - 5, n), range(n - 3, n), np.array([n - 1, 2, kept - 1, n // 2]),
             np.arange(0)]
    for rows in cases:
        got = plan.take_rows(rows, buf)
        np.testing.assert_array_equal(got, want[np.asarray(rows, dtype=int)])
        in_place = isinstance(rows, range) and rows.stop <= kept
        assert np.shares_memory(got, f) == (in_place and len(rows) > 0)
        assert np.shares_memory(got, buf) == (not in_place and len(rows) > 0)


def test_cached_matrix_is_read_only():
    # row() hands out views of the cached F: a write through one would change
    # every later correlation, so the cache refuses it
    plan = build_plan(JacobiParams(0.0, 0.0), 32)
    f = plan.matrix()
    before = f.copy()
    row = plan.row(5)
    with pytest.raises(ValueError, match="read-only"):
        f[5, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        row *= 2.0
    np.testing.assert_array_equal(plan.matrix(), before)


@pytest.mark.parametrize("alpha, beta, n", [(0.0, 0.0, 40), (1.5, -0.3, 33), (0.5, 0.5, 1),
                                            (0.5, 0.5, 41)])
def test_forward_stack_at_root_subset(alpha, beta, n, rng):
    plan = build_plan(JacobiParams(alpha, beta), n)
    x = rng.standard_normal((4, n))
    x[1] = 0.0
    # even roots hold no mirror pair; the second subset holds mirror pairs,
    # a root without its mirror, and straddles pi/2
    for roots in (np.arange(0, n, 2), np.unique(np.r_[1, n // 2 - 3 : n // 2 + 3] % n)):
        got = plan.forward(x, roots)
        assert got.shape == (4, len(roots))
        for r in range(4):
            np.testing.assert_array_equal(got[r], plan.forward(x[r])[roots])
        np.testing.assert_allclose(got, (full_f(plan)[roots] @ x.T).T, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        plan.forward(x[None])
    with pytest.raises(ValueError):
        plan.forward(np.zeros((4, n + 1)), roots)


def test_filter_band_matches_dense(small_plan, rng):
    coeffs = rng.standard_normal(5)  # degree-4 generic filter
    fake = type("F", (), {"coeffs": coeffs, "degree": 4})()
    band = small_plan.filter_band(fake)
    f = small_plan.matrix()
    dense = f.T @ (chebval(small_plan.lam, coeffs)[:, None] * f)
    for j in range(32):
        for o in range(-4, 5):
            i = j + o
            if 0 <= i < 32:
                assert band[j, 4 + o] == pytest.approx(dense[j, i], abs=1e-12)


@pytest.mark.parametrize("degree", [0, 3])
def test_m0_is_exact_identity(degree):
    # F is square and orthogonal, so M_0 = F^T F = T_0(J) is exact ones
    plan = build_plan(JacobiParams(0.5, -0.25), 24, degree=degree)
    band = plan.filter_band(one_hot_filter(0))
    np.testing.assert_array_equal(band, np.ones((24, 1)))


def dense_chebyshev_moments(params, n, d):
    """T_0(J)..T_d(J) as dense matrices, by the recurrence on J itself."""
    diag, off = jacobi_matrix(params, n)
    jmat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    out = [np.eye(n), jmat.copy()]
    for _ in range(2, d + 1):
        out.append(2.0 * jmat @ out[-1] - out[-2])
    return out[: d + 1]


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.3)])
def test_moments_match_dense_chebyshev_recurrence(alpha, beta, rng):
    # row r of the stack against dense T_r(J) @ y, degrees up to N-1, where
    # T_r(J) is dense
    params = JacobiParams(alpha, beta)
    n = 24
    plan = build_plan(params, n)
    y = rng.standard_normal(n)
    dense = dense_chebyshev_moments(params, n, n - 1)
    for d in (0, 1, 5, n - 1):
        got = plan.moments(y, d)
        assert got.shape == (d + 1, n)
        for r in range(d + 1):
            np.testing.assert_allclose(got[r], dense[r] @ y, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(dense[r]).max()))
    assert np.all(plan.moments(y, 0)[0] == y)  # T_0 = I exactly


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.5, -0.3)])
def test_moments_read_only_the_windows(alpha, beta, rng):
    # a y that holds x only on the windows js-d..js+d gives the moments of
    # the full x at js bit for bit: the zero fill outside them is exact
    n, d = 400, 17
    plan = build_plan(JacobiParams(alpha, beta), n)
    x = rng.standard_normal(n)
    js = np.concatenate([[0, n - 1, d, n - d - 1], rng.integers(0, n, size=6)])
    idx = (js[:, None] + np.arange(-d, d + 1)).ravel()
    idx = idx[(idx >= 0) & (idx < n)]
    y = np.zeros(n)
    y[idx] = x[idx]
    assert np.count_nonzero(y) < n
    np.testing.assert_array_equal(plan.moments(y, d)[:, js], plan.moments(x, d)[:, js])


def textbook_moments(params, n, y, d):
    """T_r(J) y, r = 0..d, as rows, one entry at a time: T_0 y = y, T_1 y =
    J y, T_{r+1} y = 2 J T_r y - T_{r-1} y, with (J v)_i summed as
    (diag_i v_i + off_i v_{i+1}) + off_{i-1} v_{i-1}."""
    diag, off = jacobi_matrix(params, n)

    def jv(v):
        out = []
        for i in range(n):
            acc = diag[i] * v[i]
            if i + 1 < n:
                acc = acc + off[i] * v[i + 1]
            if i > 0:
                acc = acc + off[i - 1] * v[i - 1]
            out.append(acc)
        return np.array(out)

    steps = [np.array(y, dtype=np.float64)]
    if d >= 1:
        steps.append(jv(steps[0]))
    while len(steps) <= d:
        steps.append(2.0 * jv(steps[-1]) - steps[-2])
    return np.stack(steps)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.3)])
@pytest.mark.parametrize("n", [1, 2, 24])
def test_moments_match_the_textbook_recurrence_bit_for_bit(alpha, beta, n, rng):
    # the pre-doubled J of steps r >= 1 and the skipped zero diagonal at
    # alpha = beta change no bit of a moment.  Adding +0.0 maps -0 to +0:
    # the skipped product diag_i * v_i = -0 * v_i only ever signs an exact
    # zero, as at N = 1 where T_1(J) y = -0 * y
    params = JacobiParams(alpha, beta)
    plan = build_plan(params, n)
    y = rng.standard_normal(n)
    for d in sorted({0, 1, 2, n - 1, 3 * n}):
        got = plan.moments(y, d)
        want = textbook_moments(params, n, y, d)
        assert got.shape == want.shape == (d + 1, n)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), d
    # and a y that is zero away from a few windows, as a sampling round's is
    y[rng.random(n) < 0.5] = 0.0
    got = plan.moments(y, n + 2)
    assert (got + 0.0).tobytes() == (textbook_moments(params, n, y, n + 2) + 0.0).tobytes()


def test_moments_input_validation(small_plan):
    with pytest.raises(ValueError, match="expected shape"):
        small_plan.moments(np.zeros(31), 2)
    with pytest.raises(ValueError, match="must be >= 0"):
        small_plan.moments(np.zeros(32), -1)


def test_filter_band_degree_check(small_plan):
    for d in (32, 98):
        fake = type("F", (), {"coeffs": np.zeros(d + 1), "degree": d})()
        with pytest.raises(ValueError, match=r"must be < N = 32"):
            small_plan.filter_band(fake)


def test_input_validation(small_plan):
    with pytest.raises(ValueError):
        small_plan.forward(np.zeros(31))
    with pytest.raises(ValueError):
        small_plan.inverse(np.zeros(33))
    with pytest.raises(ValueError, match=r"moment degree must be in \[0, n\)"):
        build_plan(JacobiParams(0.0, 0.0), 8, degree=10)
    with pytest.raises(ValueError, match=r"moment degree must be in \[0, n\)"):
        build_plan(JacobiParams(0.0, 0.0), 8, degree=8)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_bitwise(tmp_path, small_plan):
    path = tmp_path / "p.plan"
    save_plan(small_plan, path)
    back = load_plan(path)
    assert back.params == small_plan.params
    assert back.n == small_plan.n
    assert back.U == small_plan.U
    np.testing.assert_array_equal(back.theta, small_plan.theta)
    np.testing.assert_array_equal(back.lam, small_plan.lam)
    np.testing.assert_array_equal(back.weights, small_plan.weights)
    for r in (0, 3, 6):
        np.testing.assert_array_equal(back.filter_band(one_hot_filter(r)),
                                      small_plan.filter_band(one_hot_filter(r)))


def test_load_rejects_bad_magic(tmp_path, small_plan):
    path = tmp_path / "p.plan"
    save_plan(small_plan, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(blob)
    with pytest.raises(PlanMagicError):
        load_plan(path)


def test_load_rejects_bad_version(tmp_path, small_plan):
    path = tmp_path / "p.plan"
    save_plan(small_plan, path)
    blob = bytearray(path.read_bytes())
    for version in (99, 1):  # v1 files stored moment bands; they are refused
        blob[4:8] = version.to_bytes(4, "little")
        path.write_bytes(blob)
        with pytest.raises(PlanVersionError):
            load_plan(path)


def test_load_rejects_truncation(tmp_path, small_plan):
    path = tmp_path / "p.plan"
    save_plan(small_plan, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(PlanTruncatedError):
        load_plan(path)


def test_load_rejects_corruption(tmp_path, small_plan):
    path = tmp_path / "p.plan"
    save_plan(small_plan, path)
    blob = bytearray(path.read_bytes())
    blob[200] ^= 0xFF
    path.write_bytes(blob)
    with pytest.raises(PlanChecksumError):
        load_plan(path)


def _plan_blob(alpha, beta, n, payload=b"", u=1.0):
    """A v2 plan file around a given header and payload, with a valid CRC."""
    body = struct.pack("<ddQd", alpha, beta, n, u) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"OPSP" + struct.pack("<I", 2) + body + struct.pack("<I", crc)


def test_load_rejects_header_size_bound(tmp_path):
    path = tmp_path / "p.plan"
    path.write_bytes(_plan_blob(0.0, 0.0, 0))
    with pytest.raises(PlanFormatError, match="N=0"):
        load_plan(path)
    # a 44-byte file claiming N = 2**64-1 is sized, not allocated
    path.write_bytes(_plan_blob(0.0, 0.0, 2**64 - 1))
    with pytest.raises(PlanTruncatedError):
        load_plan(path)


def test_load_rejects_huge_params(tmp_path, tiny_plan_blob):
    # h_0 is round-off at these sizes; the header must fail as a format error
    path = tmp_path / "p.plan"
    for alpha, beta in ((3.766707984945947e81, 3.766707984945947e81), (0.0, 1.7e308)):
        path.write_bytes(_plan_blob(alpha, beta, 6, tiny_plan_blob[40:-4]))
        with pytest.raises(PlanFormatError, match="outside the float range"):
            load_plan(path)


def _forged(plan, i=None, theta=None, weight=None):
    """plan's theta and weights with entry i of one of them replaced."""
    t, w = plan.theta.copy(), plan.weights.copy()
    if theta is not None:
        t[i] = theta
    if weight is not None:
        w[i] = weight
    return t, w


# name -> (theta, weights, U) from the plan, and the error message to expect
FORGERIES = {
    "theta-reversed": (lambda p: (p.theta[::-1], p.weights, p.U), "theta"),
    "theta-nan": (lambda p: (*_forged(p, 3, theta=np.nan), p.U), "theta"),
    "theta-zero": (lambda p: (*_forged(p, 0, theta=0.0), p.U), "theta"),
    "theta-pi": (lambda p: (*_forged(p, -1, theta=np.pi), p.U), "theta"),
    "theta-inf": (lambda p: (*_forged(p, -1, theta=np.inf), p.U), "theta"),
    "weight-zero": (lambda p: (*_forged(p, 5, weight=0.0), p.U), "weights"),
    "weight-negative": (lambda p: (*_forged(p, 5, weight=-1e-3), p.U), "weights"),
    "weight-nan": (lambda p: (*_forged(p, 5, weight=np.nan), p.U), "weights"),
    "weight-inf": (lambda p: (*_forged(p, 5, weight=np.inf), p.U), "weights"),
    "u-zero": (lambda p: (p.theta, p.weights, 0.0), "U="),
    "u-negative": (lambda p: (p.theta, p.weights, -1.0), "U="),
    "u-below-flat": (lambda p: (p.theta, p.weights, 0.9 / math.sqrt(p.n)), "U="),
    "u-above-one": (lambda p: (p.theta, p.weights, 1.0 + 1e-6), "U="),
    "u-nan": (lambda p: (p.theta, p.weights, np.nan), "U="),
    "u-inf": (lambda p: (p.theta, p.weights, np.inf), "U="),
}


@pytest.mark.parametrize("name", FORGERIES)
def test_load_rejects_impossible_values(tmp_path, small_plan, name):
    """A file with a valid CRC whose theta, weights or U no plan can have."""
    forge, match = FORGERIES[name]
    theta, weights, u = forge(small_plan)
    payload = theta.astype("<f8").tobytes() + weights.astype("<f8").tobytes()
    path = tmp_path / "p.plan"
    p = small_plan.params
    path.write_bytes(_plan_blob(p.alpha, p.beta, small_plan.n, payload, u))
    with pytest.raises(PlanFormatError, match=match):
        load_plan(path)


def test_load_checks_the_mirror(tmp_path):
    """At alpha = beta half of the cosines come from the mirror, so a file
    whose angles are not symmetric about pi/2 is refused, while one off by
    rounding, as a plan whose roots were all polished separately is, loads."""
    plan = build_plan(JacobiParams(0.0, 0.0), 32)
    path = tmp_path / "p.plan"
    for shift, ok in ((1e-9, False), (3e-12, False), (4e-16, True)):
        theta = plan.theta.copy()
        theta[-4] += shift
        payload = theta.astype("<f8").tobytes() + plan.weights.astype("<f8").tobytes()
        path.write_bytes(_plan_blob(0.0, 0.0, 32, payload, plan.U))
        if ok:
            back = load_plan(path)
            np.testing.assert_array_equal(back.lam[::-1], -back.lam)
        else:
            with pytest.raises(PlanFormatError, match="symmetric about pi/2"):
                load_plan(path)
    # the same angles at alpha != beta are not checked for symmetry
    path.write_bytes(_plan_blob(0.0, 0.5, 32, payload, plan.U))
    assert load_plan(path).n == 32


def test_load_checks_the_weights_mirror(tmp_path):
    """F's mirror rows are derived from stored rows already scaled by
    sqrt(w), so at alpha = beta weights one ulp off their mirror are
    refused."""
    plan = build_plan(JacobiParams(0.5, 0.5), 33)
    weights = plan.weights.copy()
    weights[-4] = np.nextafter(weights[-4], np.inf)
    payload = plan.theta.astype("<f8").tobytes() + weights.astype("<f8").tobytes()
    path = tmp_path / "p.plan"
    path.write_bytes(_plan_blob(0.5, 0.5, 33, payload, plan.U))
    with pytest.raises(PlanFormatError, match="own mirror"):
        load_plan(path)
    path.write_bytes(_plan_blob(0.5, 0.25, 33, payload, plan.U))
    assert load_plan(path).n == 33


@pytest.mark.parametrize("alpha,beta", PARAM_GRID)
@pytest.mark.parametrize("n", [1, 2, 257, 2048])
def test_load_accepts_every_built_plan(tmp_path, alpha, beta, n):
    path = tmp_path / "p.plan"
    plan = build_plan(JacobiParams(alpha, beta), n)
    save_plan(plan, path)
    assert load_plan(path).U == plan.U


@pytest.fixture(scope="module")
def tiny_plan_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "p.plan"
    save_plan(build_plan(JacobiParams(0.5, -0.25), 6), path)
    return path.read_bytes()


@given(data=st.data())
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_fuzz_raises_only_format_errors(tmp_path, tiny_plan_blob, data):
    """Random headers, truncations and byte flips of a small plan file either
    load or raise a PlanFormatError, never anything else and never slowly."""
    blob = bytearray(tiny_plan_blob)
    kind = data.draw(st.sampled_from(["header", "truncate", "flip"]))
    if kind == "header":
        floats = st.floats(allow_nan=True, allow_infinity=True)
        sizes = st.one_of(st.integers(0, 16), st.integers(0, 2**64 - 1))
        blob = _plan_blob(data.draw(floats), data.draw(floats), data.draw(sizes),
                          bytes(blob[40:-4]))
    elif kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1,
                                      max_size=4)):
            blob[pos] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "fuzz.plan"
    path.write_bytes(bytes(blob))
    try:
        plan = load_plan(path)
    except PlanFormatError:
        return
    assert plan.n >= 1 and plan.theta.shape == plan.weights.shape == (plan.n,)


def test_format_errors_share_base():
    for err in (PlanMagicError, PlanVersionError, PlanTruncatedError, PlanChecksumError):
        assert issubclass(err, PlanFormatError)


def test_pickle_roundtrip(small_plan, rng):
    back = pickle.loads(pickle.dumps(small_plan))
    x = rng.standard_normal(32)
    np.testing.assert_array_equal(back.forward(x), small_plan.forward(x))
    np.testing.assert_array_equal(back.filter_band(one_hot_filter(4)),
                                  small_plan.filter_band(one_hot_filter(4)))
    # the derived caches (dense F, the Jacobi matrix) do not travel
    bare = build_plan(JacobiParams(0.5, -0.25), 32)
    assert len(pickle.dumps(small_plan)) == len(pickle.dumps(bare))


def per_call_side_weight(params, j):
    """sqrt(h_j * j) in log space, exactly zero at j = 0, as query_cos
    computed it for each call's indices: the reference for the plan's cache."""
    j = np.asarray(j, dtype=np.float64)
    out = np.zeros_like(j)
    pos = j > 0
    if np.any(pos):
        jp = j[pos]
        out[pos] = np.exp(0.5 * (log_norm_factor(params, jp) + np.log(jp)))
    return out


@pytest.mark.parametrize("n", [64, 1001])
@pytest.mark.parametrize("alpha, beta", PARAM_GRID)
def test_side_weights_match_the_per_call_weights(alpha, beta, n):
    # bit for bit over the whole range and gathered at index sets of
    # query_cos's sizes; cached, read-only and not pickled
    plan = build_plan(JacobiParams(alpha, beta), n)
    bare = len(pickle.dumps(plan))
    side = plan.side_weights()
    assert side.shape == (n,) and side[0] == 0.0 and not side.flags.writeable
    assert plan.side_weights() is side
    assert side.tobytes() == per_call_side_weight(plan.params, np.arange(n)).tobytes()
    gen = np.random.default_rng(n)
    for size in (1, 5, 41, 3 * 41):
        js = gen.integers(0, n, size=size)
        assert side[js].tobytes() == per_call_side_weight(plan.params, js).tobytes()
    assert len(pickle.dumps(plan)) == bare
