"""Transform plans: moment bands against the dense triple product, exact
persistence, format-error taxonomy."""

import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from opsparse import JacobiParams, build_plan, load_plan, save_plan
from opsparse.plan import (
    PlanChecksumError,
    PlanFormatError,
    PlanMagicError,
    PlanTruncatedError,
    PlanVersionError,
)


@pytest.fixture(scope="module")
def small_plan():
    return build_plan(JacobiParams(0.5, -0.25), 32, degree=6)


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


def test_row_matches_matrix():
    # rows come from one recurrence until matrix() is cached, then from it
    plan = build_plan(JacobiParams(0.5, -0.25), 32)
    rows = [plan.row(ell) for ell in (0, 13, 31)]
    f = plan.matrix()
    for ell, row in zip((0, 13, 31), rows):
        np.testing.assert_array_equal(row, f[ell])
        np.testing.assert_array_equal(plan.row(ell), f[ell])


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


def test_filter_band_grows_its_cache(rng):
    # a higher degree than any earlier call rebuilds the moments; a lower
    # one reads the cached diagonals
    plan = build_plan(JacobiParams(1.5, -0.3), 40)
    f = plan.matrix()
    for d in (2, 9, 5):
        coeffs = rng.standard_normal(d + 1)
        band = plan.filter_band(type("F", (), {"coeffs": coeffs, "degree": d})())
        dense = f.T @ (chebval(plan.lam, coeffs)[:, None] * f)
        np.testing.assert_allclose(band_to_dense(band), dense, atol=1e-12)


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


def _plan_blob(alpha, beta, n, payload=b""):
    """A v2 plan file around a given header and payload, with a valid CRC."""
    body = struct.pack("<ddQd", alpha, beta, n, 1.0) + payload
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
    # the moment cache is derived data and does not travel
    bare = build_plan(JacobiParams(0.5, -0.25), 32)
    assert len(pickle.dumps(small_plan)) == len(pickle.dumps(bare))
