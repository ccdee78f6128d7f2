"""Transform plans: moment bands against the dense triple product, exact
persistence, format-error taxonomy."""

import math

import numpy as np
import pytest
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


def test_orthogonality(small_plan):
    f = small_plan.matrix()
    gram = f.T @ f
    assert np.abs(gram - np.eye(32)).max() < 1e-12


def test_moments_match_dense_triple_product(small_plan):
    for r in range(7):
        expect = dense_moment(small_plan, r)
        np.testing.assert_allclose(small_plan.moments.dense(r), expect, atol=1e-12)


def test_moments_are_exactly_banded(small_plan):
    # quadrature exactness forces entries with |i-j| > r to vanish; the
    # storage makes them structurally zero, and the dense oracle agrees
    for r in (2, 5):
        expect = dense_moment(small_plan, r)
        i, j = np.indices(expect.shape)
        assert np.abs(expect[np.abs(i - j) > r]).max() < 1e-13


def test_moment_accessors(small_plan):
    m = small_plan.moments
    assert m.entry(3, 5, 9) == 0.0
    assert m.entry(3, 5, 7) == pytest.approx(m.dense(3)[5, 7])
    band = m.band_matrix(2)
    assert band.shape == (32, 5)
    assert band[10, 2 + 1] == pytest.approx(m.dense(2)[10, 11])
    with pytest.raises(ValueError):
        m.diagonal(2, 3)


def test_forward_inverse_roundtrip(small_plan, rng):
    x = rng.standard_normal(32)
    y = small_plan.forward(x)
    np.testing.assert_allclose(small_plan.inverse(y), x, atol=1e-12)
    # forward equals the dense matrix action
    np.testing.assert_allclose(y, small_plan.matrix() @ x, atol=1e-12)


def test_row_matches_matrix(small_plan):
    f = small_plan.matrix()
    for ell in (0, 13, 31):
        np.testing.assert_array_equal(small_plan.row(ell), f[ell])


def test_bucket_offsets(small_plan):
    n = small_plan.n
    for i in (0, 1, n // 2, n - 1):
        lo, hi = i * math.pi / n, (i + 1) * math.pi / n
        brute = int(np.sum((small_plan.theta >= lo) & (small_plan.theta < hi)))
        assert small_plan.bucket_count(i) == brute


def test_filter_band_matches_dense(small_plan, rng):
    coeffs = rng.standard_normal(5)  # degree-4 generic filter, fits d=6
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
    # F is square and orthogonal, so M_0 = F^T F is stored as exact ones
    plan = build_plan(JacobiParams(0.5, -0.25), 24, degree=degree)
    np.testing.assert_array_equal(plan.moments.diagonal(0, 0), np.ones(24))


def test_filter_band_degree_check(small_plan):
    fake = type("F", (), {"coeffs": np.zeros(99), "degree": 98})()
    with pytest.raises(ValueError, match="exceeds plan moment degree"):
        small_plan.filter_band(fake)


def test_input_validation(small_plan):
    with pytest.raises(ValueError):
        small_plan.forward(np.zeros(31))
    with pytest.raises(ValueError):
        small_plan.inverse(np.zeros(33))


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
    assert back.moments.degree == small_plan.moments.degree
    for o, stack in enumerate(small_plan.moments.stacks):
        np.testing.assert_array_equal(back.moments.stacks[o], stack)


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
    blob[4:8] = (99).to_bytes(4, "little")
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


def test_format_errors_share_base():
    for err in (PlanMagicError, PlanVersionError, PlanTruncatedError, PlanChecksumError):
        assert issubclass(err, PlanFormatError)


def test_pickle_roundtrip(small_plan, rng):
    import pickle

    back = pickle.loads(pickle.dumps(small_plan))
    x = rng.standard_normal(32)
    np.testing.assert_array_equal(back.forward(x), small_plan.forward(x))
