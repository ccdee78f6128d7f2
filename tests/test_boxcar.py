"""Boxcar filters: the closed-form indicator coefficients are checked against
numerical integration, and every constructed filter against an independent
grid check written out here (not the module's own)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebval
from scipy.integrate import trapezoid

from opsparse import JacobiParams, ReductionConfig, build_plan
from opsparse.boxcar import (
    SLACK,
    BoxcarConstructionError,
    _grid_values,
    _indicator_coeffs,
    _verify,
    build_boxcar,
)


def indicator_coeff_oracle(center, half, m, n_grid=200_001):
    """a_m of the symmetrized indicator by brute-force integration.

    The target is 1 on {phi : min(|phi-center|, |phi+center-2pi|, ...) <= half}
    viewed on [0, pi]; integrating against cos(m phi) with the standard
    even-series weights.
    """
    phi = np.linspace(0.0, math.pi, n_grid)
    ind = (np.abs(phi - center) <= half) | (np.abs(phi + center) <= half) \
        | (np.abs(phi - center - 2 * math.pi) <= half) \
        | (np.abs(phi + center - 2 * math.pi) <= half)
    ind = ind.astype(float)
    if m == 0:
        return trapezoid(ind, phi) / math.pi
    return 2.0 * trapezoid(ind * np.cos(m * phi), phi) / math.pi


@pytest.mark.parametrize("center,half", [
    (1.3, 0.4),          # interior
    (0.2, 0.5),          # merged across 0
    (math.pi - 0.1, 0.3),  # merged across pi
    (0.0, 0.25),         # centered exactly at 0
    (math.pi, 0.25),     # centered exactly at pi
])
def test_indicator_coeffs_match_integration(center, half):
    coeffs = _indicator_coeffs(center, half, 6)
    for m in range(7):
        assert coeffs[m] == pytest.approx(
            indicator_coeff_oracle(center, half, m), abs=5e-5
        )


def test_indicator_full_circle():
    # box so wide the symmetrized set is everything
    coeffs = _indicator_coeffs(1.5, math.pi, 8)
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


def grid_check(filt, n_per_degree=64):
    """Independent re-statement of the three boxcar conditions."""
    phi = np.linspace(0.0, math.pi, n_per_degree * filt.degree + 1)
    vals = filt(np.cos(phi))
    tol = filt.eps * 1.1
    inside = np.abs(phi - filt.center) <= filt.width
    outside = np.abs(phi - filt.center) >= 2 * filt.width
    ok_pass = not inside.any() or np.abs(vals[inside] - 1.0).max() <= tol
    ok_stop = not outside.any() or np.abs(vals[outside]).max() <= tol
    ok_bound = np.abs(vals).max() <= 1.0 + tol
    return ok_pass and ok_stop and ok_bound


def chebval_verify(coeffs, center, width, eps):
    """The grid check with the filter evaluated by chebval at cos(phi)."""
    phi = np.linspace(0.0, math.pi, 64 * (len(coeffs) - 1) + 1)
    vals = chebval(np.cos(phi), coeffs)
    tol = eps * (1.0 + SLACK)
    inside = np.abs(phi - center) <= width
    outside = np.abs(phi - center) >= 2.0 * width
    return bool(np.all(np.abs(vals[inside] - 1.0) <= tol)
                and np.all(np.abs(vals[outside]) <= tol)
                and np.all(np.abs(vals) <= 1.0 + tol))


def test_verify_decides_as_chebval_at_every_root():
    # the peeler's filters (k=2, delta=0.05, gamma=1) at every Legendre
    # N=2048 centre, truncated to 3/4 and 1/2 of their degree to get rejections
    cfg = ReductionConfig(2, 0.05, 0.1, 1.0)
    width, eps = cfg.boxcar_width(), cfg.boxcar_eps()
    decisions = []
    for center in build_plan(JacobiParams(0.0, 0.0), 2048).theta:
        filt = build_boxcar(float(center), width, eps)
        if not decisions:
            m = 64 * filt.degree
            phi = np.linspace(0.0, math.pi, m + 1)
            np.testing.assert_allclose(_grid_values(filt.coeffs, m),
                                       chebval(np.cos(phi), filt.coeffs),
                                       rtol=0, atol=1e-12)
        for degree in (filt.degree, 3 * filt.degree // 4, filt.degree // 2):
            coeffs = filt.coeffs[: degree + 1]
            want = chebval_verify(coeffs, center, width, eps)
            assert _verify(coeffs, center, width, eps) == want, (center, degree)
            decisions.append(want)
    assert 0 < sum(decisions) < len(decisions)


def test_reference_filters_pass_grid_check():
    for center, width, eps in [
        (math.pi / 2, 0.25, 0.0177),
        (math.pi / 2, 0.15, 0.0125),
        (0.05, 0.3, 0.02),
        (3.1, 0.2, 0.01),
        (1.0, math.pi / 2, 0.05),
    ]:
        filt = build_boxcar(center, width, eps)
        assert grid_check(filt)


def test_reference_degrees_frozen():
    # deterministic construction: degree changes are worth noticing
    assert build_boxcar(math.pi / 2, 0.25, 0.0177).degree == 47
    assert build_boxcar(math.pi / 2, 0.15, 0.0125).degree == 79


def test_smoothed_indicator_never_overshoots():
    # the construction convolves a 0/1 target with a positive kernel, so
    # values live in [0,1] up to truncation error; check the slack is tiny
    filt = build_boxcar(1.1, 0.3, 0.01)
    phi = np.linspace(0, math.pi, 20_001)
    vals = filt(np.cos(phi))
    assert vals.max() <= 1.0 + filt.eps / 4
    assert vals.min() >= -filt.eps / 4


def test_degree_scales_like_log_eps_over_width():
    d1 = build_boxcar(1.5, 0.2, 0.02).degree
    d2 = build_boxcar(1.5, 0.1, 0.02).degree
    assert 1.5 <= d2 / d1 <= 2.6  # ~1/width
    d3 = build_boxcar(1.5, 0.2, 0.0002).degree
    assert d3 <= 3 * d1  # ~sqrt(log(1/eps)) growth, nowhere near 1/eps


def test_validation():
    with pytest.raises(ValueError):
        build_boxcar(-0.1, 0.2, 0.01)
    with pytest.raises(ValueError):
        build_boxcar(1.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        build_boxcar(1.0, 2.0, 0.01)
    with pytest.raises(ValueError):
        build_boxcar(1.0, 0.2, 1.0)


def test_filters_are_kept_per_argument_and_read_only():
    # a bank's end centres clip to exactly 0 and pi, so one (center, width,
    # eps) recurs; its filter is built once and its coefficients cannot be
    # written through the shared object
    eps = ReductionConfig(2, 0.05, 0.1, 1.0).boxcar_eps()
    first = build_boxcar(math.pi, 0.25, eps)
    assert build_boxcar(math.pi, 0.25, eps) is first
    assert build_boxcar(np.float64(math.pi), 0.25, eps) is first
    other = build_boxcar(0.0, 0.25, eps)
    assert other is not first and build_boxcar(0, 0.25, eps) is other
    assert other.center == 0.0 and type(other.center) is float
    for filt in (first, other):
        assert not filt.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            filt.coeffs[0] = 0.0


def test_call_is_chebval():
    filt = build_boxcar(1.2, 0.3, 0.02)
    x = np.array([-0.9, 0.0, 0.4])
    np.testing.assert_array_equal(filt(x), chebval(x, filt.coeffs))


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.05, max_value=math.pi / 2),
    st.floats(min_value=0.005, max_value=0.2),
)
@settings(max_examples=25, deadline=None)
def test_random_filters_verify(center, width, eps):
    filt = build_boxcar(center, width, eps)
    assert grid_check(filt)
    assert filt.degree <= 2.0 / (width * eps)
