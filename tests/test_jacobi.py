"""Recurrences, norms, roots, weights — checked against quadrature and scipy.

The quadrature oracle came first: every frozen norm value below was computed
with scipy.integrate.quad (weight='alg' handles the endpoint singularities)
before being compared to the closed forms.
"""

import decimal
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from scipy.linalg import eigvalsh_tridiagonal
from hypothesis import given, settings, strategies as st

from opsparse import _kernels, build_plan
from opsparse.jacobi import (
    JacobiParams,
    compute_roots,
    compute_weights,
    eval_derivative,
    eval_orthonormal,
    eval_recurrence,
    jacobi_matrix,
    log_norm_factor,
    norm_factor,
    orthonormal_coeffs,
    orthonormal_table,
    recurrence_coeffs,
    root_cosines,
    _FULL_SWEEPS,
    _ratio,
    _root_guess,
    _slope_coeffs,
)

PARAM_GRID = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (1.5, -0.3), (0.0, -0.999)]

params_st = st.tuples(
    st.floats(min_value=-0.99, max_value=3.0),
    st.floats(min_value=-0.99, max_value=3.0),
).map(lambda ab: JacobiParams(*ab))


def quad_weighted(f, alpha, beta):
    """Integral of f(x) (1-x)^alpha (1+x)^beta over [-1, 1], adaptively."""
    val, err = scipy.integrate.quad(
        f, -1.0, 1.0, weight="alg", wvar=(beta, alpha), limit=200
    )
    return val


# ---------------------------------------------------------------------------
# norms


def test_norm_factor_matches_quadrature():
    for alpha, beta in PARAM_GRID:
        p = JacobiParams(alpha, beta)
        for j in (0, 1, 2, 5):
            oracle = quad_weighted(lambda x: eval_recurrence(p, j, x) ** 2, alpha, beta)
            assert norm_factor(p, j) == pytest.approx(oracle, rel=1e-9)


def test_norm_factor_frozen_values():
    # Legendre h_j = 2/(2j+1)
    leg = JacobiParams(0.0, 0.0)
    assert norm_factor(leg, 0) == pytest.approx(2.0, rel=1e-14)
    assert norm_factor(leg, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert norm_factor(leg, 3) == pytest.approx(2.0 / 7.0, rel=1e-14)
    # Chebyshev: h_0 = pi; h_2 = 9*pi/128 under the classical normalization
    # (P_2 = (3/8) T_2, so h_2 = (9/64)(pi/2))
    cheb = JacobiParams(-0.5, -0.5)
    assert norm_factor(cheb, 0) == pytest.approx(math.pi, rel=1e-14)
    assert norm_factor(cheb, 2) == pytest.approx(9.0 * math.pi / 128.0, rel=1e-14)
    assert norm_factor(JacobiParams(1.0, 0.0), 5) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_norm_factor_degenerate_sum():
    # alpha + beta = -1 makes the generic j=0 formula 0/0; the closed-form
    # rewrite must still agree with quadrature
    p = JacobiParams(-0.5, -0.5)
    assert norm_factor(p, 0) == pytest.approx(quad_weighted(lambda x: 1.0, -0.5, -0.5), rel=1e-10)
    p = JacobiParams(0.25, -1.25 + 1.0)  # alpha+beta = 0, nearby regular case
    assert norm_factor(p, 0) == pytest.approx(
        quad_weighted(lambda x: 1.0, 0.25, -0.25), rel=1e-10
    )


def test_log_norm_factor_array_and_validation():
    p = JacobiParams(0.3, 0.7)
    js = np.array([0, 1, 4])
    arr = log_norm_factor(p, js)
    assert arr.shape == (3,)
    for i, j in enumerate(js):
        assert arr[i] == pytest.approx(log_norm_factor(p, int(j)))
    # integral floats are degrees; anything else is refused, not truncated
    assert np.array_equal(log_norm_factor(p, js.astype(np.float64)), arr)
    assert log_norm_factor(p, 4.0) == arr[2]
    for bad in (-1, 2.5, np.array([0.0, 1.5]), math.nan, math.inf):
        with pytest.raises(ValueError, match="degree must be an integer >= 0"):
            log_norm_factor(p, bad)
    with pytest.raises(ValueError, match="got 2.5"):
        norm_factor(JacobiParams(0.0, 0.0), 2.5)


@pytest.mark.parametrize("alpha, beta, closed", [
    (0.0, 0.0, lambda j: 2.0 / (2.0 * j + 1.0)),
    (1.0, 1.0, lambda j: 8.0 * (j + 1.0) / ((2.0 * j + 3.0) * (j + 2.0))),
    (1.0, 0.0, lambda j: 2.0 / (j + 1.0)),
], ids=["legendre", "gegenbauer-3/2", "alpha=1"])
def test_norms_match_closed_forms_below_2_20(alpha, beta, closed):
    # a million summed log ratios drift by about 3e-12; lgamma differences
    # taken per degree cancel to about 1e-8, which this bound refuses
    j = np.arange(2**20)
    h = np.exp(log_norm_factor(JacobiParams(alpha, beta), j))
    assert np.max(np.abs(h / closed(j.astype(np.float64)) - 1.0)) <= 1e-11


def dlmf_norms(alpha, beta, jmax):
    """h_0..h_jmax from DLMF 18.3's Gamma ratio as Pochhammer products:
    h_j / h_0 = (a+1)_j (b+1)_j / ((2j+a+b+1) j! (a+b+2)_{j-1}) for j >= 1
    (the factor a+b+1 cancelled, so a+b+1 = 0 needs no limit), taken in
    50-digit decimal arithmetic from the parameters' exact binary values;
    h_0 from math.lgamma, the closed form log_norm_factor uses."""
    h0 = math.exp((alpha + beta + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
                  + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0))
    out = [h0]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b = decimal.Decimal(alpha), decimal.Decimal(beta)
        prod = decimal.Decimal(1)
        for j in range(1, jmax + 1):
            prod *= (a + j) * (b + j) / j
            if j >= 2:
                prod /= a + b + j
            out.append(h0 * float(prod / (2 * j + a + b + 1)))
    return np.array(out)


@pytest.mark.parametrize("alpha, beta", PARAM_GRID)
def test_norms_match_gammaln(alpha, beta):
    # DLMF 18.3's Gamma-function form, exact but for h_0 (dlmf_norms): the
    # ratio-built h_j are within 3.5e-14 of it at j <= 2000, and 1e-12
    # leaves room for another libm's log and exp
    h = norm_factor(JacobiParams(alpha, beta), np.arange(2001))
    np.testing.assert_allclose(h, dlmf_norms(alpha, beta, 2000), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha, beta", [(1e155, 0.0), (0.0, 1e155)])
def test_norms_at_huge_exponents_raise_no_warning(alpha, beta):
    # the recurrence's A_j, B_j and C_j overflow here; the norm ratios do not
    # need them.  With b = 0 or a = 0, h_j = 2^(s+1) / (2j + s + 1), s = a + b,
    # and h_0's lgamma terms, near 3.5e157, round log h_j at 1e-14 relative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_norm_factor(JacobiParams(alpha, beta), np.arange(6))
    s = alpha + beta
    np.testing.assert_allclose(got, (s + 1.0) * math.log(2.0) - math.log(s + 1.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_recurrence_legendre_values():
    p = JacobiParams(0.0, 0.0)
    x = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(eval_recurrence(p, 2, x), 0.5 * (3 * x**2 - 1), atol=1e-14)
    np.testing.assert_allclose(
        eval_recurrence(p, 3, x), 0.5 * (5 * x**3 - 3 * x), atol=1e-14
    )


def test_eval_recurrence_chebyshev_is_scaled_cosine():
    p = JacobiParams(-0.5, -0.5)
    theta = np.linspace(0.1, 3.0, 9)
    for j in (1, 4, 9):
        # P_j^{(-1/2,-1/2)}(cos t) = binom(2j, j)/4^j * cos(j t)
        scale = scipy.special.comb(2 * j, j, exact=True) / 4.0**j
        np.testing.assert_allclose(
            eval_recurrence(p, j, np.cos(theta)), scale * np.cos(j * theta), atol=1e-12
        )


@given(params_st, st.integers(min_value=0, max_value=30),
       st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_orthonormal_vs_classical(p, j, x):
    expect = eval_recurrence(p, j, x) / math.sqrt(norm_factor(p, j))
    assert eval_orthonormal(p, j, x) == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_orthonormal_quadrature_orthonormality():
    p = JacobiParams(1.5, -0.3)
    for i, j in [(0, 0), (2, 2), (1, 3), (4, 4), (0, 5)]:
        oracle = quad_weighted(
            lambda x: eval_orthonormal(p, i, x) * eval_orthonormal(p, j, x), 1.5, -0.3
        )
        assert oracle == pytest.approx(1.0 if i == j else 0.0, abs=5e-10)


def test_orthonormal_table_matches_pointwise(rng):
    p = JacobiParams(0.5, 0.5)
    x = rng.uniform(-1, 1, 11)
    table = orthonormal_table(p, 8, x)
    assert table.shape == (9, 11)
    for j in (0, 3, 8):
        np.testing.assert_allclose(table[j], eval_orthonormal(p, j, x), rtol=1e-12)


def test_recurrence_coeffs_validation():
    p = JacobiParams(0.0, 0.0)
    with pytest.raises(ValueError):
        recurrence_coeffs(p, 0)


def test_orthonormal_coeffs_degenerate_alpha_beta():
    # alpha + beta = -1 exercises the j=1 closed-form ratio
    p = JacobiParams(-0.5, -0.5)
    p0, a, b, c = orthonormal_coeffs(p, 3)
    assert p0 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    x = 0.37
    assert (a[1] * x + b[1]) * p0 == pytest.approx(eval_orthonormal(p, 1, x), rel=1e-12)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID + [(3.0, -0.99), (-0.999, 0.0), (1e3, 0.25)])
@pytest.mark.parametrize("jmax", [0, 1, 2, 3, 40, 1000])
def test_orthonormal_coeffs_match_scalar_forms(alpha, beta, jmax):
    # the array form must give the bits of the scalar recurrence_coeffs and
    # _ratio's h_{j-1}/h_j (its closed form at j = 1), combined as
    # p_j = (a_j x + b_j) p_{j-1} - c_j p_{j-2}
    p = JacobiParams(alpha, beta)
    a, b, c = np.zeros(jmax + 1), np.zeros(jmax + 1), np.zeros(jmax + 1)
    rprev = 0.0
    for j in range(1, jmax + 1):
        if j == 1:
            q = (alpha + beta + 3.0) / ((alpha + 1.0) * (beta + 1.0))
        else:
            q = _ratio(alpha, beta, j)
        r = math.sqrt(q)
        A, B, C = recurrence_coeffs(p, j)
        a[j], b[j], c[j] = A * r, B * r, C * r * rprev
        rprev = r
    p0, *arrays = orthonormal_coeffs(p, jmax)
    assert p0 == math.exp(-0.5 * log_norm_factor(p, 0))
    for got, expect in zip(arrays, (a, b, c)):
        assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_identity_finite_difference():
    p = JacobiParams(0.7, -0.2)
    x = np.linspace(-0.9, 0.9, 5)
    h = 1e-6
    for j in (1, 2, 6):
        fd = (eval_recurrence(p, j, x + h) - eval_recurrence(p, j, x - h)) / (2 * h)
        np.testing.assert_allclose(eval_derivative(p, j, x), fd, rtol=1e-7, atol=1e-7)
    assert eval_derivative(p, 0, 0.3) == 0.0


@pytest.mark.parametrize("alpha,beta", PARAM_GRID + [(0.5, -0.25)])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_theta_slope_matches_shifted_family(alpha, beta, n):
    # d/dtheta p_n from p_{n-1} and p_n against -sin(theta) P_n' / sqrt(h_n),
    # where eval_derivative takes P_n' from the (alpha+1, beta+1) family
    p = JacobiParams(alpha, beta)
    theta = np.linspace(0.05, math.pi - 0.05, 9)
    value, slope = _kernels.value_and_slope(
        *orthonormal_coeffs(p, n), *_slope_coeffs(p, n), theta)
    expect = -np.sin(theta) * eval_derivative(p, n, np.cos(theta)) / math.sqrt(norm_factor(p, n))
    np.testing.assert_allclose(value, eval_orthonormal(p, n, np.cos(theta)), rtol=1e-12)
    np.testing.assert_allclose(slope, expect, rtol=1e-10, atol=1e-10 * np.max(np.abs(expect)))


# ---------------------------------------------------------------------------
# roots and weights


@pytest.mark.parametrize("alpha,beta", PARAM_GRID[:4])
@pytest.mark.parametrize("n", [1, 2, 16, 64, 2048])
def test_roots_match_scipy(alpha, beta, n):
    p = JacobiParams(alpha, beta)
    theta = compute_roots(p, n)
    assert theta.shape == (n,)
    assert np.all(np.diff(theta) > 0)
    ours = np.sort(np.cos(theta))
    ref, _ = scipy.special.roots_jacobi(n, alpha, beta)
    np.testing.assert_allclose(ours, np.sort(ref), atol=1e-12)


def test_chebyshev_roots_closed_form():
    p = JacobiParams(-0.5, -0.5)
    n = 32
    theta = compute_roots(p, n)
    expect = (2 * np.arange(n) + 1) * math.pi / (2 * n)
    np.testing.assert_allclose(theta, expect, atol=1e-13)


def test_chebyshev_roots_closed_form_large_n():
    # each Newton step starts from arccos(cos theta), the angle the
    # recurrence sees; stepping from theta itself leaves 3.4e-14 here
    p = JacobiParams(-0.5, -0.5)
    n = 2048
    theta = compute_roots(p, n)
    expect = (2 * np.arange(n) + 1) * math.pi / (2 * n)
    np.testing.assert_allclose(theta, expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("alpha,beta", PARAM_GRID[:4])
def test_weights_match_scipy(alpha, beta):
    n = 48
    p = JacobiParams(alpha, beta)
    theta = compute_roots(p, n)
    w, u = compute_weights(p, theta, n)
    assert np.all(w > 0)
    assert 0 < u < 1
    ref_x, ref_w = scipy.special.roots_jacobi(n, alpha, beta)
    # ours are indexed by ascending angle = descending lambda
    np.testing.assert_allclose(w[::-1], ref_w, rtol=1e-10)
    # total mass is h_0
    assert w.sum() == pytest.approx(norm_factor(p, 0), rel=1e-12)


def _golub_welsch_roots(p, n):
    """Reference angles: eigenvalues of the Jacobi matrix (LAPACK sterf),
    then one plain Newton step on p_n(cos theta) in theta."""
    lam = eigvalsh_tridiagonal(*jacobi_matrix(p, n), lapack_driver="sterf")
    theta = np.arccos(np.clip(lam[::-1], -1.0, 1.0))
    value, slope = _kernels.value_and_slope(*orthonormal_coeffs(p, n), *_slope_coeffs(p, n), theta)
    return theta - value / slope


# At the extreme root next to a -0.999 exponent (theta ~ 1.5e-5 from an end
# at N = 4096) neither method resolves the root to 1e-12: against a 50-digit
# value the reference is off by 6.4e-12 and Newton by 1.4e-11, and the
# polynomial with the float64 recurrence coefficients has its root 9.4e-12
# away, so the two land on different points of that evaluation floor.
_EDGE_FLOOR = pytest.mark.xfail(
    strict=True, reason="float64 recurrence floor at the extreme root (~1e-11 rad)")


@pytest.mark.parametrize("alpha,beta", PARAM_GRID + [(3.0, -0.99), (-0.99, 3.0), (-0.999, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024, 2048, 4096])
def test_roots_match_golub_welsch(alpha, beta, n, request):
    if n == 4096 and -0.999 in (alpha, beta):
        request.applymarker(_EDGE_FLOOR)
    p = JacobiParams(alpha, beta)
    np.testing.assert_allclose(compute_roots(p, n), _golub_welsch_roots(p, n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("ab", [-0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 1024])
def test_symmetric_roots_are_mirror_exact(ab, n):
    # at alpha = beta half the roots are the other half's mirror, and the
    # cosines and weights match bit for bit; a middle root is pi/2, lambda 0
    p = JacobiParams(ab, ab)
    plan = build_plan(p, n)
    theta, half = plan.theta, n // 2
    np.testing.assert_array_equal(theta[::-1][:half], math.pi - theta[:half])
    np.testing.assert_array_equal(plan.lam[::-1], -plan.lam)
    np.testing.assert_array_equal(plan.weights[::-1], plan.weights)
    np.testing.assert_array_equal(root_cosines(p, theta), plan.lam)
    if n % 2:
        assert theta[half] == 0.5 * math.pi and plan.lam[half] == 0.0
    assert np.all(theta[:half] < 0.5 * math.pi)


def test_root_guess_is_within_a_quarter_spacing():
    # spacing: the gap to the nearer neighbouring root (pi when n = 1)
    for alpha in np.linspace(-0.99, 3.0, 9):
        for beta in np.linspace(-0.99, 3.0, 9):
            p = JacobiParams(alpha, beta)
            for n in (1, 2, 3, 7, 64, 1024):
                theta = compute_roots(p, n)
                gaps = np.diff(theta, prepend=-math.inf, append=math.inf)
                spacing = np.minimum(np.minimum(gaps[:-1], gaps[1:]), math.pi)
                err = np.abs(_root_guess(p, n) - theta) / spacing
                assert err.max() <= 0.25, (alpha, beta, n, err.max())


@pytest.mark.slow
def test_root_gate_map_at_large_n():
    # README's measured range of the 1e-12 residual gate
    for alpha, beta in [(0.0, -0.999), (-0.999, 0.0), (-0.5, -0.5)]:
        assert compute_roots(JacobiParams(alpha, beta), 16384).shape == (16384,)
    for alpha, beta, n in [(-0.99, -0.99, 4096), (-0.99, -0.99, 16384),
                           (-0.9, -0.9, 16384), (-0.95, -0.5, 16384)]:
        with pytest.raises(ValueError, match="root residual"):
            compute_roots(JacobiParams(alpha, beta), n)


def test_roots_large_n_smoke():
    theta = compute_roots(JacobiParams(1.5, -0.3), 1024)
    assert theta.shape == (1024,)
    # spacing stays within a constant factor of pi/N
    gaps = np.diff(theta)
    assert gaps.max() / gaps.min() < 8.0


def test_roots_validation():
    with pytest.raises(ValueError):
        compute_roots(JacobiParams(0.0, 0.0), 0)


def test_roots_residual_gate_runs(monkeypatch):
    # a Newton step that lands 1e-9 rad off every root must trip the 1e-12 gate
    refine = _kernels.refine_roots
    monkeypatch.setattr(_kernels, "refine_roots", lambda *args: refine(*args) + 1e-9)
    with pytest.raises(ValueError, match="root residual"):
        compute_roots(JacobiParams(0.5, -0.25), 64)


@pytest.mark.parametrize("alpha, beta, n", [(0.0, 0.0, 64), (0.0, 0.0, 65), (1.5, -0.3, 64)])
def test_root_gate_sweeps_the_endpoints_with_the_roots(alpha, beta, n, monkeypatch):
    # p_n(+-1), the gate's endpoint scale, comes from the final sweep over
    # the roots, _kernels.sumsq_maxabs: no recurrence sweeps the two
    # endpoints alone
    swept, final_sweeps, in_final = [], [], [False]
    sweep, final = _kernels._sweep, _kernels.sumsq_maxabs

    def spy_sweep(p0, a, b, c, x):
        swept.append(np.array(x, dtype=np.float64))
        if in_final[0]:
            final_sweeps.append(swept[-1])
        return sweep(p0, a, b, c, x)

    def spy_final(*args):
        in_final[0] = True
        try:
            return final(*args)
        finally:
            in_final[0] = False

    monkeypatch.setattr(_kernels, "_sweep", spy_sweep)
    monkeypatch.setattr(_kernels, "sumsq_maxabs", spy_final)
    compute_roots(JacobiParams(alpha, beta), n)
    assert not any(np.all(np.abs(x) == 1.0) for x in swept)
    assert any(x.size > 2 and 1.0 in x and -1.0 in x for x in final_sweeps)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, 0.5), (1.5, -0.3), (-0.999, 0.0),
                                         (3.0, -0.99)])
@pytest.mark.parametrize("n", [1, 2, 3, 65, 1024])
def test_plan_rule_is_roots_plus_weights(alpha, beta, n):
    # build_plan takes theta, w and U from one final sweep; compute_weights
    # at its theta, a sweep of its own, gives the same bits
    p = JacobiParams(alpha, beta)
    plan = build_plan(p, n)
    theta = compute_roots(p, n)
    w, u = compute_weights(p, theta, n)
    np.testing.assert_array_equal(plan.theta, theta)
    np.testing.assert_array_equal(plan.weights, w)
    assert plan.U == u


def test_weights_at_alpha_equal_beta_refuse_angles_off_the_mirror():
    # at alpha = beta root_cosines takes the right half's cosines from the
    # left's, so angles not symmetric about pi/2 would get mirrored weights
    theta = np.sort(np.random.default_rng(1).uniform(0.1, 3.0, 8))
    with pytest.raises(ValueError, match="symmetric about pi/2"):
        compute_weights(JacobiParams(0.0, 0.0), theta, 8)
    # the same angles are swept as they are when alpha != beta
    w, _ = compute_weights(JacobiParams(0.0, 0.1), theta, 8)
    ss = (orthonormal_table(JacobiParams(0.0, 0.1), 7, np.cos(theta)) ** 2).sum(axis=0)
    np.testing.assert_allclose(w, 1.0 / ss, rtol=1e-13)


def test_plan_set_up_sweeps(monkeypatch):
    # Legendre N = 2048: the first Newton step sweeps the N/2 roots with
    # theta < pi/2, each later step only the roots whose previous step was
    # not exactly 0, and one final sweep gives the gate and the weights
    n = 2048
    widths, steps = [], []
    sweep, refine = _kernels._sweep, _kernels.refine_roots

    def spy_sweep(p0, a, b, c, x):
        widths.append(len(x))
        return sweep(p0, a, b, c, x)

    def spy_refine(*args):
        steps.append((args[-1], refine(*args)))
        return steps[-1][1]

    monkeypatch.setattr(_kernels, "_sweep", spy_sweep)
    monkeypatch.setattr(_kernels, "refine_roots", spy_refine)
    build_plan(JacobiParams(0.0, 0.0), n)
    assert len(steps) == _FULL_SWEEPS and len(widths) == len(steps) + 1
    assert sum(w >= n // 2 for w in widths) == 2
    assert widths[0] == n // 2 and widths[-1] >= n // 2
    for (before, after), (theta, _) in zip(steps, steps[1:]):
        assert len(theta) == np.count_nonzero(after != before)


@pytest.mark.parametrize("alpha, beta", PARAM_GRID)
def test_refine_roots_on_a_subset_is_the_full_step_gathered(alpha, beta, rng):
    # gauss_rule steps gathered subsets of its Newton iterates and drops a
    # root whose step was 0; both rest on each root's step not depending on
    # the roots swept with it, bit for bit
    p = JacobiParams(alpha, beta)
    for n in (65, 2048):
        newton = (*orthonormal_coeffs(p, n), *_slope_coeffs(p, n), alpha, beta)
        theta = _root_guess(p, n)[: n // 2 if alpha == beta else n]
        for _ in range(_FULL_SWEEPS):
            full = _kernels.refine_roots(*newton, theta)
            size = rng.integers(1, theta.size + 1)
            for idx in (np.flatnonzero(full != theta), np.arange(1, theta.size, 2),
                        np.sort(rng.choice(theta.size, size, replace=False))):
                got = _kernels.refine_roots(*newton, theta[idx])
                assert list(map(float.hex, got.tolist())) == \
                    list(map(float.hex, full[idx].tolist()))
            theta = full


def test_weights_of_large_exponents_raise_no_overflow():
    # p_j(+-1) grows like j^(alpha+1/2): at alpha = 150, N = 1024 it reaches
    # 2e172, whose square overflows, so the final sweep leaves the ends out
    # of its sums
    p = JacobiParams(150.0, 0.0)
    theta = np.linspace(0.5, 2.5, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, u = compute_weights(p, theta, 1024)
    assert np.all(np.isfinite(w) & (w > 0.0)) and math.isfinite(u)


def test_weights_refuse_a_sum_of_squares_that_overflows():
    # at alpha = 150, N = 1024, p_j(cos 0.01)^2 overflows: the weight there
    # would read 0, so the call raises, naming the setting
    p = JacobiParams(150.0, 0.0)
    theta = np.linspace(0.01, 2.5, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite at alpha=150\.0, beta=0\.0, "
                                             r"N=1024"):
            compute_weights(p, theta, 1024)


def test_plans_build_up_to_exponent_15_and_not_at_16():
    # JacobiParams takes any exponent above -1, but set-up has a ceiling:
    # at N = 64 a plan builds at 15 and its root angles fail at 16
    build_plan(JacobiParams(15.0, 0.0), 64)
    for alpha, beta in ((16.0, 0.0), (0.0, 16.0)):
        with pytest.raises(ValueError, match="root angles are not strictly increasing"):
            build_plan(JacobiParams(alpha, beta), 64)


# sha256 prefixes of theta, weights and U as float64 bytes; they pin set-up
# bit for bit, as numpy's cos, tan and arccos compute on x86-64 (numpy 2.4)
_PLAN_DIGESTS = [
    (0.0, 0.0, 2048, ["6e72978b83b8d636", "6101be068df5e4b3", "7ec3f639dd54472e"]),
    (1.5, -0.3, 1024, ["e575f06ba90aaa4e", "45872b770e6a8395", "7f952c5ea4557dfc"]),
    (0.5, 0.5, 65, ["d4fd0c8802f6d470", "02cb436ba78546bc", "c6ea726ccfabd514"]),
    (-0.999, 0.0, 1024, ["e2a76695882db5b1", "6d022a3d08ae1329", "73c03b13e6d3b4a9"]),
    # the plans the benchmark builds
    (0.0, 0.0, 8192, ["bebf6fa85a4ad66d", "63b2221bd440df02", "ec6f339b12fbf6da"]),
    (1.5, -0.3, 4096, ["eb723697eb93cd81", "b3c09c39bcab44d9", "44a365e110dbf91c"]),
]


@pytest.mark.parametrize("alpha, beta, n, digests", _PLAN_DIGESTS)
def test_plan_bits_are_pinned(alpha, beta, n, digests):
    plan = build_plan(JacobiParams(alpha, beta), n)
    got = [hashlib.sha256(np.asarray(v, "<f8").tobytes()).hexdigest()[:16]
           for v in (plan.theta, plan.weights, plan.U)]
    assert got == digests


def test_roots_must_lie_inside_zero_pi(monkeypatch):
    # the gate's slope divides by sin(theta): an angle at 0 would get an
    # infinite scale and pass, so it is refused before the gate
    refine = _kernels.refine_roots
    monkeypatch.setattr(_kernels, "refine_roots",
                        lambda *args: np.concatenate(([0.0], refine(*args)[1:])))
    with pytest.raises(ValueError, match=r"inside \(0, pi\) at alpha=0.5, beta=-0.25, N=64"):
        compute_roots(JacobiParams(0.5, -0.25), 64)


def test_params_validation():
    with pytest.raises(ValueError):
        JacobiParams(-1.5, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.0)
    with pytest.raises(ValueError):
        JacobiParams(math.nan, 0.0)
