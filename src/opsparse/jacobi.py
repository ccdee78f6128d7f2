"""Jacobi polynomial recurrences, norms, roots, and Gauss quadrature weights.

Everything here works with the classical parameters alpha, beta > -1.  The
orthonormal family is evaluated through a rescaled three-term recurrence whose
coefficients stay O(1) in the degree, so values are stable up to N = 2**16.
Roots are the eigenvalues of the tridiagonal Jacobi matrix of that recurrence
(Golub-Welsch), polished by one Newton step in theta, and indexed by
*ascending angle* theta = arccos(lambda), i.e. descending lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from . import _kernels

__all__ = [
    "JacobiParams",
    "norm_factor",
    "log_norm_factor",
    "recurrence_coeffs",
    "orthonormal_coeffs",
    "eval_recurrence",
    "eval_orthonormal",
    "eval_derivative",
    "orthonormal_table",
    "jacobi_matrix",
    "compute_roots",
    "compute_weights",
]


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi weight parameters with the derived oscillation constants.

    ``phase`` is the asymptotic cosine phase -(alpha + 1/2) pi/2 and ``nshift``
    the frequency shift (alpha + beta + 1)/2 that appear in the large-degree
    behaviour of the orthonormal polynomials.
    """

    alpha: float
    beta: float
    phase: float = field(init=False)
    nshift: float = field(init=False)

    def __post_init__(self):
        if not (self.alpha > -1.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite number > -1, got {self.alpha}")
        if not (self.beta > -1.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a finite number > -1, got {self.beta}")
        object.__setattr__(self, "phase", -(self.alpha + 0.5) * math.pi / 2.0)
        object.__setattr__(self, "nshift", (self.alpha + self.beta + 1.0) / 2.0)


def log_norm_factor(params: JacobiParams, j) -> np.ndarray | float:
    """log of the squared L2 norm h_j of the classical Jacobi polynomial P_j.

    h_j = 2^(a+b+1)/(2j+a+b+1) * G(j+a+1)G(j+b+1)/(G(j+1)G(j+a+b+1)); the j=0
    denominator degeneracy at a+b+1 = 0 is removed exactly by rewriting with
    G(a+b+2).  Accepts scalar or array j.
    """
    a, b = params.alpha, params.beta
    jarr = np.asarray(j)
    scalar = jarr.ndim == 0
    jarr = np.atleast_1d(jarr).astype(np.int64)
    if np.any(jarr < 0):
        raise ValueError("degree must be >= 0")
    out = np.empty(jarr.shape[0])
    base = (a + b + 1.0) * math.log(2.0)
    for i, jj in enumerate(jarr):
        if jj == 0:
            out[i] = (
                base
                + math.lgamma(a + 1.0)
                + math.lgamma(b + 1.0)
                - math.lgamma(a + b + 2.0)
            )
        else:
            out[i] = (
                base
                - math.log(2.0 * jj + a + b + 1.0)
                + math.lgamma(jj + a + 1.0)
                + math.lgamma(jj + b + 1.0)
                - math.lgamma(jj + 1.0)
                - math.lgamma(jj + a + b + 1.0)
            )
    return float(out[0]) if scalar else out


def norm_factor(params: JacobiParams, j) -> np.ndarray | float:
    """Squared L2 norm of P_j against the weight (1-x)^alpha (1+x)^beta."""
    return np.exp(log_norm_factor(params, j))


def recurrence_coeffs(params: JacobiParams, j: int) -> tuple[float, float, float]:
    """(A_j, B_j, C_j) with P_j = (A_j x + B_j) P_{j-1} - C_j P_{j-2}, j >= 1."""
    a, b = params.alpha, params.beta
    if j < 1:
        raise ValueError("recurrence coefficients start at j = 1")
    if j == 1:
        return (a + b + 2.0) / 2.0, (a - b) / 2.0, 0.0
    t = 2.0 * j + a + b
    den = 2.0 * j * (j + a + b)
    A = t * (t - 1.0) / den
    B = (t - 1.0) * (a * a - b * b) / (den * (t - 2.0))
    C = (j + a - 1.0) * (j + b - 1.0) * t / (j * (j + a + b) * (t - 2.0))
    return A, B, C


def _norm_ratio_sq(params: JacobiParams, j: int) -> float:
    """h_{j-1}/h_j via cancellation-free ratios."""
    a, b = params.alpha, params.beta
    if j == 1:
        return (a + b + 3.0) / ((a + 1.0) * (b + 1.0))
    t = 2.0 * j + a + b
    return (t + 1.0) / (t - 1.0) * (j * (j + a + b)) / ((j + a) * (j + b))


def orthonormal_coeffs(params: JacobiParams, jmax: int):
    """Coefficient arrays (p0, a, b, c) for the orthonormal recurrence.

    p_j = (a[j] x + b[j]) p_{j-1} - c[j] p_{j-2}; index 0 of each array is
    unused.  p0 = h_0^{-1/2}.  Raises ValueError when log h_0 is not finite
    or p0 would leave the float range, as it can for huge alpha or beta,
    where the lgamma differences in h_0 are lost to round-off.
    """
    al, be = params.alpha, params.beta
    try:
        log_h0 = log_norm_factor(params, 0)
    except OverflowError:  # lgamma of a parameter near the float maximum
        log_h0 = math.inf
    if not abs(log_h0) < 1400.0:
        raise ValueError(f"h_0 = exp({log_h0}) for {params} is outside the float range")
    p0 = math.exp(-0.5 * log_h0)
    a = np.zeros(jmax + 1)
    b = np.zeros(jmax + 1)
    c = np.zeros(jmax + 1)
    rprev = 0.0
    for j in range(1, jmax + 1):
        r = math.sqrt(_norm_ratio_sq(params, j))
        A, B, C = recurrence_coeffs(params, j)
        a[j] = A * r
        b[j] = B * r
        c[j] = C * r * rprev
        rprev = r
    return p0, a, b, c


def eval_recurrence(params: JacobiParams, j: int, x) -> np.ndarray | float:
    """Classical (unnormalized) P_j^{(alpha,beta)}(x) by direct recurrence."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    pm = np.ones_like(xv)
    if j == 0:
        return float(pm[0]) if scalar else pm
    A, B, _ = recurrence_coeffs(params, 1)
    pc = A * xv + B
    for jj in range(2, j + 1):
        A, B, C = recurrence_coeffs(params, jj)
        pm, pc = pc, (A * xv + B) * pc - C * pm
    return float(pc[0]) if scalar else pc


def eval_orthonormal(params: JacobiParams, j: int, x) -> np.ndarray | float:
    """Orthonormal Jacobi polynomial of degree j at x."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).astype(np.float64)
    p0, a, b, c = orthonormal_coeffs(params, j)
    a = a[: j + 1]
    b = b[: j + 1]
    c = c[: j + 1]
    out = _kernels.recurrence_last(p0, a, b, c, xv)
    return float(out[0]) if scalar else out


def eval_derivative(params: JacobiParams, j: int, x) -> np.ndarray | float:
    """d/dx of the classical P_j, via the parameter-shift identity."""
    if j == 0:
        x = np.asarray(x, dtype=np.float64)
        return 0.0 if x.ndim == 0 else np.zeros_like(x)
    shifted = JacobiParams(params.alpha + 1.0, params.beta + 1.0)
    return 0.5 * (j + params.alpha + params.beta + 1.0) * eval_recurrence(shifted, j - 1, x)


def orthonormal_table(params: JacobiParams, jmax: int, x: np.ndarray) -> np.ndarray:
    """Matrix [p_j(x_i)]_{j<=jmax, i}, evaluated by one recurrence sweep."""
    p0, a, b, c = orthonormal_coeffs(params, jmax)
    return _kernels.recurrence_table(p0, a, b, c, np.asarray(x, dtype=np.float64))


def jacobi_matrix(params: JacobiParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the n x n symmetric tridiagonal Jacobi matrix J.

    x p_{j-1} = p_j / a_j - (b_j / a_j) p_{j-1} + p_{j-2} / a_{j-1}, so the
    diagonal is -b_j/a_j (j = 1..n) and the off-diagonal 1/a_j (j = 1..n-1).
    """
    _, a, b, _ = orthonormal_coeffs(params, n)
    return -b[1:] / a[1:], 1.0 / a[1:n]


def _derivative_prefactor(params: JacobiParams, n: int) -> float:
    """kappa with d/dx p_n = kappa * q_{n-1}, q orthonormal for (a+1, b+1)."""
    shifted = JacobiParams(params.alpha + 1.0, params.beta + 1.0)
    lh_shift = log_norm_factor(shifted, n - 1)
    lh_own = log_norm_factor(params, n)
    return 0.5 * (n + params.alpha + params.beta + 1.0) * math.exp(0.5 * (lh_shift - lh_own))


def compute_roots(params: JacobiParams, n: int, residual_tol: float = 1e-12) -> np.ndarray:
    """All n roots of the degree-n Jacobi polynomial as ascending angles.

    Golub-Welsch: the roots are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix J of the orthonormal recurrence (diagonal -b_j/a_j,
    off-diagonal 1/a_j), found by LAPACK's root-free QR (``sterf``).  One
    Newton step on p_n(cos theta) in theta then restores the accuracy that
    arccos loses near theta = 0 and pi.  Raises if the angles are not
    strictly increasing or the residuals exceed ``residual_tol`` times the
    per-root scale max(1, |p_n(1)|, |p_n(-1)|, |d/dtheta p_n|).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p0, a, b, c = orthonormal_coeffs(params, n)
    shifted = JacobiParams(params.alpha + 1.0, params.beta + 1.0)
    q0, aq, bq, cq = orthonormal_coeffs(shifted, n - 1)
    dpref = _derivative_prefactor(params, n)

    lam = eigvalsh_tridiagonal(*jacobi_matrix(params, n), lapack_driver="sterf")
    theta = np.arccos(np.clip(lam[::-1], -1.0, 1.0))
    theta = _kernels.refine_roots(p0, a, b, c, q0, aq, bq, cq, dpref, theta)
    if np.any(np.diff(theta) <= 0.0):
        raise RuntimeError("root angles are not strictly increasing")
    resid = np.abs(_kernels.recurrence_last(p0, a, b, c, np.cos(theta)))
    # Scale per root: the endpoint magnitude or the local d/dtheta slope,
    # whichever is larger.  Near the edges the raw residual floor grows with
    # the recurrence length, but the backward error |p_N|/|p_N'| stays at
    # machine level.
    slope = np.abs(
        np.sin(theta) * dpref * _kernels.recurrence_last(q0, aq, bq, cq, np.cos(theta))
    )
    ends = _kernels.recurrence_last(p0, a, b, c, np.array([1.0, -1.0]))
    scale = np.maximum(max(1.0, float(np.max(np.abs(ends)))), slope)
    worst = float(np.max(resid / scale))
    if not worst <= residual_tol:  # NaN fails too
        raise RuntimeError(f"root residual {worst:.3e} exceeds {residual_tol:.1e}")
    return theta


def compute_weights(params: JacobiParams, theta: np.ndarray, n: int):
    """Gauss quadrature weights at cos(theta) plus the flatness constant.

    w_l = 1 / sum_{j<n} p_j(cos theta_l)^2; U = max_{l,j} sqrt(w_l)|p_j|.
    Returns (weights, U).
    """
    p0, a, b, c = orthonormal_coeffs(params, n - 1)
    ss, mx = _kernels.sumsq_maxabs(p0, a, b, c, np.cos(theta))
    w = 1.0 / ss
    u = float(np.max(np.sqrt(w) * mx))
    return w, u
