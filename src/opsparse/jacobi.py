"""Jacobi polynomial recurrences, norms, roots, and Gauss quadrature weights.

Everything here works with the classical parameters alpha, beta > -1.  The
orthonormal family is evaluated through a rescaled three-term recurrence whose
coefficients stay O(1) in the degree.  The norms have one definition: the
ratios h_{j-1}/h_j of ``_norm_ratios``, rational in j.  They rescale
that recurrence and the Newton slope, and summed in log space from h_0's
closed form they give every h_j (``log_norm_factor``), with no per-degree
lgamma differences.  Roots start from Gatteschi & Pittaluga's asymptotic
angles and are polished by Newton's method in theta, with every step a
sweep of that recurrence (Hale & Townsend, SISC 2013) over the roots still
moving: the step is elementwise, so a root whose step was exactly 0 sits at
its fixed point and is not swept again.
They are indexed by *ascending angle* theta = arccos(lambda), i.e.
descending lambda.  At alpha = beta the family has p_j(-x) = (-1)^j p_j(x) and
the roots come in +- pairs (Szego, Orthogonal Polynomials, 4.1): Newton runs
on the half with theta < pi/2, the other half is its mirror pi - theta, and
``root_cosines`` stores the right half's cosines as the exact negation of
the left's, lambda_{n-1-l} = -lambda_l bit for bit.  That negation is the
condition the kernels' parity fold tests, so every sweep over a plan's
roots, and with it the weights, F, forward and inverse, runs over half of
them.

``gauss_rule`` is a plan's set-up: the Newton sweeps, then one final sweep
over the roots and +-1 to degree N, from which the root residual gate
(p_N and p_{N-1} at the roots, p_N(+-1)), the weights and the flatness
constant U all follow.  ``compute_roots`` is its theta, and
``compute_weights`` the weights at any given angles, by the same sweep.

Measured range: the root residual gate passes up to N = 16384 at (0, -0.999),
(-0.999, 0) and (-0.5, -0.5), but rejects (-0.99, -0.99) from N = 4096, and
(-0.9, -0.9) and (-0.95, -0.5) at N = 16384: near theta_1 ~ 5e-5 the float64
spacing of cos(theta) holds |p_n| to about 1e-12 of the slope.  A slow test
pins this map.  Large exponents: ``JacobiParams`` takes any alpha, beta > -1,
but ``build_plan`` does not (see its docstring): at N = 4, 16, 64 and 1024
a plan builds at (15, 0), (0, 15) and (15, 15), and (16, 0), (0, 16) and
(15.9, 0) are refused at each, their root angles not strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "root_cosines",
    "compute_roots",
    "compute_weights",
    "gauss_rule",
]

# Largest root residual gauss_rule accepts, relative to the per-root scale.
RESIDUAL_TOL = 1e-12
# gauss_rule's Newton schedule: _FULL_SWEEPS steps, each on the roots whose
# previous step was not exactly 0 (the first on every root), then up to
# _EXTRA_SWEEPS more on the roots whose last step exceeded _STEP_TOL rad
# (the extreme roots as alpha or beta nears -1 need 5-6 steps).
_FULL_SWEEPS = 3
_EXTRA_SWEEPS = 4
_STEP_TOL = 1e-13
# Largest |theta_l + theta_{N-1-l} - pi| accepted at alpha = beta, where half
# of the cosines are the negated mirror of the other half.
_MIRROR_TOL = 1e-12


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi weight parameters alpha, beta > -1, both finite."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite number > -1, got {self.alpha}")
        if not (self.beta > -1.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a finite number > -1, got {self.beta}")


def log_norm_factor(params: JacobiParams, j) -> np.ndarray | float:
    """log of the squared L2 norm h_j of the classical Jacobi polynomial P_j.

    h_0 = 2^(a+b+1) G(a+1)G(b+1)/G(a+b+2), the closed form that holds at
    a+b+1 = 0 too, and log h_j = log h_0 - sum_{i<=j} log q_i with
    q_i = h_{i-1}/h_i from ``_norm_ratios``, the ratios the orthonormal
    recurrence and the Newton slope use: one definition of the norms, with
    no lgamma differences to cancel.  Accepts scalar or array j of integral
    values >= 0 (integral floats included); costs O(max j).
    """
    a, b = params.alpha, params.beta
    jarr = np.atleast_1d(j)
    ok = np.isfinite(jarr) & (jarr >= 0) & (jarr == np.floor(jarr))  # NaN fails
    if not np.all(ok):
        raise ValueError(f"degree must be an integer >= 0, got {jarr[~ok][0]}")
    jarr = jarr.astype(np.int64)
    log_h0 = (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    q = _norm_ratios(params, int(jarr.max(initial=0)))
    out = np.concatenate(([log_h0], log_h0 - np.cumsum(np.log(q))))[jarr]
    return float(out[0]) if np.ndim(j) == 0 else out


def norm_factor(params: JacobiParams, j) -> np.ndarray | float:
    """Squared L2 norm of P_j against the weight (1-x)^alpha (1+x)^beta."""
    return np.exp(log_norm_factor(params, j))


def _terms(a, b, j):
    """(A_j, B_j, C_j) for j >= 2, at a Python or numpy j: one expression for
    the scalar and the array forms, so both have the same bits."""
    t = 2.0 * j + a + b
    den = 2.0 * j * (j + a + b)
    A = t * (t - 1.0) / den
    B = (t - 1.0) * (a * a - b * b) / (den * (t - 2.0))
    C = (j + a - 1.0) * (j + b - 1.0) * t / (j * (j + a + b) * (t - 2.0))
    return A, B, C


def _ratio(a, b, j):
    """h_{j-1}/h_j for j >= 2, at a Python or numpy j, with ``_terms``' rule
    of one expression for both forms."""
    t = 2.0 * j + a + b
    return (t + 1.0) / (t - 1.0) * (j * (j + a + b)) / ((j + a) * (j + b))


def _norm_ratios(params: JacobiParams, jmax: int) -> np.ndarray:
    """q_j = h_{j-1}/h_j for j = 1..jmax at index j - 1: the one source of
    the norm ratios.  j = 1 from its closed form, j >= 2 from ``_ratio``'s
    array form, which has the bits of its scalar form.  No A_j, B_j
    or C_j is formed, so alpha or beta near 1e155, where their products
    overflow, leaves the norms finite and warning-free."""
    a, b = params.alpha, params.beta
    q = np.empty(jmax)
    if jmax:
        q[0] = (a + b + 3.0) / ((a + 1.0) * (b + 1.0))
        q[1:] = _ratio(a, b, np.arange(2.0, jmax + 1.0))
    return q


def recurrence_coeffs(params: JacobiParams, j: int) -> tuple[float, float, float]:
    """(A_j, B_j, C_j) with P_j = (A_j x + B_j) P_{j-1} - C_j P_{j-2}, j >= 1."""
    a, b = params.alpha, params.beta
    if j < 1:
        raise ValueError("recurrence coefficients start at j = 1")
    if j == 1:
        return (a + b + 2.0) / 2.0, (a - b) / 2.0, 0.0
    return _terms(a, b, j)


def orthonormal_coeffs(params: JacobiParams, jmax: int):
    """Coefficient arrays (p0, a, b, c) for the orthonormal recurrence.

    p_j = (a[j] x + b[j]) p_{j-1} - c[j] p_{j-2}; index 0 of each array is
    unused.  p0 = h_0^{-1/2}, and each later degree is rescaled by
    sqrt(h_{j-1}/h_j) from ``_norm_ratios``, the ratios
    ``log_norm_factor`` sums.  Raises ValueError when log h_0 is not finite
    or p0 would leave the float range, as it can for huge alpha or beta,
    where the lgamma differences in h_0 are lost to round-off.
    """
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
    # A_j r_j, B_j r_j and C_j r_j r_{j-1} with r_j = sqrt(q_j) (c[1] = 0)
    r = np.sqrt(_norm_ratios(params, jmax))
    if jmax:
        A, B, _ = recurrence_coeffs(params, 1)
        a[1], b[1] = A * r[0], B * r[0]
        A, B, C = _terms(params.alpha, params.beta, np.arange(2.0, jmax + 1.0))
        a[2:] = A * r[1:]
        b[2:] = B * r[1:]
        c[2:] = C * r[1:] * r[:-1]
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
    _, out = _kernels.recurrence_last(*orthonormal_coeffs(params, j), xv)
    return float(out[0]) if scalar else out


def eval_derivative(params: JacobiParams, j: int, x) -> np.ndarray | float:
    """d/dx of the classical P_j, via the parameter-shift identity."""
    if j == 0:
        x = np.asarray(x, dtype=np.float64)
        return 0.0 if x.ndim == 0 else np.zeros_like(x)
    shifted = JacobiParams(params.alpha + 1.0, params.beta + 1.0)
    return 0.5 * (j + params.alpha + params.beta + 1.0) * eval_recurrence(shifted, j - 1, x)


def orthonormal_table(params: JacobiParams, jmax: int, x: np.ndarray) -> np.ndarray:
    """Matrix [p_j(x_i)]_{j<=jmax, i}, evaluated by one recurrence sweep; a
    transposed view of the point-major kernel table."""
    return _kernels.recurrence_table(*orthonormal_coeffs(params, jmax), x).T


def jacobi_matrix(params: JacobiParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the n x n symmetric tridiagonal Jacobi matrix J.

    x p_{j-1} = p_j / a_j - (b_j / a_j) p_{j-1} + p_{j-2} / a_{j-1}, so the
    diagonal is -b_j/a_j (j = 1..n) and the off-diagonal 1/a_j (j = 1..n-1).
    """
    _, a, b, _ = orthonormal_coeffs(params, n)
    return -b[1:] / a[1:], 1.0 / a[1:n]


def _slope_coeffs(params: JacobiParams, n: int) -> tuple[float, float]:
    """(u, kappa) with (1 - x^2) p_n' = (u - n x) p_n + kappa p_{n-1}: DLMF §18.9's
    (2n+a+b)(1-x^2) P_n' = n[(a-b) - (2n+a+b) x] P_n + 2(n+a)(n+b) P_{n-1}
    divided by (2n+a+b) sqrt(h_n)."""
    a, b = params.alpha, params.beta
    t = 2.0 * n + a + b
    q_n = float(_norm_ratios(params, n)[-1])
    return n * (a - b) / t, 2.0 * (n + a) * (n + b) / t * math.sqrt(q_n)


def _root_guess(params: JacobiParams, n: int) -> np.ndarray:
    """Gatteschi & Pittaluga's (1985) asymptotic angles of the n roots,
    ascending: with rho = n + (alpha+beta+1)/2 and
    phi_k = (k + alpha/2 - 1/4) pi / rho,
    theta_k = phi_k + [(1/4 - alpha^2) cot(phi_k/2) - (1/4 - beta^2) tan(phi_k/2)] / (4 rho^2).
    Exact at alpha = beta = -1/2 up to rounding."""
    al, be = params.alpha, params.beta
    rho = n + 0.5 * (al + be + 1.0)
    phi = (np.arange(1, n + 1) + 0.5 * al - 0.25) * (math.pi / rho)
    tan_half = np.tan(0.5 * phi)
    return phi + ((0.25 - al * al) / tan_half - (0.25 - be * be) * tan_half) / (4.0 * rho * rho)


def root_cosines(params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """lambda = cos(theta) for a plan's ascending root angles.  At alpha = beta
    the roots are +- pairs: the right half is the exact negation of the left,
    lambda_{n-1-l} = -lambda_l bit for bit, and a middle root is 0.  The
    kernels' parity fold tests exactly that negation and then sweeps the left
    half (and a middle root) alone; a cosine off by one bit would make every
    sweep run over all n roots."""
    lam = np.cos(theta)
    if params.alpha == params.beta:
        n = lam.shape[0]
        half = n // 2
        lam[n - half:] = -lam[:half][::-1]
        if n % 2:
            lam[half] = 0.0
    return lam


def compute_roots(params: JacobiParams, n: int) -> np.ndarray:
    """All n roots of the degree-n Jacobi polynomial as ascending angles: the
    theta of ``gauss_rule``, with its gate and its errors."""
    return gauss_rule(params, n)[0]


def _weights(ss: np.ndarray, mx: np.ndarray, where: str):
    """(w, U) from sum_{j<n} p_j^2 and max_{j<n} |p_j| at each root;
    ValueError where a sum is not finite, whose weight would read 0."""
    if not np.all(np.isfinite(ss)):
        raise ValueError(f"sum of p_j^2 over j < N is not finite at {where}")
    w = 1.0 / ss
    return w, float(np.max(np.sqrt(w) * mx))


def gauss_rule(params: JacobiParams, n: int):
    """(theta, w, U): the n Gauss-Jacobi root angles, ascending, their
    weights and the flatness constant, from up to
    ``_FULL_SWEEPS + _EXTRA_SWEEPS`` Newton sweeps and one final sweep.

    Newton's method in theta from ``_root_guess``: up to ``_FULL_SWEEPS``
    steps of ``_kernels.refine_roots``, the first on every root and each
    later one on the roots whose previous step was not exactly 0, then up
    to ``_EXTRA_SWEEPS`` more on the roots whose last step exceeded
    ``_STEP_TOL``.  The step is elementwise, so a root with
    theta_{k+1} == theta_k bit for bit would keep that theta at every
    further step: dropping it changes no bit.  Each step is one sweep of the
    orthonormal recurrence, O(n) per root swept; at Legendre N = 8192 the
    three steps sweep 4096, 2461 and 797 of the 4096 roots they run on.  At
    alpha = beta the roots are symmetric about pi/2: Newton runs on the
    roots with theta < pi/2, theta_{n-1-l} = pi - theta_l, and a middle root
    is pi/2.  The final sweep, ``_kernels.sumsq_maxabs`` over
    ``root_cosines(params, theta)`` and +-1 up to degree n, gives the
    residual gate's p_n and p_{n-1} at the roots and p_n(+-1), and the
    weights' sums over j < n; at alpha = beta it runs over the roots with
    theta <= pi/2, and a middle root is evaluated at lambda = 0.  Raises
    ValueError if the angles are not strictly increasing inside (0, pi) or
    the residuals exceed ``RESIDUAL_TOL`` times the per-root scale
    max(1, |p_n(1)|, |p_n(-1)|, |d/dtheta p_n|).  The gate bounds the
    residual of the polynomial with the float64 recurrence coefficients, not
    the distance to the exact root: the extreme root next to an exponent
    near -1 can lie about 1e-11 rad off (1.4e-11 at (alpha, beta) =
    (-0.999, 0), N = 4096, against a 50-digit root).  Weights and U are
    those of ``compute_weights``, bit for bit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coeffs = orthonormal_coeffs(params, n)
    u, kappa = _slope_coeffs(params, n)
    where = f"alpha={params.alpha}, beta={params.beta}, N={n}"
    symmetric = params.alpha == params.beta

    newton = (*coeffs, u, kappa, params.alpha, params.beta)
    theta = _root_guess(params, n)[: n // 2 if symmetric else n]
    live = np.arange(theta.shape[0])
    for k in range(_FULL_SWEEPS + _EXTRA_SWEEPS):
        if live.size == 0:
            break
        prev = theta[live]
        theta[live] = _kernels.refine_roots(*newton, prev)
        # a root whose step was exactly 0 sits at a fixed point and drops
        # out; after the full steps, so does one that moved <= _STEP_TOL
        live = live[np.abs(theta[live] - prev) > (0.0 if k + 1 < _FULL_SWEEPS else _STEP_TOL)]
    if symmetric:
        theta = np.concatenate((theta, [0.5 * math.pi] * (n % 2), math.pi - theta[::-1]))
    if np.any(np.diff(theta, prepend=0.0, append=math.pi) <= 0.0):
        raise ValueError(f"root angles are not strictly increasing inside (0, pi) at {where}")
    lam = root_cosines(params, theta)
    ss, mx, pm, resid, ends = _kernels.sumsq_maxabs(*coeffs, lam)
    # at alpha = beta the gate reads the roots with theta <= pi/2; the rest
    # are their mirrors
    g = n - n // 2 if symmetric else n
    slope = _kernels.theta_slope(u, kappa, n, lam[:g], theta[:g], pm[:g], resid[:g])
    # Scale per root: the endpoint magnitude or the local d/dtheta slope,
    # whichever is larger.  Near the edges the raw residual floor grows with
    # the recurrence length, but the backward error |p_N|/|p_N'| stays at
    # machine level.
    scale = np.maximum(max(1.0, float(np.max(np.abs(ends)))), np.abs(slope))
    worst = float(np.max(np.abs(resid[:g]) / scale))
    if not worst <= RESIDUAL_TOL:  # NaN fails too
        raise ValueError(f"root residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} at {where}")
    return (theta, *_weights(ss, mx, where))


def compute_weights(params: JacobiParams, theta: np.ndarray, n: int):
    """Gauss quadrature weights at ``root_cosines(params, theta)`` plus the
    flatness constant, for ascending angles theta.

    w_l = 1 / sum_{j<n} p_j(lambda_l)^2; U = max_{l,j} sqrt(w_l)|p_j|.  At
    alpha = beta ``root_cosines`` takes the right half's cosines from the
    left's, so theta must be symmetric about pi/2, |theta_l +
    theta_{N-1-l} - pi| <= ``_MIRROR_TOL``, as a plan's roots are; other
    angles raise ValueError.  The sweep then runs over half the roots and
    w_{n-1-l} = w_l.  Returns (weights, U).  Raises ValueError where
    sum_{j<n} p_j^2 overflows (alpha = 150 near theta = 0.01 at N = 1024),
    rather than return a weight of 0.
    """
    theta = np.asarray(theta)
    skew = np.abs(theta + theta[::-1] - np.pi)
    if params.alpha == params.beta and not np.all(skew <= _MIRROR_TOL):
        raise ValueError(f"theta at alpha = beta must be symmetric about pi/2 within "
                         f"{_MIRROR_TOL:g}")
    ss, mx, *_ = _kernels.sumsq_maxabs(*orthonormal_coeffs(params, n), root_cosines(params, theta))
    return _weights(ss, mx, f"alpha={params.alpha}, beta={params.beta}, N={n}")
