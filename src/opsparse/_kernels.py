"""Recurrence kernels for the orthonormal Jacobi polynomials, in numpy.

``_sweep`` is the one place the orthonormal three-term recurrence

    p_0(x) = p0,   p_1(x) = (a[1] x + b[1]) p0,
    p_j(x) = (a[j] x + b[j]) p_{j-1}(x) - c[j] p_{j-2}(x)

is written, with coefficient arrays indexed so that entry 0 is unused.  It
steps the degree with whole-array operations over the evaluation points, in
place: three preallocated buffers rotate, and a step adds b[j] only when it
is nonzero (every b[j] is exactly 0 when alpha = beta).  Each element goes
through the same IEEE operations in the same order as the expression above;
a skipped addition of an exact zero could change only the sign of a zero.
A yielded p_j is overwritten while p_{j+2} is computed, so a consumer may
hold the current and the previous value, no more; every kernel below uses
them in time, and ``recurrence_last``, which keeps the last two, relies on
that.  ``value_and_slope`` and ``refine_roots``, the Newton step that finds
the plan's roots, are built on it.
``recurrence_table`` is point-major, the layout of the transform matrix F.

``apply_forward`` maps a (B, jmax+1) stack of coefficient rows to
(B, len(lam)) in one sweep, adding v p_j into row r only where row r's
coefficient v at degree j is nonzero.  Each row gets the sum it would get
alone, so evaluating at a subset of the points, or stacking rows, changes no
bit of any output.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "recurrence_table",
    "recurrence_last",
    "value_and_slope",
    "sumsq_maxabs",
    "apply_forward",
    "apply_adjoint",
    "refine_roots",
]

BACKEND = "numpy"


def _sweep(p0, a, b, c, x):
    """Yield p_0(x), p_1(x), ..., p_jmax(x) with jmax = len(a) - 1.

    The yielded arrays are reused buffers: p_j stays valid until p_{j+2} is
    computed.
    """
    jmax = a.shape[0] - 1
    x = np.asarray(x, dtype=np.float64)
    pm = np.full(x.shape[0], p0)
    yield pm
    if jmax == 0:
        return
    pc = (a[1] * x + b[1]) * p0
    yield pc
    t = np.empty_like(pc)
    for j in range(2, jmax + 1):
        np.multiply(x, a[j], out=t)
        if b[j] != 0.0:
            t += b[j]
        t *= pc
        pm *= c[j]
        t -= pm
        pm, pc, t = pc, t, pm
        yield pc


def recurrence_table(p0, a, b, c, x):
    """Table of p_j(x_i), shape (len(x), jmax+1): row i is one point, column
    j one degree, written as the sweep reaches it."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], a.shape[0]))
    for j, p in enumerate(_sweep(p0, a, b, c, x)):
        out[:, j] = p
    return out


def recurrence_last(p0, a, b, c, x):
    """(p_{jmax-1}(x), p_jmax(x)) without materializing the table; p_{-1} = 0."""
    prev = last = 0.0
    for p in _sweep(p0, a, b, c, x):
        prev, last = last, p
    return prev, last


def value_and_slope(p0, a, b, c, u, kappa, theta):
    """(p_n, d/dtheta p_n) at cos theta, n = jmax, from one sweep, by the
    identity (1 - x^2) p_n'(x) = (u - n x) p_n(x) + kappa p_{n-1}(x)."""
    x = np.cos(theta)
    pm, pn = recurrence_last(p0, a, b, c, x)
    return pn, -((u - (a.shape[0] - 1) * x) * pn + kappa * pm) / np.sin(theta)


def sumsq_maxabs(p0, a, b, c, x):
    """(sum_j p_j(x)^2, max_j |p_j(x)|) accumulated over j = 0..jmax."""
    sweep = _sweep(p0, a, b, c, x)
    p = next(sweep)
    ss = p * p
    mx = np.abs(p)
    for p in sweep:
        ss += p * p
        np.maximum(mx, np.abs(p), out=mx)
    return ss, mx


def apply_forward(p0, a, b, c, lam, sqw, x):
    """y[r, l] = sqw[l] * sum_j x[r, j] p_j(lam[l]) for a (B, jmax+1) stack x,
    from one sweep and without building the table."""
    degs, rows = np.nonzero(x.T)  # ordered by degree
    vals = x[rows, degs]
    acc = np.zeros((x.shape[0], len(lam)))
    k = 0
    for j, p in enumerate(_sweep(p0, a, b, c, lam)):
        while k < len(degs) and degs[k] == j:
            acc[rows[k]] += vals[k] * p
            k += 1
    return sqw * acc


def apply_adjoint(p0, a, b, c, lam, sqw, yvec):
    """out[j] = sum_l sqw[l] p_j(lam[l]) yvec[l]."""
    z = sqw * yvec
    return np.array([z @ p for p in _sweep(p0, a, b, c, lam)])


def refine_roots(p0, a, b, c, u, kappa, alpha, beta, theta):
    """One Newton step in theta on
    f = sin(theta/2)^(alpha+1/2) cos(theta/2)^(beta+1/2) p_jmax(cos theta),
    which behaves like a cosine in theta, so the step reaches every root from
    an asymptotic guess.  With p_jmax and its theta slope from
    ``value_and_slope`` and g = d/dtheta log of the factor, the step is
    p / (p' + p g).  It starts from arccos(cos theta), the angle whose cosine
    the sweep evaluates; angles where p' + p g vanishes are returned there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.arccos(np.cos(theta))
        f, fp = value_and_slope(p0, a, b, c, u, kappa, theta)
        tan_half = np.tan(0.5 * theta)
        den = fp + 0.5 * f * ((alpha + 0.5) / tan_half - (beta + 0.5) * tan_half)
        return theta - np.where(den != 0.0, f / den, 0.0)
