"""Recurrence kernels for the orthonormal Jacobi polynomials, in numpy.

Each kernel sweeps the degree with whole-array steps over the evaluation
points.  ``refine_roots`` is built on ``recurrence_last``.  All kernels work
on the *orthonormal* three-term recurrence

    p_0(x) = p0,   p_1(x) = (a[1] x + b[1]) p0,
    p_j(x) = (a[j] x + b[j]) p_{j-1}(x) - c[j] p_{j-2}(x)

with coefficient arrays indexed so that entry 0 is unused.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "recurrence_table",
    "recurrence_last",
    "sumsq_maxabs",
    "apply_forward",
    "apply_adjoint",
    "refine_roots",
]

BACKEND = "numpy"


def recurrence_table(p0, a, b, c, x):
    """Table of p_j(x) for j = 0..jmax, shape (jmax+1, len(x))."""
    jmax = a.shape[0] - 1
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((jmax + 1, x.shape[0]))
    out[0] = p0
    if jmax >= 1:
        out[1] = (a[1] * x + b[1]) * p0
    for j in range(2, jmax + 1):
        out[j] = (a[j] * x + b[j]) * out[j - 1] - c[j] * out[j - 2]
    return out


def recurrence_last(p0, a, b, c, x):
    """p_jmax(x) only, without materializing the table."""
    jmax = a.shape[0] - 1
    x = np.asarray(x, dtype=np.float64)
    pm = np.full(x.shape[0], p0)
    if jmax == 0:
        return pm
    pc = (a[1] * x + b[1]) * p0
    for j in range(2, jmax + 1):
        pm, pc = pc, (a[j] * x + b[j]) * pc - c[j] * pm
    return pc


def sumsq_maxabs(p0, a, b, c, x):
    """(sum_j p_j(x)^2, max_j |p_j(x)|) accumulated over j = 0..jmax."""
    jmax = a.shape[0] - 1
    x = np.asarray(x, dtype=np.float64)
    pm = np.full(x.shape[0], p0)
    ss = pm * pm
    mx = np.abs(pm)
    if jmax >= 1:
        pc = (a[1] * x + b[1]) * p0
        ss += pc * pc
        np.maximum(mx, np.abs(pc), out=mx)
        for j in range(2, jmax + 1):
            pm, pc = pc, (a[j] * x + b[j]) * pc - c[j] * pm
            ss += pc * pc
            np.maximum(mx, np.abs(pc), out=mx)
    return ss, mx


def apply_forward(p0, a, b, c, lam, sqw, xvec):
    """y[l] = sqw[l] * sum_j xvec[j] p_j(lam[l]) without building the table."""
    n = lam.shape[0]
    jmax = a.shape[0] - 1
    pm = np.full(n, p0)
    acc = xvec[0] * pm
    if jmax >= 1:
        pc = (a[1] * lam + b[1]) * p0
        acc += xvec[1] * pc
        for j in range(2, jmax + 1):
            pm, pc = pc, (a[j] * lam + b[j]) * pc - c[j] * pm
            acc += xvec[j] * pc
    return sqw * acc


def apply_adjoint(p0, a, b, c, lam, sqw, yvec):
    """out[j] = sum_l sqw[l] p_j(lam[l]) yvec[l]."""
    jmax = a.shape[0] - 1
    z = sqw * yvec
    out = np.empty(jmax + 1)
    pm = np.full(lam.shape[0], p0)
    out[0] = z @ pm
    if jmax >= 1:
        pc = (a[1] * lam + b[1]) * p0
        out[1] = z @ pc
        for j in range(2, jmax + 1):
            pm, pc = pc, (a[j] * lam + b[j]) * pc - c[j] * pm
            out[j] = z @ pc
    return out


def refine_roots(p0, a, b, c, q0, aq, bq, cq, dpref, theta):
    """One Newton step on p_jmax(cos theta) = 0 in theta.

    The slope is -sin(theta) * dpref * q_{jmax-1}(cos theta), with q the
    recurrence (q0, aq, bq, cq) of the (alpha+1, beta+1) family.  Angles
    where the slope vanishes are returned unchanged.
    """
    theta = np.asarray(theta, dtype=np.float64)
    x = np.cos(theta)
    f = recurrence_last(p0, a, b, c, x)
    fp = -np.sin(theta) * dpref * recurrence_last(q0, aq, bq, cq, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(fp != 0.0, f / fp, 0.0)
    return theta - step
