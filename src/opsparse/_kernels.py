"""Hot recurrence kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen at import time: numba when it is importable, numpy when
it is not or when ``OPSPARSE_PURE_NUMPY=1`` is set.  Every recurrence kernel
exists in both variants with identical semantics; ``tests/test_kernels.py``
compares them.  ``refine_roots`` is built on ``recurrence_last`` and so
follows its backend.  All kernels work on the *orthonormal* three-term
recurrence

    p_0(x) = p0,   p_1(x) = (a[1] x + b[1]) p0,
    p_j(x) = (a[j] x + b[j]) p_{j-1}(x) - c[j] p_{j-2}(x)

with coefficient arrays indexed so that entry 0 is unused.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "recurrence_table",
    "recurrence_last",
    "sumsq_maxabs",
    "apply_forward",
    "apply_adjoint",
    "refine_roots",
]

HAS_NUMBA = False
if os.environ.get("OPSPARSE_PURE_NUMPY", "").strip() not in ("1", "true", "yes"):
    try:
        from numba import njit, prange

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numpy implementations


def table_numpy(p0, a, b, c, x):
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


def last_numpy(p0, a, b, c, x):
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


def sumsq_maxabs_numpy(p0, a, b, c, x):
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


def forward_numpy(p0, a, b, c, lam, sqw, xvec):
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


def adjoint_numpy(p0, a, b, c, lam, sqw, yvec):
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


# ---------------------------------------------------------------------------
# numba implementations

if HAS_NUMBA:

    @njit(cache=True, parallel=True)
    def _table_nb(p0, a, b, c, x):
        jmax = a.shape[0] - 1
        out = np.empty((jmax + 1, x.shape[0]))
        for i in prange(x.shape[0]):
            xm = x[i]
            pm = p0
            out[0, i] = pm
            if jmax >= 1:
                pc = (a[1] * xm + b[1]) * p0
                out[1, i] = pc
                for j in range(2, jmax + 1):
                    pn = (a[j] * xm + b[j]) * pc - c[j] * pm
                    pm = pc
                    pc = pn
                    out[j, i] = pc
        return out

    @njit(cache=True, parallel=True)
    def _last_nb(p0, a, b, c, x):
        jmax = a.shape[0] - 1
        out = np.empty(x.shape[0])
        for i in prange(x.shape[0]):
            xm = x[i]
            pm = p0
            pc = p0
            if jmax >= 1:
                pc = (a[1] * xm + b[1]) * p0
                for j in range(2, jmax + 1):
                    pn = (a[j] * xm + b[j]) * pc - c[j] * pm
                    pm = pc
                    pc = pn
            out[i] = pc
        return out

    @njit(cache=True, parallel=True)
    def _sumsq_maxabs_nb(p0, a, b, c, x):
        jmax = a.shape[0] - 1
        ss = np.empty(x.shape[0])
        mx = np.empty(x.shape[0])
        for i in prange(x.shape[0]):
            xm = x[i]
            pm = p0
            s = pm * pm
            m = abs(pm)
            if jmax >= 1:
                pc = (a[1] * xm + b[1]) * p0
                s += pc * pc
                if abs(pc) > m:
                    m = abs(pc)
                for j in range(2, jmax + 1):
                    pn = (a[j] * xm + b[j]) * pc - c[j] * pm
                    pm = pc
                    pc = pn
                    s += pc * pc
                    if abs(pc) > m:
                        m = abs(pc)
            ss[i] = s
            mx[i] = m
        return ss, mx

    @njit(cache=True, parallel=True)
    def _forward_nb(p0, a, b, c, lam, sqw, xvec):
        n = lam.shape[0]
        jmax = a.shape[0] - 1
        out = np.empty(n)
        for i in prange(n):
            xm = lam[i]
            pm = p0
            acc = xvec[0] * pm
            if jmax >= 1:
                pc = (a[1] * xm + b[1]) * p0
                acc += xvec[1] * pc
                for j in range(2, jmax + 1):
                    pn = (a[j] * xm + b[j]) * pc - c[j] * pm
                    pm = pc
                    pc = pn
                    acc += xvec[j] * pc
            out[i] = sqw[i] * acc
        return out

    @njit(cache=True)
    def _adjoint_nb(p0, a, b, c, lam, sqw, yvec):
        n = lam.shape[0]
        jmax = a.shape[0] - 1
        z = sqw * yvec
        out = np.zeros(jmax + 1)
        pm = np.empty(n)
        pc = np.empty(n)
        s0 = 0.0
        for i in range(n):
            pm[i] = p0
            s0 += z[i] * p0
        out[0] = s0
        if jmax >= 1:
            s1 = 0.0
            for i in range(n):
                pc[i] = (a[1] * lam[i] + b[1]) * p0
                s1 += z[i] * pc[i]
            out[1] = s1
            for j in range(2, jmax + 1):
                s = 0.0
                for i in range(n):
                    pn = (a[j] * lam[i] + b[j]) * pc[i] - c[j] * pm[i]
                    pm[i] = pc[i]
                    pc[i] = pn
                    s += z[i] * pn
                out[j] = s
        return out


def _as_f64(x):
    return np.ascontiguousarray(x, dtype=np.float64)


def recurrence_table(p0, a, b, c, x):
    if HAS_NUMBA:
        return _table_nb(float(p0), _as_f64(a), _as_f64(b), _as_f64(c), _as_f64(x))
    return table_numpy(p0, a, b, c, x)


def recurrence_last(p0, a, b, c, x):
    if HAS_NUMBA:
        return _last_nb(float(p0), _as_f64(a), _as_f64(b), _as_f64(c), _as_f64(x))
    return last_numpy(p0, a, b, c, x)


def sumsq_maxabs(p0, a, b, c, x):
    if HAS_NUMBA:
        return _sumsq_maxabs_nb(float(p0), _as_f64(a), _as_f64(b), _as_f64(c), _as_f64(x))
    return sumsq_maxabs_numpy(p0, a, b, c, x)


def apply_forward(p0, a, b, c, lam, sqw, xvec):
    if HAS_NUMBA:
        return _forward_nb(
            float(p0), _as_f64(a), _as_f64(b), _as_f64(c),
            _as_f64(lam), _as_f64(sqw), _as_f64(xvec),
        )
    return forward_numpy(p0, a, b, c, lam, sqw, xvec)


def apply_adjoint(p0, a, b, c, lam, sqw, yvec):
    if HAS_NUMBA:
        return _adjoint_nb(
            float(p0), _as_f64(a), _as_f64(b), _as_f64(c),
            _as_f64(lam), _as_f64(sqw), _as_f64(yvec),
        )
    return adjoint_numpy(p0, a, b, c, lam, sqw, yvec)


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
